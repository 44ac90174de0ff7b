"""Enumeration of the graphs under study, canonical labels, local fiber
posets, and apartment lattices.

The graphs of interest are connected multigraphs (loops and parallel
edges allowed) with minimum valence three and a prescribed first Betti
number.  Such a graph with first Betti number r has at most 2(r-1)
vertices, so for each rank there are finitely many isomorphism classes.
They are the rose with r petals and the graphs split from it: the
census grows one vertex at a time by splitting a vertex of valence four
or more in two, and keeps one graph per canonical key.

Canonical keys make deduplication and reporting deterministic: every
graph maps to a string of the form ``"<nv>;u-v,u-v,..."`` that is
invariant under relabeling.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, combinations, groupby, permutations, product
from operator import itemgetter

from .graph_posets import (
    CheckReport,
    _EdgeMasks,
    _betti_profile,
    _certificate_failure,
    _edge_masks,
    _forests,
    build_poset,
    graph_label,
    subset_lattice_homology,
)
from .homology import HomologyResult, core_complex, reduced_homology
from .multigraph import GraphError, Multigraph, rose
from .poset import (
    FinitePoset,
    PosetError,
    PosetMap,
    _inclusion_rows,
    closure_retraction,
    is_order_isomorphic_via,
    subset_lattice,
)

# ---------------------------------------------------------------------------
# canonical labels
# ---------------------------------------------------------------------------


def _invariant_classes(g: Multigraph):
    """Partition vertices by an iterated neighborhood invariant.

    Starts from (valence, loop count) and refines each vertex by the
    multiset of (edge multiplicity, neighbor class) pairs until stable.
    Vertices in different classes can never be exchanged by an
    isomorphism, which cuts the permutation search space.
    """
    verts = list(g.vertices)
    loops = dict.fromkeys(verts, 0)
    mult: dict = {v: {} for v in verts}
    for _, u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1

    color = {v: (g.valence(v), loops[v]) for v in verts}
    # a vertex's new colour holds its old one, so each pass splits classes
    # and the partition is stable once their number stops growing
    count = len(set(color.values()))
    while True:
        fresh = {
            v: (color[v], tuple(sorted((m, color[w]) for w, m in mult[v].items())))
            for v in verts
        }
        palette = sorted(set(fresh.values()))
        color = {v: palette.index(fresh[v]) for v in verts}
        if len(palette) == count:
            return color
        count = len(palette)


def canonical_key(g: Multigraph) -> str:
    """A string identifying `g` up to isomorphism.

    Vertices are first split into invariant classes; the key is the
    minimum edge-list encoding over all relabelings that send lower
    classes to lower numbers.  Exact, not a hash: two graphs get the
    same key if and only if they are isomorphic.
    """
    verts = sorted(g.vertices)
    nv = len(verts)
    if nv == 0:
        return "0;"
    color = _invariant_classes(g)
    order = sorted(verts, key=lambda v: (color[v], v))
    # permutations act within groups of contiguous same-class vertices
    groups = [list(group) for _, group in groupby(order, key=color.get)]
    pos = {v: i for i, v in enumerate(verts)}
    raw_pairs = [(pos[u], pos[v]) for _, u, v in g.edges]
    # An encoding is "<nv>;" then the "a-b" tokens (a <= b) joined by ","
    # in numeric pair order.  code[a][b] sorts as the pair (min, max) does
    # and token[code] is its text.  Lists of tokens compare as their joined
    # strings do, because "," sorts below every digit, so the search
    # compares lists and joins only the winner.
    code = [[min(a, b) * nv + max(a, b) for b in range(nv)] for a in range(nv)]
    token = {code[a][b]: f"{a}-{b}" for a in range(nv) for b in range(a, nv)}

    best = None
    label = [0] * nv
    for perm in product(*map(permutations, groups)):
        for new, old in enumerate(chain.from_iterable(perm)):
            label[pos[old]] = new
        tokens = [token[c] for c in sorted([code[label[u]][label[v]] for u, v in raw_pairs])]
        if best is None or tokens < best:
            best = tokens
    return f"{nv};" + ",".join(best)


def parse_key(key: str) -> Multigraph:
    """Rebuild a graph from a canonical key string."""
    try:
        head, _, body = key.partition(";")
        nv = int(head)
        edges = []
        if body:
            for i, chunk in enumerate(body.split(",")):
                u, _, v = chunk.partition("-")
                edges.append((i, int(u), int(v)))
    except ValueError as exc:
        raise GraphError(f"malformed graph key {key!r}") from exc
    return Multigraph(range(nv), edges)


# ---------------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------------


def _splits(g: Multigraph):
    """Every graph made from `g` by splitting one vertex in two.

    A split takes a vertex v of valence d >= 4, moves a set of 2 .. d-2 of
    its half-edges to a new vertex w and joins v and w by a new edge, so
    both keep valence >= 3 and the rank is unchanged.  A loop at v has two
    half-edges there.  v's first half-edge never moves, so a set and its
    complement, which give isomorphic graphs, are not both tried.
    """
    w = max(g.vertices) + 1
    link = max(g.edge_ids) + 1
    for v in g.vertices:
        halves = [(e, end) for e, a, b in g.edges for end, x in ((0, a), (1, b)) if x == v]
        for size in range(2, len(halves) - 1):
            for moved in combinations(halves[1:], size):
                moved = set(moved)
                edges = [
                    (e, w if (e, 0) in moved else a, w if (e, 1) in moved else b)
                    for e, a, b in g.edges
                ]
                edges.append((link, v, w))
                yield Multigraph((*g.vertices, w), edges)


@lru_cache(maxsize=None)
def enumerate_graphs(rank: int):
    """All connected multigraphs with first Betti number `rank` and
    minimum valence three, up to isomorphism, as canonical keys.

    A graph with these properties satisfies 2|E| >= 3|V| and
    |E| = |V| + rank - 1, hence |V| <= 2(rank - 1).  The census grows
    in layers by vertex count from the rose, the only such graph on one
    vertex, by :func:`_splits`, and each layer is deduplicated by
    canonical key.  No graph is missed: a graph on nv >= 2 vertices is
    connected, so it has a non-loop edge, and contracting that edge
    keeps the rank and merges its two ends, of valences a, b >= 3, into
    one vertex of valence a + b - 2 >= 4.  The contracted graph lies in
    the layer below, and splitting the merged vertex by the half-edges
    that came from one end gives the graph back.

    >>> enumerate_graphs(2)
    ('1;0-0,0-0', '2;0-0,0-1,1-1', '2;0-1,0-1,0-1')
    """
    if rank < 2:
        raise ValueError("enumeration is defined for rank >= 2")
    layer = {canonical_key(rose(rank))}
    found = set(layer)
    for _ in range(2 * (rank - 1) - 1):
        layer = {canonical_key(h) for key in layer for h in _splits(parse_key(key))}
        found |= layer
    return tuple(sorted(found))


def graphs_with_separating_edge(rank: int):
    """Canonical keys of census graphs containing a separating edge."""
    keys = []
    for key in enumerate_graphs(rank):
        g = parse_key(key)
        if any(g.is_separating_edge(e) for e in g.edge_ids):
            keys.append(key)
    return tuple(keys)


# ---------------------------------------------------------------------------
# local fiber posets
# ---------------------------------------------------------------------------


def _quotient(g: Multigraph, masks: _EdgeMasks, forest: frozenset):
    """(table, reach) of g with the nonempty `forest` collapsed, kept in
    `masks.quotients` (g's memoised table) so that both fiber variants
    and the retraction share it.

    `table` classifies g/forest on g's bits.  `reach` sends each edge of
    g - forest to the forest edges in the classes of its two ends, which
    a subgraph through that edge touches once lifted back into g.
    """
    entry = masks.quotients.get(forest)
    if entry is None:
        vm = g.forest_vertex_map(forest)
        classes = {}
        for e in forest:
            root = vm[g.endpoints(e)[0]]
            classes[root] = classes.get(root, 0) | masks.bit[e]
        reach = {
            e: classes.get(vm[u], 0) | classes.get(vm[v], 0)
            for e, u, v in g.edges
            if e not in forest
        }
        table = _EdgeMasks(g.collapse_forest(forest, vm), masks.bit)
        entry = masks.quotients[forest] = table, reach
    return entry


def fiber_poset(g: Multigraph, connected_only: bool = False) -> FinitePoset:
    """The local fiber poset of `g`.

    Elements are pairs (F, H) where F is any forest of `g` (possibly
    empty) and H is a core subgraph of the graph obtained by collapsing
    F — connected when `connected_only` is set.  Edge ids survive the
    collapse, so both coordinates are edge-id sets, sorted by (sorted F,
    sorted H), and

        (F1, H1) <= (F2, H2)  iff  F1 >= F2 and F1 | H1 >= F2 | H2.

    The slice at F = empty is the (connected) core poset with its order
    reversed.  Each quotient is classified once per graph, on the bits
    of `g`'s edge masks (at most 63 edges), and both variants read that
    table.  The order is the reverse inclusion of one concatenated mask
    per element, F | (F | H) << m for m edges: F and F | H each take m
    bits of their own, so one mask lies within another exactly when
    both halves do, which is the definition above.  Reverse inclusion
    of masks is inclusion of their complements in those 2m bits.
    """
    kind = "cc" if connected_only else "c"
    masks = _edge_masks(g)
    shift = len(masks.ids)
    rows = []
    for forest in _forests(g):
        table = _quotient(g, masks, forest)[0] if forest else masks
        f = masks.mask(forest)
        key = tuple(sorted(forest))
        rows += [
            ((key, ids), (forest, frozenset(ids)), f | (f | h) << shift)
            for ids, h in table.admitted(kind)
        ]
    rows.sort(key=itemgetter(0))
    full = (1 << 2 * shift) - 1
    return FinitePoset([x for _, x, _ in rows], _inclusion_rows([full ^ fh for _, _, fh in rows]))


def fiber_retraction(g: Multigraph, connected_only: bool = False):
    """The closure retraction of the fiber poset onto its empty slice.

    A pair (F, H) maps to (empty, core of H plus the F-components whose
    collapse image lies in H): in masks, the core of H's mask together
    with the `reach` of each edge of H (see :func:`_quotient`), which is
    looked up among the empty slice by mask.  The empty slice is fixed.
    Returns the certificate produced by
    :func:`posetlab.poset.closure_retraction`; the certified direction is
    increasing and the image is the empty slice.
    """
    p = fiber_poset(g, connected_only)
    masks = _edge_masks(g)
    empty = frozenset()
    slice_by_mask = {masks.mask(h): (f, h) for f, h in p.elements if not f}
    images = {}
    for x in p.elements:
        forest, h = x
        if not forest:
            images[x] = x
            continue
        reach = _quotient(g, masks, forest)[1]
        m = masks.mask(h)
        for e in h:
            m |= reach[e]
        c = masks.core(m)
        # a core outside the slice goes to the map as a pair, which it refuses
        images[x] = slice_by_mask.get(c) or (empty, masks.edges(c))
    return closure_retraction(p, PosetMap.from_function(p, p, images.__getitem__))


def verify_fiber(
    g: Multigraph, connected_only: bool = False, label: str | None = None
) -> CheckReport:
    """Check the structure of the fiber poset of `g`: its empty slice is
    the opposite of the (connected) core poset, it retracts onto that
    slice by an increasing closure map, and its homology agrees with the
    core poset's.  The check is ``fiber`` or ``fiber-connected``.
    """
    label = label or graph_label(g)
    kind = "cc" if connected_only else "c"
    check = "fiber-connected" if connected_only else "fiber"
    try:
        cert = fiber_retraction(g, connected_only)
    except PosetError as exc:
        return _certificate_failure(label, check, {"connected_only": connected_only}, exc)
    p = cert.poset
    core = build_poset(g, kind)

    empty = frozenset()
    slice_elements = [x for x in p.elements if x[0] == empty]
    slice_poset = p.induced(slice_elements)
    iso = is_order_isomorphic_via(
        slice_poset, core.opposite(), {(empty, h): h for _, h in slice_elements}
    )
    slice_ok = iso and set(cert.image.elements) == set(slice_elements)

    h_fiber = reduced_homology(core_complex(p))
    homology_ok = h_fiber == reduced_homology(core_complex(core))

    data = {
        "connected_only": connected_only,
        "elements": p.n,
        "slice_matches_core_opposite": slice_ok,
        "retraction_direction": cert.direction,
        "homology_matches_core": homology_ok,
        "homology": h_fiber,
    }
    ok = slice_ok and cert.direction in ("increasing", "both") and homology_ok
    return CheckReport(
        label,
        check,
        "pass" if ok else "fail",
        _betti_profile(h_fiber),
        data,
    )


# ---------------------------------------------------------------------------
# apartments
# ---------------------------------------------------------------------------


def apartment(rank: int) -> FinitePoset:
    """The lattice of proper nonempty subsets of a `rank`-element set.

    This is the shape shared by every full subgraph poset on `rank`
    edges; its order complex triangulates a sphere of dimension rank-2.
    """
    if rank < 1:
        raise ValueError("apartment rank must be >= 1")
    return subset_lattice(range(rank))


def verify_apartment(rank: int):
    """Confirm the apartment of the given rank is a sphere of
    dimension rank-2.  Returns (homology, expected, ok)."""
    h = subset_lattice_homology(rank)
    expected = HomologyResult.sphere(rank - 2)
    return h, expected, h == expected
