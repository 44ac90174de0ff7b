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
from itertools import accumulate, combinations
from operator import itemgetter

from .graph_posets import (
    CheckReport,
    _EdgeMasks,
    _betti_profile,
    _certificate_failure,
    _edge_masks,
    _forests,
    _subset_sphere_report,
    build_poset,
    graph_label,
)
from .homology import HomologyResult, poset_homology
from .multigraph import GraphError, Multigraph, rose
from .poset import (
    FinitePoset,
    PosetError,
    PosetMap,
    _bits,
    _down_rows,
    _inclusion_rows,
    closure_retraction,
    subset_lattice,
)

# ---------------------------------------------------------------------------
# canonical labels
# ---------------------------------------------------------------------------


def _neighbour_counts(g: Multigraph):
    """(loops, mult): each vertex's loop count, and for each vertex the
    number of edges to each of its other neighbours."""
    loops = dict.fromkeys(g.vertices, 0)
    mult: dict = {v: {} for v in g.vertices}
    for _, u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    return loops, mult


def _invariant_classes(g: Multigraph, counts=None):
    """Partition vertices by an iterated neighborhood invariant.

    Starts from (valence, loop count) and refines each vertex by the
    multiset of (edge multiplicity, neighbor class) pairs until stable.
    Vertices in different classes can never be exchanged by an
    isomorphism, so :func:`canonical_key` gives each class its own range
    of labels, lower classes first, and its search only chooses among
    the vertices of one class for each label.  Colours are numbered
    0, 1, ... in the sorted order of the refined invariants.  `counts`
    is ``_neighbour_counts(g)`` when the caller already has it.
    """
    verts = g.vertices
    loops, mult = counts or _neighbour_counts(g)
    color = {v: (g.valence(v), loops[v]) for v in verts}
    # a vertex's new colour holds its old one, so each pass splits classes
    # and the partition is stable once their number stops growing
    count = len(set(color.values()))
    while True:
        fresh = {
            v: (color[v], tuple(sorted((m, color[w]) for w, m in mult[v].items())))
            for v in verts
        }
        palette = {c: k for k, c in enumerate(sorted(set(fresh.values())))}
        color = {v: palette[fresh[v]] for v in verts}
        if len(palette) == count:
            return color
        count = len(palette)


@lru_cache(maxsize=None)
def _token_order(nv: int):
    """The tokens of keys on `nv` vertices in text order, with the floors
    that :func:`canonical_key` bounds its search by.

    `text` lists the tokens "a-b" (a <= b < nv) in text order, and
    place[a][b] is the place in `text` of the token of the edge {a, b}.
    For a <= i < nv, row_floor[a][i] is the least place of a token
    "a-b" with b >= i, and rest_floor[i] that of a token "a-b" with
    i <= a <= b.
    """
    text = sorted(f"{a}-{b}" for a in range(nv) for b in range(a, nv))
    index = {t: k for k, t in enumerate(text)}
    place = [[index[f"{min(a, b)}-{max(a, b)}"] for b in range(nv)] for a in range(nv)]
    # suffix minima, from the last label down
    row_floor = [list(accumulate(reversed(row), min))[::-1] for row in place]
    rest_floor = list(accumulate((row_floor[a][a] for a in reversed(range(nv))), min))[::-1]
    return text, place, row_floor, rest_floor


def canonical_key(g: Multigraph) -> str:
    """A string identifying `g` up to isomorphism.

    Vertices are first split into invariant classes; the key is the
    minimum edge-list encoding over all relabelings that send lower
    classes to lower numbers.  Exact, not a hash: two graphs get the
    same key if and only if they are isomorphic.

    An encoding is "<nv>;" then the tokens "a-b" (a <= b) of the edges,
    in numeric pair order, joined by ","; encodings compare as text, so
    on 11 or more vertices "10-..." sorts below "9-...".  Lists of tokens
    compare as their joined strings do, because "," sorts below every
    digit, and the search compares each token by its place in text order.

    The minimum is found depth first, as in the search tree of McKay and
    Piperno's "Practical graph isomorphism, II": labels 0, 1, 2, ... go
    in turn to each unlabelled vertex of the label's class.  Row a of an
    encoding is its tokens "a-b".  Once labels 0 .. i are given, the
    encoding starts with a fixed part: the rows of labelled vertices
    whose neighbours all have labels, up to the first row r that still
    has an unlabelled neighbour, then the tokens "r-b" with b <= i.  Its
    next token is "r-b" with b > i, or, with no such row, has both ends
    unlabelled.  A branch is cut when its fixed part, or that part and
    the least such next token, is already above the best encoding found,
    because every leaf below it is above it too.  Ties are explored, so
    the search returns the minimum that trying every relabeling finds.
    """
    verts = g.vertices
    nv = len(verts)
    if nv == 0:
        return "0;"
    counts = _neighbour_counts(g)
    color = _invariant_classes(g, counts)
    loops, mult = counts
    members = {}
    for v in verts:
        members.setdefault(color[v], []).append(v)
    # the vertices that may take each label: lower classes take lower labels
    choices = [members[c] for c in sorted(color.values())]
    text, place, row_floor, rest_floor = _token_order(nv)
    m = len(g.edges)

    label = dict.fromkeys(verts, -1)
    rows = [[] for _ in verts]  # rows[a]: places of the tokens known in row a
    unlabelled = [0] * nv  # unlabelled[a]: edges from label a to unlabelled vertices
    fixed = []
    best = None

    def descend(i, r, used):
        # labels 0 .. i-1 are given; `fixed` holds rows 0 .. r-1 and, if
        # r < i, the first `used` tokens of the open row r
        nonlocal best
        if i == nv:
            if best is None or fixed < best:
                best = fixed.copy()
            return
        for v in choices[i]:
            if label[v] >= 0:
                continue
            label[v] = i
            rows[i] = [place[i][i]] * loops[v]
            grown = []
            for w, k in mult[v].items():
                a = label[w]
                if a < 0:
                    unlabelled[i] += k
                else:
                    rows[a] += [place[a][i]] * k
                    unlabelled[a] -= k
                    grown.append((a, k))
            mark = len(fixed)
            fixed.extend(rows[r][used if r < i else 0 :])
            s = r
            while s <= i and not unlabelled[s]:
                s += 1
                if s <= i:
                    fixed.extend(rows[s])
            # go on unless every leaf below is above `best`: its fixed part
            # is, or that part ties and the least token that can follow it
            # is above the next token of `best`
            n = len(fixed)
            head = best[:n] if best is not None else fixed
            if fixed < head or fixed == head and (
                best is None
                or n == m
                or (row_floor[s][i + 1] if s <= i else rest_floor[i + 1]) <= best[n]
            ):
                descend(i + 1, s, len(rows[s]) if s <= i else 0)
            del fixed[mark:]
            for a, k in grown:
                del rows[a][-k:]
                unlabelled[a] += k
            unlabelled[i] = 0
            label[v] = -1

    descend(0, 0, 0)
    return f"{nv};" + ",".join(text[k] for k in best)


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
    if nv < 0:
        raise GraphError(f"malformed graph key {key!r}: negative vertex count")
    return Multigraph(range(nv), edges)


# ---------------------------------------------------------------------------
# the census
# ---------------------------------------------------------------------------


def _splits(g: Multigraph):
    """Every graph made from `g` by splitting one vertex in two, as its
    endpoint list: the sorted (u, v) pairs (u <= v) of its edges.

    A split takes a vertex v of valence d >= 4, moves a set of 2 .. d-2 of
    its half-edges to a new vertex w and joins v and w by a new edge, so
    both keep valence >= 3 and the rank is unchanged.  A loop at v has two
    half-edges there.  v's first half-edge never moves, so a set and its
    complement, which give isomorphic graphs, are not both tried.  The
    new vertex is one past `g`'s largest, and the list forgets edge ids,
    which no key depends on, so splits that differ only in which of
    several parallel edges or loops moved give equal lists.
    """
    w = max(g.vertices) + 1
    for v in g.vertices:
        halves = [(e, end) for e, a, b in g.edges for end, x in ((0, a), (1, b)) if x == v]
        for size in range(2, len(halves) - 1):
            for moved in combinations(halves[1:], size):
                moved = set(moved)
                pairs = [(v, w)]
                for e, a, b in g.edges:
                    a, b = w if (e, 0) in moved else a, w if (e, 1) in moved else b
                    pairs.append((a, b) if a <= b else (b, a))
                yield tuple(sorted(pairs))


@lru_cache(maxsize=None)
def enumerate_graphs(rank: int):
    """All connected multigraphs with first Betti number `rank` and
    minimum valence three, up to isomorphism, as canonical keys.

    A graph with these properties satisfies 2|E| >= 3|V| and
    |E| = |V| + rank - 1, hence |V| <= 2(rank - 1).  The census grows
    in layers by vertex count from the rose, the only such graph on one
    vertex, by :func:`_splits`.  Each layer keeps one graph per distinct
    endpoint list, which only drops labelled copies, and then one per
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
    for nv in range(2, 2 * rank - 1):
        splits = {pairs for key in layer for pairs in _splits(parse_key(key))}
        layer = {
            canonical_key(Multigraph(range(nv), [(e, *uv) for e, uv in enumerate(pairs)]))
            for pairs in splits
        }
        found |= layer
    return tuple(sorted(found))


def graphs_with_separating_edge(rank: int):
    """Canonical keys of census graphs containing a separating edge."""
    return tuple(key for key in enumerate_graphs(rank) if parse_key(key).separating_edges())


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
            ((key, ids), (forest, edges), f | (f | h) << shift)
            for ids, h, *_, edges in table.admitted(kind)
        ]
    rows.sort(key=itemgetter(0))
    full = (1 << 2 * shift) - 1
    return FinitePoset(
        [x for _, x, _ in rows], _inclusion_rows([_bits(full ^ fh) for _, _, fh in rows])
    )


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


def verify_fiber(g: Multigraph, connected_only: bool = False) -> CheckReport:
    """Check the structure of the fiber poset of `g`: its empty slice is
    the opposite of the (connected) core poset, it retracts onto that
    slice by an increasing closure map, and its homology agrees with the
    core poset's.  The check is ``fiber`` or ``fiber-connected``.
    """
    label = graph_label(g)
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
    # the image is listed in p's order, so when it is the slice it is
    # the induced slice poset itself; (empty, h) -> h is then an order
    # reversal onto the core poset when the two have the same size and
    # its rows are the transposed rows of the core poset on the same cores
    slice_ok = (
        cert.image.elements == slice_elements
        and cert.image.n == core.n
        and list(cert.image.up) == _down_rows(core.induced([h for _, h in slice_elements]).up)
    )

    h_fiber = poset_homology(p)
    homology_ok = h_fiber == poset_homology(core)

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


def verify_apartment(rank: int) -> CheckReport:
    """Check that the apartment of the given rank is a sphere of
    dimension rank-2: the ``apartment-sphere`` record."""
    if rank < 1:
        raise ValueError("apartment rank must be >= 1")
    data = {"rank": rank, "expected": HomologyResult.sphere(rank - 2)}
    return _subset_sphere_report(f"apartment-{rank}", "apartment-sphere", rank, data)
