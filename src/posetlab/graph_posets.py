"""Posets of subgraphs of a multigraph, and the verifiable facts about them.

Every poset here lives on proper nonempty edge subsets of a host graph,
ordered by inclusion.  Six families are supported, selected by a short
`kind` string:

====  ========================================================
kind  elements
====  ========================================================
sub   every proper nonempty edge subset
for   subsets that are forests
x     subsets containing a cycle (complement of `for` in `sub`)
c     core subgraphs: min valence >= 2 and every component has a cycle
cx    connected elements of `x`
cc    connected elements of `c`
====  ========================================================

The verification entry points (`verify_*`) each compute a structural
claim exactly — over the integers, no floats — and return a
:class:`CheckReport` whose status is one of:

* ``"pass"``          – the claim holds and is fully certified,
* ``"homology-only"`` – homology agrees but homotopy-level certification
  is out of reach for the tool (e.g. a wedge of circles),
* ``"fail"``          – a computed value contradicts the claim.

A failed *precondition* raises instead; a failed *claim* never raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, permutations

from .homology import (
    HomologyResult,
    InvariantError,
    alexander_duality_check,
    boundary_entries,
    homotopy_verdict,
    poset_homology,
    snf_from_entries,
)
from .multigraph import Multigraph
from .poset import (
    FinitePoset,
    PosetError,
    PosetMap,
    _inclusion_rows,
    _mask_bits,
    closure_retraction,
    order_complex,
    subset_lattice,
)

KINDS = ("sub", "for", "x", "c", "cx", "cc")


class VerificationError(ValueError):
    """A verification routine was called outside its stated preconditions."""


# ---------------------------------------------------------------------------
# poset construction
# ---------------------------------------------------------------------------


# flags of an edge subset in a classification table
_FOREST, _CONNECTED, _CORE = 1, 2, 4

# kind -> (flags tested, value they must have)
_KIND_FLAGS = {
    "sub": (0, 0),
    "for": (_FOREST, _FOREST),
    "x": (_FOREST, 0),
    "c": (_CORE, _CORE),
    "cx": (_CONNECTED | _FOREST, _CONNECTED),
    "cc": (_CONNECTED | _CORE, _CONNECTED | _CORE),
}


class _EdgeMasks:
    """The edge subsets of one graph as int masks: bit i is the i-th edge id.

    This is the one representation of edge subsets: every forest, core,
    connectivity and valence verdict, and every subset order, is read off
    these masks.  The bits come from :func:`posetlab.poset._mask_bits`, so
    a graph with more than 63 edges is rejected here, before any subset
    is enumerated.

    Holds each edge's endpoint positions and each vertex's incident
    edges, which is all that the forest, connected and core tests need.
    Classifying the subsets lists one row per proper nonempty subset,
    ``(ids, mask, flags, members, edges)``: its edge ids, mask, flags,
    member positions and its one frozenset, which every poset and core
    image of the graph shares.  It also records every subset's core, the
    whole edge set's included, so :meth:`core` only reads that record.

    A quotient G/F keeps the edge ids of G - F, so its table can take the
    bits of G's (`bit`): its masks are then masks of G, and the fiber
    poset reads them without translation.  G's own table keeps those
    quotient tables in `quotients`, keyed by forest (see
    :func:`posetlab.enumeration.fiber_poset`), so they are dropped with it.
    """

    __slots__ = (
        "ids",
        "bit",
        "ends",
        "incident",
        "quotients",
        "_table",
        "_cores",
        "_sets",
        "_masks",
    )

    def __init__(self, g: Multigraph, bit: dict | None = None):
        pos = {v: i for i, v in enumerate(g.vertices)}
        self.ids = g.edge_ids
        self.bit = _mask_bits(self.ids) if bit is None else {e: bit[e] for e in self.ids}
        self.ends = [(pos[u], pos[v]) for _, u, v in g.edges]
        self.incident = [0] * len(pos)
        for e, (u, v) in zip(self.ids, self.ends):
            b = self.bit[e]
            self.incident[u] |= b
            self.incident[v] |= b
        self.quotients = {}
        self._table = None
        self._cores = {}

    def mask(self, edges) -> int:
        return sum(map(self.bit.__getitem__, edges))

    def edges(self, mask: int) -> frozenset:
        return frozenset(e for e, b in self.bit.items() if mask & b)

    def core(self, mask: int) -> int:
        """The core of the subset `mask`, as the classification recorded
        it: its edges left once the edges at valence-one vertices are
        dropped until none are left.  Tree components vanish, so the core
        has minimum valence two and a cycle in every component."""
        self.rows()
        return self._cores[mask]

    def core_edges(self, edges) -> frozenset:
        return self.edges(self.core(self.mask(edges)))

    def rows(self) -> list:
        """Every row of the table, classified on first use."""
        if self._table is None:
            self._table = self._classify()
        return self._table

    def core_images(self, elements) -> dict:
        """Each element, a proper edge subset, to its core's frozenset,
        both read from the table: no mask is summed and no set built."""
        self.rows()
        sets, masks, cores = self._sets, self._masks, self._cores
        return {x: sets[cores[masks[x]]] for x in elements}

    def admitted(self, kind: str) -> list:
        """The rows of the subsets in the `kind` poset, in (size, sorted
        ids) order; the table is classified once."""
        if kind not in KINDS:
            raise ValueError(f"unknown poset kind {kind!r}; expected one of {KINDS}")
        want, value = _KIND_FLAGS[kind]
        return [row for row in self.rows() if row[2] & want == value]

    def _classify(self) -> list:
        # Each predicate is first computed for all 2^m subsets at once, as
        # a truth table: an int whose bit S is the predicate on the subset
        # with position mask S (bit i for self.ids[i]; quotient tables
        # carry G's bits, so positions, not `bit`, index the tables).
        # join[u][v] is "u and v are joined", closed by Floyd-Warshall.  A
        # subset has a cycle when it holds a loop, or an edge whose ends
        # are joined without it: bit S - 2^i of join, shifted to bit S.  It
        # is connected when every two touched vertices are joined, and it
        # is core when no vertex has valence one, that is one non-loop
        # edge and no loop (loops count twice); minimum valence two forces
        # a cycle in every component.  The loop over subsets then reads
        # one byte of flags per subset, and records its core: its own, or
        # that of the smaller subset left without the one edge at its
        # lowest valence-one vertex, which is already recorded (subsets
        # come in order of size).
        ends, incident = self.ends, self.incident
        m, nv = len(ends), len(incident)
        size = 1 << m
        full = (1 << size) - 1
        edge = [full // ((1 << (2 << i)) - 1) * ((1 << (1 << i)) - 1 << (1 << i)) for i in range(m)]
        join = [[full if u == v else 0 for v in range(nv)] for u in range(nv)]
        once, twice, looped = [0] * nv, [0] * nv, [0] * nv
        for present, (u, v) in zip(edge, ends):
            if u == v:
                looped[u] |= present
                continue
            join[u][v] |= present
            join[v][u] |= present
            for w in (u, v):
                twice[w] |= once[w] & present
                once[w] |= present
        for k in range(nv):
            via = join[k]
            for row in join:
                if reach := row[k]:
                    for v in range(nv):
                        row[v] |= reach & via[v]
        cycle = 0
        for i, (present, (u, v)) in enumerate(zip(edge, ends)):
            cycle |= join[u][v] << (1 << i) & present
        touched = [o | lp for o, lp in zip(once, looped)]
        split = 0
        for u in range(nv):
            for v in range(u + 1, nv):
                split |= touched[u] & touched[v] & ~join[u][v]
        hanging, leaf = 0, []
        for w in range(nv):
            single = once[w] & ~twice[w] & ~looped[w] & ~hanging
            leaf.append((single, w + 1))
            hanging |= single
        flags_of = _byte_table(
            size,
            [(full ^ cycle, _FOREST), (full ^ split, _CONNECTED), (full ^ hanging, _CORE)],
        )
        # byte S: 1 + the lowest valence-one vertex of S, or 0 for a core
        leaf_of = _byte_table(size, leaf)

        bits = [self.bit[e] for e in self.ids]
        positions = [1 << i for i in range(m)]
        cores = self._cores = {0: 0}
        sets = self._sets = {0: frozenset()}
        masks = self._masks = {}
        rows = []
        for k in range(1, m + 1):
            for ids, members, own, held in zip(
                combinations(self.ids, k),
                combinations(range(m), k),
                combinations(positions, k),
                combinations(bits, k),
            ):
                s, mask = sum(own), sum(held)
                w = leaf_of[s]
                cores[mask] = cores[mask & ~incident[w - 1]] if w else mask
                if k == m:
                    break  # the whole edge set: a core, but no row
                edges = sets[mask] = frozenset(ids)
                masks[edges] = mask
                rows.append((ids, mask, flags_of[s], members, edges))
        return rows


#: the binary digits of a numeral, as bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _byte_table(size: int, weighted) -> bytes:
    """`size` bytes whose byte S sums the weights of those (truth table,
    weight) pairs whose table has bit S set; every sum is below 256.

    The binary numeral of a table, as bytes 0 and 1 read big-endian,
    puts bit S in byte S, so one multiply per table adds its weight to
    every byte at once."""
    total = 0
    for table, weight in weighted:
        digits = format(table, f"0{size}b").encode().translate(_DIGIT_BYTES)
        total += weight * int.from_bytes(digits, "big")
    return total.to_bytes(size, "little")


@lru_cache(maxsize=1)
def _edge_masks(g: Multigraph) -> _EdgeMasks:
    """The masks of the graph being checked (a one-graph memo)."""
    return _EdgeMasks(g)


def poset_elements(g: Multigraph, kind: str):
    """Sorted list of the edge subsets admitted into the `kind` poset of `g`."""
    return [edges for *_, edges in _edge_masks(g).admitted(kind)]


def build_poset(g: Multigraph, kind: str):
    """The inclusion poset of `kind`-subgraphs of `g`.

    Elements are the table's frozensets of edge ids in (size, sorted ids)
    order, as :func:`posetlab.poset.poset_of_subsets` would sort them;
    the order is read off the member positions the table lists.  The
    poset may be empty (for example, the forest poset of a one-vertex
    graph has no elements, since every nonempty edge subset contains a
    loop).
    """
    rows = _edge_masks(g).admitted(kind)
    return FinitePoset(
        [edges for *_, edges in rows], _inclusion_rows([members for *_, members, _ in rows])
    )


def _forests(g: Multigraph):
    """Every forest edge set of `g`, in (size, sorted ids) order: the empty
    set, the proper forests of the mask table, and the whole edge set
    when `g` is itself a forest."""
    out = [frozenset(), *poset_elements(g, "for")]
    if g.num_edges() and g.rank() == 0:
        out.append(frozenset(g.edge_ids))
    return out


def _spanning_trees(g: Multigraph):
    """The forests of the connected graph `g` with |V| - 1 edges, in
    (size, sorted ids) order; a one-vertex graph has the empty one."""
    return [f for f in _forests(g) if len(f) == g.num_vertices() - 1]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one verification on one graph.

    `betti` lists reduced Betti numbers from degree 0 upward through the
    top degree of the complex that was examined (empty when no complex
    was involved).  Everything else check-specific goes in `data`.
    """

    graph: str
    check: str
    status: str
    betti: tuple = ()
    data: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_json_obj(self):
        return {
            "graph": self.graph,
            "check": self.check,
            "status": self.status,
            "betti": list(self.betti),
            "data": _plain(self.data),
        }


def _certificate_failure(label: str, check: str, data: dict, exc: PosetError) -> CheckReport:
    """The `fail` record of a poset map or closure-retraction certificate
    that did not hold: the error's message and its witness (for a map
    that is not order-preserving, the first pair it breaks) go into
    `data`."""
    data["certificate_error"] = str(exc)
    data["witness"] = exc.witness
    return CheckReport(label, check, "fail", (), data)


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, HomologyResult):
        return value.to_json_obj()
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        return value
    return str(value)


def graph_label(g: Multigraph) -> str:
    """The name of `g` in every record: its key, the string that
    :func:`posetlab.enumeration.parse_key` reads back into `g`, with each
    edge written low end first, in `g`'s edge order.

    This is *not* canonical across relabelings; enumeration provides
    canonical keys, and each census key is its own graph's label.
    """
    pairs = ",".join(f"{u}-{v}" for _, u, v in g.edges)
    return f"{g.num_vertices()};{pairs}"


def _betti_profile(h: HomologyResult) -> tuple:
    top = h.max_degree()
    top = 0 if top is None else max(0, top)
    return tuple(h.betti(d) for d in range(0, top + 1))


def _require_connected_rank(g: Multigraph, check: str, min_rank: int = 2) -> None:
    if not g.is_connected():
        raise VerificationError(f"{check}: graph must be connected")
    if g.rank() < min_rank:
        raise VerificationError(
            f"{check}: graph must have first Betti number >= {min_rank}, got {g.rank()}"
        )


# ---------------------------------------------------------------------------
# the ambient subset lattice is a sphere
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def subset_lattice_homology(num_elements: int) -> HomologyResult:
    """Reduced homology of the order complex of proper nonempty subsets
    of an `num_elements`-element set.

    This complex is the barycentric subdivision of the boundary of a
    simplex, hence a sphere of dimension `num_elements - 2`.
    """
    return poset_homology(subset_lattice(range(num_elements)))


def _subset_sphere_report(label: str, check: str, m: int, data: dict) -> CheckReport:
    """The `check` record of the claim that the proper nonempty subsets
    of an `m`-element set, m >= 1, triangulate a sphere of dimension
    m - 2; `data` holds the check's own keys and gains the dimension and
    the homology."""
    h = subset_lattice_homology(m)
    data.update(dimension=m - 2, homology=h)
    status = "pass" if h == HomologyResult.sphere(m - 2) else "fail"
    return CheckReport(label, check, status, _betti_profile(h), data)


def verify_subset_sphere(g: Multigraph) -> CheckReport:
    """Check that the full subgraph poset of `g` triangulates a sphere
    of dimension (number of edges - 2)."""
    m = g.num_edges()
    if m < 1:
        raise VerificationError("verify_subset_sphere: graph must have an edge")
    return _subset_sphere_report(graph_label(g), "subset-lattice-sphere", m, {})


# ---------------------------------------------------------------------------
# sphericity of the cycle-containing posets
# ---------------------------------------------------------------------------


def _sphericity_report(g, kind, check, p, core, data, certified) -> CheckReport:
    """The `check` record of the sphericity claim for the `kind` poset p
    of `g`, decided on the checked beat-point core of `core` (p itself,
    or the core poset that p retracts onto); `data` holds the check's
    own keys.

    For `x` with a separating edge the claim is trivial homology; for
    `x` otherwise, free homology concentrated in degree rank-2 with at
    least one sphere; for `cx`, concentrated in rank-2 (an empty wedge
    allowed).  The record fails, with pi1 not evaluated, when the claim
    or the retraction (`certified` false) does not hold; otherwise
    `homotopy_verdict` decides it by pi1.
    """
    target = g.rank() - 2
    h = poset_homology(core)
    separating = list(g.separating_edges())
    data.update(
        kind=kind,
        rank=g.rank(),
        target_degree=target,
        separating_edges=separating,
        elements=p.n,
        homology=h,
    )
    if kind == "x" and separating:
        claim_ok = h.is_trivial()
    elif kind == "x":
        claim_ok = h.concentrated_in(target) and h.betti(target) >= 1
    else:
        claim_ok = h.concentrated_in(target)
    # a holding claim is free homology in degree target: at target 0
    # every component is acyclic, and above it the complex is connected,
    # so one pi1 verdict over all components settles the homotopy side
    status, data["pi1"] = homotopy_verdict(core, certified and claim_ok)
    return CheckReport(graph_label(g), check, status, _betti_profile(h), data)


def verify_sphericity(g: Multigraph, kind: str = "x") -> CheckReport:
    """Verify the homotopy-type claim for the `x` or `cx` poset of `g`.

    For `x`: if `g` has a separating edge the complex must have trivial
    reduced homology; otherwise it must be free and concentrated in
    degree rank-2 with at least one sphere.  For `cx`: free and
    concentrated in degree rank-2 regardless (an empty wedge allowed).

    Precondition: `g` connected with first Betti number >= 2.
    """
    if kind not in ("x", "cx"):
        raise VerificationError("verify_sphericity supports kinds 'x' and 'cx'")
    _require_connected_rank(g, f"verify_sphericity[{kind}]")
    p = build_poset(g, kind)
    return _sphericity_report(g, kind, f"sphericity-{kind}", p, p, {}, True)


# ---------------------------------------------------------------------------
# the core map retracts x onto c (and cx onto cc)
# ---------------------------------------------------------------------------


def core_map(g: Multigraph, p, q) -> PosetMap:
    """The map sending a subgraph to its core, as a poset map p -> q.

    No element is peeled here: `g`'s mask table recorded every subset's
    core when it classified the subsets (:meth:`_EdgeMasks.core`), so the
    `x` and `cx` maps both read the same record, and each element's mask
    and its core's frozenset are looked up in the table
    (:meth:`_EdgeMasks.core_images`), so p's elements are proper edge
    subsets of `g`, as in every poset built here.  A core that is not an
    element of q is refused as any non-element.  The map validates order on
    construction, and the callers certify it as a closure retraction, so
    the record is checked, not trusted.
    """
    images = _edge_masks(g).core_images(p.elements)
    return PosetMap.from_function(p, q, images.__getitem__)


def _core_certificate(g: Multigraph, p, core_kind: str):
    """Certify that taking cores retracts the `x` or `cx` poset p of `g`
    onto its `core_kind` poset: the core map is a closure retraction,
    decreasing, whose image is exactly the core poset.

    Returns (certificate, decreasing, core elements, image is the core).
    Raises PosetError when the map is not an idempotent poset endomap.
    """
    cert = closure_retraction(p, core_map(g, p, p))
    core = poset_elements(g, core_kind)
    image_ok = set(cert.image.elements) == set(core)
    return cert, cert.direction in ("decreasing", "both"), core, image_ok


def verify_core_retraction(g: Multigraph, connected_only: bool = False) -> CheckReport:
    """Verify that taking cores retracts the cycle-containing poset onto
    the core poset: the map is a decreasing idempotent poset endomap
    fixing exactly the cores, and it preserves homology.

    With `connected_only` the same claim on the connected variants.
    """
    label = graph_label(g)
    src_kind, dst_kind = ("cx", "cc") if connected_only else ("x", "c")
    _require_connected_rank(g, f"verify_core_retraction[{src_kind}]", min_rank=1)
    p = build_poset(g, src_kind)
    data: dict = {"source": src_kind, "image": dst_kind, "elements": p.n}
    check = f"core-retraction-{src_kind}"

    try:
        cert, decreasing, core, image_ok = _core_certificate(g, p, dst_kind)
    except PosetError as exc:
        return _certificate_failure(label, check, data, exc)
    data["direction"] = cert.direction
    if not decreasing:
        return CheckReport(label, check, "fail", (), data)
    data["image_size"] = cert.image.n
    if not image_ok:
        expected, actual = set(core), set(cert.image.elements)
        data["image_mismatch"] = {
            "missing": sorted(map(sorted, expected - actual)),
            "extra": sorted(map(sorted, actual - expected)),
        }
        return CheckReport(label, check, "fail", (), data)

    h_src = poset_homology(p)
    h_img = poset_homology(cert.image)
    data["source_homology"] = h_src
    data["image_homology"] = h_img
    ok = h_src == h_img
    return CheckReport(
        label,
        check,
        "pass" if ok else "fail",
        _betti_profile(h_src),
        data,
    )


# ---------------------------------------------------------------------------
# smoothing a valence-two vertex
# ---------------------------------------------------------------------------


def valence_two_maps(g: Multigraph, v: int):
    """The comparison maps between connected cycle-containing posets of
    `g` and of the graph with the valence-two vertex `v` smoothed away.

    Returns (forward map, backward map).  Writing e1, e2
    for the two edges at `v` and e* for the edge replacing them:

    * forward drops `v` from a subgraph: a subgraph containing exactly
      one of e1, e2 loses it; one containing both trades the pair for
      e*; others are untouched.
    * backward replaces e* by the pair e1, e2.
    """
    if g.valence(v) != 2:
        raise VerificationError(f"vertex {v} does not have valence 2")
    g2, e_new = g.smooth_valence_two(v)
    e1, e2 = sorted(e for e in g.edge_ids if v in g.endpoints(e))

    p = build_poset(g, "cx")
    q = build_poset(g2, "cx")

    def forward(edges: frozenset) -> frozenset:
        has1, has2 = e1 in edges, e2 in edges
        if has1 and has2:
            return (edges - {e1, e2}) | {e_new}
        if has1:
            return edges - {e1}
        if has2:
            return edges - {e2}
        return edges

    def backward(edges: frozenset) -> frozenset:
        if e_new in edges:
            return (edges - {e_new}) | {e1, e2}
        return edges

    fwd = PosetMap.from_function(p, q, forward)
    bwd = PosetMap.from_function(q, p, backward)
    return fwd, bwd


def verify_valence_two(g: Multigraph, v: int, label: str | None = None) -> CheckReport:
    """Verify that smoothing the valence-two vertex `v` does not change
    the connected cycle-containing poset up to homotopy: the two
    comparison maps are order-preserving, their composite one way is the
    identity, the other way is dominated by the identity, and both
    posets have the same homology.
    """
    label = label or graph_label(g)
    if not g.is_connected():
        raise VerificationError("verify_valence_two: graph must be connected")
    if g.rank() < 1:
        raise VerificationError("verify_valence_two: graph must contain a cycle")
    try:
        fwd, bwd = valence_two_maps(g, v)
    except PosetError as exc:
        return _certificate_failure(label, "valence-two-smoothing", {"vertex": v}, exc)
    p, q = fwd.source, fwd.target
    data: dict = {
        "vertex": v,
        "elements_before": p.n,
        "elements_after": q.n,
    }

    # backward then forward is the identity on the smoothed poset
    round_trip_q = all(fwd(bwd(kk)) == kk for kk in q.elements)
    # forward then backward shrinks (lands at or below the start)
    dominated = all(bwd(fwd(hh)) <= hh for hh in p.elements)
    data["round_trip_identity"] = round_trip_q
    data["round_trip_dominated"] = dominated

    h_p = poset_homology(p)
    h_q = poset_homology(q)
    data["homology_before"] = h_p
    data["homology_after"] = h_q
    ok = round_trip_q and dominated and h_p == h_q
    return CheckReport(
        label,
        "valence-two-smoothing",
        "pass" if ok else "fail",
        _betti_profile(h_p),
        data,
    )


def _subdivision_report(g: Multigraph) -> CheckReport:
    """The `valence-two-smoothing` record of `g`: its lowest edge is
    subdivided, and smoothing the new vertex away is checked on the
    subdivision; the record is named by `g`, not by the subdivision."""
    if not g.edge_ids:
        raise VerificationError("verify_valence_two: graph must have an edge")
    sub, w = g.subdivide_edge(min(g.edge_ids))
    return verify_valence_two(sub, w, graph_label(g))


# ---------------------------------------------------------------------------
# dual generators from maximal forests
# ---------------------------------------------------------------------------


def _permutation_sign(seq) -> int:
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def _subset_flag_cycle(universe):
    """The fundamental cycle of the subdivided boundary of the simplex
    on `universe`: complete flags of proper nonempty subsets, each
    signed by the permutation of `universe` that the flag induces.

    Yields (sign, (S1, ..., S_{n-1})) with S_i of size i, as frozensets,
    one flag per ordering of the sorted members in lexicographic order;
    nothing below two members.
    """
    universe = sorted(universe)
    if len(universe) < 2:
        return
    for order in permutations(universe):
        yield _permutation_sign(order), tuple(
            frozenset(order[:size]) for size in range(1, len(order))
        )


def forest_generator_cycles(g: Multigraph):
    """One integer cycle in the top nonvanishing degree of the
    cycle-containing complex of `g` for each maximal forest.

    For a maximal forest F, the complementary edges form a set of size
    rank(g); chains of proper nonempty subsets H of that set push
    forward along H -> core(F + H) into the core poset, and the signed
    sum over complete flags is a cycle of degree rank-2.

    Returns (order complex of the x-poset, list of cycles), each cycle a
    dict mapping a simplex (tuple of vertex indices) to an integer.
    """
    _require_connected_rank(g, "forest_generator_cycles")
    p = build_poset(g, "x")
    k = order_complex(p)
    index = k.face_index(g.rank() - 2)

    masks = _edge_masks(g)
    cycles = []
    for forest in _spanning_trees(g):
        petals = sorted(set(g.edge_ids) - forest)
        chain: dict = {}
        for sign, flag in _subset_flag_cycle(petals):
            images = [masks.core_edges(forest | part) for part in flag]
            if len(set(images)) != len(images):
                continue  # degenerate simplex contributes nothing
            verts = [p.index(img) for img in images]
            order = tuple(sorted(verts))
            if order not in index:
                raise InvariantError("generator image missed the complex")
            total = sign * _permutation_sign(verts)
            chain[order] = chain.get(order, 0) + total
        chain = {s: c for s, c in chain.items() if c != 0}
        cycles.append(chain)
    return k, cycles


def verify_forest_generators(g: Multigraph) -> CheckReport:
    """Verify that the dual cycles attached to maximal forests generate
    the top homology of the cycle-containing complex.

    Precondition: `g` connected, no separating edge, first Betti number
    at least 2.  Each cycle is checked to be closed and nonzero; then the
    rank of the span of all cycles inside the cycle group, computed over
    the integers, must equal the top Betti number.
    """
    label = graph_label(g)
    _require_connected_rank(g, "verify_forest_generators")
    if g.separating_edges():
        raise VerificationError(
            "verify_forest_generators: graph must have no separating edge"
        )
    target = g.rank() - 2
    k, cycles = forest_generator_cycles(g)
    # the full complex k names the cycles' faces; its homology is read
    # off the checked core, which verify_sphericity has usually cached
    h = poset_homology(build_poset(g, "x"))
    data: dict = {
        "forests": len(cycles),
        "target_degree": target,
        "homology": h,
    }

    # each cycle is a column over k's target faces, and the boundary
    # matrix of that degree (augmented at 0) must send it to zero
    face_idx = k.face_index(target)
    columns: dict = {}
    for j, chain in enumerate(cycles):
        for simplex, coeff in chain.items():
            columns.setdefault(face_idx[simplex], []).append((j, coeff))
    image: dict = {}
    for (row, col), sign in boundary_entries(k, target).items():
        for j, coeff in columns.get(col, ()):
            image[row, j] = image.get((row, j), 0) + sign * coeff
    closed = all(cycles) and not any(image.values())
    data["cycles_closed_nonzero"] = closed
    if not closed:
        return CheckReport(label, "forest-generators", "fail", _betti_profile(h), data)

    # Span rank inside the chain group: columns of the next boundary
    # matrix span the boundaries; adjoining the cycles and comparing
    # ranks counts how many are independent in homology.
    bd_entries = boundary_entries(k, target + 1)
    base_cols = k.num_faces(target + 1)
    joint = dict(bd_entries)
    for j, chain in enumerate(cycles):
        for simplex, coeff in chain.items():
            joint[(face_idx[simplex], base_cols + j)] = coeff
    rank_bd = snf_from_entries(bd_entries).rank
    rank_joint = snf_from_entries(joint).rank
    span = rank_joint - rank_bd
    data["span_rank"] = span
    data["expected_rank"] = h.betti(target)
    ok = span == h.betti(target)
    return CheckReport(
        label,
        "forest-generators",
        "pass" if ok else "fail",
        _betti_profile(h),
        data,
    )


def verify_duality(g: Multigraph) -> CheckReport:
    """Check combinatorial Alexander duality between forests and non-forests.

    Inside the full subgraph poset (a homology sphere of dimension
    ``|E| - 2``), the forest part and the cycle-containing part are
    complementary, so reduced homology of one matches reduced cohomology
    of the other with a degree shift, torsion included.
    """
    _require_connected_rank(g, "verify_duality")
    ambient = build_poset(g, "sub")
    forests = poset_elements(g, "for")
    rep = alexander_duality_check(ambient, forests, g.num_edges() - 2)
    status = "pass" if rep.ok else "fail"
    data = {
        "sphere_dim": rep.sphere_dim,
        "ambient_is_sphere": rep.hypothesis_ok,
        "degreewise_match": rep.duality_ok,
        "mismatches": rep.mismatches,
        "forest_homology": rep.sub_homology,
        "nonforest_cohomology": rep.complement_cohomology,
    }
    return CheckReport(
        graph_label(g), "alexander-duality", status, _betti_profile(rep.sub_homology), data
    )


def verify_sphericity_via_core(g: Multigraph, kind: str = "x") -> CheckReport:
    """Same claim as ``verify_sphericity``, established through the core poset.

    At nine or more edges the order complex of the cycle-containing poset
    is far too large to build directly, but the poset itself is small.
    This check validates, element by element, that taking cores is a
    decreasing idempotent poset endomap whose fixed set is exactly the
    core poset — the hypotheses under which a closure operator is a
    deformation retraction — and then computes exact homology on the
    small core side.  The homotopy-type claim is then decided on the
    core complex; the certificate data records that the reduction was
    checked, not assumed.
    """
    if kind not in ("x", "cx"):
        raise VerificationError("verify_sphericity_via_core supports kinds 'x' and 'cx'")
    _require_connected_rank(g, f"verify_sphericity_via_core[{kind}]")
    check, core_kind = f"deep-sphericity-{kind}", "cc" if kind == "cx" else "c"
    p = build_poset(g, kind)
    data: dict = {"via": "core-retraction"}
    try:
        cert, decreasing, core, image_ok = _core_certificate(g, p, core_kind)
    except PosetError as exc:
        data.update(kind=kind, rank=g.rank(), elements=p.n)
        return _certificate_failure(graph_label(g), check, data, exc)
    # both lists are in p's (size, sorted ids) order, so a matching
    # image is the induced core poset itself
    core_poset = cert.image if image_ok else p.induced(core)
    data["core_elements"] = core_poset.n
    data["retraction_direction"] = cert.direction
    data["retraction_image_is_core"] = image_ok
    return _sphericity_report(g, kind, check, p, core_poset, data, decreasing and image_ok)
