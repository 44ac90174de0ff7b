"""Census, canonical keys, fibers, apartments.

The library grows its census by splitting vertices.  It is checked
against two oracles that share none of that code: raw edge multisets
over every vertex count, deduped by minimizing over all vertex
permutations, and a brute force over degree multisets and every
labelled realisation, deduped by canonical key.  `networkx` checks that
no two census keys are isomorphic, and every edge contraction of a
census graph lands in the census one vertex down.
"""

import hashlib
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from itertools import (
    chain,
    combinations,
    combinations_with_replacement,
    groupby,
    permutations,
    product,
)
from pathlib import Path

import pytest

from posetlab import cli, enumeration, graph_posets
from posetlab.enumeration import (
    _invariant_classes,
    _splits,
    apartment,
    canonical_key,
    enumerate_graphs,
    fiber_poset,
    fiber_retraction,
    graphs_with_separating_edge,
    parse_key,
    verify_apartment,
    verify_fiber,
)
from posetlab.graph_posets import KINDS, _EdgeMasks, _forests, build_poset, graph_label
from posetlab.homology import HomologyResult, reduced_homology
from posetlab.multigraph import GraphError, Multigraph, dumbbell, rose, theta_graph
from posetlab.poset import (
    CertificateError,
    FinitePoset,
    RetractionCertificate,
    _down_rows,
    closure_retraction,
    order_complex,
    subset_lattice,
)

# ---------------------------------------------------------------------------
# independent census oracle
# ---------------------------------------------------------------------------


def _oracle_connected(nv, pairs):
    parent = list(range(nv))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(nv)}) == 1


def _oracle_min_valence(nv, pairs):
    val = [0] * nv
    for u, v in pairs:
        if u == v:
            val[u] += 2
        else:
            val[u] += 1
            val[v] += 1
    return min(val) >= 3


def _oracle_canonical(nv, pairs):
    best = None
    for perm in permutations(range(nv)):
        relabeled = tuple(
            sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pairs)
        )
        if best is None or relabeled < best:
            best = relabeled
    return best


def census_oracle(rank):
    """All connected min-valence-3 multigraphs of the given first Betti
    number, as canonicalized pair multisets, grouped by vertex count."""
    found = set()
    max_nv = max(1, 2 * rank - 2)
    for nv in range(1, max_nv + 1):
        ne = nv + rank - 1
        pair_types = list(combinations_with_replacement(range(nv), 2))
        for combo in combinations_with_replacement(pair_types, ne):
            if not _oracle_min_valence(nv, combo):
                continue
            if not _oracle_connected(nv, combo):
                continue
            found.add((nv, _oracle_canonical(nv, combo)))
    return found


def _degree_multisets(nv, total):
    """Nonincreasing sequences of length nv, entries >= 3, summing to total."""

    def grow(prefix, remaining, cap):
        slots = nv - len(prefix)
        if slots == 0:
            if remaining == 0:
                yield tuple(prefix)
            return
        hi = min(cap, remaining - 3 * (slots - 1))
        for d in range(hi, 2, -1):
            yield from grow(prefix + [d], remaining - d, d)

    yield from grow([], total, total)


def _realizations(degrees):
    """All multigraphs on labelled vertices with the given degrees, as
    lists of ((u, v), multiplicity) with u <= v.

    Distributes each vertex's remaining valence over loops and edges to
    higher-numbered vertices; a loop consumes two units.
    """
    nv = len(degrees)

    def place(v, residual, acc):
        if v == nv:
            if all(r == 0 for r in residual):
                yield acc
            return

        def spread(units, targets, res, got):
            """Distribute `units` among `targets` capped by residuals."""
            if not targets:
                if units == 0:
                    yield got, res
                return
            w = targets[0]
            for m in range(min(units, res[w]) + 1):
                res2 = res.copy()
                res2[w] -= m
                more = got + ([((v, w), m)] if m else [])
                yield from spread(units - m, targets[1:], res2, more)

        r = residual[v]
        for loops in range(r // 2 + 1):
            base = acc + ([((v, v), loops)] if loops else [])
            for got, res in spread(r - 2 * loops, list(range(v + 1, nv)), residual, []):
                res2 = res.copy()
                res2[v] = 0
                yield from place(v + 1, res2, base + got)

    yield from place(0, list(degrees), [])


def _from_multiplicities(nv, mult):
    pairs = [uv for uv, m in sorted(mult) for _ in range(m)]
    return Multigraph(range(nv), [(e, u, v) for e, (u, v) in enumerate(pairs)])


def _labelled_realisations(rank):
    """Every connected labelled realisation of the brute-force census."""
    for nv in range(1, 2 * (rank - 1) + 1):
        for degrees in _degree_multisets(nv, 2 * (nv + rank - 1)):
            for mult in _realizations(degrees):
                g = _from_multiplicities(nv, mult)
                if g.is_connected():
                    yield g


def _keys_by_vertex_count(graphs):
    out = {}
    for g in graphs:
        out.setdefault(g.num_vertices(), set()).add(canonical_key(g))
    return out


class TestCensus:
    def test_rank2_against_oracle(self):
        assert len(census_oracle(2)) == len(enumerate_graphs(2)) == 3

    def test_rank3_against_oracle(self):
        oracle = census_oracle(3)
        mine = enumerate_graphs(3)
        assert len(oracle) == len(mine) == 15
        # vertex-count profile must agree too
        oracle_profile = Counter(nv for nv, _ in oracle)
        mine_profile = Counter(parse_key(k).num_vertices() for k in mine)
        assert oracle_profile == mine_profile == Counter({1: 1, 2: 4, 3: 5, 4: 5})

    def test_rank2_members(self):
        keys = enumerate_graphs(2)
        assert canonical_key(rose(2)) in keys
        assert canonical_key(theta_graph()) in keys
        assert canonical_key(dumbbell()) in keys

    def test_rank4_census_pin(self):
        keys = enumerate_graphs(4)
        assert len(keys) == 111
        assert len(graphs_with_separating_edge(4)) == 68

    def test_each_slice_equals_the_brute_force(self):
        for rank in (2, 3, 4):
            mine = _keys_by_vertex_count(parse_key(k) for k in enumerate_graphs(rank))
            assert _keys_by_vertex_count(_labelled_realisations(rank)) == mine
            assert sorted(mine) == list(range(1, 2 * rank - 1))

    def test_rank4_no_two_keys_isomorphic_by_networkx(self):
        nx = pytest.importorskip("networkx")
        by_degrees = {}
        for key in enumerate_graphs(4):
            g = parse_key(key)
            h = nx.MultiGraph()
            h.add_nodes_from(g.vertices)
            h.add_edges_from((u, v) for _, u, v in g.edges)
            degrees = tuple(sorted(d for _, d in h.degree()))
            by_degrees.setdefault(degrees, []).append(h)
        pairs = 0
        for group in by_degrees.values():
            for a, b in combinations(group, 2):
                assert not nx.is_isomorphic(a, b)
                pairs += 1
        assert pairs > 0

    def test_rank4_contractions_land_one_vertex_down(self):
        keys = enumerate_graphs(4)
        by_count = _keys_by_vertex_count(parse_key(k) for k in keys)
        contracted = 0
        for key in keys:
            g = parse_key(key)
            for e, u, v in g.edges:
                if u != v:
                    assert canonical_key(g.collapse_edge(e)) in by_count[g.num_vertices() - 1]
                    contracted += 1
        assert contracted > 0

    def test_rank5_census_pin(self):
        # beyond the brute force's reach: listing and keying its labelled
        # realisations runs for minutes
        profile = Counter(parse_key(k).num_vertices() for k in enumerate_graphs(5))
        assert sum(profile.values()) == 1076
        assert profile == Counter({1: 1, 2: 10, 3: 48, 4: 153, 5: 277, 6: 323, 7: 193, 8: 71})
        # the keys themselves, which label every report
        digests = {
            4: "5d406b76c7e41978cbbf890ed064ebb0d2bf3d0d3cba8fac69b95b7679b184fd",
            5: "06e94408c5d6853f1c6aa52c07ffd4b0c8e07a5add3e6772abe3c00e4ebac91d",
        }
        for rank, digest in digests.items():
            assert hashlib.sha256("\n".join(enumerate_graphs(rank)).encode()).hexdigest() == digest

    def test_every_key_is_its_graphs_label(self):
        # records name their graph by graph_label, so a census key must
        # read back to a graph whose label is the key itself
        for rank in (2, 3, 4, 5):
            for key in enumerate_graphs(rank):
                assert graph_label(parse_key(key)) == key

    def test_trivalent_slice_matches_cubic_multigraph_counts(self):
        # connected trivalent multigraphs on 2, 4, 6, 8 vertices: 2, 5, 17,
        # 71; these are exactly the top-vertex-count slices of ranks 2 to 5
        for rank, expected in ((2, 2), (3, 5), (4, 17), (5, 71)):
            top = 2 * rank - 2
            slice_ = [k for k in enumerate_graphs(rank) if parse_key(k).num_vertices() == top]
            assert len(slice_) == expected

    def test_separating_edge_splits(self):
        assert len(graphs_with_separating_edge(2)) == 1
        assert len(graphs_with_separating_edge(3)) == 7
        for rank in (2, 3):
            keys = set(enumerate_graphs(rank))
            sep = set(graphs_with_separating_edge(rank))
            assert sep <= keys

    def test_every_census_member_is_valid(self):
        for rank in (2, 3):
            for key in enumerate_graphs(rank):
                g = parse_key(key)
                assert g.rank() == rank
                assert g.is_connected()
                assert all(g.valence(v) >= 3 for v in g.vertices)

    def test_runtime_rank2_rank3(self):
        enumerate_graphs.cache_clear()
        t0 = time.monotonic()
        enumerate_graphs(2)
        enumerate_graphs(3)
        assert time.monotonic() - t0 < 1.0

    def test_cold_rank4_census_keys_each_distinct_split_once(self, monkeypatch):
        # the rose, then the 419 distinct endpoint lists among the 1,025
        # splits of the rank-4 layers (one call per split would be 1,026)
        calls = []
        real = enumeration.canonical_key

        def counting(g):
            calls.append(1)
            return real(g)

        monkeypatch.setattr(enumeration, "canonical_key", counting)
        enumerate_graphs.cache_clear()
        try:
            assert len(enumerate_graphs(4)) == 111
        finally:
            enumerate_graphs.cache_clear()
        assert len(calls) == 420


class TestCanonicalKeys:
    def test_relabeling_invariance_fuzz(self):
        rng = random.Random(20260815)
        for rank in (2, 3):
            for key in enumerate_graphs(rank):
                g = parse_key(key)
                for _ in range(6):
                    verts = list(g.vertices)
                    vperm = {v: w for v, w in zip(verts, rng.sample(verts, len(verts)))}
                    eids = list(g.edge_ids)
                    eperm = {e: f for e, f in zip(eids, rng.sample(eids, len(eids)))}
                    shuffled_edges = [
                        (eperm[e], vperm[u], vperm[v]) for e, u, v in g.edges
                    ]
                    rng.shuffle(shuffled_edges)
                    g2 = Multigraph(sorted(vperm.values()), shuffled_edges)
                    assert canonical_key(g2) == key

    def test_canonical_form_round_trip(self):
        for key in enumerate_graphs(3):
            g = parse_key(canonical_key(parse_key(key)))
            assert canonical_key(g) == key

    def test_parse_rejects_malformed(self):
        for bad in ("", "x", "2;0-0,zz", "1;0-5", "2;0", "-1;"):
            with pytest.raises(GraphError):
                parse_key(bad)

    def test_edgeless_key_is_legal(self):
        g = parse_key("2;")
        assert g.num_vertices() == 2 and g.num_edges() == 0

    def test_distinguishes_close_pairs(self):
        # same degree sequence, different graphs: bigon+two loops at the
        # ends versus a four-cycle doubled on opposite edges
        g1 = Multigraph([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 0), (3, 1, 1)])
        g2 = Multigraph([0, 1], [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 0)])
        assert canonical_key(g1) != canonical_key(g2)

    def test_each_key_counts_neighbours_once(self, monkeypatch):
        counted = []
        real = enumeration._neighbour_counts

        def counting(g):
            counted.append(g)
            return real(g)

        monkeypatch.setattr(enumeration, "_neighbour_counts", counting)
        for key in enumerate_graphs(3):
            counted.clear()
            assert canonical_key(parse_key(key)) == key
            assert len(counted) == 1


def _string_min_key(g):
    """The canonical key as the string minimum over the same permutation
    search, encoding every candidate in full (the reference the list
    comparison in `canonical_key` must reproduce)."""
    verts = sorted(g.vertices)
    nv = len(verts)
    color = _invariant_classes(g)
    order = sorted(verts, key=lambda v: (color[v], v))
    groups = [list(group) for _, group in groupby(order, key=color.get)]
    best = None
    for perm in product(*map(permutations, groups)):
        relabel = {old: new for new, old in enumerate(chain.from_iterable(perm))}
        pairs = sorted(tuple(sorted((relabel[u], relabel[v]))) for _, u, v in g.edges)
        key = f"{nv};" + ",".join(f"{u}-{v}" for u, v in pairs)
        if best is None or key < best:
            best = key
    return best if best is not None else "0;"


def _relabelled(g, rng):
    """`g` with its vertices sent to shuffled new ids and its edge ids
    shuffled."""
    verts = list(g.vertices)
    ids = dict(zip(verts, rng.sample(range(100, 100 + 2 * len(verts)), len(verts))))
    eids = rng.sample(range(len(g.edges)), len(g.edges))
    return Multigraph(ids.values(), [(f, ids[u], ids[v]) for f, (_, u, v) in zip(eids, g.edges)])


class TestCanonicalKeyOracle:
    def test_equals_string_minimum_on_every_realisation_rank_le3(self):
        seen = 0
        for rank in (2, 3):
            for g in _labelled_realisations(rank):
                assert canonical_key(g) == _string_min_key(g), g.edges
                seen += 1
        assert seen == 50

    def test_equals_string_minimum_past_ten_vertices(self):
        # two arms of length 5 from a centre, a loop at each tip: 11
        # vertices and 2**5 relabelings tried.  "10" sorts as text below
        # "9", so the key differs from the minimum over numeric pair lists
        # (which ends 7-9,8-10,9-9,10-10).
        edges = [(0, 1), (1, 3), (3, 5), (5, 7), (7, 9), (9, 9)]
        edges += [(0, 2), (2, 4), (4, 6), (6, 8), (8, 10), (10, 10)]
        g = Multigraph(range(11), [(e, u, v) for e, (u, v) in enumerate(edges)])
        key = canonical_key(g)
        assert key == _string_min_key(g)
        assert key == "11;0-1,0-2,1-3,2-4,3-5,4-6,5-7,6-8,7-10,8-9,9-9,10-10"
        rng = random.Random(7)
        ids = rng.sample(range(100, 200), 11)
        g2 = Multigraph(ids, [(e, ids[u], ids[v]) for e, u, v in g.edges])
        assert canonical_key(g2) == _string_min_key(g2) == key

    def test_equals_string_minimum_on_relabelled_census_rank_le5(self):
        rng = random.Random(20261019)
        seen = 0
        for rank in (2, 3, 4, 5):
            for key in enumerate_graphs(rank):
                g = _relabelled(parse_key(key), rng)
                assert canonical_key(g) == _string_min_key(g) == key
                seen += 1
        assert seen == 3 + 15 + 111 + 1076

    def test_equals_string_minimum_on_every_distinct_split_rank_le4(self):
        splits = {
            (parse_key(key).num_vertices() + 1, pairs)
            for rank in (2, 3, 4)
            for key in enumerate_graphs(rank)
            for pairs in _splits(parse_key(key))
        }
        assert len(splits) == 2 + 28 + 419
        for nv, pairs in splits:
            g = Multigraph(range(nv), [(e, u, v) for e, (u, v) in enumerate(pairs)])
            assert canonical_key(g) == _string_min_key(g), pairs

    def test_petersen_key_under_relabelings(self):
        # one invariant class of 10 vertices: 10! relabelings for the
        # exhaustive search, which takes tens of seconds
        outer = [(i, (i + 1) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        petersen = Multigraph(
            range(10), [(e, u, v) for e, (u, v) in enumerate(outer + spokes + inner)]
        )
        rng = random.Random(10)
        t0 = time.monotonic()
        for _ in range(3):
            key = canonical_key(_relabelled(petersen, rng))
            assert key == "10;0-1,0-2,0-3,1-4,1-5,2-6,2-7,3-8,3-9,4-6,4-8,5-7,5-9,6-9,7-8"
        assert time.monotonic() - t0 < 3.0

    def test_edgeless_and_empty_graphs(self):
        for g in (Multigraph([], []), Multigraph([4], []), Multigraph([0, 3, 5], [])):
            assert canonical_key(g) == _string_min_key(g) == f"{g.num_vertices()};"

    def test_invariant_classes_equal_the_pairwise_stability_loop(self):
        # the refinement the library once used: stop when every pair of
        # vertices is split by the new colours exactly as by the old
        def pairwise_classes(g):
            verts = list(g.vertices)
            loops = {v: 0 for v in verts}
            mult = {}
            for _, u, v in g.edges:
                if u == v:
                    loops[u] += 1
                else:
                    mult[(u, v)] = mult.get((u, v), 0) + 1
                    mult[(v, u)] = mult.get((v, u), 0) + 1
            color = {v: (g.valence(v), loops[v]) for v in verts}
            while True:
                fresh = {}
                for v in verts:
                    around = sorted((m, color[w]) for (x, w), m in mult.items() if x == v)
                    fresh[v] = (color[v], tuple(around))
                palette = sorted(set(fresh.values()))
                renamed = {v: palette.index(fresh[v]) for v in verts}
                if all(
                    (renamed[a] == renamed[b]) == (color[a] == color[b])
                    for a in verts
                    for b in verts
                ):
                    return renamed
                color = renamed

        graphs = [parse_key(key) for rank in (2, 3, 4) for key in enumerate_graphs(rank)]
        graphs += [*_labelled_realisations(2), *_labelled_realisations(3)]
        assert len(graphs) == 179
        for g in graphs:
            assert _invariant_classes(g) == pairwise_classes(g), g.edges


def _fiber_oracle_graphs():
    """Every census graph of rank 2 and 3, a tree, and a graph with
    loops, parallel edges and a pendant edge."""
    graphs = [parse_key(key) for r in (2, 3) for key in enumerate_graphs(r)]
    return graphs + [
        Multigraph(range(5), [(0, 0, 1), (1, 1, 2), (2, 1, 3), (3, 3, 4)]),
        Multigraph(range(3), [(0, 0, 0), (1, 0, 1), (2, 0, 1), (3, 1, 1), (4, 1, 2)]),
    ]


class TestFiberPosets:
    def test_theta_fiber_size(self):
        # 3 cores over the empty forest + 2 over each single-edge forest
        p = fiber_poset(theta_graph(), connected_only=False)
        assert p.n == 9

    def test_empty_slice_is_opposite_core(self):
        for key in enumerate_graphs(2):
            rep = verify_fiber(parse_key(key), False)
            assert rep.data["slice_matches_core_opposite"]

    def test_image_that_is_not_the_opposite_core_fails_the_slice_check(self, monkeypatch):
        # the dumbbell's core poset has a loop below the two loops together,
        # so the slice with the core's own order, not its opposite, differs
        key = "2;0-0,0-1,1-1"
        g = parse_key(key)
        core = build_poset(g, "c")
        real = enumeration.fiber_retraction

        def unreversed(g, connected_only=False):
            cert = real(g, connected_only)
            cores = [h for _, h in cert.image.elements]
            image = FinitePoset(cert.image.elements, core.induced(cores).up)
            return RetractionCertificate(cert.poset, image, cert.direction)

        assert verify_fiber(g).data["slice_matches_core_opposite"] is True
        monkeypatch.setattr(enumeration, "fiber_retraction", unreversed)
        rep = verify_fiber(g)
        assert rep.data["slice_matches_core_opposite"] is False
        assert rep.status == "fail"

    def test_retraction_increasing_and_homology(self):
        for key in (*enumerate_graphs(2), *enumerate_graphs(3)):
            for connected_only in (False, True):
                rep = verify_fiber(parse_key(key), connected_only)
                assert rep.status == "pass", (key, connected_only)
                assert rep.check == ("fiber-connected" if connected_only else "fiber")
                assert rep.data["retraction_direction"] in ("increasing", "both")
                assert rep.data["homology_matches_core"]

    def test_false_retraction_is_a_fail_record(self, monkeypatch):
        def refused(p, c):
            x = p.elements[-1]
            raise CertificateError(f"not idempotent at {x!r}", witness=(x, c(x), c(c(x))))

        monkeypatch.setattr(enumeration, "closure_retraction", refused)
        key = "2;0-1,0-1,0-1"
        for connected_only in (False, True):
            rep = verify_fiber(parse_key(key), connected_only)
            assert rep.status == "fail"
            assert rep.data["certificate_error"].startswith("not idempotent at")
            assert rep.data["witness"][0] == fiber_poset(theta_graph(), connected_only).elements[-1]
        assert cli.main(["fiber", "--graph", key]) == 1

    def test_fibers_classify_the_host_graph_once(self, monkeypatch):
        # each quotient gets a mask table of its own, so the memoised table
        # of g itself serves both fiber checks and their build_poset calls
        g = parse_key("4;0-1,0-2,0-3,1-2,1-3,2-3")
        own = _EdgeMasks(g)
        real = _EdgeMasks._classify
        tables = Counter()

        def counting(masks):
            tables[(masks.ids, masks.ends) == (own.ids, own.ends)] += 1
            return real(masks)

        monkeypatch.setattr(_EdgeMasks, "_classify", counting)
        graph_posets._edge_masks.cache_clear()
        for connected_only in (False, True):
            assert verify_fiber(g, connected_only).status == "pass"
        assert tables[True] == 1

    def test_fibers_classify_each_quotient_once(self, monkeypatch):
        # the c and cc fibers share one table per quotient: g's own and
        # one for each of K4's 37 nonempty forests
        g = parse_key("4;0-1,0-2,0-3,1-2,1-3,2-3")
        real = _EdgeMasks._classify
        tables = Counter()

        def counting(masks):
            tables[masks.ids] += 1
            return real(masks)

        monkeypatch.setattr(_EdgeMasks, "_classify", counting)
        graph_posets._edge_masks.cache_clear()
        for connected_only in (False, True):
            assert verify_fiber(g, connected_only).status == "pass"
        assert tables[g.edge_ids] == 1
        assert len(tables) == 1 + 37
        assert set(tables.values()) == {1}

    def test_fibers_map_each_forest_once(self, monkeypatch):
        # the quotient of each of K4's 37 nonempty forests is built from
        # the vertex map its reach was read from, for both fiber variants
        g = parse_key("4;0-1,0-2,0-3,1-2,1-3,2-3")
        real = Multigraph.forest_vertex_map
        forests = Counter()

        def counting(graph, edge_set):
            forests[frozenset(edge_set)] += 1
            return real(graph, edge_set)

        monkeypatch.setattr(Multigraph, "forest_vertex_map", counting)
        graph_posets._edge_masks.cache_clear()
        for connected_only in (False, True):
            assert verify_fiber(g, connected_only).status == "pass"
        assert len(forests) == 37
        assert sum(forests.values()) == 37

    def test_elements_equal_definition(self):
        # every forest F, and every proper nonempty H of E(g) - F that is a
        # core (a connected core) of g/F, in (sorted F, sorted H) order
        def is_core(q, edges, connected_only):
            valence = Counter(w for e in edges for w in q.endpoints(e))
            if 1 in valence.values():
                return False  # minimum valence 2 also puts a cycle in each component
            pos = {v: i for i, v in enumerate(valence)}
            pairs = [(pos[u], pos[v]) for u, v in map(q.endpoints, edges)]
            return not connected_only or _oracle_connected(len(pos), pairs)

        def by_definition(g, connected_only):
            out = []
            for forest in _forests(g):
                q = g.collapse_forest(forest)
                out += [
                    (forest, frozenset(h))
                    for k in range(1, q.num_edges())
                    for h in combinations(q.edge_ids, k)
                    if is_core(q, h, connected_only)
                ]
            return sorted(out, key=lambda fh: (sorted(fh[0]), sorted(fh[1])))

        for g in _fiber_oracle_graphs():
            for connected_only in (False, True):
                expected = by_definition(g, connected_only)
                assert fiber_poset(g, connected_only).elements == expected, g.edges

    def test_retraction_equals_per_element_definition(self, monkeypatch):
        # (F, H) goes to (empty, core of H and of the F-components that
        # H meets once lifted back into g), one element at a time
        def retract_by_definition(g):
            masks = _EdgeMasks(g)
            empty = frozenset()

            def retract(pair):
                forest, h = pair
                if not forest:
                    return pair
                vm = g.forest_vertex_map(forest)
                h_vertices = {vm[w] for e in h for w in g.endpoints(e)}
                extra = {e for e in forest if vm[g.endpoints(e)[0]] in h_vertices}
                return (empty, masks.core_edges(h | extra))

            return retract

        # the certificate keeps no map, so catch the one it was built from
        maps = []

        def capture(p, c):
            maps.append(c)
            return closure_retraction(p, c)

        monkeypatch.setattr(enumeration, "closure_retraction", capture)
        for g in _fiber_oracle_graphs():
            retract = retract_by_definition(g)
            for connected_only in (False, True):
                cert = fiber_retraction(g, connected_only)
                for x in cert.poset.elements:
                    assert maps[-1](x) == retract(x), (g.edges, connected_only, x)
        assert len(maps) == 2 * len(_fiber_oracle_graphs())

    def test_fiber_homology_matches_core_opposite_directly(self):
        g = theta_graph()
        p = fiber_poset(g, False)
        core = build_poset(g, "c")
        assert reduced_homology(order_complex(p)) == reduced_homology(
            order_complex(FinitePoset(core.elements, _down_rows(core.up)))
        )

    def test_mask_order_matches_definition(self):
        # (F1, H1) <= (F2, H2) iff F1 >= F2 and F1 | H1 >= F2 | H2
        def by_definition(a, b):
            return a[0] >= b[0] and (a[0] | a[1]) >= (b[0] | b[1])

        for key in (*enumerate_graphs(2), *enumerate_graphs(3)):
            for connected_only in (False, True):
                p = fiber_poset(parse_key(key), connected_only)
                oracle = FinitePoset.from_relation(p.elements, by_definition)
                assert p.up == oracle.up, (key, connected_only)

    def test_more_than_63_edges_rejected(self, capsys):
        # rejected where the masks are made, before any subset is listed
        with pytest.raises(ValueError, match="int64 mask"):
            fiber_poset(rose(64))
        with pytest.raises(ValueError, match="int64 mask"):
            fiber_poset(theta_graph(64), connected_only=True)
        for kind in KINDS:
            with pytest.raises(ValueError, match="int64 mask"):
                build_poset(theta_graph(64), kind)
        # the subset lattice is refused before its 2^64 subsets are listed
        with pytest.raises(ValueError, match="int64 mask"):
            subset_lattice(range(64))
        with pytest.raises(ValueError, match="int64 mask"):
            apartment(64)
        key = "2;" + ",".join(["0-1"] * 64)
        assert cli.main(["poset", "--graph", key]) == 2
        assert cli.main(["verify", "x", "--graph", key]) == 2
        assert cli.main(["verify", "subset-sphere", "--graph", key]) == 2
        assert cli.main(["apartment", "--rank", "64"]) == 2
        assert capsys.readouterr().err.count("int64 mask") == 4

    def test_more_than_8_lattice_members_refused(self, capsys):
        with pytest.raises(ValueError, match="SUBSET_LATTICE_MAX_MEMBERS = 8"):
            subset_lattice(range(9))
        nine_edges = next(k for k in enumerate_graphs(4) if parse_key(k).num_edges() == 9)
        assert cli.main(["verify", "subset-sphere", "--graph", nine_edges]) == 2
        assert cli.main(["apartment", "--rank", "9"]) == 2
        assert capsys.readouterr().err.count("SUBSET_LATTICE_MAX_MEMBERS") == 2

    def test_apartment_rank_40_refused_in_a_child(self):
        # before the member limit this listed 2^40 subsets until memory ran
        # out; the child gets 512 MB of address space and 60 s, so a
        # regression fails here instead of exhausting the machine
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

        package_root = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "posetlab.cli", "apartment", "--rank", "40"],
            env={"PATH": "/usr/bin:/bin", "PYTHONPATH": package_root},
            preexec_fn=limit_memory,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2, proc.stderr
        assert "SUBSET_LATTICE_MAX_MEMBERS" in proc.stderr

    def test_forests_equal_subgraph_definition(self):
        # every edge subset, the empty and the whole one included, with
        # |E| = |V(E)| - (number of components), in (size, sorted ids) order
        def is_forest(g, edges):
            comps = []
            for e in edges:
                ends = set(g.endpoints(e))
                comps = [c for c in comps if not c & ends] + [
                    ends.union(*(c for c in comps if c & ends))
                ]
            return len(edges) == sum(map(len, comps)) - len(comps)

        def by_definition(g):
            ids = g.edge_ids
            subsets = [frozenset(c) for k in range(len(ids) + 1) for c in combinations(ids, k)]
            return [e for e in subsets if is_forest(g, e)]

        graphs = [parse_key(key) for r in (2, 3) for key in enumerate_graphs(r)]
        graphs += [
            # a tree: its whole edge set is a forest too
            Multigraph(range(5), [(0, 0, 1), (1, 1, 2), (2, 1, 3), (3, 3, 4)]),
            # loops, parallel edges and a pendant edge
            Multigraph(range(3), [(0, 0, 0), (1, 0, 1), (2, 0, 1), (3, 1, 1), (4, 1, 2)]),
            Multigraph([0], []),
        ]
        for g in graphs:
            assert _forests(g) == by_definition(g), g.edges

    def test_distinct_forests_distinct_elements(self):
        # two different spanning trees of theta with isomorphic quotients
        # still index different fiber elements
        p = fiber_poset(theta_graph(), False)
        forests = {f for f, _ in p.elements}
        assert len(forests) == 4  # empty + three single edges


class TestApartments:
    def test_sizes(self):
        for rank in range(2, 7):
            assert apartment(rank).n == 2**rank - 2

    def test_spheres_ranks_2_to_6(self):
        for rank in range(2, 7):
            rec = verify_apartment(rank)
            assert rec.status == "pass"
            assert rec.data["expected"] == HomologyResult.sphere(rank - 2)

    def test_runtime_under_5s(self):
        t0 = time.monotonic()
        for rank in range(2, 7):
            verify_apartment(rank)
        assert time.monotonic() - t0 < 5.0

    def test_rejects_rank_zero(self):
        with pytest.raises(ValueError):
            apartment(0)
        with pytest.raises(ValueError):
            verify_apartment(0)
