"""The six subgraph posets and their verifications, against from-scratch oracles.

The membership oracles below re-derive each poset's defining predicate
with independent code: forests via the component-counting formula,
cores via iterative leaf pruning, connectivity via a fresh union-find.
"""

import json
import re
from itertools import combinations

import pytest

from posetlab import cli, graph_posets
from posetlab.enumeration import (
    _quotient,
    enumerate_graphs,
    fiber_poset,
    parse_key,
    verify_apartment,
    verify_fiber,
)
from posetlab.graph_posets import (
    KINDS,
    _edge_masks,
    _EdgeMasks,
    _forests,
    VerificationError,
    build_poset,
    core_map,
    forest_generator_cycles,
    poset_elements,
    verify_core_retraction,
    verify_duality,
    verify_forest_generators,
    verify_sphericity,
    verify_sphericity_via_core,
    verify_subset_sphere,
    verify_valence_two,
)
from posetlab.homology import InvariantError, reduced_homology
from posetlab.multigraph import Multigraph, dumbbell, rose, theta_graph
from posetlab.poset import PosetError, PosetMap, poset_of_subsets

# ---------------------------------------------------------------------------
# membership oracles (independent re-derivations)
# ---------------------------------------------------------------------------


def _components(vertices, pairs):
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in pairs:
        parent[find(u)] = find(v)
    return len({find(v) for v in vertices})


def hanging(table, mask):
    """The edges of `mask` at its valence-one vertices: one peel step.

    A vertex has valence one exactly when its incident edges in the mask
    are a single edge that is not a loop (loops count twice).
    """
    loops = [0] * len(table.incident)
    for e, (u, v) in zip(table.ids, table.ends):
        if u == v:
            loops[u] |= table.bit[e]
    out = 0
    for inc, loop in zip(table.incident, loops):
        x = mask & inc
        if x and not x & (x - 1) and not x & loop:
            out |= x
    return out


def peeled(table, mask):
    """The core of `mask` by dropping its hanging edges until none are
    left, with no recorded core read."""
    while dropped := hanging(table, mask):
        mask ^= dropped
    return mask


def union_find_rows(table):
    """Classify the proper nonempty subsets of a mask table one at a time.

    The reference for the table's bulk classification: one union-find
    on vertex positions per subset, in (size, sorted ids) order, where a
    failed union is a cycle (a loop always fails).  A loop adds two to
    its vertex's valence, and a subset is core when no vertex has
    valence one.  Returns the rows ``(ids, mask, flags)`` and the core
    record, each core being the recorded core of the subset without its
    non-loop edges at valence-one vertices; the whole edge set has a
    core but no row.
    """
    ends, incident = table.ends, table.incident
    m, nv = len(ends), len(incident)
    bits = [table.bit[e] for e in table.ids]
    rows, cores = [], {0: 0}
    for k in range(1, m + 1):
        for ids, combo in zip(combinations(table.ids, k), combinations(range(m), k)):
            parent = list(range(nv))
            valence = [0] * nv
            merges = cycles = mask = 0
            for i in combo:
                mask |= bits[i]
                u, v = ends[i]
                valence[u] += 1
                valence[v] += 1
                while parent[u] != u:
                    u = parent[u]
                while parent[v] != v:
                    v = parent[v]
                if u == v:
                    cycles += 1
                else:
                    parent[v] = u
                    merges += 1
            flags = 0 if cycles else graph_posets._FOREST
            if nv - valence.count(0) - merges == 1:
                flags |= graph_posets._CONNECTED
            if 1 in valence:
                rest = mask
                for inc, d in zip(incident, valence):
                    if d == 1:
                        rest &= ~inc
                cores[mask] = cores[rest]
            else:
                flags |= graph_posets._CORE
                cores[mask] = mask
            if k < m:
                rows.append((ids, mask, flags))
    return rows, cores


def oracle_membership(g, edges, kind):
    """Re-derive the defining predicate of each subgraph poset."""
    edges = frozenset(edges)
    if not edges or edges == frozenset(g.edge_ids):
        return False
    pairs = [g.endpoints(e) for e in edges]
    verts = sorted({v for p in pairs for v in p})
    ncomp = _components(verts, pairs)
    is_forest = len(edges) == len(verts) - ncomp  # total rank zero
    is_conn = ncomp == 1
    if kind == "sub":
        return True
    if kind == "for":
        return is_forest
    if kind == "x":
        return not is_forest
    if kind == "cx":
        return is_conn and not is_forest
    # cores: no valence-1 vertex, every component of positive rank
    val = {}
    for u, v in pairs:
        if u == v:
            val[u] = val.get(u, 0) + 2
        else:
            val[u] = val.get(u, 0) + 1
            val[v] = val.get(v, 0) + 1
    if any(x == 1 for x in val.values()):
        return False
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in pairs:
        parent[find(u)] = find(v)
    edge_count = {}
    vert_count = {}
    for u, v in pairs:
        edge_count[find(u)] = edge_count.get(find(u), 0) + 1
    for v in verts:
        vert_count[find(v)] = vert_count.get(find(v), 0) + 1
    every_component_cyclic = all(
        edge_count.get(c, 0) >= vert_count[c] for c in vert_count
    )
    if kind == "c":
        return every_component_cyclic
    if kind == "cc":
        return every_component_cyclic and is_conn
    raise ValueError(kind)


def mask_oracle_graphs():
    """Every census graph of rank 2, 3 and 4, plus loops, parallel edges,
    separating edges, pendant trees, an isolated vertex and a
    disconnected graph."""
    graphs = [parse_key(k) for r in (2, 3, 4) for k in enumerate_graphs(r)]
    graphs += [
        dumbbell(),
        rose(3),
        theta_graph(4),
        # a loop and a bigon joined by a path, with a pendant tree
        Multigraph(
            range(7),
            [(0, 0, 0), (1, 0, 1), (2, 1, 2), (3, 2, 3), (4, 2, 3), (5, 1, 4), (6, 4, 5)],
        ),
        # two components on scattered ids, and an isolated vertex 9
        Multigraph([2, 5, 7, 9, 11], [(3, 2, 5), (8, 5, 2), (1, 7, 7), (4, 7, 11)]),
    ]
    return graphs


def all_graphs_rank_le3():
    return [parse_key(k) for k in (*enumerate_graphs(2), *enumerate_graphs(3))]


def oracle_core(g, edges):
    """Prune one edge at a valence-one vertex at a time until none is left."""
    edges = set(edges)
    while True:
        val = {}
        for e in edges:
            for w in g.endpoints(e):
                val[w] = val.get(w, 0) + 1
        leaf = next((e for e in sorted(edges) if 1 in {val[w] for w in g.endpoints(e)}), None)
        if leaf is None:
            return frozenset(edges)
        edges.remove(leaf)


class TestMembershipOracle:
    def test_all_kinds_all_rank2_and_rank3_graphs(self):
        for g in all_graphs_rank_le3():
            subsets = [
                frozenset(c)
                for r in range(1, g.num_edges())
                for c in combinations(g.edge_ids, r)
            ]
            for kind in KINDS:
                mine = set(poset_elements(g, kind))
                oracle = {s for s in subsets if oracle_membership(g, s, kind)}
                assert mine == oracle, (kind, g.edges)

    def test_kind_containments(self):
        for g in all_graphs_rank_le3():
            sub = set(poset_elements(g, "sub"))
            forests = set(poset_elements(g, "for"))
            x = set(poset_elements(g, "x"))
            c = set(poset_elements(g, "c"))
            cx = set(poset_elements(g, "cx"))
            cc = set(poset_elements(g, "cc"))
            assert forests | x == sub and not (forests & x)
            assert c <= x and cx <= x and cc <= c and cc <= cx

    def test_poset_order_is_inclusion(self):
        g = theta_graph()
        p = build_poset(g, "sub")
        for a in p.elements:
            for b in p.elements:
                assert p.le(a, b) == (a <= b)


class TestEdgeMasks:
    def test_classification_equals_subgraph_definition(self):
        # the same subsets, in the same (size, sorted ids) order
        for g in mask_oracle_graphs():
            subsets = [
                frozenset(c)
                for r in range(1, g.num_edges())
                for c in combinations(g.edge_ids, r)
            ]
            for kind in KINDS:
                expected = [s for s in subsets if oracle_membership(g, s, kind)]
                assert poset_elements(g, kind) == expected, (kind, g.edges)

    def test_peeling_equals_leaf_pruning(self):
        for g in mask_oracle_graphs():
            masks = _EdgeMasks(g)
            for r in range(g.num_edges() + 1):
                for c in combinations(g.edge_ids, r):
                    core = oracle_core(g, c)
                    assert masks.edges(masks.core(masks.mask(c))) == core, (c, g.edges)
                    assert masks.core_edges(c) == core

    def test_build_poset_equals_poset_of_subsets(self):
        for g in mask_oracle_graphs():
            for kind in KINDS:
                p = build_poset(g, kind)
                assert p == poset_of_subsets(poset_elements(g, kind)), (kind, g.edges)

    def test_recorded_cores_equal_iterated_peel(self):
        # every proper subset of every census graph of rank 2 to 4, and of
        # every quotient table of the rank-2 and rank-3 fiber posets: the
        # core the classification records is the hanging-edge peel's
        tables = [_EdgeMasks(parse_key(k)) for r in (2, 3, 4) for k in enumerate_graphs(r)]
        for g in (parse_key(k) for r in (2, 3) for k in enumerate_graphs(r)):
            masks = _EdgeMasks(g)
            tables += [_quotient(g, masks, forest)[0] for forest in _forests(g) if forest]
        checked = 0
        for table in tables:
            subsets = [mask for _, mask, *_ in table.admitted("sub")]
            assert len(table._cores) == len(subsets) + 2  # and the empty and whole sets
            for mask in subsets:
                assert table._cores[mask] == peeled(table, mask), (mask, table.ids)
            full = table.mask(table.ids)
            assert table.core(full) == peeled(table, full)
            checked += len(subsets)
        assert (len(tables), checked) == (285, 24_826)

    def test_bulk_classification_equals_union_find(self):
        # the truth tables against one union-find per subset: every census
        # graph of rank 2 to 5, every quotient table of the rank-2 and
        # rank-3 fiber posets (on G's bits, not their own), and an edgeless
        # graph, one loop, one edge, a parallel pair with a pendant edge
        # and a disconnected graph; one table is alive at a time
        def tables():
            for r in (2, 3, 4, 5):
                for k in enumerate_graphs(r):
                    yield _EdgeMasks(parse_key(k))
            for g in (parse_key(k) for r in (2, 3) for k in enumerate_graphs(r)):
                masks = _EdgeMasks(g)
                for forest in _forests(g):
                    if forest:
                        yield _quotient(g, masks, forest)[0]
            for g in (
                Multigraph(range(3), []),
                Multigraph(range(1), [(0, 0, 0)]),
                Multigraph(range(2), [(0, 0, 1)]),
                Multigraph(range(3), [(0, 0, 1), (1, 0, 1), (2, 1, 2)]),
                Multigraph(range(6), [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 3, 4), (4, 4, 4)]),
            ):
                yield _EdgeMasks(g)

        checked = subsets = 0
        for table in tables():
            rows, cores = union_find_rows(table)
            got = table.rows()
            assert [row[:3] for row in got] == rows, table.ids
            assert table._cores == cores, table.ids
            for ids, mask, _, members, edges in got:
                assert [table.ids[i] for i in members] == list(ids)
                assert edges == frozenset(ids) and table._sets[mask] is edges
                assert table._masks[edges] == mask
            checked += 1
            subsets += len(rows)
        assert (checked, subsets) == (1205 + 156 + 5, 1_227_350)

    def test_memo_holds_one_graph(self):
        # a wider cache of classification tables costs resident memory
        assert _edge_masks.cache_info().maxsize == 1


class TestSubsetSphere:
    def test_sub_is_sphere_for_all_rank_le3(self):
        for g in all_graphs_rank_le3():
            rec = verify_subset_sphere(g)
            assert rec.status == "pass"
            assert rec.data["homology"].betti(g.num_edges() - 2) == 1

    def test_apartment_and_rose_records_agree(self):
        # the apartment of rank r is the subset lattice of rose(r)'s r edges
        for r in range(1, 7):
            apt, sub = verify_apartment(r), verify_subset_sphere(rose(r))
            assert apt.data["homology"] == sub.data["homology"], r
            assert (apt.betti, apt.status) == (sub.betti, sub.status), r
            assert apt.status == "pass", r

    def test_refusals(self):
        with pytest.raises(VerificationError) as exc:
            verify_subset_sphere(Multigraph(range(2), []))
        assert str(exc.value) == "verify_subset_sphere: graph must have an edge"
        with pytest.raises(ValueError) as exc:
            verify_apartment(0)
        assert str(exc.value) == "apartment rank must be >= 1"


class TestSphericity:
    def test_rank2_pinned_values(self):
        # the three rank-2 graphs: wedge sizes of the connected complex
        expected = {
            "2;0-1,0-1,0-1": 2,  # theta
            "1;0-0,0-0": 1,  # rose
            "2;0-0,0-1,1-1": 1,  # dumbbell
        }
        for key, b0 in expected.items():
            rec = verify_sphericity(parse_key(key), "cx")
            assert rec.graph == key
            assert rec.status in ("pass", "homology-only")
            assert rec.data["homology"].betti(0) == b0, key

    def test_x_trivial_iff_separating_edge_rank_le3(self):
        for g in all_graphs_rank_le3():
            rec = verify_sphericity(g, "x")
            sep = bool(g.separating_edges())
            h = rec.data["homology"]
            assert rec.status != "fail"
            if sep:
                assert h.is_trivial()
            else:
                assert h.concentrated_in(g.rank() - 2)
                assert h.betti(g.rank() - 2) >= 1

    def test_cx_concentrated_rank_le3(self):
        for g in all_graphs_rank_le3():
            rec = verify_sphericity(g, "cx")
            assert rec.status != "fail"
            assert rec.data["homology"].concentrated_in(g.rank() - 2)

    def test_requires_rank_at_least_2(self):
        with pytest.raises(VerificationError):
            verify_sphericity(rose(1), "x")

    def test_requires_connected(self):
        g = Multigraph([0, 1], [(0, 0, 0), (1, 0, 0), (2, 1, 1), (3, 1, 1)])
        with pytest.raises(VerificationError):
            verify_sphericity(g, "x")

    def test_via_core_agrees_with_direct_rank_le3(self):
        for g in all_graphs_rank_le3():
            for kind in ("x", "cx"):
                direct = verify_sphericity(g, kind)
                via = verify_sphericity_via_core(g, kind)
                where = (g.edges, kind)
                assert via.betti == direct.betti, where
                assert via.status == direct.status, where
                assert via.data["homology"] == direct.data["homology"], where
                assert via.data["pi1"] == direct.data["pi1"], where


    def test_nontrivial_pi1_only_at_circle_wedges(self):
        # a holding claim leaves H1 nonzero only for a wedge of circles, so
        # "Nontrivial" is always homology-only, never a failure
        records = [
            verify_sphericity(g, kind) for g in all_graphs_rank_le3() for kind in ("x", "cx")
        ]
        records += [
            verify_sphericity_via_core(parse_key(key), kind)
            for key in enumerate_graphs(4)
            for kind in ("x", "cx")
        ]
        nontrivial = 0
        for rec in records:
            h = rec.data["homology"]
            wedge = rec.status == "homology-only" and bool(h.betti(1) or h.torsion(1))
            assert (rec.data["pi1"] == "Nontrivial") == wedge, (rec.graph, rec.check)
            nontrivial += wedge
        assert len(records) == 36 + 222 and nontrivial == 23


class TestCoreRetraction:
    def test_retracts_onto_core_poset(self):
        for g in all_graphs_rank_le3():
            for connected_only in (False, True):
                rec = verify_core_retraction(g, connected_only)
                assert rec.status == "pass", (g.edges, connected_only)

    def test_image_matches_membership_oracle(self):
        g = parse_key("2;0-0,0-1,1-1")
        rec = verify_core_retraction(g, False)
        subsets = [
            frozenset(c)
            for r in range(1, g.num_edges())
            for c in combinations(g.edge_ids, r)
        ]
        oracle = {s for s in subsets if oracle_membership(g, s, "c")}
        assert rec.data["image_size"] == len(oracle)

    def test_core_map_equals_per_element_peeling(self):
        # each element peeled in full on its own, on the x and cx posets
        # of every census graph of rank 2 to 4
        for g in (parse_key(k) for r in (2, 3, 4) for k in enumerate_graphs(r)):
            masks = _EdgeMasks(g)
            for kind in ("x", "cx"):
                p = build_poset(g, kind)
                f = core_map(g, p, p)
                assert all(f(x) == masks.core_edges(x) for x in p.elements), (kind, g.edges)

    def test_core_map_peels_past_a_missing_element(self):
        # two loops with a path of two edges hanging off them: {0, 1, 2}
        # loses 2, then 1; without {0, 1} in the source it is peeled in full
        g = Multigraph(range(3), [(0, 0, 0), (1, 0, 1), (2, 1, 2), (3, 0, 0)])
        x = build_poset(g, "x")
        p = x.induced([y for y in x.elements if y != frozenset({0, 1})])
        assert core_map(g, p, x)(frozenset({0, 1, 2})) == frozenset({0})

    def test_core_outside_the_target_is_refused(self):
        # the loop {0} of the dumbbell is its own core; a target without it
        # refuses the map by that edge set, never with a KeyError
        g = parse_key("2;0-0,0-1,1-1")
        p = build_poset(g, "x")
        loop = frozenset({0})
        q = p.induced([x for x in p.elements if x != loop])
        with pytest.raises(PosetError, match=re.escape(f"{loop!r} is not an element")):
            core_map(g, p, q)

    def test_false_retraction_is_a_fail_record(self, monkeypatch, capsys):
        # x of the theta graph is an antichain of its three cycles, so
        # shifting each to the next is order-preserving but not idempotent
        def shifted(g, p, q):
            step = dict(zip(p.elements, p.elements[1:] + p.elements[:1]))
            return PosetMap.from_function(p, q, step.__getitem__)

        monkeypatch.setattr(graph_posets, "core_map", shifted)
        key = "2;0-1,0-1,0-1"
        first = build_poset(parse_key(key), "x").elements[0]
        for rec in (
            verify_core_retraction(parse_key(key)),
            verify_sphericity_via_core(parse_key(key), "x"),
        ):
            assert rec.status == "fail"
            assert rec.data["certificate_error"] == f"not idempotent at {first!r}"
            assert rec.data["witness"][0] == first
        assert cli.main(["verify", "retraction", "--graph", key, "--json"]) == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["status"] == "fail" and printed["data"]["witness"][0] == sorted(first)


    def test_identity_map_is_an_image_mismatch(self, monkeypatch):
        # the identity is a closure retraction, decreasing and increasing,
        # but its image is all of x: every core is in it, the rest is extra
        monkeypatch.setattr(
            graph_posets, "core_map", lambda g, p, q: PosetMap.from_function(p, q, lambda x: x)
        )
        key = "2;0-0,0-1,1-1"
        g = parse_key(key)
        x, c = build_poset(g, "x"), set(build_poset(g, "c").elements)
        rec = verify_core_retraction(g)
        assert rec.status == "fail"
        assert rec.data["direction"] == "both"
        assert rec.data["image_size"] == x.n
        assert rec.data["image_mismatch"] == {
            "missing": [],
            "extra": sorted(sorted(y) for y in x.elements if y not in c),
        }
        deep = verify_sphericity_via_core(g, "x")
        assert deep.status == "fail"
        assert deep.data["retraction_direction"] == "both"
        assert deep.data["retraction_image_is_core"] is False
        assert deep.data["pi1"] == "not-evaluated"
        assert deep.data["core_elements"] == len(c)

    def test_map_that_breaks_the_order_is_a_fail_record(self, monkeypatch, capsys):
        # reversing the x poset of the dumbbell sends a subset below one
        # of its supersets: the map is refused, and the record names the pair
        def reversed_map(g, p, q):
            return PosetMap(p, q, dict(zip(p.elements, reversed(q.elements))))

        monkeypatch.setattr(graph_posets, "core_map", reversed_map)
        key = "2;0-0,0-1,1-1"
        p = build_poset(parse_key(key), "x")
        x, y = first_broken_pair(p, p, dict(zip(p.elements, reversed(p.elements))))
        assert cli.main(["verify", "retraction", "--graph", key, "--json"]) == 1
        printed = json.loads(capsys.readouterr().out)
        assert printed["status"] == "fail"
        assert printed["data"]["witness"] == [sorted(x), sorted(y)]
        assert printed["data"]["certificate_error"] == (
            f"not order-preserving: {x!r} <= {y!r} but images are not"
        )

    def test_every_map_boundary_gives_a_fail_record(self, monkeypatch):
        # every poset map built by a verifier reverses its target's order
        def reversing(cls, source, target, fn):
            flip = {x: target.elements[-1 - i % target.n] for i, x in enumerate(source.elements)}
            return cls(source, target, flip)

        monkeypatch.setattr(PosetMap, "from_function", classmethod(reversing))
        g = parse_key("2;0-0,0-1,1-1")
        sub, w = g.subdivide_edge(min(g.edge_ids))
        cases = [
            (verify_core_retraction(g), build_poset(g, "x"), build_poset(g, "x")),
            (verify_sphericity_via_core(g, "x"), build_poset(g, "x"), build_poset(g, "x")),
            (verify_fiber(g), fiber_poset(g), fiber_poset(g)),
            (
                verify_valence_two(sub, w),
                build_poset(sub, "cx"),
                build_poset(sub.smooth_valence_two(w)[0], "cx"),
            ),
        ]
        for rec, source, target in cases:
            flip = {x: target.elements[-1 - i % target.n] for i, x in enumerate(source.elements)}
            assert rec.status == "fail", rec.check
            assert rec.data["witness"] == first_broken_pair(source, target, flip), rec.check
            assert rec.data["certificate_error"].startswith("not order-preserving")


def first_broken_pair(source, target, image):
    """The first pair x <= y, in row-major order, whose images are not ordered."""
    return next(
        (x, y)
        for x in source.elements
        for y in source.elements
        if source.le(x, y) and not target.le(image[x], image[y])
    )


class TestValenceTwo:
    def test_on_subdivisions_of_all_rank2_and_rank3(self):
        count = 0
        for g in all_graphs_rank_le3():
            sub, w = g.subdivide_edge(min(g.edge_ids))
            rec = verify_valence_two(sub, w)
            assert rec.status == "pass", g.edges
            count += 1
        assert count >= 5

    def test_double_subdivision(self):
        g, w1 = theta_graph().subdivide_edge(0)
        g2, w2 = g.subdivide_edge(min(g.edge_ids))
        for w in (w1, w2):
            assert verify_valence_two(g2, w).status == "pass"

    def test_rejects_bad_vertex(self):
        g = theta_graph()
        with pytest.raises((VerificationError, Exception)):
            verify_valence_two(g, 0)


class TestDuality:
    def test_every_rank_le3_graph(self):
        for g in all_graphs_rank_le3():
            rec = verify_duality(g)
            assert rec.status == "pass", g.edges
            assert rec.data["ambient_is_sphere"]

    def test_torsion_comparison_is_exercised(self):
        # the check compares torsion degreewise; all graph cases are
        # torsion-free, which the report should confirm explicitly
        g = theta_graph()
        rec = verify_duality(g)
        h = rec.data["forest_homology"]
        top = h.max_degree()
        assert all(h.torsion(d) == () for d in range(-1, (top or 0) + 1))


class TestForestGenerators:
    def test_theta_two_cycles_span_rank_2(self):
        g = theta_graph()
        rec = verify_forest_generators(g)
        assert rec.status == "pass"
        assert rec.data["forests"] == 3
        assert rec.data["span_rank"] == 2 == rec.data["expected_rank"]

    def test_rose3_single_hexagon(self):
        g = rose(3)
        rec = verify_forest_generators(g)
        assert rec.status == "pass"
        assert rec.data["forests"] == 1
        assert rec.data["span_rank"] == 1

    def test_k4_sixteen_forests_span_6(self):
        g = Multigraph(
            range(4), [(i, u, v) for i, (u, v) in enumerate(combinations(range(4), 2))]
        )
        rec = verify_forest_generators(g)
        assert rec.status == "pass"
        assert rec.data["forests"] == 16  # Cayley 4^2
        assert rec.data["span_rank"] == 6 == rec.data["expected_rank"]

    def test_theta_cycle_is_bigon_difference(self):
        g = theta_graph()
        k, cycles = forest_generator_cycles(g)
        # each spanning tree is one edge; its dual cycle is supported on
        # the two bigons made from the other two edges
        for chain in cycles:
            supports = {frozenset(v for v in simplex) for simplex in chain}
            assert len(chain) == 2
            assert sorted(abs(c) for c in chain.values()) == [1, 1]
            assert sum(chain.values()) == 0

    def test_every_nonseparating_rank_le3_graph(self):
        for g in all_graphs_rank_le3():
            if g.separating_edges():
                continue
            rec = verify_forest_generators(g)
            assert rec.status == "pass", g.edges

    def test_rejects_separating_edge(self):
        with pytest.raises(VerificationError):
            verify_forest_generators(dumbbell())

    def test_span_never_exceeds_forest_count(self):
        for g in all_graphs_rank_le3():
            if g.separating_edges():
                continue
            rec = verify_forest_generators(g)
            assert rec.data["span_rank"] <= rec.data["forests"]

    def test_homology_from_core_equals_full_complex(self):
        # the record reads homology off the beat-point core; the full
        # complex whose faces the cycles name must agree
        for g in all_graphs_rank_le3():
            if g.separating_edges():
                continue
            k, _ = forest_generator_cycles(g)
            assert verify_forest_generators(g).data["homology"] == reduced_homology(k)

    def test_image_off_the_complex_raises_invariant_error(self, monkeypatch):
        # a flag that is not a chain maps to vertices spanning no simplex:
        # for rose(3), core({a}) and core({b, c}) are incomparable
        def broken_flags(universe):
            a, b, c = sorted(universe)
            yield 1, (frozenset({a}), frozenset({b, c}))

        monkeypatch.setattr(graph_posets, "_subset_flag_cycle", broken_flags)
        with pytest.raises(InvariantError, match="missed the complex"):
            forest_generator_cycles(rose(3))

    @pytest.mark.parametrize("broken", ["one coefficient", "empty chain"])
    @pytest.mark.parametrize("make, degree", [(theta_graph, 0), (lambda: rose(3), 1)])
    def test_a_chain_that_is_not_a_nonzero_cycle_fails(self, make, degree, broken, monkeypatch):
        # in degree 0 (theta) the augmentation decides, in degree 1
        # (rose(3)) the boundary: the first cycle with one coefficient
        # moved by one, or replaced by the empty chain, fails the record
        assert verify_forest_generators(make()).data["cycles_closed_nonzero"] is True

        def mutated(g):
            k, cycles = forest_generator_cycles(g)
            first = dict(cycles[0])
            if broken == "empty chain":
                first = {}
            else:
                first[min(first)] += 1
            return k, [first, *cycles[1:]]

        monkeypatch.setattr(graph_posets, "forest_generator_cycles", mutated)
        rec = verify_forest_generators(make())
        assert rec.data["target_degree"] == degree
        assert rec.data["cycles_closed_nonzero"] is False
        assert rec.status == "fail"

    def test_flags_equal_the_recursive_generator(self):
        # the recursive flag generator the library once used: the flag
        # order fixes each cycle's chain, so order, signs and flags agree
        def recursive_flags(universe):
            universe = sorted(universe)
            n = len(universe)

            def grow(flag, used, order):
                if len(flag) == n - 1:
                    rest = [x for x in universe if x not in used]
                    yield graph_posets._permutation_sign(order + rest), tuple(flag)
                    return
                for x in universe:
                    if x in used:
                        continue
                    new = frozenset(used | {x})
                    yield from grow(flag + [new], new, order + [x])

            if n == 1:
                return
            yield from grow([], frozenset(), [])

        for universe in (*(range(n) for n in range(7)), [5, 2, 9, 1]):
            expected = list(recursive_flags(universe))
            assert list(graph_posets._subset_flag_cycle(universe)) == expected, universe
