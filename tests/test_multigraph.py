"""Multigraph structure: valence, rank, separation, collapse, smoothing,
and the cores and forests of its edge subsets.

The spanning trees that the forest generator cycles iterate are counted
against an independent oracle: the matrix-tree determinant of the
loopless Laplacian, evaluated in exact rational arithmetic.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from posetlab.enumeration import enumerate_graphs, parse_key
from posetlab.graph_posets import _EdgeMasks, _spanning_trees, poset_elements
from posetlab.multigraph import (
    GraphError,
    Multigraph,
    dumbbell,
    rose,
    theta_graph,
)


def _is_loop(g, e):
    u, v = g.endpoints(e)
    return u == v


def kirchhoff_tree_count(g):
    """Number of spanning trees via a Laplacian cofactor, exact arithmetic."""
    verts = sorted(g.vertices)
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    if n == 1:
        return 1
    lap = [[Fraction(0)] * n for _ in range(n)]
    for _, u, v in g.edges:
        if u == v:
            continue
        i, j = idx[u], idx[v]
        lap[i][i] += 1
        lap[j][j] += 1
        lap[i][j] -= 1
        lap[j][i] -= 1
    # delete last row and column, then Gaussian elimination for the determinant
    m = [row[: n - 1] for row in lap[: n - 1]]
    det = Fraction(1)
    for col in range(n - 1):
        piv = next((r for r in range(col, n - 1) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n - 1):
            factor = m[r][col] * inv
            if factor:
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return int(det)


def k4():
    return Multigraph(range(4), [(i, u, v) for i, (u, v) in enumerate(combinations(range(4), 2))])


class TestBasics:
    def test_vertices_edges(self):
        g = theta_graph()
        assert g.num_vertices() == 2
        assert g.num_edges() == 3
        assert g.edge_ids == (0, 1, 2)

    def test_loops_count_twice_in_valence(self):
        g = rose(2)
        assert g.valence(0) == 4
        assert _is_loop(g, 0) and _is_loop(g, 1)

    def test_rank(self):
        assert rose(3).rank() == 3
        assert theta_graph().rank() == 2
        assert dumbbell().rank() == 2
        assert k4().rank() == 3

    def test_connected(self):
        assert theta_graph().is_connected()
        g = Multigraph([0, 1, 2, 3], [(0, 0, 1), (1, 2, 3)])
        assert not g.is_connected()

    def test_duplicate_edge_id_rejected(self):
        with pytest.raises(GraphError):
            Multigraph([0, 1], [(0, 0, 1), (0, 1, 0)])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(GraphError):
            Multigraph([0], [(0, 0, 5)])


def separating_by_components(g):
    """The separating edges straight from the definition: each non-loop
    edge is deleted in turn and the components are counted on the same
    vertex set, so a pendant edge separates too."""
    before = len(g.components())
    out = []
    for eid in g.edge_ids:
        u, v = g.endpoints(eid)
        rest = Multigraph(g.vertices, [e for e in g.edges if e[0] != eid])
        if u != v and len(rest.components()) > before:
            out.append(eid)
    return tuple(out)


class TestSeparatingEdges:
    def test_loops_never_separate(self):
        g = dumbbell()
        loops = [e for e in g.edge_ids if _is_loop(g, e)]
        assert loops and not set(loops) & set(g.separating_edges())
        assert rose(3).separating_edges() == ()

    def test_dumbbell_bar_separates(self):
        g = dumbbell()
        bars = [e for e in g.edge_ids if not _is_loop(g, e)]
        assert len(bars) == 1 and g.separating_edges() == tuple(bars)

    def test_theta_has_none(self):
        assert theta_graph().separating_edges() == ()

    def test_parallel_pair_does_not_separate(self):
        g = Multigraph([0, 1], [(0, 0, 1), (1, 0, 1)])
        assert g.separating_edges() == ()

    def test_equals_components_oracle(self):
        # every census graph of rank 2 to 5, then a tree, a loop, a lone
        # edge, a parallel pair with a pendant edge, and a disconnected
        # graph (a triangle with a tail beside a path and an isolated vertex)
        graphs = [parse_key(k) for r in (2, 3, 4, 5) for k in enumerate_graphs(r)]
        graphs += [
            Multigraph(range(5), [(0, 0, 1), (1, 1, 2), (2, 1, 3), (3, 3, 4)]),
            rose(1),
            Multigraph([0, 1], [(0, 0, 1)]),
            Multigraph([0, 1, 2], [(0, 0, 1), (1, 0, 1), (2, 1, 2)]),
            Multigraph(
                range(9),
                [(0, 0, 1), (1, 1, 2), (2, 2, 0), (3, 2, 3), (4, 5, 6), (5, 6, 7), (6, 7, 7)],
            ),
        ]
        separating = Counter()
        for g in graphs:
            found = g.separating_edges()
            assert found == separating_by_components(g), g.edges
            separating[bool(found)] += 1
        assert separating[True] > 300 and separating[False] > 300, separating
        assert graphs[-5].separating_edges() == (0, 1, 2, 3)
        assert graphs[-1].separating_edges() == (3, 4, 5)


class TestForestsAndCollapse:
    def test_tree_count_matches_matrix_tree_oracle(self):
        for g in (theta_graph(), dumbbell(), k4(), rose(3)):
            assert len(_spanning_trees(g)) == kirchhoff_tree_count(g)

    def test_k4_has_16_spanning_trees(self):
        # Cayley: 4^{4-2}
        assert kirchhoff_tree_count(k4()) == 16
        assert len(_spanning_trees(k4())) == 16

    def test_collapse_forest_matches_iterated_collapse(self):
        g = k4()
        for forest in _spanning_trees(g):
            edges = sorted(forest)
            direct = g.collapse_forest(frozenset(edges))
            step = g
            for e in edges:
                step = step.collapse_edge(e)
            assert sorted(direct.edges) == sorted(step.edges)
            assert sorted(direct.vertices) == sorted(step.vertices)

    def test_collapse_spanning_tree_gives_rose(self):
        g = theta_graph()
        forest = _spanning_trees(g)[0]
        q = g.collapse_forest(forest)
        assert q.num_vertices() == 1
        assert q.rank() == g.rank()

    def test_collapse_rejects_cycles(self):
        g = theta_graph()
        with pytest.raises(GraphError):
            g.collapse_forest(frozenset({0, 1, 2}))

    def test_forest_vertex_map_classes(self):
        g = dumbbell()
        bar = next(e for e in g.edge_ids if not _is_loop(g, e))
        vm = g.forest_vertex_map(frozenset({bar}))
        assert len(set(vm.values())) == 1


class TestSubgraphs:
    def test_core_strips_trees_and_hairs(self):
        g = dumbbell()
        loops = [e for e in g.edge_ids if _is_loop(g, e)]
        bar = next(e for e in g.edge_ids if not _is_loop(g, e))
        assert _EdgeMasks(g).core_edges({loops[0], bar}) == frozenset({loops[0]})

    def test_core_of_core_is_core(self):
        g = k4()
        masks = _EdgeMasks(g)
        for r in range(1, 7):
            for edges in combinations(g.edge_ids, r):
                core = masks.core(masks.mask(edges))
                assert masks.core(core) == core
                # no vertex of valence one is left (K4 has no loops)
                ends = Counter(w for e in masks.edges(core) for w in g.endpoints(e))
                assert 1 not in ends.values()

    def test_forest_predicate(self):
        g = theta_graph()
        forests = poset_elements(g, "for")
        assert frozenset({0}) in forests
        assert frozenset({0, 1}) not in forests


class TestSmoothingAndSubdivision:
    def test_subdivide_then_smooth_roundtrip(self):
        for g in (theta_graph(), dumbbell(), rose(2), k4()):
            for eid in g.edge_ids:
                g2, w = g.subdivide_edge(eid)
                assert g2.valence(w) == 2
                assert g2.rank() == g.rank()
                g3, _ = g2.smooth_valence_two(w)
                assert g3.num_edges() == g.num_edges()
                assert g3.rank() == g.rank()
                assert sorted(g3.vertices) == sorted(g.vertices)

    def test_smooth_rejects_wrong_valence(self):
        g = theta_graph()
        with pytest.raises(GraphError):
            g.smooth_valence_two(0)

    def test_smooth_rejects_lone_loop_vertex(self):
        g = Multigraph([0, 1], [(0, 0, 0), (1, 0, 1), (2, 0, 1)])
        # vertex 0 has the loop: valence 4; vertex 1 has valence 2 from two bars
        g2, _ = g.smooth_valence_two(1)
        assert g2.num_edges() == 2
        lone = Multigraph([0], [(0, 0, 0)])
        with pytest.raises(GraphError):
            lone.smooth_valence_two(0)

    def test_subdivided_loop_becomes_bigon(self):
        g, w = rose(1).subdivide_edge(0)
        assert g.num_vertices() == 2 and g.num_edges() == 2
        assert not any(_is_loop(g, e) for e in g.edge_ids)
