"""Exact homology: SNF against a minors-gcd oracle, Betti numbers against
rational elimination, torsion and cohomology on a projective plane,
subdivision invariance, nerves, duality, and contractibility certificates.
"""

import heapq
import random
from collections import Counter, OrderedDict
from fractions import Fraction
from itertools import combinations, permutations
from math import gcd

import numpy as np
import pytest

from posetlab import homology
from posetlab.enumeration import enumerate_graphs, fiber_poset, parse_key
from posetlab.graph_posets import KINDS, build_poset
from posetlab.homology import (
    PI1_NONTRIVIAL,
    PI1_TRIVIAL,
    HomologyResult,
    InvariantError,
    SNFResult,
    alexander_duality_check,
    boundary_entries,
    certify_contractible,
    core_complex,
    homotopy_verdict,
    pi1_field,
    poset_homology,
    read_triplet_matrix,
    reduced_homology,
    smith_normal_form,
    snf_from_entries,
)
from posetlab.poset import FinitePoset, beat_point_core, order_complex, subset_lattice
from posetlab.simplicial import SimplicialComplex
from posetlab.suites import run_suite

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def det_int(rows):
    """Exact integer determinant by cofactor expansion (tiny matrices only)."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def snf_oracle(matrix):
    """Invariant factors via gcds of k x k minors: d_k = gcd(all minors),
    f_k = d_k / d_{k-1}.  Independent of any elimination strategy."""
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    factors = []
    prev = 1
    for k in range(1, min(nrows, ncols) + 1):
        dk = 0
        for ris in combinations(range(nrows), k):
            for cis in combinations(range(ncols), k):
                sub = [[matrix[i][j] for j in cis] for i in ris]
                dk = gcd(dk, abs(det_int(sub)))
        if dk == 0:
            break
        factors.append(dk // prev)
        prev = dk
    return tuple(factors)


def rational_rank(rows):
    """Rank over Q by fraction-exact Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rank = 0
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = Fraction(1) / m[row][col]
        for r in range(nrows):
            if r != row and m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[row])]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def betti_oracle(k, d):
    """Reduced Betti number of degree d via rational ranks of the two
    boundary matrices (augmented at the bottom)."""

    def dense(deg):
        entries = boundary_entries(k, deg)
        nrows, ncols = k.num_faces(deg - 1) if deg else 1, k.num_faces(deg)
        m = [[0] * ncols for _ in range(nrows)]
        for (i, j), v in entries.items():
            m[i][j] = v
        return m, nrows, ncols

    m_d, _, ncols_d = dense(d)
    m_up, _, ncols_up = dense(d + 1)
    rank_d = rational_rank(m_d) if m_d and m_d[0] else 0
    rank_up = rational_rank(m_up) if m_up and m_up[0] else 0
    return ncols_d - rank_d - rank_up


def barycentric_subdivision(k):
    """The order complex of the face poset of k.

    Vertices of the subdivision are the nonempty faces of k (labelled by
    their vertex-label tuples); simplices are chains of faces under strict
    inclusion.  Homotopy equivalent to k.
    """
    faces = list(k.all_faces())
    labels = [tuple(k.vertices[v] for v in f) for f in faces]
    sets = [set(f) for f in faces]
    up = [[j for j in range(len(faces)) if sets[i] < sets[j]] for i in range(len(faces))]
    chains = []

    def grow(chain, last):
        chains.append(tuple(sorted(chain)))
        for j in up[last]:
            chain.append(j)
            grow(chain, j)
            chain.pop()

    for i in range(len(faces)):
        grow([i], i)
    return SimplicialComplex(labels, chains)


def nerve_with_audit(cover):
    """Nerve of a family of complexes over a shared vertex label universe,
    plus, per nerve face, whether the intersection has trivial homology.

    A subset of the cover spans a nerve simplex when its members share a
    face.  The audit maps each nerve face (a tuple of cover indices) to
    the reduced homology triviality of the intersection complex, which is
    the hypothesis a nerve comparison needs.
    """
    k = len(cover)
    # compare faces by vertex labels so different index orders agree
    face_sets = [{tuple(sorted(c.vertices[v] for v in f)) for f in c.all_faces()} for c in cover]
    nerve_faces = []
    frontier = [(i,) for i in range(k) if face_sets[i]]
    inters = {(i,): face_sets[i] for i in range(k) if face_sets[i]}
    while frontier:
        nerve_faces.extend(frontier)
        nxt = []
        for face in frontier:
            for j in range(face[-1] + 1, k):
                shared = inters[face] & face_sets[j]
                if shared:
                    inters[face + (j,)] = shared
                    nxt.append(face + (j,))
        frontier = nxt

    audit = {}
    for face in nerve_faces:
        shared = inters[face]
        verts = sorted({v for f in shared for v in f})
        pos = {v: i for i, v in enumerate(verts)}
        sub = SimplicialComplex(verts, [tuple(pos[v] for v in f) for f in shared])
        audit[face] = reduced_homology(sub).is_trivial()
    return SimplicialComplex(list(range(k)), nerve_faces), audit


# ---------------------------------------------------------------------------
# fixture complexes
# ---------------------------------------------------------------------------


def sphere_complex(n):
    """Boundary of the (n+1)-simplex: a triangulated n-sphere."""
    verts = list(range(n + 2))
    facets = list(combinations(verts, n + 1))
    return SimplicialComplex.from_facets(verts, facets)


def projective_plane():
    """The 6-vertex triangulation of the real projective plane."""
    facets = [
        (0, 1, 2),
        (0, 2, 3),
        (0, 3, 4),
        (0, 4, 5),
        (0, 1, 5),
        (1, 2, 4),
        (2, 4, 5),
        (2, 3, 5),
        (1, 3, 5),
        (1, 3, 4),
    ]
    return SimplicialComplex.from_facets(range(6), facets)


def dunce_hat():
    """A triangle with its sides glued as a.a.a^-1: contractible, not
    collapsible.  Two barycentric subdivisions first (36 triangles), in
    exact barycentric coordinates, keep the quotient simplicial."""
    corners = [tuple(Fraction(int(i == j)) for j in range(3)) for i in range(3)]

    def mean(*points):
        return tuple(sum(c) / len(points) for c in zip(*points))

    def glue(p):
        # position t along a: x1 on side 01, x2 on sides 12 and 02
        x0, x1, x2 = p
        t = x1 if x2 == 0 else x2 if 0 in (x0, x1) else None
        if t is None:
            return p
        return ("a", 0 if t in (0, 1) else t)

    triangles = [tuple(corners)]
    for _ in range(2):
        triangles = [
            (t[i], mean(t[i], t[j]), mean(*t)) for t in triangles for i, j in permutations(range(3), 2)
        ]
    index = {}
    facets = [tuple(index.setdefault(glue(p), len(index)) for p in t) for t in triangles]
    return SimplicialComplex.from_facets(range(len(index)), facets)


def torus():
    """The minimal 7-vertex triangulation of the torus (cyclic form)."""
    facets = [tuple(sorted(((i + d) % 7 for d in deltas))) for i in range(7) for deltas in ((0, 1, 3), (0, 2, 3))]
    return SimplicialComplex.from_facets(range(7), facets)


def suspension(k):
    """The join of k with two points: every face coned off twice."""
    n = len(k.vertices)
    faces = [f + (apex,) for f in k.all_faces() for apex in (n, n + 1)]
    return SimplicialComplex.from_facets(range(n + 2), faces)


# ---------------------------------------------------------------------------
# SNF
# ---------------------------------------------------------------------------


class TestSmithNormalForm:
    def test_known_matrices(self):
        assert smith_normal_form([[2, 0], [0, 3]]).factors == (1, 6)
        assert smith_normal_form([[1, 0], [0, 1]]).factors == (1, 1)
        assert smith_normal_form([[0, 0], [0, 0]]).factors == ()
        assert smith_normal_form([[2, 4], [4, 8]]).factors == (2,)

    def test_divisor_chain_property(self):
        rng = random.Random(7)
        for _ in range(60):
            rows = rng.randrange(1, 5)
            cols = rng.randrange(1, 5)
            m = [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)]
            res = smith_normal_form(m)
            for a, b in zip(res.factors, res.factors[1:]):
                assert b % a == 0

    def test_fuzz_against_minors_gcd_oracle(self):
        # up to 5 x 5; entries without units go straight to the dense
        # phase and give torsion
        rng = random.Random(20260815)
        values = [range(-5, 6), (0, 0, 2, -2, 3, 4, -4, 6, 9, 12)]
        torsion = Counter()
        for k in range(240):
            rows = rng.randrange(1, 6)
            cols = rng.randrange(1, 6)
            m = [[rng.choice(values[k % 2]) for _ in range(cols)] for _ in range(rows)]
            res = smith_normal_form(m)
            expected = snf_oracle(m)
            assert res.factors == expected, (m, res.factors, expected)
            assert res.rank == len(expected)
            torsion[len(res.torsion())] += 1
        assert torsion[0] > 60 and torsion[1] > 40 and torsion[2] + torsion[3] > 20, torsion

    def test_sparse_entries_agree_with_dense(self):
        rng = random.Random(99)
        for _ in range(40):
            rows = rng.randrange(1, 7)
            cols = rng.randrange(1, 7)
            m = [
                [rng.randrange(-3, 4) if rng.random() < 0.4 else 0 for _ in range(cols)]
                for _ in range(rows)
            ]
            entries = {
                (i, j): m[i][j]
                for i in range(rows)
                for j in range(cols)
                if m[i][j]
            }
            assert snf_from_entries(entries).factors == smith_normal_form(m).factors

    def test_unit_block_glued_to_torsion_residue(self):
        # I_300 (+) diag(4, 6), scrambled by row operations that mix the
        # torsion rows with unit rows
        n = 300
        m = [[int(i == j) for j in range(n + 2)] for i in range(n)]
        m += [[0] * n + [4, 0], [0] * n + [0, 6]]
        for target, source, mult in ((n, 5, 3), (0, n + 1, 1), (n + 1, 7, -2), (9, n, 1)):
            m[target] = [a + mult * b for a, b in zip(m[target], m[source])]
        res = smith_normal_form(m)
        assert res.factors == (1,) * n + (2, 12)
        assert res.rank == n + 2

    def test_rank_deficient(self):
        assert smith_normal_form([[2, 4], [4, 8]]).factors == (2,)
        assert smith_normal_form([[1, 2], [2, 4]]).factors == (1,)
        assert smith_normal_form([[0, 3], [0, 6]]).factors == (3,)
        assert smith_normal_form([[2, 4, 6], [4, 8, 12], [1, 2, 3]]).factors == (1,)
        # units in front of a rank-deficient residue
        m = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 4], [0, 0, 4, 8]]
        assert smith_normal_form(m) == SNFResult(rank=3, factors=(1, 1, 2))

    def test_unit_prefix_equals_full_chain_normalization(self):
        # a pairwise gcd/lcm pass over units and residue together, which
        # turns any nonzero diagonal into the divisor chain
        def normalized(factors):
            factors = list(factors)
            for i in range(len(factors)):
                for j in range(i + 1, len(factors)):
                    g = gcd(factors[i], factors[j])
                    factors[i], factors[j] = g, factors[i] * factors[j] // g
            return tuple(factors)

        def full_chain(entries):
            rows, cols = {}, {}
            for (i, j), v in entries.items():
                rows.setdefault(i, {})[j] = v
                cols.setdefault(j, set()).add(i)
            units = len(homology._eliminate_unit_pivots(rows, cols))
            diag = homology._dense_snf(homology._gather_dense(rows))
            return normalized([1] * units + diag)

        rng = random.Random(31)
        for _ in range(200):
            rows = rng.randrange(1, 8)
            cols = rng.randrange(1, 8)
            entries = {
                (i, j): rng.choice((-1, 1, 1, 2, -2, 3, 4, 6))
                for i in range(rows)
                for j in range(cols)
                if rng.random() < 0.45
            }
            res = snf_from_entries(entries)
            assert res.factors == full_chain(entries), entries
            assert res.rank == len(res.factors)

    def test_triplet_matrix_parser(self):
        entries, nrows, ncols = read_triplet_matrix("# comment\n2 3\n0 0 2\n1 2 -5\n")
        assert (nrows, ncols) == (2, 3)
        assert entries == {(0, 0): 2, (1, 2): -5}
        with pytest.raises(ValueError):
            read_triplet_matrix("2 2\n5 0 1\n")


# ---------------------------------------------------------------------------
# homology of standard spaces
# ---------------------------------------------------------------------------


class TestStandardSpaces:
    def test_spheres(self):
        for n in range(0, 4):
            h = reduced_homology(sphere_complex(n))
            assert h == HomologyResult.sphere(n)

    def test_empty_complex_is_minus_one_sphere(self):
        h = reduced_homology(SimplicialComplex([], []))
        assert h == HomologyResult.sphere(-1)
        assert h.betti(-1) == 1

    def test_point_is_trivial(self):
        k = SimplicialComplex.from_facets([0], [(0,)])
        assert reduced_homology(k).is_trivial()

    def test_two_points(self):
        k = SimplicialComplex.from_facets([0, 1], [(0,), (1,)])
        assert reduced_homology(k) == HomologyResult.sphere(0)

    def test_projective_plane_torsion(self):
        h = reduced_homology(projective_plane())
        assert h.betti(0) == 0 and h.betti(1) == 0 and h.betti(2) == 0
        assert h.torsion(1) == (2,)
        assert not h.is_trivial()

    def test_projective_plane_cohomology_shift(self):
        hh = reduced_homology(projective_plane()).cohomology()
        # universal coefficients: torsion climbs one degree in cohomology
        assert hh.torsion(2) == (2,)
        assert hh.torsion(1) == ()
        assert hh.betti(1) == 0 and hh.betti(2) == 0

    def test_torus(self):
        h = reduced_homology(torus())
        assert h.betti(1) == 2 and h.betti(2) == 1
        assert h.torsion(1) == ()

    def test_betti_against_rational_elimination(self):
        complexes = [
            sphere_complex(1),
            sphere_complex(2),
            projective_plane(),
            torus(),
        ]
        for k in complexes:
            h = reduced_homology(k)
            for d in range(0, k.dim + 1):
                assert h.betti(d) == betti_oracle(k, d), (k.structure_key(), d)

    def test_random_complexes_against_oracle(self):
        rng = random.Random(5)
        for _ in range(25):
            nverts = rng.randrange(3, 7)
            pool = list(combinations(range(nverts), 3))
            facets = rng.sample(pool, rng.randrange(1, min(6, len(pool)) + 1))
            k = SimplicialComplex.from_facets(range(nverts), facets + [(v,) for v in range(nverts)])
            h = reduced_homology(k)
            for d in range(0, 3):
                assert h.betti(d) == betti_oracle(k, d)


class TestInvariance:
    def test_barycentric_subdivision_preserves_homology(self):
        for k in (sphere_complex(1), sphere_complex(2), projective_plane()):
            assert reduced_homology(barycentric_subdivision(k)) == reduced_homology(k)

    def test_poset_homology_of_subset_lattice(self):
        for n in range(2, 6):
            lattice = subset_lattice(range(n))
            assert reduced_homology(core_complex(lattice)) == HomologyResult.sphere(n - 2)


class TestNerve:
    def test_circle_cover_nerve(self):
        # hollow triangle covered by its three closed edges; each member
        # lists exactly its own vertices, faces are index tuples
        circle = SimplicialComplex.from_facets(range(3), [(0, 1), (1, 2), (0, 2)])
        cover = [
            SimplicialComplex.from_facets(labels, [(0, 1)])
            for labels in ([0, 1], [1, 2], [0, 2])
        ]
        nrv, audit = nerve_with_audit(cover)
        assert reduced_homology(nrv) == HomologyResult.sphere(1)
        assert all(audit.values())  # every intersection has trivial homology
        assert reduced_homology(nrv) == reduced_homology(circle)

    def test_bad_cover_detected_by_audit(self):
        # two arcs meeting in two points: intersection not connected
        top = SimplicialComplex.from_facets([0, 1, 2], [(0, 1), (1, 2)])
        bottom = SimplicialComplex.from_facets([0, 2, 3], [(0, 2), (1, 2)])
        nrv, audit = nerve_with_audit([top, bottom])
        assert audit[(0, 1)] is False  # the overlap is two points
        # and indeed the nerve (an edge) fails to see the circle
        union = SimplicialComplex.from_facets(
            range(4), [(0, 1), (1, 2), (0, 3), (2, 3)]
        )
        assert reduced_homology(nrv) != reduced_homology(union)


class TestDuality:
    def test_downset_of_boolean_lattice(self):
        # two disjoint edges inside the 2-sphere lattice on four elements
        amb = subset_lattice(range(4))
        q = [
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({0, 1}),
            frozenset({2, 3}),
        ]
        rep = alexander_duality_check(amb, q, 2)
        assert rep.hypothesis_ok and rep.duality_ok

    def test_hypothesis_failure_reported_separately(self):
        p = FinitePoset.from_relation([0, 1, 2], lambda a, b: a == b)
        rep = alexander_duality_check(p, [0], 1)
        assert not rep.hypothesis_ok

    def test_any_split_of_a_sphere_poset_satisfies_duality(self):
        # full-subcomplex duality holds for every subposet split, down-set
        # or not; a few deliberately lopsided splits
        amb = subset_lattice(range(4))
        middle = [x for x in amb.elements if len(x) == 2]
        upset = [x for x in amb.elements if 0 in x]
        pair = [frozenset({0}), frozenset({1, 2, 3})]
        for q in (middle, upset, pair):
            rep = alexander_duality_check(amb, q, 2)
            assert rep.hypothesis_ok and rep.duality_ok, rep.mismatches

    def test_wrong_shift_reports_mismatches_and_bad_hypothesis(self):
        amb = subset_lattice(range(4))
        middle = [x for x in amb.elements if len(x) == 2]
        rep = alexander_duality_check(amb, middle, 3)
        assert not rep.hypothesis_ok  # the ambient is a 2-sphere, not a 3-sphere
        assert not rep.duality_ok and rep.mismatches


class TestContractibilityAndPi1:
    def test_cones_reduce_to_a_point_and_certify(self):
        # a cone needs no shortcut: its beat-point core is one element
        cones = []
        for key in [*enumerate_graphs(2), *enumerate_graphs(3)]:
            for kind in ("c", "cc"):
                p = build_poset(parse_key(key), kind)
                cones += [p.induced(p.comparables(x)) for x in p.elements]
        for m in range(3, 6):
            p = subset_lattice(range(m))
            for x in p.elements:
                cones.append(p.induced([y for y in p.elements if y <= x]))
                cones.append(p.induced([y for y in p.elements if y >= x]))
        for cone in cones:
            assert beat_point_core(cone)[0].n == 1, cone.elements
            assert certify_contractible(cone) == "pass", cone.elements

    def test_sphere_and_empty_poset_fail(self):
        assert certify_contractible(subset_lattice(range(3))) == "fail"
        assert certify_contractible(FinitePoset([], [])) == "fail"

    def test_homotopy_verdict(self):
        sphere = subset_lattice(range(4))
        # a claim that fails is never handed to pi1
        assert homotopy_verdict(sphere, False) == ("fail", "not-evaluated")
        # the face poset of the theta graph, two vertices below three
        # edges, has no beat point; its order complex is a wedge of two
        # circles: H1 free, pi1 nontrivial, yet no contradiction
        theta = FinitePoset.from_covers(
            ["u", "v", "a", "b", "c"], [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]
        )
        assert beat_point_core(theta)[0] == theta
        assert str(poset_homology(theta)) == "H~1=Z^2"
        assert homotopy_verdict(theta, True) == ("homology-only", PI1_NONTRIVIAL)
        assert homotopy_verdict(sphere, True) == ("pass", PI1_TRIVIAL)

    def test_pi1_of_simplex_boundary(self):
        assert pi1_field(sphere_complex(2)) == PI1_TRIVIAL

    def test_pi1_of_circle(self):
        assert pi1_field(sphere_complex(1)) == PI1_NONTRIVIAL

    def test_pi1_componentwise(self):
        two = SimplicialComplex.from_facets(range(4), [(0, 1), (2, 3)])
        assert pi1_field(two) == PI1_TRIVIAL
        # a circle beside a filled triangle: the circle's loop survives
        loop_and_disk = SimplicialComplex.from_facets(
            range(6), [(0, 1), (1, 2), (0, 2), (3, 4, 5)]
        )
        assert pi1_field(loop_and_disk) == PI1_NONTRIVIAL

    def test_pi1_of_dunce_hat(self):
        # killing single letters alone stalls here at "Unknown"; the
        # merging of two generator classes is what certifies it
        k = dunce_hat()
        assert k.num_faces(2) == 36
        assert reduced_homology(k).is_trivial()
        assert pi1_field(k) == PI1_TRIVIAL

    def test_pi1_of_projective_plane(self):
        assert pi1_field(projective_plane()) == PI1_NONTRIVIAL

    def test_emptied_presentation_with_h1_is_caught(self, monkeypatch):
        monkeypatch.setattr(homology, "_live_classes", lambda k: 0)
        with pytest.raises(InvariantError):
            pi1_field(projective_plane())


class TestInvariantChecks:
    def test_invariant_error_is_not_a_usage_error(self):
        assert issubclass(InvariantError, RuntimeError)
        assert not issubclass(InvariantError, ValueError)

    def test_dropped_unit_factor_is_caught(self, monkeypatch):
        real = homology.snf_from_entries

        def drop_one_unit(entries):
            res = real(entries)
            if res.factors[:1] == (1,):
                return SNFResult(rank=res.rank - 1, factors=res.factors[1:])
            return res

        monkeypatch.setattr(homology, "snf_from_entries", drop_one_unit)
        with pytest.raises(InvariantError):
            reduced_homology(sphere_complex(2))

    def test_honest_snf_passes_the_checks(self):
        two = SimplicialComplex.from_facets(range(4), [(0, 1), (2, 3)])
        assert reduced_homology(two) == HomologyResult(((0, 1, ()),))
        assert reduced_homology(SimplicialComplex([], [])) == HomologyResult.sphere(-1)


def census_posets():
    """The six subgraph posets and both fiber posets of every rank-2/3
    census graph."""
    for key in [*enumerate_graphs(2), *enumerate_graphs(3)]:
        g = parse_key(key)
        for kind in KINDS:
            yield f"{key} {kind}", build_poset(g, kind)
        for connected_only in (False, True):
            yield f"{key} fiber{'-connected' if connected_only else ''}", fiber_poset(
                g, connected_only
            )


def uncleared_snfs(k):
    """One SNF per degree of the full boundary matrix, no row cleared."""
    return [snf_from_entries(boundary_entries(k, d)) for d in range(k.dim + 1)]


def random_complexes(seed, count):
    """Seeded random 2- and 3-complexes on 4 to 8 vertices."""
    rng = random.Random(seed)
    for _ in range(count):
        nverts = rng.randrange(4, 9)
        size = rng.choice((3, 4))
        pool = list(combinations(range(nverts), size))
        facets = rng.sample(pool, rng.randrange(1, min(14, len(pool)) + 1))
        yield SimplicialComplex.from_facets(range(nverts), facets + [(v,) for v in range(nverts)])


class TestClearing:
    @pytest.fixture
    def handed_over(self, monkeypatch):
        """Each (entries, SNF) pair that `reduced_homology` hands to and
        gets from `snf_from_entries`."""
        real = homology.snf_from_entries
        calls = []

        def recording(entries):
            res = real(entries)
            calls.append((entries, res))
            return res

        monkeypatch.setattr(homology, "snf_from_entries", recording)
        return calls

    def test_cleared_ranks_and_factors_equal_the_uncleared_ones(self, handed_over):
        rp2 = projective_plane()
        named = [
            ("torus", torus()),
            ("RP2", rp2),
            ("dunce hat", dunce_hat()),
            ("S RP2", suspension(rp2)),
            ("S2 RP2", suspension(suspension(rp2))),
        ]
        named += [
            (f"subset lattice {m}", order_complex(subset_lattice(range(m)))) for m in range(1, 7)
        ]
        census = {}  # 108 distinct complexes among the 288
        for name, p in census_posets():
            for side, k in (("core", core_complex(p)), ("full", order_complex(p))):
                census.setdefault(k.structure_key(), (f"{name} {side}", k))
        named += census.values()
        named += [(f"random {i}", k) for i, k in enumerate(random_complexes(13, 300))]
        for name, k in named:
            handed_over.clear()
            reduced_homology(k)
            # SNFResult equality compares rank and factors only
            assert [res for _, res in handed_over] == uncleared_snfs(k), name
        torsion = [str(reduced_homology(k)) for _, k in named[1:5]]
        assert torsion == ["H~1=Z/2", "0", "H~2=Z/2", "H~3=Z/2"]

    def test_rows_at_unit_pivot_columns_are_cleared(self, handed_over):
        k = order_complex(subset_lattice(range(6)))
        assert reduced_homology(k) == HomologyResult.sphere(4)
        assert len(handed_over) == k.dim + 1 == 5
        for (_, below), (entries, _) in zip(handed_over, handed_over[1:]):
            assert below.unit_pivot_cols
            assert not {i for i, _ in entries} & below.unit_pivot_cols
        # uncleared the matrices hold 62, 1,080, 4,680, 7,200 and 3,600 entries
        assert [len(entries) for entries, _ in handed_over] == [62, 1050, 4106, 4934, 1438]


def slice_boundary_entries(k, d, skip_rows=frozenset()):
    """The boundary builder that slices each facet out of its face: the
    reference for `boundary_entries`, with row 0 of the augmentation
    also left out when it is skipped."""
    faces = k.faces(d)
    entries = {}
    if d == 0:
        for j in range(len(faces)):
            if 0 not in skip_rows:
                entries[(0, j)] = 1
        return entries
    lower = k.face_index(d - 1)
    for j, face in enumerate(faces):
        for t in range(len(face)):
            i = lower[face[:t] + face[t + 1 :]]
            if i not in skip_rows:
                entries[(i, j)] = (-1) ** t
    return entries


def tuple_key_unit_pivots(rows, cols):
    """The unit-pivot loop with a sorted heap seed and a tuple key per
    candidate entry: the reference for `_eliminate_unit_pivots`."""
    heap = [(len(r), i) for i, r in sorted(rows.items())]
    heapq.heapify(heap)
    pivots = []
    while heap:
        length, r = heapq.heappop(heap)
        row = rows.get(r)
        if row is None or len(row) != length:
            continue
        pivot = None
        for j, v in row.items():
            if v == 1 or v == -1:
                key = (len(cols[j]), j)
                if pivot is None or key < pivot[0]:
                    pivot = (key, j, v)
        if pivot is None:
            continue
        _, c, pv = pivot
        pivot_row = rows.pop(r)
        for j in pivot_row:
            cols[j].discard(r)
            if not cols[j]:
                del cols[j]
        for i in sorted(cols.get(c, ())):
            other = rows[i]
            mult = other[c] * pv
            for j, v in pivot_row.items():
                if j == c:
                    continue
                new = other.get(j, 0) - mult * v
                if new:
                    if j not in other:
                        cols.setdefault(j, set()).add(i)
                    other[j] = new
                elif j in other:
                    del other[j]
                    cols[j].discard(i)
                    if not cols[j]:
                        del cols[j]
            del other[c]
            if not other:
                del rows[i]
            else:
                heapq.heappush(heap, (len(other), i))
        if c in cols:
            del cols[c]
        pivots.append(c)
    return pivots


def eliminated(loop, entries):
    """The pivots `loop` finds in the sparse matrix `entries`, and the
    rows and columns it leaves for the dense residue."""
    rows, cols = {}, {}
    for (i, j), v in entries.items():
        rows.setdefault(i, {})[j] = v
        cols.setdefault(j, set()).add(i)
    return loop(rows, cols), rows, cols


def clearing_complexes():
    """The complexes `TestClearing` reduces: named spaces, subset
    lattices, the rank-2/3 census cores and full complexes, and seeded
    random complexes."""
    rp2 = projective_plane()
    complexes = [torus(), rp2, dunce_hat(), suspension(rp2), suspension(suspension(rp2))]
    complexes += [order_complex(subset_lattice(range(m))) for m in range(1, 7)]
    census = {}
    for _, p in census_posets():
        for k in (core_complex(p), order_complex(p)):
            census.setdefault(k.structure_key(), k)
    return complexes + list(census.values()) + list(random_complexes(13, 300))


class TestKernelOracles:
    def test_boundary_and_pivots_equal_the_references_on_clearing_complexes(self):
        for k in clearing_complexes():
            cleared = frozenset()
            for d in range(k.dim + 1):
                for skip in (frozenset(), cleared):
                    assert boundary_entries(k, d, skip) == slice_boundary_entries(k, d, skip)
                entries = boundary_entries(k, d, cleared)
                pivots, rows, cols = eliminated(homology._eliminate_unit_pivots, entries)
                assert (pivots, rows, cols) == eliminated(tuple_key_unit_pivots, entries), k
                cleared = frozenset(pivots)

    def test_pivots_equal_the_reference_on_random_integer_matrices(self):
        rng = random.Random(26)
        residues = 0
        for _ in range(400):
            nrows, ncols = rng.randrange(1, 13), rng.randrange(1, 13)
            entries = {
                (i, j): rng.choice((-1, 1, 1, -2, 2, 3, -4, 6))
                for i in range(nrows)
                for j in range(ncols)
                if rng.random() < 0.4
            }
            pivots, rows, cols = eliminated(homology._eliminate_unit_pivots, entries)
            assert (pivots, rows, cols) == eliminated(tuple_key_unit_pivots, entries), entries
            residues += bool(rows)
        assert residues > 100  # the dense phase gets work on many of them

    def test_skipped_augmentation_row_is_left_out(self):
        k = sphere_complex(1)
        assert boundary_entries(k, 0) == {(0, 0): 1, (0, 1): 1, (0, 2): 1}
        assert boundary_entries(k, 0, frozenset({0})) == {}
        assert boundary_entries(k, 0, frozenset({5})) == boundary_entries(k, 0)


class TestBeatPointReduction:
    def test_core_keeps_homology(self, monkeypatch):
        monkeypatch.setattr(homology, "_homology_cache", OrderedDict())
        shrunk = 0
        for name, p in census_posets():
            full, core = order_complex(p), core_complex(p)
            h = reduced_homology(full)
            assert reduced_homology(core) == h and poset_homology(p) == h, name
            shrunk += core.num_faces() < full.num_faces()
        # cores are unique up to isomorphism, so which posets have a beat
        # point does not depend on the removal order: 77 of the 144
        assert shrunk == 77

    def test_core_keeps_pi1_verdict(self):
        verdicts = Counter()
        for name, p in census_posets():
            core = pi1_field(core_complex(p))
            assert core == pi1_field(order_complex(p)), name
            verdicts[core] += 2  # the core and the full complex
        assert verdicts == {PI1_TRIVIAL: 140, PI1_NONTRIVIAL: 148}

    def test_components_are_memoised_as_copies(self):
        two = SimplicialComplex.from_facets(range(4), [(0, 1), (2, 3)])
        first = two.components()
        first[0].add(99)
        assert two.components() == [{0, 1}, {2, 3}]


def _rows(leq):
    """The up-rows of a boolean relation matrix: bit j of row i is leq[i, j]."""
    return [sum(1 << int(j) for j in np.flatnonzero(row)) for row in leq]


def chain(labels):
    return FinitePoset(labels, _rows(np.triu(np.ones((len(labels), len(labels)), dtype=bool))))


def antichain(labels):
    return FinitePoset(labels, _rows(np.eye(len(labels), dtype=bool)))


class TestHomologyMemo:
    @pytest.fixture
    def built(self, monkeypatch):
        """A fresh route memo, and each complex that a boundary matrix is
        built for."""
        monkeypatch.setattr(homology, "_homology_cache", OrderedDict())
        built = []
        real = homology.boundary_entries

        def counting(k, d, skip_rows=frozenset()):
            built.append(k)
            return real(k, d, skip_rows)

        monkeypatch.setattr(homology, "boundary_entries", counting)
        return built

    def test_reduced_homology_keeps_no_state(self, built):
        k = torus()
        assert reduced_homology(k) == reduced_homology(k)
        assert built == [k] * 2 * (k.dim + 1)
        assert not homology._homology_cache

    def test_route_stores_a_fallback_with_no_verdict(self, built):
        k = torus()
        entry = homology._core_homotopy(k)
        assert entry == (reduced_homology(k), None) and len(built) == 2 * (k.dim + 1)
        assert homology._homology_cache == {k.structure_key(): entry}
        assert homology._core_homotopy(k) == entry and len(built) == 2 * (k.dim + 1)

    def test_memo_is_bounded_and_least_recently_used(self, built, monkeypatch):
        bound = homology._HOMOLOGY_CACHE_MAX
        paths = [
            SimplicialComplex.from_facets(range(n), [(i, i + 1) for i in range(n - 1)])
            for n in range(2, bound + 4)
        ]
        for k in paths:
            homology._core_homotopy(k)
        assert len(paths) == bound + 2 and len(homology._homology_cache) == bound
        made = []
        real = homology._coreduction_matching
        monkeypatch.setattr(homology, "_coreduction_matching", lambda k: made.append(k) or real(k))
        for k in paths[-(bound - 1) :]:
            homology._core_homotopy(k)
        assert made == []
        # a hit refreshes an entry, so the next miss evicts paths[3], not it
        homology._core_homotopy(paths[2])
        assert made == []
        homology._core_homotopy(paths[0])
        assert made == [paths[0]] and len(homology._homology_cache) == bound
        assert paths[2].structure_key() in homology._homology_cache
        assert paths[3].structure_key() not in homology._homology_cache
        assert built == []  # paths are matched: no SNF


class TestCoreComplexMemo:
    @pytest.fixture
    def reductions(self, monkeypatch):
        """A cleared memo, and the posets `beat_point_core` is run on."""
        seen = []

        def counting(p):
            seen.append(p)
            return beat_point_core(p)

        monkeypatch.setattr(homology, "beat_point_core", counting)
        core_complex.cache_clear()
        yield seen
        core_complex.cache_clear()

    def test_equal_poset_reuses_the_checked_core(self, reductions):
        g = parse_key("3;0-1,0-1,0-2,1-2,2-2")
        first = core_complex(build_poset(g, "x"))
        again = build_poset(g, "x")
        assert core_complex(again) is first
        assert len(reductions) == 1
        fresh = order_complex(beat_point_core(again)[0])
        assert first.vertices == fresh.vertices
        assert first.structure_key() == fresh.structure_key()

    def test_same_labels_other_order_is_another_entry(self, reductions):
        point, four = core_complex(chain(range(4))), core_complex(antichain(range(4)))
        assert len(reductions) == 2 and core_complex.cache_info().currsize == 2
        assert (point.num_faces(), four.num_faces()) == (1, 4)

    def test_same_order_other_labels_is_another_entry(self, reductions):
        digits, letters = core_complex(antichain(range(4))), core_complex(antichain("abcd"))
        assert len(reductions) == 2 and core_complex.cache_info().currsize == 2
        assert (digits.vertices, letters.vertices) == ([0, 1, 2, 3], list("abcd"))

    def test_memo_is_bounded_and_least_recently_used(self, reductions):
        bound = homology._CORE_COMPLEX_CACHE_MAX
        assert core_complex.cache_info().maxsize == bound == 16
        posets = [antichain(range(n)) for n in range(1, bound + 4)]
        kept = core_complex(posets[0])
        for p in posets[1:]:
            assert core_complex(posets[0]) is kept  # keep the first one fresh
            core_complex(p)
        assert core_complex.cache_info().currsize == bound
        assert len(reductions) == len(posets)
        assert core_complex(posets[0]) is kept and len(reductions) == len(posets)
        core_complex(posets[1])  # evicted, so reduced again
        assert len(reductions) == len(posets) + 1

    def test_failed_check_is_never_stored(self, monkeypatch):
        def no_witnesses(p):
            return beat_point_core(p)[0], []

        monkeypatch.setattr(homology, "beat_point_core", no_witnesses)
        core_complex.cache_clear()
        try:
            for _ in range(2):
                with pytest.raises(InvariantError, match="do not match the core"):
                    core_complex(chain(range(4)))
            assert core_complex.cache_info().currsize == 0
        finally:
            core_complex.cache_clear()


# ---------------------------------------------------------------------------
# acyclic matchings
# ---------------------------------------------------------------------------

CIRCLE_ORDER = [(None, (0,)), ((1,), (0, 1)), ((2,), (0, 2)), (None, (1, 2))]


class TestMatchingReplay:
    def test_the_circle_leaves_a_vertex_and_an_edge(self):
        k = sphere_complex(1)
        assert homology._coreduction_matching(k) == CIRCLE_ORDER
        assert homology._replay_matching(k, CIRCLE_ORDER) == {0: 1, 1: 1}

    @pytest.mark.parametrize(
        "order, message",
        [
            # a V-path around the circle closes: 0, 01, 1, 12, 2, 02, 0
            ([((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))], "before another facet"),
            ([((1,), (0, 1)), (None, (0,)), ((2,), (0, 2)), (None, (1, 2))], "before another facet"),
            ([(None, (0,)), ((2,), (0, 1)), ((1,), (1, 2)), (None, (0, 2))], "not incident"),
            ([(None, (1,)), ((1,), (0, 1)), ((2,), (1, 2)), (None, (0, 2))], "twice"),
            (CIRCLE_ORDER + [(None, (1, 2))], "twice"),
            (CIRCLE_ORDER[:-1], r"never removes \(1, 2\)"),
            ([(None, (0,)), (None, (1, 2)), ((1,), (0, 1)), ((2,), (0, 2))], "before its facets"),
            (CIRCLE_ORDER + [(None, (0, 1, 2))], r"removes \(0, 1, 2\), which is not a face"),
        ],
    )
    def test_replay_refuses_a_bad_order(self, order, message):
        with pytest.raises(InvariantError, match=message):
            homology._replay_matching(sphere_complex(1), order)

    def test_every_step_moved_first_is_refused(self):
        # at the front nothing is gone yet, so only a critical vertex may
        # stand there; the producer's first step is one
        k = order_complex(subset_lattice(range(4)))
        order = homology._coreduction_matching(k)
        assert homology._replay_matching(k, order) == {0: 1, 2: 1}
        for i, step in enumerate(order[1:], 1):
            moved = [step, *order[:i], *order[i + 1 :]]
            with pytest.raises(InvariantError):
                homology._replay_matching(k, moved)

    @pytest.mark.parametrize(
        "space, critical",
        [
            (dunce_hat, {0: 1, 1: 1, 2: 1}),  # contractible, not collapsible
            (projective_plane, {0: 1, 1: 1, 2: 1}),  # torsion
            (torus, {0: 1, 1: 2, 2: 1}),  # two degrees
        ],
    )
    def test_spaces_without_a_perfect_matching_fall_back_to_snf(
        self, space, critical, monkeypatch
    ):
        k = space()
        assert homology._replay_matching(k, homology._coreduction_matching(k)) == critical
        monkeypatch.setattr(homology, "_homology_cache", OrderedDict())
        snfs = []
        real = homology.snf_from_entries
        monkeypatch.setattr(homology, "snf_from_entries", lambda e: snfs.append(e) or real(e))
        h, pi1 = homology._core_homotopy(k)
        assert pi1 is None and len(snfs) == k.dim + 1
        assert h == reduced_homology(k)

    def test_component_check_catches_a_miscounted_matching(self, monkeypatch):
        monkeypatch.setattr(homology, "_homology_cache", OrderedDict())
        monkeypatch.setattr(homology, "_replay_matching", lambda k, order: {0: 1})
        two = SimplicialComplex.from_facets(range(2), [(0,), (1,)])
        with pytest.raises(InvariantError, match="components"):
            homology._core_homotopy(two)

    def test_points_and_wedges(self, monkeypatch):
        monkeypatch.setattr(homology, "_homology_cache", OrderedDict())
        three = SimplicialComplex.from_facets(range(3), [(0,), (1,), (2,)])
        assert homology._core_homotopy(three) == (HomologyResult(((0, 2, ()),)), PI1_TRIVIAL)
        disk = SimplicialComplex.from_facets(range(3), [(0, 1, 2)])
        assert homology._core_homotopy(disk) == (HomologyResult(()), PI1_TRIVIAL)
        s2 = sphere_complex(2)
        assert homology._core_homotopy(s2) == (HomologyResult.sphere(2), PI1_TRIVIAL)
        # the empty complex has no vertex to start from
        assert homology._core_homotopy(SimplicialComplex([], [])) == (
            HomologyResult.sphere(-1),
            None,
        )

    def test_matched_verdict_is_memoised_beside_the_homology(self, monkeypatch):
        monkeypatch.setattr(homology, "_homology_cache", OrderedDict())
        core_complex.cache_clear()
        replays = []
        real = homology._replay_matching
        monkeypatch.setattr(
            homology, "_replay_matching", lambda k, order: replays.append(k) or real(k, order)
        )

        def no_presentation(k):
            raise AssertionError("a matched complex reads no presentation")

        monkeypatch.setattr(homology, "_live_classes", no_presentation)
        theta = FinitePoset.from_covers(
            ["u", "v", "a", "b", "c"], [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]
        )
        assert str(poset_homology(theta)) == "H~1=Z^2"
        assert homotopy_verdict(theta, True) == ("homology-only", PI1_NONTRIVIAL)
        k = core_complex(theta)
        assert homology._homology_cache[k.structure_key()] == (poset_homology(theta), PI1_NONTRIVIAL)
        assert reduced_homology(k) == poset_homology(theta)  # SNF agrees
        assert len(replays) == 1


def census_core_complexes():
    """The distinct core complexes of the rank 2/3 census posets (every
    kind, and both fiber posets) and of the rank-4 x, cx, c and cc."""
    posets = [p for _, p in census_posets()]
    posets += [build_poset(parse_key(key), kind) for key in enumerate_graphs(4) for kind in ("x", "cx", "c", "cc")]
    found = {}
    for p in posets:
        k = core_complex(p)
        found.setdefault(k.structure_key(), k)
    return list(found.values())


class TestMatchingOracle:
    def routes(self, k):
        """(matched verdict on a cleared memo, SNF and presentation
        verdict); the first is None where the matching falls back."""
        homology._homology_cache.clear()
        h, pi1 = homology._core_homotopy(k)
        return (h, pi1) if pi1 else None, (reduced_homology(k), pi1_field(k))

    def test_matched_verdicts_equal_snf_and_the_presentation(self, monkeypatch):
        monkeypatch.setattr(homology, "_homology_cache", OrderedDict())
        census = census_core_complexes()
        clearing = clearing_complexes()
        fallbacks = Counter()
        for group, complexes in (("census", census), ("clearing", clearing)):
            for k in complexes:
                matched, reference = self.routes(k)
                if matched is None:
                    fallbacks[group] += 1
                else:
                    assert matched == reference, k
        # the empty complex falls back, having no vertex to start from
        # (among the clearing complexes it is the proper part of the
        # one-element subset lattice and a census core); so do the torus,
        # RP2, the dunce hat, two suspensions of RP2 and 23 random ones
        assert (len(census), len(clearing)) == (222, 419)
        assert fallbacks == {"census": 1, "clearing": 30}

    def test_every_rank4_deep_complex_is_matched(self, monkeypatch):
        # a producer change that loses matchings shows up here
        monkeypatch.setattr(homology, "_homology_cache", OrderedDict())
        seen = {}
        real = homology._core_homotopy

        def recording(k):
            seen.setdefault(k.structure_key(), k)
            return real(k)

        monkeypatch.setattr(homology, "_core_homotopy", recording)
        assert run_suite("rank4-deep", deep_budget=1e9).ok
        fallbacks = [k for k in seen.values() if self.routes(k)[0] is None]
        assert (len(seen), len(fallbacks)) == (137, 0)
