"""Finite posets: construction, induced structure, maps, retraction certificates,
beat-point cores."""

import random
import re
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from posetlab.enumeration import enumerate_graphs, fiber_poset, parse_key
from posetlab.graph_posets import build_poset, core_map
from posetlab.homology import InvariantError, check_beat_witnesses
from posetlab.simplicial import SimplicialComplex
from posetlab.poset import (
    CertificateError,
    FinitePoset,
    PosetError,
    PosetMap,
    _bits,
    _down_rows,
    _inclusion_rows,
    _raise_first_fault,
    _upper_covers,
    beat_point_core,
    closure_retraction,
    order_complex,
    poset_of_subsets,
    subset_lattice,
)


def chain(n):
    els = list(range(n))
    return FinitePoset.from_relation(els, lambda a, b: a <= b)


def antichain(n):
    els = list(range(n))
    return FinitePoset.from_relation(els, lambda a, b: a == b)


def divisibility(n):
    els = list(range(1, n + 1))
    return FinitePoset.from_relation(els, lambda a, b: b % a == 0)


def opposite(p):
    """p with its order reversed: the same elements, transposed rows."""
    return FinitePoset(p.elements, _down_rows(p.up))


class TestConstruction:
    def test_from_relation_and_le(self):
        p = divisibility(12)
        assert p.le(3, 12) and not p.le(5, 12)
        assert p.le(4, 4)

    def test_from_covers_transitive_closure(self):
        p = FinitePoset.from_covers("abc", [(0, 1), (1, 2)])
        assert p.le("a", "c")

    def test_reflexivity_and_antisymmetry_enforced(self):
        with pytest.raises(PosetError):
            FinitePoset.from_relation([0, 1], lambda a, b: True)

    def test_covers_of_chain(self):
        p = chain(4)
        assert sorted(p.covers()) == [(0, 1), (1, 2), (2, 3)]

    def test_opposite_involution(self):
        p = divisibility(8)
        assert opposite(opposite(p)) == p
        assert opposite(p).le(8, 1)

    def test_equal_posets_hash_equal(self):
        p = divisibility(12)
        q = FinitePoset(list(p.elements), list(p.up))
        assert p == q and p is not q and hash(p) == hash(q)
        assert len({p, q, opposite(p)}) == 2

    def test_induced_preserves_order(self):
        p = divisibility(12)
        q = p.induced([1, 2, 4, 8])
        assert q.n == 4 and q.le(2, 8)


def _fan_relation(with_top_over_bottom):
    """258 elements: 0 <= m <= 1 for the 256 middle elements m = 2..257.

    There are 256 two-step paths from 0 to 1, exactly the count at which
    a uint8 path count wraps to zero.
    """
    n = 258
    leq = np.eye(n, dtype=bool)
    leq[0, 2:] = True
    leq[2:, 1] = True
    leq[0, 1] = with_top_over_bottom
    return leq


def _warshall(leq):
    leq = leq.copy()
    for k in range(len(leq)):
        leq |= np.outer(leq[:, k], leq[k, :])
    return leq


def _rows(leq):
    """The up-rows of a boolean relation matrix: bit j of row i is leq[i, j]."""
    return tuple(sum(1 << int(j) for j in np.flatnonzero(row)) for row in leq)


def _matrix(p):
    """The <= matrix of p, read back bit by bit from its up-rows."""
    bits = [[row >> j & 1 for j in range(p.n)] for row in p.up]
    return np.array(bits, dtype=bool).reshape(p.n, p.n)


def _first_fault(labels, leq):
    """The message FinitePoset must give for a boolean relation matrix,
    from a numpy reference: reflexivity first, then antisymmetry, then
    transitivity, each at its first pair in row-major order."""
    n = len(labels)
    diagonal = leq.diagonal()
    if not diagonal.all():
        return f"not reflexive at {labels[int(np.flatnonzero(~diagonal)[0])]!r}"
    sym = leq & leq.T & ~np.eye(n, dtype=bool)
    if sym.any():
        i, j = np.argwhere(sym)[0]
        return f"antisymmetry fails on {labels[i]!r}, {labels[j]!r}"
    counts = leq.astype(np.int64) @ leq.astype(np.int64)
    missing = (counts > 0) & ~leq
    if missing.any():
        i, j = np.argwhere(missing)[0]
        return f"transitivity fails: {labels[i]!r} .. {labels[j]!r}"
    return None


class TestExactComposition:
    def test_transitivity_failure_seen_past_256_paths(self):
        with pytest.raises(PosetError, match="transitivity fails: 0 .. 1"):
            FinitePoset(range(258), _rows(_fan_relation(False)))

    def test_covers_skip_pair_with_256_elements_between(self):
        covers = set(FinitePoset(range(258), _rows(_fan_relation(True))).covers())
        assert (0, 1) not in covers
        assert covers == {(0, m) for m in range(2, 258)} | {(m, 1) for m in range(2, 258)}

    def test_from_covers_equals_warshall_closure(self):
        covers = [(0, m) for m in range(2, 258)] + [(m, 1) for m in range(2, 258)]
        p = FinitePoset.from_covers(range(258), covers)
        assert p.up == _rows(_warshall(_fan_relation(False)))
        assert p.le(0, 1)

    def test_from_covers_random_dags_equal_warshall(self):
        rng = random.Random(11)
        for n in (1, 2, 7, 40):
            covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.1]
            base = np.eye(n, dtype=bool)
            for i, j in covers:
                base[i, j] = True
            p = FinitePoset.from_covers(range(n), covers)
            assert p.up == _rows(_warshall(base))


def _random_order(rng, n, density=0.15):
    """A random partial order on shuffled positions, as its <= matrix."""
    perm = rng.sample(range(n), n)
    base = np.eye(n, dtype=bool)
    for a, b in combinations(range(n), 2):
        if rng.random() < density:
            base[perm[a], perm[b]] = True
    return _warshall(base)


def _flipped_order(rng, n):
    """A random partial order with a few entries flipped: a flipped
    diagonal breaks reflexivity, an added pair may close a cycle or open
    a gap, a dropped pair may open a gap."""
    leq = _random_order(rng, n)
    for _ in range(rng.randrange(0, 4)):
        i, j = rng.randrange(n), rng.randrange(n)
        leq[i, j] = not leq[i, j]
    return leq


_FAULT_KINDS = ("valid", "not reflexive", "antisymmetry", "transitivity")


def _fault_kind(leq):
    """Build FinitePoset from a relation matrix, check its verdict
    against the numpy reference, and name the verdict's kind."""
    labels = [f"e{i}" for i in range(len(leq))]
    expected = _first_fault(labels, leq)
    if expected is None:
        assert FinitePoset(labels, _rows(leq)).up == _rows(leq)
        return "valid"
    with pytest.raises(PosetError) as exc:
        FinitePoset(labels, _rows(leq))
    assert str(exc.value) == expected
    return next(k for k in _FAULT_KINDS if expected.startswith(k))


class TestValidation:
    def test_first_fault_matches_numpy_reference(self):
        rng = random.Random(13)
        kinds = Counter(_fault_kind(_flipped_order(rng, rng.randrange(1, 24))) for _ in range(600))
        assert min(kinds[k] for k in _FAULT_KINDS) >= 40, kinds

    def test_first_fault_past_one_limb(self):
        # more than 64 elements: every row spans several 30-bit limbs (a
        # flip rarely lands on the diagonal here; the test above covers it)
        rng = random.Random(17)
        kinds = Counter(_fault_kind(_flipped_order(rng, rng.randrange(65, 100))) for _ in range(60))
        assert min(kinds[k] for k in ("valid", "antisymmetry", "transitivity")) >= 5, kinds

    def test_equal_rows_break_antisymmetry(self):
        # a transitive relation in which two elements lie below each other:
        # every row is closed, and the fault is seen through the equal rows
        rng = random.Random(19)
        for n in (2, 5, 23, 70):
            for _ in range(10):
                leq = _random_order(rng, n)
                a, b = rng.sample(range(n), 2)
                leq[a, b] = leq[b, a] = True
                leq = _warshall(leq)
                assert len(set(_rows(leq))) < n
                assert _fault_kind(leq) == "antisymmetry"

    def test_rows_must_be_masks_of_the_elements(self):
        with pytest.raises(PosetError, match="1 rows do not match 2 elements"):
            FinitePoset("ab", [1])
        for row in (0b101, -1, 1.0):
            with pytest.raises(PosetError, match="not a mask of 2 bits"):
                FinitePoset("ab", [row, 0b10])
        with pytest.raises(PosetError, match="duplicate"):
            FinitePoset("aa", [1, 2])


def pair_loop_message(labels, up):
    """The verdict of the pair loop that validated rows before the covers
    walk: None for a partial order, else the fault's message.  Each
    reflexive row ORs the rows of all its strict members and must not
    grow, and then the rows must all differ."""
    try:
        for i, row in enumerate(up):
            reach = row
            above = row ^ 1 << i
            while above:
                j = above.bit_length() - 1
                reach |= up[j]
                above ^= 1 << j
            if reach != row:
                _raise_first_fault(labels, up)
        if len(set(up)) != len(up):
            _raise_first_fault(labels, up)
    except PosetError as exc:
        return str(exc)
    return None


def covers_walk_message(labels, up):
    try:
        FinitePoset(labels, up)
    except PosetError as exc:
        return str(exc)
    return None


class TestCoversWalk:
    def test_validation_equals_pair_loop(self):
        # random posets on shuffled positions either side of 64 elements,
        # their opposites, and each of those with one off-diagonal bit flipped
        rng = random.Random(43)
        verdicts = Counter()
        for n in (2, 5, 17, 40, 62, 63, 64, 65, 66, 90, 130):
            for _ in range(12):
                leq = _random_order(rng, n, rng.choice([0.02, 0.08, 0.3]))
                for rel in (leq, leq.T):
                    flipped = rel.copy()
                    i, j = rng.sample(range(n), 2)
                    flipped[i, j] = not flipped[i, j]
                    for case in (rel, flipped):
                        labels = [f"e{k}" for k in range(n)]
                        up = _rows(case)
                        expected = pair_loop_message(labels, up)
                        assert covers_walk_message(labels, up) == expected, (n, i, j)
                        verdicts[expected and expected.split()[0]] += 1
        assert verdicts[None] > 300, verdicts
        assert verdicts["antisymmetry"] > 40 and verdicts["transitivity"] > 100, verdicts

    def test_upper_covers_equal_pair_definition(self):
        # j covers i inside the mask: i < j, and no k of the mask between,
        # under random masks and element orders that are not extensions
        rng = random.Random(47)
        for n in (1, 7, 30, 63, 64, 65, 100):
            for _ in range(6):
                leq = _random_order(rng, n, rng.choice([0.05, 0.2, 0.5]))
                up = _rows(leq)
                strict = leq & ~np.eye(n, dtype=bool)
                for _ in range(8):
                    inside = [k for k in range(n) if rng.random() < rng.random()]
                    mask = sum(1 << k for k in inside)
                    for i in rng.sample(range(n), min(n, 10)):
                        expected = [
                            j
                            for j in inside
                            if strict[i, j] and not any(strict[i, k] and strict[k, j] for k in inside)
                        ]
                        assert _upper_covers(up, i, mask) == expected, (n, i)


class TestSubsetLattices:
    def test_proper_nonempty_subsets_count(self):
        for n in range(1, 9):  # up to SUBSET_LATTICE_MAX_MEMBERS
            assert subset_lattice(range(n)).n == 2**n - 2

    def test_poset_of_subsets_inclusion_order(self):
        p = poset_of_subsets([frozenset({0}), frozenset({0, 1}), frozenset({2})])
        assert p.le(frozenset({0}), frozenset({0, 1}))
        assert not p.comparable(frozenset({0}), frozenset({2}))

    def test_empty_input(self):
        p = poset_of_subsets([])
        assert p.n == 0
        assert order_complex(p).num_faces() == 0

    def test_more_than_63_members_rejected(self):
        p = poset_of_subsets([frozenset(range(63)), frozenset({0})])
        assert p.le(frozenset({0}), frozenset(range(63)))
        with pytest.raises(ValueError, match="int64 mask"):
            poset_of_subsets([frozenset(range(64))])


class TestInclusionRows:
    def test_member_lists_equal_pair_definition(self):
        # bit j of row i is set when list i's members all lie in list j:
        # random families of masks given by their bits, with repeats and
        # the empty set, and the complements within 2w bits of masks
        # F | (F | H) << w, as the fiber poset passes them
        rng = random.Random(43)
        for n in (0, 1, 9, 40, 90):
            for width in (1, 5, 12, 70):
                masks = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(n)]
                if n > 1:
                    masks[-1] = masks[0]
                pairs = []
                for _ in range(n):
                    f = rng.getrandbits(width) & rng.getrandbits(width) & rng.getrandbits(width)
                    pairs.append(f | (f | rng.getrandbits(width)) << width)
                full = (1 << 2 * width) - 1
                for family in (masks, [full ^ fh for fh in pairs]):
                    rows = _inclusion_rows([_bits(mask) for mask in family])
                    assert rows == [
                        sum(1 << j for j, b in enumerate(family) if not a & ~b) for a in family
                    ], (n, width)
        # members need not be ints: the rows depend only on the lists
        assert _inclusion_rows([("b",), (), ("a", "b"), ("a",)]) == [0b0101, 0b1111, 0b0100, 0b1100]


def naive_beat_points(p):
    """Elements whose strict up-set has a minimum or whose strict down-set
    has a maximum, straight from the definition."""
    out = []
    leq = _matrix(p)
    for i, x in enumerate(p.elements):
        for rel in (leq, leq.T):
            strict = np.flatnonzero(rel[i])
            strict = strict[strict != i]
            if len(strict) and rel[np.ix_(strict, strict)].all(axis=1).any():
                out.append(x)
                break
    return out


def random_poset(rng, n, density):
    covers = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return FinitePoset.from_covers(range(n), covers)


def bowtie_with_tail():
    """0, 1 below both 2 and 3 (a circle, no beat points), and 4 above 2
    only: 2 and 4 are beat points, each the witness of the other."""
    rel = {(0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (0, 4), (1, 4)}
    return FinitePoset.from_relation(range(5), lambda a, b: a == b or (a, b) in rel)


class TestBeatPointCore:
    def test_poset_with_maximum_reduces_to_one_point(self):
        subsets = [frozenset(c) for k in range(1, 5) for c in combinations(range(4), k)]
        p = poset_of_subsets(subsets)
        core, witnesses = beat_point_core(p)
        assert core.elements == [frozenset(range(4))]
        assert len(witnesses) == p.n - 1
        check_beat_witnesses(p, core, witnesses)

    def test_chain_and_empty(self):
        core, witnesses = beat_point_core(chain(5))
        assert core.n == 1 and len(witnesses) == 4
        core, witnesses = beat_point_core(FinitePoset([], []))
        assert core.n == 0 and witnesses == []

    def test_subset_lattice_has_no_beat_points(self):
        p = subset_lattice(range(4))
        assert naive_beat_points(p) == []
        core, witnesses = beat_point_core(p)
        assert witnesses == [] and core == p

    def test_antichain_is_its_own_core(self):
        core, witnesses = beat_point_core(antichain(4))
        assert witnesses == [] and core == antichain(4)

    def test_beat_free_poset_is_its_own_core(self):
        # a cx core image of rank 4, as in rank4-deep, and a subset lattice
        cc = build_poset(parse_key(enumerate_graphs(4)[0]), "cc")
        for p in (subset_lattice(range(4)), cc):
            core, witnesses = beat_point_core(p)
            assert core is p and witnesses == []
            check_beat_witnesses(p, core, witnesses)

    def test_checker_rejects_a_full_core_with_a_changed_row(self):
        p = subset_lattice(range(4))
        rows = list(p.up)
        # drop the cover {0} < {0, 1}: still a partial order, but not p's
        rows[p.index(frozenset({0}))] &= ~(1 << p.index(frozenset({0, 1})))
        changed = FinitePoset(p.elements, rows)
        with pytest.raises(InvariantError, match="survivors do not match"):
            check_beat_witnesses(p, changed, [])
        with pytest.raises(InvariantError, match="survivors do not match"):
            check_beat_witnesses(p, p.induced(p.elements[1:]), [])

    def test_skips_a_candidate_whose_witness_went_first(self):
        p = bowtie_with_tail()
        core, witnesses = beat_point_core(p)
        assert witnesses == [(2, 4, "up")]
        assert core.elements == [0, 1, 3, 4]
        check_beat_witnesses(p, p.induced([0, 1, 2, 3]), [(4, 2, "down")])

    def test_random_cores_are_checked_and_beat_free(self):
        rng = random.Random(7)
        for _ in range(60):
            p = random_poset(rng, rng.randrange(1, 25), rng.choice([0.1, 0.2, 0.4]))
            core, witnesses = beat_point_core(p)
            check_beat_witnesses(p, core, witnesses)
            assert naive_beat_points(core) == []
            assert core == p.induced(core.elements)
            assert core.n + len(witnesses) == p.n

    @pytest.mark.parametrize(
        "poset, witnesses, message",
        [
            # 0 has upper covers 2 and 3: not a beat point, so no minimum
            (bowtie_with_tail(), [(0, 2, "up")], "not the minimum"),
            # 4 is a beat point, but its strict down-set's maximum is 2
            (bowtie_with_tail(), [(4, 0, "down")], "not the maximum"),
            (bowtie_with_tail(), [(4, 3, "down")], "not the maximum"),
            (chain(3), [(1, 2, "up"), (0, 1, "up")], "already removed"),
            (chain(3), [(0, 1, "up"), (0, 1, "up")], "removed twice"),
            (chain(3), [(0, 1, "sideways")], "side"),
            (chain(3), [(0, 7, "up")], "non-element"),
        ],
    )
    def test_checker_rejects_forged_witnesses(self, poset, witnesses, message):
        core = poset.induced([x for x in poset.elements if x not in {w[0] for w in witnesses}])
        with pytest.raises(InvariantError, match=message):
            check_beat_witnesses(poset, core, witnesses)

    def test_checker_rejects_wrong_survivors(self):
        p = bowtie_with_tail()
        with pytest.raises(InvariantError, match="survivors"):
            check_beat_witnesses(p, p, [(4, 2, "down")])
        with pytest.raises(InvariantError, match="survivors"):
            check_beat_witnesses(p, p.induced([0, 1, 2, 3]), [])

    def test_checker_rejects_survivors_in_another_order(self):
        # the right survivors, but the core forgets that 0 <= 2
        core = FinitePoset.from_relation([0, 2], lambda a, b: a == b)
        with pytest.raises(InvariantError, match="survivors"):
            check_beat_witnesses(chain(3), core, [(1, 2, "up")])
        check_beat_witnesses(chain(3), chain(3).induced([0, 2]), [(1, 2, "up")])

    def test_invariant_error_is_not_a_value_error(self):
        with pytest.raises(InvariantError) as info:
            check_beat_witnesses(chain(3), chain(3), [(0, 2, "up")])
        assert not isinstance(info.value, ValueError)


class TestOrderComplex:
    def test_chain_gives_full_simplex(self):
        k = order_complex(chain(4))
        assert k.dim == 3
        assert k.num_faces(3) == 1

    def test_antichain_gives_points(self):
        k = order_complex(antichain(5))
        assert k.dim == 0 and k.num_faces(0) == 5

    def test_triangle_from_longest_chain(self):
        k = order_complex(divisibility(4))
        # 1 < 2 < 4 is the only 3-chain
        assert k.num_faces(2) == 1

    def test_chain_count_exact(self):
        k = order_complex(divisibility(4))
        pairs = [(a, b) for a in (1, 2, 3, 4) for b in (1, 2, 3, 4) if a < b and b % a == 0]
        assert k.num_faces(1) == len(pairs)


class TestMaps:
    def test_map_must_preserve_order(self):
        p = chain(3)
        with pytest.raises(PosetError):
            PosetMap(p, p, {0: 2, 1: 1, 2: 0})

    def test_first_violation_in_row_major_order(self):
        # the message names the pair an element-by-element double loop meets first
        def first_violation(src, tgt, f):
            for x in src.elements:
                for y in src.elements:
                    if src.le(x, y) and not tgt.le(f[x], f[y]):
                        return f"not order-preserving: {x!r} <= {y!r} but images are not"
            return None

        with pytest.raises(PosetError) as exc:
            PosetMap(chain(3), chain(3), {0: 2, 1: 1, 2: 0})
        assert str(exc.value) == "not order-preserving: 0 <= 1 but images are not"

        rng = random.Random(5)
        p = divisibility(12)
        q = FinitePoset.from_relation("abcdef", lambda a, b: a <= b)
        violations = 0
        for _ in range(300):
            f = {x: rng.choice(q.elements) for x in p.elements}
            expected = first_violation(p, q, f)
            if expected is None:
                PosetMap(p, q, f)
                continue
            violations += 1
            with pytest.raises(PosetError) as exc:
                PosetMap(p, q, f)
            assert str(exc.value) == expected
        assert violations > 100

    def test_image_outside_target_rejected(self):
        p = chain(3)
        with pytest.raises(PosetError, match="is not an element"):
            PosetMap(p, p, {0: 0, 1: 7, 2: 2})
        with pytest.raises(PosetError, match="map not defined"):
            PosetMap(p, p, {0: 0, 1: 1})

    def test_non_elements_keep_their_messages(self):
        # positions are looked up directly; a miss still raises the
        # message of the first non-element, with no witness
        p = divisibility(6)
        for subset, first in (([7], 7), ([1, 9, 2, 8], 9), ([6, "a", 0], "a")):
            with pytest.raises(PosetError) as exc:
                p.induced(subset)
            assert str(exc.value) == f"{first!r} is not an element"
            assert exc.value.witness is None
        mapping = {x: x for x in p.elements} | {3: 7, 4: 8}
        with pytest.raises(PosetError) as exc:
            PosetMap(p, p, mapping)
        assert str(exc.value) == "7 is not an element" and exc.value.witness is None
        with pytest.raises(PosetError) as exc:
            PosetMap(p, chain(3), {x: x % 4 for x in p.elements})
        assert str(exc.value) == "3 is not an element"

    def test_compose_and_image(self):
        p = chain(3)
        f = PosetMap(p, p, {0: 0, 1: 0, 2: 2})
        assert sorted(f.image()) == [0, 2]

    def test_monotonicity_classification(self):
        p = chain(3)
        ident = PosetMap.from_function(p, p, lambda x: x)
        assert closure_retraction(p, ident).direction == "both"
        down = PosetMap(p, p, {0: 0, 1: 0, 2: 2})
        assert closure_retraction(p, down).direction == "decreasing"
        op = opposite(p)
        up = PosetMap(op, op, {0: 0, 1: 0, 2: 2})
        assert closure_retraction(op, up).direction == "increasing"


def _ascending_bits(row):
    """The set bits of a row, read off its binary string."""
    return [j for j, c in enumerate(bin(row)[:1:-1]) if c == "1"]


def walked_order_fault(source, target, mapping):
    """The first pair x <= y, in row-major order, whose images are not
    ordered, found by walking every comparable pair; None when the map
    preserves order."""
    idx = [target.index(mapping[x]) for x in source.elements]
    for i, row in enumerate(source.up):
        image_row = target.up[idx[i]]
        for j in _ascending_bits(row):
            if not image_row >> idx[j] & 1:
                return source.elements[i], source.elements[j]
    return None


def walked_induced(p, subset):
    """The induced subposet on `subset`, in the given order, by walking
    every strict up-set of p."""
    pos = {p.index(x): k for k, x in enumerate(subset)}
    rows = []
    for k, x in enumerate(subset):
        row = 1 << k
        for j in _ascending_bits(p.up[p.index(x)]):
            if j in pos:
                row |= 1 << pos[j]
        rows.append(row)
    return FinitePoset(subset, rows)


def walked_chains(strict):
    """Every chain of a poset whose index order extends its order, as a
    sorted index tuple, grown one element at a time by a pair walk over
    the chain's members."""
    n = len(strict)
    chains, frontier = set(), [(i,) for i in range(n)]
    while frontier:
        chains.update(frontier)
        frontier = [
            (*c, j) for c in frontier for j in range(c[-1] + 1, n) if all(strict[i, j] for i in c)
        ]
    return chains


def _heights(p):
    """The length of the longest chain below each element: strictly
    order-preserving into a chain."""
    height = {}
    for x in p.elements:  # from_covers posets list each element after those below it
        below = [height[y] for y in p.elements[: p.index(x)] if p.le(y, x)]
        height[x] = 1 + max(below, default=-1)
    return height


def assert_map_matches_walk(source, target, mapping):
    """PosetMap gives the pair walk's verdict, message and witness."""
    expected = walked_order_fault(source, target, mapping)
    if expected is None:
        f = PosetMap(source, target, mapping)
        values = set(mapping.values())
        assert f.image() == [y for y in target.elements if y in values]
        return True
    with pytest.raises(PosetError) as exc:
        PosetMap(source, target, mapping)
    x, y = expected
    assert exc.value.witness == expected
    assert str(exc.value) == f"not order-preserving: {x!r} <= {y!r} but images are not"
    return False


class TestRowChecksAgainstPairWalks:
    def test_poset_map_equals_pair_walk(self):
        rng = random.Random(23)
        verdicts = Counter()
        for n in (1, 2, 9, 40, 64, 65, 130):
            for _ in range(6):
                p = random_poset(rng, n, rng.choice([0.02, 0.05, 0.2]))
                q = random_poset(rng, rng.randrange(1, 80), 0.05)
                height = _heights(p)
                top = max(height.values())
                ladder = chain(top + 1)
                shuffled = rng.sample(p.elements, n)
                cases = [
                    (q, {x: rng.choice(q.elements) for x in p.elements}),  # random
                    (q, dict.fromkeys(p.elements, rng.choice(q.elements))),  # constant
                    (ladder, height),  # onto a chain by height
                    (ladder, {**height, rng.choice(p.elements): rng.randrange(top + 1)}),
                    (p, dict(zip(p.elements, shuffled))),  # a random bijection
                    (p.induced(shuffled), {x: x for x in p.elements}),  # an isomorphism
                ]
                for target, mapping in cases:
                    verdicts[assert_map_matches_walk(p, target, mapping)] += 1
        assert verdicts[True] > 100 and verdicts[False] > 60, verdicts

    def test_images_outside_the_target_are_refused_first(self):
        rng = random.Random(29)
        p = random_poset(rng, 90, 0.05)
        for _ in range(20):
            outside = rng.sample(p.elements, 3)
            mapping = {x: ("not", x) if x in outside else x for x in p.elements}
            first = min(outside, key=p.index)
            message = re.escape(f"{('not', first)!r} is not an element")
            with pytest.raises(PosetError, match=message):
                PosetMap(p, p, mapping)

    def test_core_maps_equal_pair_walk(self):
        # the x and cx core maps of every census graph of rank 2 to 4
        for g in (parse_key(k) for r in (2, 3, 4) for k in enumerate_graphs(r)):
            for kind in ("x", "cx"):
                p = build_poset(g, kind)
                f = core_map(g, p, p)
                assert walked_order_fault(p, p, f.mapping) is None, (kind, g.edges)

    def test_row_queries_equal_pair_walks(self):
        # comparables, opposite, covers and chains, each from a walk over
        # every pair (or triple) of elements read one bit at a time
        rng = random.Random(37)
        for n in (1, 6, 30, 65, 130):
            for _ in range(4):
                p = random_poset(rng, n, 2.0 / n)
                leq = _matrix(p)
                strict = leq & ~np.eye(n, dtype=bool)
                for x in rng.sample(p.elements, min(n, 12)):
                    i = p.index(x)
                    assert p.comparables(x) == [
                        y for j, y in enumerate(p.elements) if leq[i, j] or leq[j, i]
                    ]
                assert opposite(p).up == _rows(leq.T)
                between = (strict.astype(np.int64) @ strict.astype(np.int64)) > 0
                assert p.covers() == [tuple(map(int, ij)) for ij in np.argwhere(strict & ~between)]
                k = order_complex(p)
                chains = walked_chains(strict)
                assert k.num_faces() == len(chains)
                assert {f for d in range(k.dim + 1) for f in k.faces(d)} == chains

    def test_down_witnesses_equal_pair_walk(self):
        # a forged (x, y, "down") removal passes exactly when y is the
        # maximum of x's strict down-set, read off the pairs
        rng = random.Random(41)
        verdicts = Counter()
        for n in (3, 20, 65, 130):
            for _ in range(4):
                p = random_poset(rng, n, 2.0 / n)
                leq = _matrix(p)
                for _ in range(15):
                    i = rng.randrange(n)
                    below = [k for k in range(n) if leq[k, i] and k != i]
                    others = [k for k in range(n) if k != i]
                    j = rng.choice(below if below and rng.random() < 0.5 else others)
                    ok = j in below and all(leq[k, j] for k in below)
                    core = p.induced([x for x in p.elements if x != i])
                    if ok:
                        check_beat_witnesses(p, core, [(i, j, "down")])
                    else:
                        with pytest.raises(InvariantError, match="not the maximum"):
                            check_beat_witnesses(p, core, [(i, j, "down")])
                    verdicts[ok] += 1
                core, witnesses = beat_point_core(p)
                check_beat_witnesses(p, core, witnesses)
                verdicts["down"] += sum(side == "down" for _, _, side in witnesses)
        assert verdicts[True] > 20 and verdicts[False] > 100 and verdicts["down"] > 20, verdicts

    def test_induced_equals_strict_walk(self):
        rng = random.Random(31)
        for n in (1, 5, 40, 70, 140):
            for _ in range(8):
                p = random_poset(rng, n, rng.choice([0.03, 0.1, 0.3]))
                subset = rng.sample(p.elements, rng.randrange(0, n + 1))
                q = p.induced(subset)
                assert q.elements == subset
                assert q == walked_induced(p, subset)


class TestClosureRetraction:
    def test_decreasing_closure(self):
        p = divisibility(12)
        # send x to its largest odd divisor: idempotent, decreasing
        def odd_part(x):
            while x % 2 == 0:
                x //= 2
            return x

        cert = closure_retraction(p, PosetMap.from_function(p, p, odd_part))
        assert cert.direction == "decreasing"
        assert sorted(cert.image.elements) == [1, 3, 5, 7, 9, 11]

    def test_identity_reports_both(self):
        p = chain(4)
        cert = closure_retraction(p, PosetMap.from_function(p, p, lambda x: x))
        assert cert.direction == "both"
        assert cert.image == p

    def test_non_idempotent_rejected(self):
        p = chain(3)
        f = PosetMap(p, p, {0: 0, 1: 0, 2: 1})
        with pytest.raises(CertificateError):
            closure_retraction(p, f)

    def test_mixed_direction_rejected(self):
        p = FinitePoset.from_covers([0, 1, 2, 3], [(0, 1), (2, 3)])
        # 1 -> 0 moves down, 2 -> 3 moves up: no closure direction
        f = PosetMap(p, p, {0: 0, 1: 0, 2: 3, 3: 3})
        with pytest.raises(CertificateError):
            closure_retraction(p, f)

    def test_retraction_preserves_homology(self):
        from posetlab.homology import reduced_homology

        p = subset_lattice(range(3))
        # close every subset containing 0 up to {0,1}-or-more: instead use
        # the map adding element 0 to every set, truncated to proper sets —
        # simplest honest example: map every x to itself (image = p)
        cert = closure_retraction(p, PosetMap.from_function(p, p, lambda x: x))
        assert reduced_homology(order_complex(cert.image)) == reduced_homology(
            order_complex(p)
        )


# -- kernel oracles ----------------------------------------------------------
# The kernels as they were before each learned to skip a walk: the
# beat-point core that lists every survivor's covers on every pass, the
# covers walk that takes rows in popcount order, and the recursive chain
# search.  The kernels must agree with them exactly.


def reference_beat_point_core(p):
    up = p.up
    alive = (1 << p.n) - 1
    witnesses = []
    while True:
        live = _bits(alive)
        uppers, lowers = {}, {i: [] for i in live}
        for i in live:
            uppers[i] = _upper_covers(up, i, alive)
            for j in uppers[i]:
                lowers[j].append(i)
        removed = False
        for i in live:
            if len(uppers[i]) == 1:
                j, side = uppers[i][0], "up"
            elif len(lowers[i]) == 1:
                j, side = lowers[i][0], "down"
            else:
                continue
            if not alive >> j & 1:
                continue
            alive ^= 1 << i
            removed = True
            witnesses.append((p.elements[i], p.elements[j], side))
        if not removed:
            break
    if not witnesses:
        return p, witnesses
    return p.induced([p.elements[i] for i in _bits(alive)]), witnesses


def popcount_walk_message(labels, up):
    """The covers walk with rows taken smallest up-set first: None for a
    partial order, else the message of the fault it raises."""
    n = len(up)
    try:
        closed = bytearray(n)
        count = [row.bit_count() for row in up]
        for i in sorted(range(n), key=count.__getitem__):
            row = up[i]
            reach = row
            rest = row ^ 1 << i
            while rest:
                j = (rest & -rest).bit_length() - 1
                if not closed[j]:
                    _raise_first_fault(labels, up)
                r = up[j]
                reach |= r
                rest &= ~r
            if reach != row:
                _raise_first_fault(labels, up)
            closed[i] = 1
    except PosetError as exc:
        return str(exc)
    return None


def reference_order_complex(p):
    strict = [_bits(row ^ 1 << i) for i, row in enumerate(p.up)]
    faces = []

    def grow(chain, last):
        faces.append(tuple(chain))
        for j in strict[last]:
            chain.append(j)
            grow(chain, j)
            chain.pop()

    for i in range(p.n):
        grow([i], i)
    return SimplicialComplex(p.elements, faces)


def core_and_fiber_posets():
    """The c and cc posets of every census graph of rank 2 to 4, and both
    fiber posets of every rank-2/3 graph (those of the report)."""
    for rank in (2, 3, 4):
        for key in enumerate_graphs(rank):
            g = parse_key(key)
            yield from (build_poset(g, kind) for kind in ("c", "cc"))
            if rank < 4:
                yield from (fiber_poset(g, connected) for connected in (False, True))


def _permuted_rows(up, perm):
    """The rows of the same order with element i moved to position perm[i]."""
    out = [0] * len(up)
    for i, row in enumerate(up):
        out[perm[i]] = sum(1 << perm[j] for j in _bits(row))
    return out


def _moved(p, perm):
    """p with element i moved to position perm[i]."""
    elements = [p.elements[perm.index(k)] for k in range(p.n)]
    return FinitePoset(elements, _permuted_rows(p.up, perm))


class TestKernelOracles:
    def test_beat_point_cores_equal_the_reference(self):
        removed = 0
        for p in core_and_fiber_posets():
            core, witnesses = beat_point_core(p)
            assert (core, witnesses) == reference_beat_point_core(p), p
            check_beat_witnesses(p, core, witnesses)
            removed += len(witnesses)
        assert removed > 1000

    def test_random_beat_point_cores_equal_the_reference(self):
        rng = random.Random(53)
        for n in (1, 4, 12, 30, 70):
            for _ in range(15):
                p = random_poset(rng, n, rng.choice([0.05, 0.15, 0.4]))
                if rng.random() < 0.5:
                    p = _moved(p, rng.sample(range(n), n))
                assert beat_point_core(p) == reference_beat_point_core(p)

    def test_faults_equal_the_popcount_walk(self):
        # random orders listed in a linear extension, fully shuffled, and
        # shuffled only among the lowest positions (the last rows taken
        # hold bits below their own), each as it is and with one or two
        # off-diagonal bits flipped
        rng = random.Random(59)
        verdicts = Counter()
        for n in (2, 3, 6, 20, 64, 65, 100):
            for _ in range(30):
                up = random_poset(rng, n, rng.choice([0.05, 0.2, 0.5])).up
                low = rng.randrange(2, n + 1)
                for perm in (
                    list(range(n)),
                    rng.sample(range(n), n),
                    rng.sample(range(low), low) + list(range(low, n)),
                ):
                    rows = _permuted_rows(up, perm)
                    for flips in (0, 1, 2):
                        faulty = list(rows)
                        for _ in range(flips):
                            i, j = rng.sample(range(n), 2)
                            faulty[i] ^= 1 << j
                        labels = [f"e{k}" for k in range(n)]
                        expected = popcount_walk_message(labels, faulty)
                        assert covers_walk_message(labels, faulty) == expected, (n, perm)
                        triangular = all(row & -row == 1 << i for i, row in enumerate(faulty))
                        verdicts[expected and expected.split()[0], triangular] += 1
        # rows with no bit below their own cannot break antisymmetry
        for kind, triangular in [(None, True), (None, False), ("transitivity", True),
                                 ("transitivity", False), ("antisymmetry", False)]:
            assert verdicts[kind, triangular] > 30, verdicts

    def test_order_complexes_equal_the_reference(self):
        rng = random.Random(61)
        shuffled = []
        for n in (1, 5, 12, 20):
            for _ in range(6):
                p = random_poset(rng, n, rng.choice([0.1, 0.2]))
                shuffled.append(_moved(p, rng.sample(range(n), n)))
        for p in [*core_and_fiber_posets(), *shuffled, antichain(3), FinitePoset([], [])]:
            k, ref = order_complex(p), reference_order_complex(p)
            assert k.vertices == ref.vertices
            assert k.dim == ref.dim
            for d in range(-1, ref.dim + 2):
                assert k.faces(d) == ref.faces(d), (p, d)
