"""Level-function certificates: search, verification, and provable absence."""

import hashlib

import pytest

from posetlab import morse
from posetlab.enumeration import enumerate_graphs, graphs_with_separating_edge, parse_key
from posetlab.graph_posets import build_poset
from posetlab.homology import reduced_homology
from posetlab.morse import (
    LevelCertificate,
    descending_poset,
    search_certificate,
    verify_certificate,
)
from posetlab.multigraph import theta_graph
from posetlab.poset import FinitePoset, order_complex, subset_lattice
from posetlab.suites import run_suite


def chain(n):
    return FinitePoset.from_relation(list(range(n)), lambda a, b: a <= b)


class TestVerifyCertificate:
    def test_single_level_on_cone(self):
        p = chain(4)
        cert = LevelCertificate((tuple(range(4)),))
        chk = verify_certificate(p, cert)
        assert chk.ok

    def test_two_level_on_chain(self):
        p = chain(3)
        cert = LevelCertificate(((0, 1), (2,)))
        chk = verify_certificate(p, cert)
        assert chk.ok

    def test_rejects_non_partition(self):
        p = chain(3)
        chk = verify_certificate(p, LevelCertificate(((0, 1), (1, 2))))
        assert not chk.ok and "partition" in chk.reason

    def test_rejects_non_antichain_upper_level(self):
        p = chain(4)
        chk = verify_certificate(p, LevelCertificate(((0,), (1, 2), (3,))))
        assert not chk.ok and "antichain" in chk.reason

    def test_rejects_disconnected_level0(self):
        p = FinitePoset.from_covers(list(range(4)), [(0, 2), (1, 2), (1, 3)])
        # {0, 1} is an antichain: two points, not contractible
        chk = verify_certificate(p, LevelCertificate(((0, 1), (2,), (3,))))
        assert not chk.ok and "level 0" in chk.reason

    def test_rejects_empty_descending_complex(self):
        # two incomparable points: the second level's element sees nothing below
        p = FinitePoset.from_relation([0, 1], lambda a, b: a == b)
        chk = verify_certificate(p, LevelCertificate(((0,), (1,))))
        assert not chk.ok and "descending" in chk.reason

    def test_sphere_poset_has_no_valid_certificate(self):
        p = subset_lattice(range(2))  # two incomparable points: S^0
        for cert in (
            LevelCertificate((tuple(p.elements),)),
            LevelCertificate(((p.elements[0],), (p.elements[1],))),
        ):
            assert not verify_certificate(p, cert).ok


class TestDescendingComplex:
    def test_counts_strictly_lower_comparables(self):
        p = chain(3)
        values = {0: 0, 1: 0, 2: 1}
        dk = order_complex(descending_poset(p, values, 2))
        # elements 0, 1 are both below 2 and below its level: an edge
        assert dk.num_faces(0) == 2 and dk.num_faces(1) == 1

    def test_order_complex_is_the_full_subcomplex(self):
        # The certifier rests on this: the full subcomplex of the order
        # complex on a vertex set is the order complex of the induced
        # subposet on it.  Checked for every element above level 0 under
        # the two-level values of every center, on every rank-2/3 core poset.
        checked = 0
        for key in (*enumerate_graphs(2), *enumerate_graphs(3)):
            p = build_poset(parse_key(key), "c")
            k = order_complex(p)
            for center in p.elements:
                level0 = set(p.comparables(center))
                values = {y: 0 if y in level0 else 1 for y in p.elements}
                for x in p.elements:
                    if values[x] == 0:
                        continue
                    q = descending_poset(p, values, x)
                    sub = k.full_subcomplex([p.index(y) for y in q.elements])
                    dk = order_complex(q)
                    assert dk.vertices == sub.vertices, (key, center, x)
                    assert dk.structure_key() == sub.structure_key(), (key, center, x)
                    checked += 1
        assert checked == 1004


class TestSearch:
    def test_finds_on_contractible_posets(self):
        for p in (chain(5), subset_lattice(range(3)).induced(
            [x for x in subset_lattice(range(3)).elements if 0 in x]
        )):
            res = search_certificate(p)
            assert res.found
            assert verify_certificate(p, res.certificate).ok

    def test_absence_on_theta_core(self):
        p = build_poset(theta_graph(), "c")
        res = search_certificate(p)
        assert not res.found
        assert res.exhausted
        # the poset is a 3-element antichain: absence is total, since any
        # upper level element would need a nonempty descending complex
        assert all(
            not p.le(a, b)
            for a in p.elements
            for b in p.elements
            if a != b
        )
        assert not reduced_homology(order_complex(p)).is_trivial()

    def test_separating_rank3_graphs_all_have_certificates(self):
        keys = graphs_with_separating_edge(3)
        assert len(keys) == 7
        for key in keys:
            p = build_poset(parse_key(key), "c")
            res = search_certificate(p)
            assert res.found, key
            chk = verify_certificate(p, res.certificate)
            assert chk.ok, (key, chk.reason)
            assert len(res.certificate.levels) <= 3

    def test_separating_rank2_graph_has_certificate(self):
        (key,) = graphs_with_separating_edge(2)
        p = build_poset(parse_key(key), "c")
        res = search_certificate(p)
        assert res.found
        assert verify_certificate(p, res.certificate).ok

    def test_certificate_consistent_with_snf(self):
        # on every found certificate the underlying homology must vanish —
        # the cross-check the verifier enforces via its final assertion
        for key in graphs_with_separating_edge(3):
            p = build_poset(parse_key(key), "c")
            res = search_certificate(p)
            if res.found and verify_certificate(p, res.certificate).ok:
                assert reduced_homology(order_complex(p)).is_trivial()

    def test_search_returns_the_check_it_accepted(self):
        found = 0
        for key in (*enumerate_graphs(2), *enumerate_graphs(3)):
            for kind in ("c", "cc"):
                p = build_poset(parse_key(key), kind)
                res = search_certificate(p)
                if res.found:
                    found += 1
                    assert res.check == verify_certificate(p, res.certificate), (key, kind)
                    assert res.check.ok
                else:
                    assert res.check is None, (key, kind)
        assert found

    def test_morse_suite_does_not_verify_a_certificate_again(self, monkeypatch):
        # each record reads the check its search accepted the certificate
        # on, so the only calls are the searches' candidate filters and checks
        calls = []
        real = morse.certify_contractible

        def counting(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(morse, "certify_contractible", counting)
        assert run_suite("morse").ok
        assert len(calls) == 66

    def test_budget_break_moves_to_the_next_center(self, monkeypatch):
        # (found, unexhausted, sha256 of the outcome lines) per budget on
        # the 36 rank-2/3 c and cc posets, as the search gave them when it
        # left its nested size and combination loops through a `done` flag
        pinned = {
            0: (1, 30, "a370c540cd4e832f0eac8fe3caf5ae688535da8224d02454cad1dced8e0d246c"),
            1: (8, 26, "1fa63da754a140f6e57448ccc181cf3b2545e0ec46155a3cf16c084d47683702"),
            2: (8, 24, "76b177a382510c05edff580badcb089efa5ad0a7087d4f2776c5294e2eae2eec"),
            3: (8, 19, "9198eb3006253b3a20c01e2765cf5128f00a145b92528a905f308865b7ff15a2"),
        }
        posets = [
            build_poset(parse_key(key), kind)
            for key in (*enumerate_graphs(2), *enumerate_graphs(3))
            for kind in ("c", "cc")
        ]
        for budget, (found, unexhausted, digest) in pinned.items():
            monkeypatch.setattr(morse, "DEFAULT_BUDGET", budget)
            results = [search_certificate(p) for p in posets]
            lines = [
                f"{r.found} {r.exhausted} {r.centers_tried} "
                + (repr([[sorted(x) for x in lv] for lv in r.certificate.levels]) if r.found else "-")
                for r in results
            ]
            assert sum(r.found for r in results) == found, budget
            assert sum(not r.exhausted for r in results) == unexhausted, budget
            assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest, budget

    def test_nonseparating_rank3_cores_never_certify(self):
        # X(G) nontrivial for separating-edge-free graphs, and C(G) carries
        # the same homology, so no certificate can exist for any of them
        for key in enumerate_graphs(3):
            g = parse_key(key)
            if g.separating_edges():
                continue
            p = build_poset(g, "c")
            res = search_certificate(p)
            assert not res.found, key
