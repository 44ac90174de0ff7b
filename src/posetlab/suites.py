"""Verification suites: batteries of checks with canonical JSON reports.

Each suite runs a fixed battery of verifications over a census of
multigraphs (or over boolean lattices, for apartments) and returns a
:class:`SuiteReport`.  Reports are deterministic: records are sorted by
``(graph, check)``, numbers are exact integers, and the canonical JSON
rendering is byte-identical across runs and across worker counts.
Timing is kept on the in-memory report object but excluded from the
canonical rendering so that byte-identity holds.

Worker processes are capped by the ``POSETLAB_THREADS`` environment
variable (default 1); results are merged in a fixed order, so the
thread count never changes a report.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from functools import lru_cache

from . import __version__
from .enumeration import (
    enumerate_graphs,
    graphs_with_separating_edge,
    parse_key,
    verify_apartment,
    verify_fiber,
)
from .graph_posets import (
    CheckReport,
    _betti_profile,
    build_poset,
    verify_core_retraction,
    verify_duality,
    verify_forest_generators,
    verify_sphericity,
    verify_sphericity_via_core,
    verify_subset_sphere,
    verify_valence_two,
)
from .homology import core_complex, reduced_homology
from .morse import search_certificate, verify_certificate

SUITE_NAMES = (
    "rank2",
    "rank3",
    "rank4-deep",
    "duality",
    "fibers",
    "morse",
    "apartments",
)

#: suites run by the aggregate report (the deep suite is opt-in)
DEFAULT_REPORT_SUITES = ("rank2", "rank3", "duality", "fibers", "morse", "apartments")

APARTMENT_RANKS = (2, 3, 4, 5, 6)

#: pinned census sizes; regression pins derived from the enumeration
#: itself and cross-anchored by the known counts of connected trivalent
#: multigraphs on 1..4 vertices (2, 5, 17) appearing as the top-vertex
#: slice of each census.
CENSUS_SIZES = {2: 3, 3: 15, 4: 111}

DEEP_BUDGET_SECONDS = 600.0


def _thread_count(threads: int | None) -> int:
    if threads is not None:
        return max(1, int(threads))
    raw = os.environ.get("POSETLAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_jobs(jobs, threads: int | None):
    """Run jobs (deterministic order) on up to `threads` processes."""
    n = _thread_count(threads)
    if n <= 1 or len(jobs) <= 1:
        return [_run_job(job) for job in jobs]
    from multiprocessing import Pool  # imported only when a pool runs

    with Pool(processes=min(n, len(jobs))) as pool:
        return pool.map(_run_job, jobs, chunksize=1)


# ---------------------------------------------------------------------------
# per-job workers (module level so they can cross process boundaries)
# ---------------------------------------------------------------------------


def _battery_records(key: str) -> list[dict]:
    """The full per-graph battery used by the rank suites."""
    g = parse_key(key)
    recs = [
        verify_subset_sphere(g, key),
        verify_sphericity(g, "x", key),
        verify_sphericity(g, "cx", key),
        verify_core_retraction(g, connected_only=False, label=key),
        verify_core_retraction(g, connected_only=True, label=key),
    ]
    if not any(g.is_separating_edge(e) for e in g.edge_ids):
        recs.append(verify_forest_generators(g, key))
    subdivided, w = g.subdivide_edge(min(g.edge_ids))
    recs.append(verify_valence_two(subdivided, w, label=key))
    out = [r.to_json_obj() for r in recs]
    out.extend(_duality_records(key))
    out.extend(_fiber_records(key))
    return out


# The rank suites and the duality and fibers suites check the same rank-2/3
# graphs, so these checks are built once per key in each process.  Each
# call renders fresh JSON records from the cached reports, so no caller
# can mutate what another caller receives.
_MEMO_KEYS = 64


def _fiber_records(key: str) -> list[dict]:
    return [rec.to_json_obj() for rec in _fiber_checks(key)]


@lru_cache(maxsize=_MEMO_KEYS)
def _fiber_checks(key: str) -> tuple:
    g = parse_key(key)
    return tuple(verify_fiber(g, connected_only, label=key) for connected_only in (False, True))


def _duality_records(key: str) -> list[dict]:
    return [_duality_check(key).to_json_obj()]


@lru_cache(maxsize=_MEMO_KEYS)
def _duality_check(key: str) -> CheckReport:
    return verify_duality(parse_key(key), key)


def _morse_records(key: str) -> list[dict]:
    """Find and verify a level-function certificate for the core poset."""
    g = parse_key(key)
    p = build_poset(g, "c")
    res = search_certificate(p)
    h = reduced_homology(core_complex(p))
    data: dict = {
        "elements": p.n,
        "found": res.found,
        "exhausted": res.exhausted,
        "centers_tried": res.centers_tried,
        "homology": h,
    }
    if res.found:
        chk = verify_certificate(p, res.certificate)
        data["levels"] = [len(level) for level in res.certificate.levels]
        data["verified"] = chk.ok
        data["reason"] = chk.reason
        status = "pass" if chk.ok else "fail"
    else:
        status = "fail"
    rec = CheckReport(key, "morse-certificate", status, _betti_profile(h), data)
    return [rec.to_json_obj()]


def _morse_absence_records(key: str) -> list[dict]:
    """Certify that no level-function certificate exists for this core poset.

    When the core poset is an antichain, every multi-level partition
    leaves some element with an empty descending complex and the
    one-level partition requires the whole poset to be contractible, so
    nonvanishing homology rules out certificates of every depth — not
    merely the depths the search visits.
    """
    g = parse_key(key)
    p = build_poset(g, "c")
    res = search_certificate(p)
    h = reduced_homology(core_complex(p))
    antichain = all(
        not p.le(a, b)
        for i, a in enumerate(p.elements)
        for j, b in enumerate(p.elements)
        if i != j
    )
    proof_total = antichain and not h.is_trivial()
    ok = (not res.found) and res.exhausted and proof_total
    data = {
        "elements": p.n,
        "found": res.found,
        "exhausted": res.exhausted,
        "is_antichain": antichain,
        "homology": h,
        "absence_proof_complete": proof_total,
    }
    rec = CheckReport(
        key, "morse-absence", "pass" if ok else "fail", _betti_profile(h), data
    )
    return [rec.to_json_obj()]


def _deep_records(key: str) -> list[dict]:
    g = parse_key(key)
    return [
        verify_sphericity_via_core(g, "x", key).to_json_obj(),
        verify_sphericity_via_core(g, "cx", key).to_json_obj(),
    ]


def _apartment_records(rank: int) -> list[dict]:
    h, expected, ok = verify_apartment(rank)
    data = {
        "rank": rank,
        "dimension": rank - 2,
        "homology": h,
        "expected": expected,
    }
    rec = CheckReport(
        f"apartment-{rank}",
        "apartment-sphere",
        "pass" if ok else "fail",
        _betti_profile(h),
        data,
    )
    return [rec.to_json_obj()]


def _census_record(rank: int) -> dict:
    keys = enumerate_graphs(rank)
    separating = graphs_with_separating_edge(rank)
    expected = CENSUS_SIZES.get(rank)
    ok = expected is None or len(keys) == expected
    data = {
        "rank": rank,
        "count": len(keys),
        "expected": expected,
        "with_separating_edge": len(separating),
        "without_separating_edge": len(keys) - len(separating),
    }
    rec = CheckReport(
        f"census-{rank}",
        "census-count",
        "pass" if ok else "fail",
        (),
        data,
    )
    return rec.to_json_obj()


def _run_job(job):
    kind = job[0]
    if kind == "battery":
        return _battery_records(job[1])
    if kind == "duality":
        return _duality_records(job[1])
    if kind == "fiber":
        return _fiber_records(job[1])
    if kind == "morse":
        return _morse_records(job[1])
    if kind == "morse-absence":
        return _morse_absence_records(job[1])
    if kind == "deep":
        return _deep_records(job[1])
    if kind == "apartment":
        return _apartment_records(job[1])
    raise ValueError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    """Outcome of one suite: sorted check records plus a summary.

    ``wall_seconds`` is measured per run and therefore excluded from the
    canonical JSON rendering, which must be byte-identical across runs.
    """

    suite: str
    version: str
    assumptions: tuple
    records: tuple
    summary: dict
    wall_seconds: float

    @property
    def ok(self) -> bool:
        return self.summary.get("fail", 0) == 0

    def to_json_obj(self, include_timing: bool = False) -> dict:
        obj = {
            "suite": self.suite,
            "version": self.version,
            "assumptions": list(self.assumptions),
            "records": [dict(r) for r in self.records],
            "summary": dict(self.summary),
        }
        if include_timing:
            obj["wall_seconds"] = round(self.wall_seconds, 3)
        return obj

    def to_json(self, include_timing: bool = False) -> str:
        return canonical_json(self.to_json_obj(include_timing=include_timing))


def canonical_json(obj) -> str:
    """Deterministic rendering used for all reports and golden fixtures."""
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=True) + "\n"


def _summarize(records) -> dict:
    counts = {"pass": 0, "homology-only": 0, "fail": 0}
    graphs = set()
    for r in records:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
        graphs.add(r["graph"])
    counts["checks"] = len(records)
    counts["graphs"] = len(graphs)
    return counts


def _finish(suite, assumptions, record_lists, extra_records, t0, extra_summary=None):
    records = [r for sub in record_lists for r in sub]
    records.extend(extra_records)
    records.sort(key=lambda r: (r["graph"], r["check"]))
    summary = _summarize(records)
    if extra_summary:
        summary.update(extra_summary)
    return SuiteReport(
        suite=suite,
        version=__version__,
        assumptions=tuple(assumptions),
        records=tuple(records),
        summary=summary,
        wall_seconds=time.monotonic() - t0,
    )


_FIBER_ASSUMPTION = (
    "fiber elements are indexed by the forest itself, not its isomorphism "
    "type: distinct forests with the same quotient give distinct elements"
)
_CENSUS_ASSUMPTION = (
    "census counts are regression pins from this enumeration, cross-anchored "
    "by the known counts 2, 5, 17 of connected trivalent multigraphs on up "
    "to six vertices, which appear as the top-vertex slice of each census"
)


def _rank_suite(rank: int, threads: int | None) -> SuiteReport:
    t0 = time.monotonic()
    keys = enumerate_graphs(rank)
    jobs = [("battery", key) for key in keys]
    lists = _map_jobs(jobs, threads)
    return _finish(
        f"rank{rank}",
        (_FIBER_ASSUMPTION, _CENSUS_ASSUMPTION),
        lists,
        [_census_record(rank)],
        t0,
    )


def _duality_suite(threads: int | None) -> SuiteReport:
    t0 = time.monotonic()
    keys = [*enumerate_graphs(2), *enumerate_graphs(3)]
    lists = _map_jobs([("duality", key) for key in keys], threads)
    return _finish("duality", (), lists, [], t0)


def _fibers_suite(threads: int | None) -> SuiteReport:
    t0 = time.monotonic()
    keys = [*enumerate_graphs(2), *enumerate_graphs(3)]
    lists = _map_jobs([("fiber", key) for key in keys], threads)
    return _finish("fibers", (_FIBER_ASSUMPTION,), lists, [], t0)


def _theta_key() -> str:
    from .enumeration import canonical_key
    from .multigraph import theta_graph

    return canonical_key(theta_graph())


def _morse_suite(threads: int | None) -> SuiteReport:
    t0 = time.monotonic()
    keys = [*graphs_with_separating_edge(2), *graphs_with_separating_edge(3)]
    jobs = [("morse", key) for key in keys]
    jobs.append(("morse-absence", _theta_key()))
    lists = _map_jobs(jobs, threads)
    return _finish("morse", (), lists, [], t0)


def _apartments_suite(threads: int | None) -> SuiteReport:
    t0 = time.monotonic()
    lists = _map_jobs([("apartment", r) for r in APARTMENT_RANKS], threads)
    return _finish("apartments", (), lists, [], t0)


def _deep_suite(threads: int | None, budget_seconds: float) -> SuiteReport:
    """The rank-4 suite: sphericity of x and cx through the core retraction.

    Order complexes of the cycle-containing posets at nine edges are far
    too large to build, so each graph is handled by validating the core
    retraction on the full poset and computing homology on the core
    side.  Runs sequentially so the wall-clock budget is enforced
    between graphs; if the budget runs out the summary says how many
    graphs were completed and the suite does not claim the rest.
    """
    t0 = time.monotonic()
    keys = enumerate_graphs(4)
    lists = []
    completed = 0
    for key in keys:
        if time.monotonic() - t0 > budget_seconds:
            break
        lists.append(_deep_records(key))
        completed += 1
    extra = {
        "deep_budget_seconds": budget_seconds,
        "graphs_completed": completed,
        "graphs_total": len(keys),
        "budget_exhausted": completed < len(keys),
    }
    return _finish(
        "rank4-deep",
        (_CENSUS_ASSUMPTION,),
        lists,
        [_census_record(4)],
        t0,
        extra_summary=extra,
    )


def run_suite(
    name: str,
    threads: int | None = None,
    deep_budget: float = DEEP_BUDGET_SECONDS,
) -> SuiteReport:
    """Run one named suite and return its report.

    Suite names: rank2, rank3, rank4-deep, duality, fibers, morse,
    apartments.  `threads` overrides the POSETLAB_THREADS environment
    variable; `deep_budget` only affects rank4-deep.
    """
    if name == "rank2":
        return _rank_suite(2, threads)
    if name == "rank3":
        return _rank_suite(3, threads)
    if name == "rank4-deep":
        return _deep_suite(threads, deep_budget)
    if name == "duality":
        return _duality_suite(threads)
    if name == "fibers":
        return _fibers_suite(threads)
    if name == "morse":
        return _morse_suite(threads)
    if name == "apartments":
        return _apartments_suite(threads)
    raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")


def report_all(
    names=DEFAULT_REPORT_SUITES,
    threads: int | None = None,
    deep_budget: float = DEEP_BUDGET_SECONDS,
):
    """Run several suites and bundle them into one deterministic object.

    Returns (obj, all_ok); `obj` renders byte-identically across runs
    via :func:`canonical_json`.
    """
    reports = [run_suite(name, threads=threads, deep_budget=deep_budget) for name in names]
    obj = {
        "version": __version__,
        "suites": [r.to_json_obj() for r in reports],
    }
    return obj, all(r.ok for r in reports)
