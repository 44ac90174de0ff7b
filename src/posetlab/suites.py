"""Verification suites: batteries of checks with canonical JSON reports.

Each suite runs a fixed battery of verifications over a census of
multigraphs (or over boolean lattices, for apartments) and returns a
:class:`SuiteReport`.  Reports are deterministic: records are sorted by
``(graph, check)``, numbers are exact integers, and the canonical JSON
rendering is byte-identical across runs.  Every suite runs its jobs in
order in one process.  Timing is kept on the in-memory report object
but excluded from the canonical rendering so that byte-identity holds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_string
from typing import Callable, NamedTuple

from . import __version__
from .enumeration import (
    canonical_key,
    enumerate_graphs,
    graphs_with_separating_edge,
    parse_key,
    verify_apartment,
    verify_fiber,
)
from .graph_posets import (
    CheckReport,
    _betti_profile,
    _subdivision_report,
    build_poset,
    verify_core_retraction,
    verify_duality,
    verify_forest_generators,
    verify_sphericity,
    verify_sphericity_via_core,
    verify_subset_sphere,
)
from .homology import poset_homology
from .morse import search_certificate
from .multigraph import theta_graph

APARTMENT_RANKS = (2, 3, 4, 5, 6)

#: pinned census sizes; regression pins derived from the enumeration
#: itself and cross-anchored by the known counts of connected trivalent
#: multigraphs on 1..4 vertices (2, 5, 17) appearing as the top-vertex
#: slice of each census.
CENSUS_SIZES = {2: 3, 3: 15, 4: 111}

DEEP_BUDGET_SECONDS = 600.0


# ---------------------------------------------------------------------------
# per-job record builders
# ---------------------------------------------------------------------------


def _battery_records(key: str) -> list[dict]:
    """The full per-graph battery used by the rank suites."""
    g = parse_key(key)
    recs = [
        verify_subset_sphere(g),
        verify_sphericity(g, "x"),
        verify_sphericity(g, "cx"),
        verify_core_retraction(g, connected_only=False),
        verify_core_retraction(g, connected_only=True),
    ]
    if not g.separating_edges():
        recs.append(verify_forest_generators(g))
    recs.append(_subdivision_report(g))
    out = [r.to_json_obj() for r in recs]
    out.extend(_duality_records(key))
    out.extend(_fiber_records(key))
    return out


# The rank suites and the duality and fibers suites check the same rank-2/3
# graphs, so these checks are built once per key.  Each call renders fresh
# JSON records from the cached reports, so no caller can mutate what
# another caller receives.
_MEMO_KEYS = 64


def _fiber_records(key: str) -> list[dict]:
    return [rec.to_json_obj() for rec in _fiber_checks(key)]


@lru_cache(maxsize=_MEMO_KEYS)
def _fiber_checks(key: str) -> tuple:
    g = parse_key(key)
    return tuple(verify_fiber(g, connected_only) for connected_only in (False, True))


def _duality_records(key: str) -> list[dict]:
    return [_duality_check(key).to_json_obj()]


@lru_cache(maxsize=_MEMO_KEYS)
def _duality_check(key: str) -> CheckReport:
    return verify_duality(parse_key(key))


def _morse_search(key: str):
    """The core poset of `key`, its certificate search, and the data
    that both morse records carry."""
    p = build_poset(parse_key(key), "c")
    res = search_certificate(p)
    data: dict = {
        "elements": p.n,
        "found": res.found,
        "exhausted": res.exhausted,
        "homology": poset_homology(p),
    }
    return p, res, data


def _morse_records(key: str) -> list[dict]:
    """Find and verify a level-function certificate for the core poset."""
    _, res, data = _morse_search(key)
    data["centers_tried"] = res.centers_tried
    status = "fail"
    if res.found:
        data["levels"] = [len(level) for level in res.certificate.levels]
        data["verified"] = res.check.ok
        data["reason"] = res.check.reason
        status = "pass" if res.check.ok else "fail"
    h = data["homology"]
    return [CheckReport(key, "morse-certificate", status, _betti_profile(h), data).to_json_obj()]


def _morse_absence_records(key: str) -> list[dict]:
    """Certify that no level-function certificate exists for this core poset.

    When the core poset is an antichain, every multi-level partition
    leaves some element with an empty descending complex and the
    one-level partition requires the whole poset to be contractible, so
    nonvanishing homology rules out certificates of every depth — not
    merely the depths the search visits.
    """
    p, res, data = _morse_search(key)
    h = data["homology"]
    antichain = all(row == 1 << i for i, row in enumerate(p.up))
    proof_total = antichain and not h.is_trivial()
    ok = (not res.found) and res.exhausted and proof_total
    data["is_antichain"] = antichain
    data["absence_proof_complete"] = proof_total
    rec = CheckReport(
        key, "morse-absence", "pass" if ok else "fail", _betti_profile(h), data
    )
    return [rec.to_json_obj()]


def _deep_records(key: str) -> list[dict]:
    g = parse_key(key)
    return [
        verify_sphericity_via_core(g, "x").to_json_obj(),
        verify_sphericity_via_core(g, "cx").to_json_obj(),
    ]


def _apartment_records(rank: int) -> list[dict]:
    return [verify_apartment(rank).to_json_obj()]


def _census_record(rank: int) -> dict:
    keys = enumerate_graphs(rank)
    separating = graphs_with_separating_edge(rank)
    expected = CENSUS_SIZES[rank]
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
        "pass" if len(keys) == expected else "fail",
        (),
        data,
    )
    return rec.to_json_obj()


def _run_job(job):
    """Run one ``(record builder, argument)`` job: its list of records.

    The one job runner of :func:`run_suite`.  ``perfbench/tracer.py``
    rebinds it as its job boundary, so a traced run needs it.
    """
    build, arg = job
    return build(arg)


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
        """No check failed, and a budgeted suite ran every graph."""
        return self.summary.get("fail", 0) == 0 and not self.summary.get("budget_exhausted")

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "version": self.version,
            "assumptions": list(self.assumptions),
            "records": [dict(r) for r in self.records],
            "summary": dict(self.summary),
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())


def canonical_json(obj) -> str:
    """Deterministic rendering used for all reports and golden fixtures.

    The bytes are those of ``json.dumps(obj, indent=2, sort_keys=True,
    ensure_ascii=True, allow_nan=False)`` plus a newline, written in one
    pass: keys sorted, two spaces per level, strings escaped to ASCII.
    Keys must be strings.  NaN and the infinities are refused: strict
    JSON has no such tokens.
    """
    parts = []
    _write_json(obj, "\n", parts.append)
    parts.append("\n")
    return "".join(parts)


def _write_json(obj, newline, out) -> None:
    """Hand `obj`'s canonical JSON to `out` piece by piece; `newline` is
    the line break plus the indent of the level `obj` opens."""
    if isinstance(obj, dict):
        if not obj:
            out("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out(sep + _json_string(key) + ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out(newline + "]")
    elif isinstance(obj, str):
        out(_json_string(obj))
    elif obj is None:
        out("null")
    elif obj is True:
        out("true")
    elif obj is False:
        out("false")
    elif isinstance(obj, int):
        out(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        out(float.__repr__(obj))
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _summarize(records) -> dict:
    counts = {"pass": 0, "homology-only": 0, "fail": 0}
    graphs = set()
    for r in records:
        counts[r["status"]] = counts.get(r["status"], 0) + 1
        graphs.add(r["graph"])
    counts["checks"] = len(records)
    counts["graphs"] = len(graphs)
    return counts


# ---------------------------------------------------------------------------
# the suites: one row each
# ---------------------------------------------------------------------------

_FIBER_ASSUMPTION = (
    "fiber elements are indexed by the forest itself, not its isomorphism "
    "type: distinct forests with the same quotient give distinct elements"
)
_CENSUS_ASSUMPTION = (
    "census counts are regression pins from this enumeration, cross-anchored "
    "by the known counts 2, 5, 17 of connected trivalent multigraphs on up "
    "to six vertices, which appear as the top-vertex slice of each census"
)


class _Suite(NamedTuple):
    jobs: Callable[[], list]  # the (record builder, argument) jobs, in order
    assumptions: tuple = ()
    census: tuple = ()  # ranks whose census-count record joins the report
    budgeted: bool = False  # stop at the wall-clock budget, checked between jobs


def _each(build, args) -> list:
    return [(build, arg) for arg in args]


def _rank_keys(ranks) -> list[str]:
    return [key for rank in ranks for key in enumerate_graphs(rank)]


def _battery_suite(rank: int) -> _Suite:
    return _Suite(
        lambda: _each(_battery_records, enumerate_graphs(rank)),
        (_FIBER_ASSUMPTION, _CENSUS_ASSUMPTION),
        (rank,),
    )


def _deep_suite(rank: int) -> _Suite:
    """Sphericity of x and cx for every graph of `rank`, via the core.

    Order complexes of the cycle-containing posets at nine edges are far
    too large to build, so each graph is handled by validating the core
    retraction on the full poset and computing homology on the core
    side.  The wall-clock budget is checked between graphs; if it runs
    out the summary says how many graphs were completed and the suite
    does not claim the rest.
    """
    return _Suite(
        lambda: _each(_deep_records, enumerate_graphs(rank)),
        (_CENSUS_ASSUMPTION,),
        (rank,),
        budgeted=True,
    )


def _morse_jobs() -> list:
    keys = [*graphs_with_separating_edge(2), *graphs_with_separating_edge(3)]
    theta = canonical_key(theta_graph())
    return [*_each(_morse_records, keys), (_morse_absence_records, theta)]


_SUITES = {
    "rank2": _battery_suite(2),
    "rank3": _battery_suite(3),
    "rank4-deep": _deep_suite(4),
    "duality": _Suite(lambda: _each(_duality_records, _rank_keys((2, 3)))),
    "fibers": _Suite(lambda: _each(_fiber_records, _rank_keys((2, 3))), (_FIBER_ASSUMPTION,)),
    "morse": _Suite(_morse_jobs),
    "apartments": _Suite(lambda: _each(_apartment_records, APARTMENT_RANKS)),
}

SUITE_NAMES = tuple(_SUITES)

#: suites run by the aggregate report (the deep suites are opt-in)
DEFAULT_REPORT_SUITES = tuple(name for name, row in _SUITES.items() if not row.budgeted)


def run_suite(name: str, deep_budget: float = DEEP_BUDGET_SECONDS) -> SuiteReport:
    """Run one named suite and return its report.

    `name` is one of :data:`SUITE_NAMES`.  `deep_budget` (seconds,
    finite) only affects the deep suites.
    """
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    if not math.isfinite(deep_budget):
        raise ValueError(f"the deep budget must be a finite number of seconds, not {deep_budget}")
    suite = _SUITES[name]
    t0 = time.monotonic()
    jobs = suite.jobs()
    lists = []
    for job in jobs:
        if suite.budgeted and time.monotonic() - t0 > deep_budget:
            break
        lists.append(_run_job(job))
    budget = {}
    if suite.budgeted:
        budget = {
            "deep_budget_seconds": deep_budget,
            "graphs_completed": len(lists),
            "graphs_total": len(jobs),
            "budget_exhausted": len(lists) < len(jobs),
        }
    records = [r for sub in lists for r in sub]
    records.extend(_census_record(rank) for rank in suite.census)
    records.sort(key=lambda r: (r["graph"], r["check"]))
    return SuiteReport(
        suite=name,
        version=__version__,
        assumptions=suite.assumptions,
        records=tuple(records),
        summary={**_summarize(records), **budget},
        wall_seconds=time.monotonic() - t0,
    )


def report_all(names=DEFAULT_REPORT_SUITES, deep_budget: float = DEEP_BUDGET_SECONDS):
    """Run several suites and bundle them into one deterministic object.

    Returns (obj, all_ok); `obj` renders byte-identically across runs
    via :func:`canonical_json`.
    """
    reports = [run_suite(name, deep_budget=deep_budget) for name in names]
    obj = {
        "version": __version__,
        "suites": [r.to_json_obj() for r in reports],
    }
    return obj, all(r.ok for r in reports)
