"""Command line interface.

Subcommands:

- ``graphs``      list the census of a given first Betti number
- ``poset``       build one subgraph poset; summary, JSON, or dot
- ``homology``    reduced homology of one poset, or SNF of a matrix file
- ``verify``      run one verification on one graph
- ``duality``     the forest/non-forest duality check for one graph
- ``fiber``       the fiber-poset check for one graph
- ``morse``       search for / verify a level-function certificate
- ``apartment``   the boolean-lattice sphere check for one rank
- ``report``      run verification suites, emit canonical JSON

Exit codes: 0 when every performed check passes (homology-only counts
as a pass for exit purposes), 1 when any check fails, 2 on usage or
input errors.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .enumeration import (
    apartment,
    enumerate_graphs,
    graphs_with_separating_edge,
    parse_key,
    verify_apartment,
    verify_fiber,
)
from .graph_posets import (
    KINDS,
    VerificationError,
    CheckReport,
    _subdivision_report,
    build_poset,
    graph_label,
    verify_core_retraction,
    verify_duality,
    verify_forest_generators,
    verify_sphericity,
    verify_sphericity_via_core,
    verify_subset_sphere,
)
from .homology import poset_homology, read_triplet_matrix, snf_from_entries
from .morse import search_certificate
from .multigraph import GraphError
from .poset import _label_text
from .suites import (
    DEEP_BUDGET_SECONDS,
    DEFAULT_REPORT_SUITES,
    SUITE_NAMES,
    canonical_json,
    report_all,
    run_suite,
)

VERIFY_TARGETS = ("x", "cx", "retraction", "valence2", "generators", "subset-sphere")


def _print(args, obj=None, text: str | None = None) -> None:
    """The one output path: canonical JSON of `obj` under ``--json``, or
    when there is no `text` form (``report``, which has no ``--json``),
    else `text`; to ``--out``, else stdout."""
    if obj is not None and (text is None or args.json):
        text = canonical_json(obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _homology_obj(h) -> dict:
    top = h.max_degree()
    top = 0 if top is None else top
    return {
        "betti": [h.betti(d) for d in range(-1, top + 1)],
        "torsion": {str(d): list(h.torsion(d)) for d in range(-1, top + 1) if h.torsion(d)},
        "trivial": h.is_trivial(),
    }


def _print_record(rec: CheckReport, args) -> int:
    obj = rec.to_json_obj()
    lines = [f"{rec.graph}  {rec.check}  {rec.status}"]
    lines += [f"  {key}: {value}" for key, value in sorted(obj["data"].items())]
    _print(args, obj, "\n".join(lines) + "\n")
    return 0 if rec.status != "fail" else 1


def _require_graph(args) -> "object":
    if not args.graph:
        raise VerificationError("--graph KEY is required for this command")
    return parse_key(args.graph)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_graphs(args) -> int:
    keys = enumerate_graphs(args.rank)
    obj = {
        "rank": args.rank,
        "count": len(keys),
        "with_separating_edge": sorted(graphs_with_separating_edge(args.rank)),
        "graphs": list(keys),
    }
    _print(args, obj, "\n".join(keys) + "\n")
    return 0


def _refuse_dot_with_json(args) -> None:
    if args.dot and args.json:
        raise VerificationError("--dot and --json cannot be combined")


def _cmd_poset(args) -> int:
    _refuse_dot_with_json(args)
    g = _require_graph(args)
    p = build_poset(g, args.kind)
    if args.dot:
        _print(args, text=p.to_dot())
        return 0
    name, covers = graph_label(g), p.covers()
    obj = {
        "graph": name,
        "kind": args.kind,
        "elements": [sorted(x) for x in p.elements],
        "covers": sorted(map(list, covers)),
    }
    _print(args, obj, f"{name}  kind={args.kind}  elements={p.n}  covers={len(covers)}\n")
    return 0


def _cmd_homology(args) -> int:
    if args.matrix:
        if args.graph is not None or args.kind is not None:
            raise VerificationError("--matrix cannot be combined with --graph or --kind")
        with open(args.matrix, encoding="utf-8") as fh:
            entries, nrows, ncols = read_triplet_matrix(fh.read())
        res = snf_from_entries(entries)
        obj = {
            "rows": nrows,
            "cols": ncols,
            "rank": res.rank,
            "invariant_factors": list(res.factors),
            "torsion": list(res.torsion()),
        }
        text = f"rank {res.rank}  factors {list(res.factors)}  torsion {list(res.torsion())}\n"
        _print(args, obj, text)
        return 0
    g, kind = _require_graph(args), args.kind or "x"
    h = poset_homology(build_poset(g, kind))
    name = graph_label(g)
    obj = {"graph": name, "kind": kind, "homology": _homology_obj(h)}
    _print(args, obj, f"{name}  kind={kind}  {h}\n")
    return 0


def _cmd_verify(args) -> int:
    if args.connected and args.target != "retraction":
        raise VerificationError(f"--connected applies to retraction, not {args.target}")
    if args.deep and args.target not in ("x", "cx"):
        raise VerificationError(f"--deep applies to x and cx, not {args.target}")
    g = _require_graph(args)
    if args.target in ("x", "cx"):
        verify = verify_sphericity_via_core if args.deep else verify_sphericity
        rec = verify(g, args.target)
    elif args.target == "retraction":
        rec = verify_core_retraction(g, args.connected)
    elif args.target == "valence2":
        rec = _subdivision_report(g)
    elif args.target == "generators":
        rec = verify_forest_generators(g)
    else:
        rec = verify_subset_sphere(g)
    return _print_record(rec, args)


def _cmd_duality(args) -> int:
    return _print_record(verify_duality(_require_graph(args)), args)


def _cmd_fiber(args) -> int:
    return _print_record(verify_fiber(_require_graph(args), args.connected), args)


def _cmd_morse(args) -> int:
    g = _require_graph(args)
    p = build_poset(g, args.kind)
    res = search_certificate(p)
    name = graph_label(g)
    obj = {
        "graph": name,
        "kind": args.kind,
        "found": res.found,
        "exhausted": res.exhausted,
        "centers_tried": res.centers_tried,
    }
    if res.found:
        obj["levels"] = [sorted(map(_label_text, level)) for level in res.certificate.levels]
    if args.action == "search":
        text = f"{name}  kind={args.kind}  found={res.found}  exhausted={res.exhausted}\n"
        _print(args, obj, text)
        return 0
    # verify: a certificate must exist and check out
    if not res.found:
        obj["verified"] = False
        _print(args, obj, f"{name}  no certificate found\n")
        return 1
    chk = res.check
    obj["verified"] = chk.ok
    obj["reason"] = chk.reason
    _print(args, obj, f"{name}  kind={args.kind}  verified={chk.ok}  {chk.reason}\n")
    return 0 if chk.ok else 1


def _cmd_apartment(args) -> int:
    _refuse_dot_with_json(args)
    rec = verify_apartment(args.rank)
    h, ok = rec.data["homology"], rec.ok
    p = apartment(args.rank)
    if args.dot:
        _print(args, text=p.to_dot())
        return 0 if ok else 1
    obj = {
        "rank": args.rank,
        "elements": p.n,
        "dimension": args.rank - 2,
        "homology": _homology_obj(h),
        "is_sphere": ok,
    }
    _print(args, obj, f"apartment-{args.rank}  elements={p.n}  sphere={ok}\n")
    return 0 if ok else 1


def _cmd_report(args) -> int:
    if args.suite and args.deep:
        raise VerificationError("--deep adds rank4-deep to the full report, not to --suite")
    deep = args.deep or args.suite not in (None, *DEFAULT_REPORT_SUITES)
    if args.budget is not None and not deep:
        raise VerificationError("--budget applies to a deep suite: --suite rank4-deep or --deep")
    budget = DEEP_BUDGET_SECONDS if args.budget is None else args.budget
    if args.suite:
        rep = run_suite(args.suite, deep_budget=budget)
        _print(args, text=rep.to_json())
        s = rep.summary
        ran = f", {s['graphs_completed']} of {s['graphs_total']} graphs" if "graphs_total" in s else ""
        sys.stderr.write(
            f"{rep.suite}: {s.get('pass', 0)} pass, "
            f"{s.get('homology-only', 0)} homology-only, "
            f"{s.get('fail', 0)} fail{ran}  ({rep.wall_seconds:.2f}s)\n"
        )
        return 0 if rep.ok else 1
    names = list(DEFAULT_REPORT_SUITES)
    if args.deep:
        names.append("rank4-deep")
    obj, ok = report_all(names, deep_budget=budget)
    _print(args, obj)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub, graph=False, kind=False, rank=False, json=True):
    if graph:
        sub.add_argument("--graph", metavar="KEY", help="graph key, e.g. '2;0-1,0-1,0-1'")
    if kind:
        sub.add_argument("--kind", choices=KINDS, default="x", help="which subgraph poset")
    if rank:
        sub.add_argument("--rank", type=int, required=True, help="first Betti number")
    if json:
        sub.add_argument("--json", action="store_true", help="emit canonical JSON")
    sub.add_argument("--out", metavar="PATH", help="write output to a file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="posetlab",
        description="subgraph posets of finite multigraphs and their exact homology",
    )
    ap.add_argument("--version", action="version", version=f"posetlab {__version__}")
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("graphs", help="list the census for a given first Betti number")
    _add_common(s, rank=True)

    s = sp.add_parser("poset", help="build one subgraph poset")
    _add_common(s, graph=True, kind=True)
    s.add_argument("--dot", action="store_true", help="emit the Hasse diagram as dot")

    s = sp.add_parser("homology", help="reduced homology of a poset, or SNF of a matrix")
    _add_common(s, graph=True, kind=True)
    s.add_argument("--matrix", metavar="PATH", help="triplet matrix file: 'rows cols' then 'i j value' lines")
    s.set_defaults(kind=None)  # "x" when unset; --matrix refuses a given --kind

    s = sp.add_parser("verify", help="run one verification on one graph")
    s.add_argument("target", choices=VERIFY_TARGETS)
    _add_common(s, graph=True)
    s.add_argument("--connected", action="store_true", help="retraction: the connected variants")
    s.add_argument("--deep", action="store_true", help="x, cx: route through the core poset")

    s = sp.add_parser("duality", help="forest/non-forest duality for one graph")
    _add_common(s, graph=True)

    s = sp.add_parser("fiber", help="fiber-poset check for one graph")
    _add_common(s, graph=True)
    s.add_argument("--connected", action="store_true", help="connected cores only")

    s = sp.add_parser("morse", help="level-function certificates for a poset")
    s.add_argument("action", choices=("search", "verify"))
    _add_common(s, graph=True, kind=True)
    s.set_defaults(kind="c")

    s = sp.add_parser("apartment", help="boolean-lattice sphere check")
    _add_common(s, rank=True)
    s.add_argument("--dot", action="store_true", help="emit the Hasse diagram as dot")

    s = sp.add_parser("report", help="run verification suites, emit canonical JSON")
    _add_common(s, json=False)  # the report is always canonical JSON
    s.add_argument("--suite", choices=SUITE_NAMES, help="run a single suite")
    s.add_argument("--deep", action="store_true", help="include the rank-4 suite")
    s.add_argument(
        "--budget",
        type=float,
        metavar="SECONDS",
        help=f"wall-clock budget for the rank-4 suite (default {DEEP_BUDGET_SECONDS:g})",
    )
    return ap


_HANDLERS = {
    "graphs": _cmd_graphs,
    "poset": _cmd_poset,
    "homology": _cmd_homology,
    "verify": _cmd_verify,
    "duality": _cmd_duality,
    "fiber": _cmd_fiber,
    "morse": _cmd_morse,
    "apartment": _cmd_apartment,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (GraphError, VerificationError, ValueError, OSError) as exc:
        sys.stderr.write(f"posetlab: error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
