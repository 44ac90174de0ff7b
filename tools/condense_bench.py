"""Condense alternating parent/change benchmark runs into one BENCH_*.json.

Usage, from the root of a checkout:

    python3 tools/condense_bench.py OUT.json SIDE=RESULT.json ...

Each argument after the output path names a side (``parent`` or
``change``) and a ``result.json`` written by ``perfbench/run.py``, in the
order the runs were made.  Untraced runs (``--trace 0``) of one workload
with the same seed form a pair.  For each workload and end-to-end metric
of ``BENCHMARK.json`` the output gives each side's runs, median and
quartiles, and how many pairs the change won (ties count for neither).
Each metric also gets two verdicts:

- ``gain_rule_met``: every run was correct, the change failed no more
  operations than the parent, it won at least 9 of every 10 pairs, and
  its median is better than the parent's by more than the parent's
  interquartile range;
- ``within_bound``: the change's median is worse than the parent's by at
  most the metric's ``bound``, a fraction of the parent's median.

Traced runs (``--trace 1``) contribute their per-layer metrics as they
are, one per side and workload.  Quartiles need at least two complete
parent/change pairs per workload.  With fewer, or with a run the output
could not report (an untraced run whose seed has no run of the other
side, a second run of one side and seed, a second traced run of one
side, or runs of one workload made with different ``seconds``), the
script names the workload and exits 2 without writing.  So it does for
an argument without ``=``, or whose file cannot be read, is not JSON or
is not a ``result.json`` object (one holding every key that ``condense``
reads), naming the argument.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")

#: the keys of a ``result.json`` object that ``condense`` reads
_RESULT_KEYS = ("machine", "workload", "seed", "trace", "seconds", "summary", "all_metrics")


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def condense(runs):
    """`runs`: (side, result) pairs in run order -> the BENCH_*.json object."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {"command": bench["command"], "machine": None, "workloads": {}}
    for side, res in runs:
        if side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, not {side!r}")
        out["machine"] = out["machine"] or res["machine"]
        name = res["workload"]
        w = out["workloads"].setdefault(
            name, {"seconds": res["seconds"], "pairs": {}, "traced": {}}
        )
        if res["seconds"] != w["seconds"]:
            raise ValueError(
                f"workload {name!r} has runs of {w['seconds']} and {res['seconds']} seconds"
            )
        if res["trace"]:
            if side in w["traced"]:
                raise ValueError(f"workload {name!r} has two traced {side} runs")
            w["traced"][side] = {"seed": res["seed"], "metrics": res["all_metrics"]}
            continue
        pair = w["pairs"].setdefault(res["seed"], {"order": [], "runs": {}})
        if side in pair["runs"]:
            raise ValueError(f"workload {name!r} has two {side} runs of seed {res['seed']}")
        pair["order"].append(side)
        pair["runs"][side] = res
    for name, w in out["workloads"].items():
        seeded = w.pop("pairs").items()
        pairs = [p for p in seeded if len(p[1]["runs"]) == 2]
        if len(pairs) < 2:
            raise ValueError(
                f"workload {name!r} has {len(pairs)} complete parent/change pairs; "
                "quartiles need at least 2"
            )
        for seed, p in seeded:
            if len(p["runs"]) != 2:
                side = p["order"][0]
                raise ValueError(f"workload {name!r} has an unpaired {side} run of seed {seed}")
        w["seeds"] = [seed for seed, _ in pairs]
        w["run_order"] = [p["order"] for _, p in pairs]
        w["correct"] = all(r["summary"]["correct"] for _, p in pairs for r in p["runs"].values())
        w["failed"] = {s: sum(p["runs"][s]["summary"]["failed"] for _, p in pairs) for s in SIDES}
        sound = w["correct"] and w["failed"]["change"] <= w["failed"]["parent"]
        w["metrics"] = {}
        for m in bench["end_to_end"]:
            values = {
                s: [p["runs"][s]["summary"]["metrics"][m["name"]]["value"] for _, p in pairs]
                for s in SIDES
            }
            sign = 1 if m["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            spread = {s: _spread(values[s]) for s in SIDES}
            parent = spread["parent"]
            # positive when the change's median is the better one
            gap = sign * (parent["median"] - spread["change"]["median"])
            w["metrics"][m["name"]] = {
                "unit": m["unit"],
                "better": m["better"],
                "bound": m["bound"],
                **spread,
                "change_wins": wins,
                "pairs": len(pairs),
                "gain_rule_met": sound
                and 10 * wins >= 9 * len(pairs)
                and gap > parent["q3"] - parent["q1"],
                "within_bound": -gap <= m["bound"] * parent["median"],
            }
    return out


def main(argv):
    if len(argv) < 2:
        sys.stderr.write(__doc__)
        return 2
    runs = []
    for arg in argv[1:]:
        side, sep, path = arg.partition("=")
        try:
            if not sep:
                raise ValueError("expected SIDE=RESULT.json")
            res = json.loads(Path(path).read_text(encoding="utf-8"))
            if not isinstance(res, dict):
                raise ValueError(f"a JSON {type(res).__name__}, not a result.json object")
            missing = [key for key in _RESULT_KEYS if key not in res]
            if missing:
                raise ValueError(f"not a result.json object: no {', '.join(missing)}")
            runs.append((side, res))
        except (OSError, ValueError) as exc:  # a JSONDecodeError is a ValueError
            sys.stderr.write(f"condense_bench: {arg}: {exc}\n")
            return 2
    try:
        bench = condense(runs)
    except ValueError as exc:
        sys.stderr.write(f"condense_bench: {exc}\n")
        return 2
    text = json.dumps(bench, indent=1, sort_keys=True) + "\n"
    Path(argv[0]).write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
