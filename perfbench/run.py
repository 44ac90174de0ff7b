"""posetlab benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every repetition is a fresh interpreter (``perfbench/rep.py``) that
imports ``posetlab.cli`` from ``src/`` and calls
``posetlab.cli.main(["report", ..., "--out", FILE])``, so the census
lru-cache and the homology cache start cold, as they do for a user of
the command line.  The report bytes of every repetition are checked
against the sha256 pinned in ``perfbench/spec.json``.

``--trace 0`` repeats the workload while another repetition fits in
``--seconds``, interleaved with set-up probes (processes that only
import the package), and prints the end-to-end metrics of
``BENCHMARK.json`` as medians over the repetitions.  ``--trace 1`` runs
the same loop with one repetition traced layer by layer (see
``tracer.py``), plus, for ``report``, one traced repetition over a
two-process pool, and prints the per-layer metrics.  The workloads are
fixed; the seed only orders the processes of a run and picks the CPU
each untraced repetition is pinned to.

The speed of a shared machine drifts by a quarter or more within
minutes, so every process also times a fixed calibration loop
(``rep.calibrate``) after the import and after ``main``, and untraced
repetitions time short bursts of it all through ``main``.  Printed
times are divided by the process's slowdown against
``REFERENCE_ROUND_S`` (raised to ``SLOWDOWN_EXPONENT``): they are
seconds at the reference speed.
Each run writes ``perfbench/out/<run>/result.json`` with the raw and
scaled figures of every process, the size counters, the seed, the run
order and the machine it ran on.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: set-up-only processes per untraced run; set-up is the median of these
#: and of every repetition's own set-up
SETUP_PROBES = 9

#: every process of a run is stopped by then
DEADLINE_S = 170.0

#: seconds per round of the ``rep`` calibration loop on the reference
#: machine (an idle core of the 2-vCPU Xeon VM this benchmark was tuned on)
REFERENCE_ROUND_S = 0.12 / 250_000

#: posetlab slows less than the calibration loop when the machine is
#: contended (report, which is mostly large-dict SNF, less than rank4-deep).
#: Over 25 runs of the two workloads whose raw medians spread by up to
#: 0.31 of the median, exponents 0.6 to 0.65 on the sampled slowdown kept
#: every spread at or below 0.063, against up to 0.20 for 1.0
SLOWDOWN_EXPONENT = 0.6


def _reap(proc: subprocess.Popen, deadline: float):
    """Wait for `proc`; kill its process group past `deadline`.

    Returns (exit code or None if killed, rusage of it and its children).
    """
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            os.killpg(proc.pid, signal.SIGKILL)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(0.01)


def _report_counts(report: Path, checks_per_deep_graph: int) -> dict:
    obj = json.loads(report.read_text(encoding="utf-8"))
    suites = obj["suites"] if "suites" in obj else [obj]
    cut = sum(
        s["summary"].get("graphs_total", 0) - s["summary"].get("graphs_completed", 0)
        for s in suites
    )
    return {
        "checks": sum(s["summary"]["checks"] for s in suites),
        "fail": sum(s["summary"]["fail"] for s in suites),
        "cut_off_checks": checks_per_deep_graph * cut,
        "graphs": len({r["graph"] for s in suites for r in s["records"]}),
    }


def run_rep(
    kind: str, index: int, workload: dict, spec: dict, out: Path, deadline: float, cpu: int | None
) -> dict:
    """One repetition or set-up probe.

    `kind` is "timed", "traced", "fanout" (traced, with the workload's
    ``fanout_env``) or "probe" (import only).
    """
    report = out / f"{index:03d}-report.json"
    result = out / f"{index:03d}-result.json"
    workers = out / f"{index:03d}-workers"
    config = out / f"{index:03d}-config.json"
    traced = kind in ("traced", "fanout")
    if traced:
        workers.mkdir()
    config.write_text(
        json.dumps(
            {
                "src": str(SRC),
                "argv": [*workload["argv"], "--out", str(report)],
                "result": str(result),
                "trace": traced,
                "probe": kind == "probe",
                "worker_dir": str(workers),
                "cpu": cpu,
            }
        ),
        encoding="utf-8",
    )
    env = {**os.environ, **workload["env"]}
    if kind == "fanout":
        env.update(workload["fanout_env"])
    with open(out / f"{index:03d}-stderr.txt", "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "rep.py"), str(config)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=err,
            stderr=err,
            start_new_session=True,
        )
        code, usage = _reap(proc, deadline)
    elapsed = time.monotonic() - spawned
    rec = {
        "kind": kind,
        "exit": code,
        "elapsed_s": elapsed,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }
    child = json.loads(result.read_text(encoding="utf-8")) if code == 0 and result.exists() else {}
    rec["setup_s"] = child["imported"] - spawned if child else elapsed
    rec["calibration"] = child.get("calibration", [])
    rec["samples"] = child.get("samples", [])
    rec["cpu_s"] -= child.get("calibration_cpu", 0.0) + child.get("sampling_cpu", 0.0)
    # what this process's times are divided by: >1 when it ran slower
    # than the reference machine.  Samples taken all through main track
    # the machine far better than the calibrations before and after it;
    # their median ignores the odd burst stretched by an interrupt.
    if rec["samples"]:
        per_round = statistics.median(rec["samples"])
    else:
        per_round = statistics.mean(rec["calibration"]) if rec["calibration"] else REFERENCE_ROUND_S
    rec["slowdown"] = (per_round / REFERENCE_ROUND_S) ** SLOWDOWN_EXPONENT
    rec["module_ok"] = bool(child) and Path(child["module"]).resolve().is_relative_to(SRC)
    ok = rec["module_ok"]
    if kind != "probe":
        rec["wall_s"] = child.get("wall", elapsed)
        rec["rc"] = child.get("rc")
        rec["worker_cpu_s"] = child.get("worker_cpu")
        rec["sha256"] = hashlib.sha256(report.read_bytes()).hexdigest() if report.exists() else None
        rec["digest_ok"] = rec["sha256"] == workload["sha256"]
        ok = ok and rec["rc"] == 0 and rec["digest_ok"]
        rec["attempted"] = workload["checks"]
        if ok:
            rec["counts"] = _report_counts(report, spec["checks_per_deep_graph"])
            failed = rec["counts"]["fail"] + rec["counts"]["cut_off_checks"]
            rec["failed"] = min(workload["checks"], failed)
        else:
            rec["failed"] = workload["checks"]
        if traced:
            rec["trace"] = child.get("trace")
            rec["wrapped"] = child.get("wrapped")
            # spans nest, self times sum to the root span, and the root span
            # lies inside the wall time measured around it
            ok = ok and bool(rec["trace"]) and rec["trace"]["checks"]["ok"] and (
                rec["trace"]["root_s"] <= rec["wall_s"]
            )
    rec["ok"] = ok
    return rec


def run(workload: dict, spec: dict, seconds: int, trace: bool, seed: int, out: Path) -> list[dict]:
    """Repeat the workload while another repetition fits in `seconds`.

    The seed orders the processes: where the set-up probes fall among the
    repetitions and, when tracing, the order of the first repetitions
    (untraced, traced and, if the workload names one, the fan-out one).
    """
    rng = random.Random(seed)
    start = time.monotonic()
    deadline = start + DEADLINE_S
    first = ["timed"]
    if trace:
        first = ["timed", "traced"] + (["fanout"] if "fanout_env" in workload else [])
        rng.shuffle(first)
    probes_left = 0 if trace else SETUP_PROBES
    cpus = sorted(os.sched_getaffinity(0))
    reps: list[dict] = []
    lengths: list[float] = []
    while True:
        elapsed = time.monotonic() - start
        rep_due = bool(first) or (
            elapsed + statistics.median(lengths) <= seconds
            and elapsed + max(lengths) < DEADLINE_S - 5
        )
        if not rep_due and not probes_left:
            break
        if probes_left and (not rep_due or rng.random() < 0.5):
            kind = "probe"
            probes_left -= 1
        else:
            kind = first.pop(0) if first else "timed"
        # timed repetitions run pinned to a CPU, sampled throughout
        cpu = rng.choice(cpus) if kind == "timed" else None
        rec = run_rep(kind, len(reps), workload, spec, out, deadline, cpu)
        if kind != "probe":
            lengths.append(rec["elapsed_s"])
        reps.append(rec)
    return reps


def _machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def end_to_end(reps: list[dict], workload: dict) -> dict:
    """Medians over the run; times at the reference machine's speed.

    The speed of a shared machine drifts by a quarter within minutes, so
    each process's times are divided by the slowdown its calibration loop
    saw.  The raw medians are kept under ``*_raw_s``.
    """
    timed = [r for r in reps if r["kind"] == "timed"]

    def median(key: str, over: list[dict], scaled: bool = True) -> float:
        return statistics.median(r[key] / (r["slowdown"] if scaled else 1.0) for r in over)

    wall = median("wall_s", timed)
    return {
        "setup_s": median("setup_s", reps),
        "wall_s": wall,
        "cpu_s": median("cpu_s", timed),
        "checks_per_s": workload["checks"] / wall,
        "peak_rss_mb": median("peak_rss_mb", timed, scaled=False),
        "setup_raw_s": median("setup_s", reps, scaled=False),
        "wall_raw_s": median("wall_s", timed, scaled=False),
        "cpu_raw_s": median("cpu_s", timed, scaled=False),
        "slowdown": median("slowdown", reps, scaled=False),
    }


def _at_reference_speed(metrics: dict, slowdown: float) -> dict:
    return {k: v / slowdown if k.endswith(("_s", "_ms")) else v for k, v in metrics.items()}


def per_layer(reps: list[dict]) -> dict:
    """The traced repetition's layer metrics, times at the reference speed."""
    kinds = {r["kind"]: r for r in reps}
    traced = kinds["traced"]
    trace = traced.get("trace") or {"metrics": {}, "checks": {"spans": 0}}
    metrics = dict(trace["metrics"])
    counts = traced.get("counts") or {}
    metrics["suites.checks"] = counts.get("checks", 0)
    metrics["suites.graphs"] = counts.get("graphs", 0)
    metrics["suites.worker_cpu_s"] = traced["worker_cpu_s"] or 0.0
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.spans"] = trace["checks"]["spans"]
    metrics = _at_reference_speed(metrics, traced["slowdown"])
    untraced = statistics.median(r["wall_s"] / r["slowdown"] for r in reps if r["kind"] == "timed")
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced
    fanout = kinds.get("fanout")
    if fanout:
        # the same report over a two-process pool, traced like `traced`
        fanned = (fanout.get("trace") or {}).get("metrics", {})
        two = {
            "suites.2w_wall_s": fanout["wall_s"],
            "suites.2w_cpu_s": fanout["cpu_s"],
            "suites.2w_worker_cpu_s": fanout["worker_cpu_s"] or 0.0,
            "homology.2w_cache_hit_ratio": fanned.get("homology.cache_hit_ratio", 0.0),
            "homology.2w_snf_calls": fanned.get("homology.snf_calls", 0),
        }
        metrics.update(_at_reference_speed(two, fanout["slowdown"]))
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (SRC / "posetlab" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no posetlab sources under {SRC}\n")
        return 2
    spec = json.loads((HERE / "spec.json").read_text(encoding="utf-8"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in spec["workloads"]:
        choices = ", ".join(spec["workloads"])
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from {choices}\n")
        return 2
    workload = spec["workloads"][args.workload]

    out = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    reps = run(workload, spec, max(1, args.seconds), bool(args.trace), args.seed, out)

    if args.trace:
        measured = per_layer(reps)
        wanted = bench["per_layer"]
    else:
        measured = end_to_end(reps, workload)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": measured.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    runs = [r for r in reps if r["kind"] != "probe"]
    summary = {
        "correct": all(r["ok"] for r in reps),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_order": [r["kind"] for r in reps],
        "machine": _machine(),
        "expected": workload,
        "summary": summary,
        "fail_share": summary["failed"] / summary["attempted"],
        "all_metrics": measured,
        "reps": reps,
    }
    (out / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
