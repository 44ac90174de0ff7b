"""One repetition of a workload in a fresh interpreter.

Usage: python3 perfbench/rep.py CONFIG.json

CONFIG names the package source directory, the ``posetlab`` argv, where
the result goes and whether to trace.  The clock is read as soon as
``posetlab.cli`` is imported (set-up ends there), and around
``posetlab.cli.main``.  With ``probe`` set the process only imports and
reports its set-up.

Each process also times ``calibrate()``, a fixed loop that shares no code
with posetlab, once after the import and once after ``main``, so that the
caller can tell how fast this machine was running at the time.  When
CONFIG names a ``cpu``, the process is pinned to it and a ``Sampler``
thread times short bursts of the same loop all through ``main``.
"""

import json
import sys
import time

with open(sys.argv[1], encoding="utf-8") as _fh:
    CONFIG = json.load(_fh)
sys.path.insert(0, CONFIG["src"])

import posetlab.cli  # noqa: E402

IMPORTED = time.monotonic()

import os  # noqa: E402
import resource  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

#: iterations of the calibration loop
CALIBRATION_ROUNDS = 250_000

#: while ``main`` runs untraced, a burst of this many iterations is timed
#: every ``SAMPLE_EVERY_S`` on the same (pinned) CPU
SAMPLE_ROUNDS = 6_000
SAMPLE_EVERY_S = 0.25


def _loop(rounds: int) -> int:
    """A fixed pure-Python loop of dict, set and tuple work, the kind
    posetlab spends its time on; its memory stays small."""
    seen = set()
    index = {}
    acc = 0
    for i in range(rounds):
        face = (i % 7, i % 11, i % 13)
        key = face[:2]
        index[key] = index.get(key, 0) + 1
        if face in seen:
            acc += 1
        else:
            seen.add(face)
        acc ^= hash(key) & 0xFF
    return acc


def calibrate() -> float:
    """Seconds per round of the calibration loop, timed once."""
    start = time.perf_counter()
    _loop(CALIBRATION_ROUNDS)
    return (time.perf_counter() - start) / CALIBRATION_ROUNDS


class Sampler(threading.Thread):
    """Times a short calibration burst every SAMPLE_EVERY_S until stopped."""

    def __init__(self):
        super().__init__(daemon=True)
        self.stop = threading.Event()
        self.samples: list[float] = []

    def run(self) -> None:
        while not self.stop.wait(SAMPLE_EVERY_S):
            start = time.thread_time()
            _loop(SAMPLE_ROUNDS)
            self.samples.append((time.thread_time() - start) / SAMPLE_ROUNDS)


def main() -> int:
    result = {"imported": IMPORTED, "module": posetlab.cli.__file__}
    result["calibration"] = [calibrate()]
    if not CONFIG["probe"]:
        tracer = None
        if CONFIG["trace"]:
            from tracer import Tracer

            tracer = Tracer(Path(CONFIG["worker_dir"]))
            result["wrapped"] = tracer.install()
        sampler = None
        if CONFIG["cpu"] is not None:
            # the sampler must see the CPU that main runs on
            os.sched_setaffinity(0, {CONFIG["cpu"]})
            sampler = Sampler()
            sampler.start()
        t0 = time.monotonic()
        if tracer is None:
            rc = posetlab.cli.main(CONFIG["argv"])
        else:
            rc = tracer.traced_call(posetlab.cli.main, CONFIG["argv"])
        result["wall"] = time.monotonic() - t0
        if sampler is not None:
            sampler.stop.set()
            sampler.join()
            result["samples"] = sampler.samples
        result["calibration"].append(calibrate())
        result["calibration_cpu"] = CALIBRATION_ROUNDS * sum(result["calibration"])
        result["sampling_cpu"] = sum(s * SAMPLE_ROUNDS for s in result.get("samples", ()))
        result["rc"] = rc
        workers = resource.getrusage(resource.RUSAGE_CHILDREN)
        result["worker_cpu"] = workers.ru_utime + workers.ru_stime
        if tracer is not None:
            result["trace"] = tracer.summary()
    with open(CONFIG["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
