"""Layer-by-layer tracing of posetlab from outside the program.

``Tracer.install`` wraps the public functions and classes (their
``__init__``) of every posetlab module listed in ``LAYERS``.  A function
is rebound in every module namespace that holds it, so calls through
``from .x import f`` are seen as well as calls inside ``x``.  Nothing in
the package is edited; the wrappers only read the clock and record a
span ``(name, parent, start, end)`` per call, plus a few size counters
taken from arguments and results.

Spans stay in memory and are summarised once the traced call returns.
Pool workers are forked with the wrappers in place; after each suite
job a worker appends the spans it recorded since its last job to a
per-process file, because pool workers are terminated without running
exit handlers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

#: the posetlab modules traced; each module is one layer
LAYERS = (
    "enumeration",
    "graph_posets",
    "multigraph",
    "poset",
    "simplicial",
    "homology",
    "morse",
    "suites",
)

#: name of the root span around ``posetlab.cli.main``
ROOT = "cli.main"

#: per-layer inclusive times: metric -> span names counted once when nested
INCLUSIVE = {
    "enumeration.census_s": ("enumeration.enumerate_graphs",),
    "enumeration.canonical_key_s": ("enumeration.canonical_key",),
    "enumeration.fiber_poset_s": ("enumeration.fiber_poset",),
    "enumeration.fiber_retraction_s": ("enumeration.fiber_retraction",),
    "graph_posets.poset_elements_s": ("graph_posets.poset_elements",),
    "graph_posets.core_map_s": ("graph_posets.core_map",),
    "poset.poset_map_s": ("poset.PosetMap",),
    "poset.finite_poset_s": ("poset.FinitePoset",),
    "poset.closure_retraction_s": ("poset.closure_retraction",),
    "poset.order_complex_s": ("poset.order_complex",),
    "simplicial.complex_init_s": ("simplicial.SimplicialComplex",),
    "homology.snf_s": ("homology.snf_from_entries",),
    "homology.boundary_s": ("homology.boundary_entries",),
    "homology.pi1_s": ("homology.pi1_field", "homology.pi1_triviality"),
    "homology.duality_s": ("homology.alexander_duality_check",),
    "morse.search_s": ("morse.search_certificate",),
    "suites.render_s": ("suites.canonical_json",),
}

#: per-layer call counts: metric -> span names
CALLS = {
    "enumeration.canonical_key_calls": ("enumeration.canonical_key",),
    "graph_posets.poset_elements_calls": ("graph_posets.poset_elements",),
    "poset.finite_poset_calls": ("poset.FinitePoset",),
    "homology.snf_calls": ("homology.snf_from_entries",),
    "homology.reduced_homology_calls": ("homology.reduced_homology",),
    "homology.pi1_calls": ("homology.pi1_triviality",),
}


class Tracer:
    """Spans and size counters of one traced process and its pool workers.

    `worker_dir` receives the spans of forked pool workers.
    """

    def __init__(self, worker_dir: Path):
        self.owner = os.getpid()
        self.worker_dir = worker_dir
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.samples: dict[str, float] = {}
        self.misnested = 0
        self._flushed = 0

    # -- recording ---------------------------------------------------------

    def _reset_in_worker(self) -> None:
        # lists are mutated in place: the wrappers hold references to them
        for seq in (self.names, self.parents, self.starts, self.ends, self.stack):
            del seq[:]
        self.counts.clear()
        self.samples.clear()
        self.misnested = 0
        self._flushed = 0

    def _count(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        """A traced stand-in for `fn`; `hook(args, kwargs, result, seconds)`
        runs after each successful call to take size counters."""
        names, parents, starts, ends, stack = (
            self.names,
            self.parents,
            self.starts,
            self.ends,
            self.stack,
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                if stack.pop() != idx:
                    self.misnested += 1
            if hook is not None:
                hook(args, kwargs, result, ends[idx] - starts[idx])
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _hooks(self):
        def deep_pair(args, kwargs, result, seconds):
            # one sample per graph: its x and cx checks together
            self.samples[result.graph] = self.samples.get(result.graph, 0.0) + seconds

        def suite_time(args, kwargs, result, seconds):
            self._count(f"suites.{result.suite}_s", seconds)

        def complex_faces(args, kwargs, result, seconds):
            k = args[0]
            for d in range(k.dim + 1):
                self._count(f"simplicial.faces_d{d}", k.num_faces(d))

        def poset_map_pairs(args, kwargs, result, seconds):
            source = args[1] if len(args) > 1 else kwargs["source"]
            self._count("poset.poset_map_pairs", source.n * source.n)

        return {
            "enumeration.fiber_poset": lambda a, k, r, s: self._count(
                "enumeration.fiber_elements", r.n
            ),
            "graph_posets.poset_elements": lambda a, k, r, s: self._count(
                "graph_posets.elements_built", len(r)
            ),
            "graph_posets.verify_sphericity_via_core": deep_pair,
            "poset.PosetMap": poset_map_pairs,
            "poset.order_complex": lambda a, k, r, s: self._count(
                "poset.faces_built", r.num_faces()
            ),
            "simplicial.SimplicialComplex": complex_faces,
            "homology.snf_from_entries": lambda a, k, r, s: self._count(
                "homology.snf_nnz", len(a[0] if a else k["entries"])
            ),
            "morse.search_certificate": lambda a, k, r, s: self._count(
                "morse.centers_tried", r.centers_tried
            ),
            "suites.run_suite": suite_time,
        }

    def install(self) -> int:
        """Wrap every public function and class of the traced layers.

        Returns the number of objects wrapped.
        """
        modules = [importlib.import_module(f"posetlab.{layer}") for layer in LAYERS]
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "posetlab"]
        hooks = self._hooks()
        wrapped = 0
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isclass(obj):
                    if issubclass(obj, BaseException) or "__init__" not in vars(obj):
                        continue
                    obj.__init__ = self.wrap(name, obj.__init__, hooks.get(name))
                elif callable(obj) and not inspect.isgeneratorfunction(obj):
                    stand_in = self.wrap(name, obj, hooks.get(name))
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is obj:
                                setattr(ns, key, stand_in)
                else:
                    continue
                wrapped += 1
        # the job boundary: pool workers hand their spans back from here
        suites = modules[LAYERS.index("suites")]
        suites._run_job = self.wrap("suites._run_job", suites._run_job, self._after_job)
        os.register_at_fork(after_in_child=self._reset_in_worker)
        return wrapped

    def _after_job(self, args, kwargs, result, seconds) -> None:
        if os.getpid() == self.owner:
            return
        new = slice(self._flushed, len(self.starts))
        chunk = {
            "spans": list(
                zip(self.names[new], self.parents[new], self.starts[new], self.ends[new])
            ),
            "counts": self.counts,
            "misnested": self.misnested,
        }
        self._flushed = len(self.starts)
        path = self.worker_dir / f"worker-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(chunk) + "\n")

    # -- summary -----------------------------------------------------------

    def traced_call(self, fn, *args):
        """Run `fn(*args)` as the root span and return its result."""
        return self.wrap(ROOT, fn)(*args)

    def summary(self) -> dict:
        """Per-layer metrics and trace checks for this process and its workers."""
        own = _SpanSet(self.names, self.parents, self.starts, self.ends)
        metrics = own.metrics()
        checks = {**own.checks(self.misnested), "workers": 0}
        root = own.names.index(ROOT)
        wall = own.ends[root] - own.starts[root]
        checks["self_sum_error_s"] = abs(sum(own.self_times()) - wall)
        checks["self_sum_ok"] = checks["self_sum_error_s"] <= 1e-6 * max(wall, 1.0)
        counts = dict(self.counts)
        for path in sorted(self.worker_dir.glob("worker-*.jsonl")):
            names, parents, starts, ends = [], [], [], []
            misnested, worker_counts = 0, {}
            for line in path.read_text(encoding="utf-8").splitlines():
                chunk = json.loads(line)
                for n, p, s, e in chunk["spans"]:
                    names.append(n)
                    parents.append(p)
                    starts.append(s)
                    ends.append(e)
                worker_counts = chunk["counts"]
                misnested = chunk["misnested"]
            worker = _SpanSet(names, parents, starts, ends)
            for key, value in worker.metrics().items():
                metrics[key] = metrics.get(key, 0) + value
            worker_checks = worker.checks(misnested)
            checks["misnested"] += worker_checks["misnested"]
            checks["spans"] += worker_checks["spans"]
            checks["workers"] += 1
            for key, value in worker_counts.items():
                counts[key] = counts.get(key, 0) + value
        metrics.update(counts)
        calls = metrics["homology.reduced_homology_calls"]
        misses = metrics.pop("homology.reduced_homology_misses", 0)
        metrics["homology.cache_hit_ratio"] = (calls - misses) / calls if calls else 0.0
        pairs = sorted(self.samples.values())
        if pairs:
            metrics["graph_posets.deep_graph_p50_ms"] = 1e3 * statistics.median(pairs)
            metrics["graph_posets.deep_graph_p90_ms"] = 1e3 * (
                statistics.quantiles(pairs, n=10)[8] if len(pairs) > 1 else pairs[0]
            )
        checks["deep_graph_samples"] = len(pairs)
        checks["nesting_ok"] = checks["misnested"] == 0
        checks["ok"] = checks["nesting_ok"] and checks["self_sum_ok"]
        return {"root_s": wall, "metrics": metrics, "checks": checks}


class _SpanSet:
    """Spans of one process, in start order (a parent precedes its children)."""

    def __init__(self, names, parents, starts, ends):
        self.names, self.parents, self.starts, self.ends = names, parents, starts, ends

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def checks(self, misnested: int) -> dict:
        bad = misnested
        for i, p in enumerate(self.parents):
            if self.ends[i] < self.starts[i]:
                bad += 1
            elif p >= 0 and not (
                p < i and self.starts[p] <= self.starts[i] and self.ends[i] <= self.ends[p]
            ):
                bad += 1
        return {"spans": len(self.names), "misnested": bad}

    def metrics(self) -> dict:
        out: dict[str, float] = {}
        for span_name, own in zip(self.names, self.self_times()):
            layer = span_name.split(".")[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
        for metric, group in INCLUSIVE.items():
            out[metric] = self._inclusive(set(group))
        calls = Counter(self.names)
        for metric, group in CALLS.items():
            out[metric] = sum(calls[n] for n in group)
        # a reduced_homology call that built no boundary matrix was a cache hit
        out["homology.reduced_homology_misses"] = len(
            {
                p
                for i, p in enumerate(self.parents)
                if self.names[i] == "homology.boundary_entries"
                and p >= 0
                and self.names[p] == "homology.reduced_homology"
            }
        )
        return out

    def _inclusive(self, group: set) -> float:
        inside = [False] * len(self.names)
        total = 0.0
        for i, (n, p) in enumerate(zip(self.names, self.parents)):
            covered = p >= 0 and (inside[p] or self.names[p] in group)
            inside[i] = covered
            if n in group and not covered:
                total += self.ends[i] - self.starts[i]
        return total
