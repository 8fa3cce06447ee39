"""Span tracing of tricount's public functions, from outside the program.

``Tracer.installed()`` replaces each traced function with a wrapper in
every tricount module that binds it (so ``estimators.has_edge_many`` and
``analysis.ews_estimate`` are traced as well as the originals), and puts
the originals back on exit. Each call becomes one span (name, start,
end, parent) held in memory; observers add counters at the same
boundary. ``layer_metrics`` turns the spans and counters of the traced
passes into the per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
import tracemalloc
from collections import defaultdict
from functools import cached_property, wraps

import numpy as np

import tricount
from tricount import analysis, cli, estimators, exact, graph, rng

MODULES = (tricount, graph, rng, estimators, exact, analysis, cli)
ESTIMATORS = ("ews_estimate", "es_estimate", "ws_estimate")
ROOT = "bench.pass"


def _obs_load(counts, args, kwargs, out):
    source = args[0] if args else kwargs["source"]
    if isinstance(source, (str, os.PathLike)):
        counts["graph.load_edge_list.bytes"] += os.path.getsize(source)


def _obs_has_edge(counts, args, kwargs, out):
    counts["graph.has_edge_many.queries"] += out.size
    counts["graph.has_edge_many.hits"] += int(np.count_nonzero(out))


def _obs_rank(counts, args, kwargs, out):
    counts["graph.neighbor_rank.queries"] += out.size


def _obs_reals(counts, args, kwargs, out):
    counts["rng.uniform_reals.draws"] += out.size


def _obs_indices(counts, args, kwargs, out):
    counts["rng.uniform_indices.draws"] += np.size(out)


def _obs_estimate(counts, args, kwargs, out):
    counts["estimators.calls"] += 1
    counts["estimators.sampled"] += out.entities_sampled
    counts["estimators.raw"] += out.raw_statistic


def _obs_empirical(counts, args, kwargs, out):
    counts["analysis.trials"] += out.runs


def _obs_exact(counts, args, kwargs, out):
    delta, per_edge = out
    counts["exact.sum_t_mismatch"] += int(per_edge.counts.sum()) != 3 * delta


# layer name -> (owner of the attribute, attribute, observer)
TARGETS = {
    "graph.load_edge_list": (graph, "load_edge_list", _obs_load),
    "graph.has_edge_many": (graph, "has_edge_many", _obs_has_edge),
    "graph.neighbor_rank": (graph, "neighbor_rank", _obs_rank),
    "rng.uniform_reals": (rng.RandomSource, "uniform_reals", _obs_reals),
    "rng.uniform_indices": (rng.RandomSource, "uniform_indices", _obs_indices),
    "rng.derive": (rng.RandomSource, "derive", None),
    "estimators.ews_estimate": (estimators, "ews_estimate", _obs_estimate),
    "estimators.es_estimate": (estimators, "es_estimate", _obs_estimate),
    "estimators.ws_estimate": (estimators, "ws_estimate", _obs_estimate),
    "estimators.build_wedge_sampler": (estimators, "build_wedge_sampler", None),
    "exact.count_triangles_exact": (exact, "count_triangles_exact", _obs_exact),
    "exact.compute_metrics": (exact, "compute_metrics", None),
    "analysis.rse_sweep": (analysis, "rse_sweep", None),
    "analysis.empirical_rse": (analysis, "empirical_rse", _obs_empirical),
    "analysis.theory_rse": (analysis, "theory_rse", None),
    "cli.main": (cli, "main", None),
}
EDGE_ARRAYS = "graph.edge_arrays"  # a cached_property on Graph, wrapped apart


class Tracer:
    """In-memory spans and counters for the calls made while installed.

    With ``memory=True`` each estimator call also records its tracemalloc
    peak (allocations above the level at entry); that slows allocation,
    so it is used only for a separate probe pass, never for timing.
    """

    def __init__(self, memory: bool = False):
        # One column per span field; floats in lists keep the garbage
        # collector's work independent of the span count.
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.memory = memory
        self.peak_alloc = 0

    def _open(self, name) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, observe=None):
        probe = self.memory and name.rsplit(".", 1)[-1] in ESTIMATORS

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if probe:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            i = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(i)
            if probe:
                self.peak_alloc = max(self.peak_alloc,
                                      tracemalloc.get_traced_memory()[1] - base)
            if observe is not None:
                observe(self.counts, args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def root(self):
        """One traced pass, the parent of every top-level layer span; yields its index."""
        i = self._open(ROOT)
        try:
            yield i
        finally:
            self._close(i)

    def duration(self, i) -> float:
        return self.end[i] - self.start[i]

    @contextlib.contextmanager
    def installed(self):
        restore = []
        for name, (owner, attr, observe) in TARGETS.items():
            orig = getattr(owner, attr)
            if isinstance(owner, type):
                restore.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(name, orig, observe))
                continue
            wrapper = self._wrap(name, orig, observe)
            for mod in MODULES:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        restore.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        prop = graph.Graph.__dict__["edge_arrays"]
        traced = cached_property(self._wrap(EDGE_ARRAYS, prop.func))
        traced.__set_name__(graph.Graph, "edge_arrays")
        restore.append((graph.Graph, "edge_arrays", prop))
        setattr(graph.Graph, "edge_arrays", traced)
        if self.memory:
            tracemalloc.start()
        try:
            yield self
        finally:
            if self.memory:
                tracemalloc.stop()
            for owner, key, orig in reversed(restore):
                setattr(owner, key, orig)

    def totals(self):
        """Per span name: (calls, inclusive seconds, self seconds)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for d, p in zip(dur, self.parent):
            if p >= 0:
                child[p] += d
        calls = defaultdict(int)
        incl = defaultdict(float)
        own = defaultdict(float)
        for name, d, c in zip(self.name, dur, child):
            calls[name] += 1
            incl[name] += d
            own[name] += d - c
        return calls, incl, own

    def dump(self, path):
        """Write the spans as JSON: name table plus [name, start, end, parent] rows."""
        names = sorted(set(self.name))
        index = {n: i for i, n in enumerate(names)}
        rows = [[index[n], a, b, p] for n, a, b, p
                in zip(self.name, self.start, self.end, self.parent)]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": names, "spans": rows},
                                   separators=(",", ":")))


def wrapper_cost_s(calls: int = 20_000, repeats: int = 5) -> float:
    """Median extra seconds one traced call costs over a plain call."""
    def noop():
        return None

    wrapped = Tracer()._wrap("calibrate", noop)
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        mid = time.perf_counter()
        for _ in range(calls):
            wrapped()
        costs.append((time.perf_counter() - mid - (mid - start)) / calls)
    return float(np.median(costs))


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, untraced: list[float], traced: list[float],
                  peak_alloc: int, output_bytes: float) -> dict[str, float]:
    """The per-layer table, per traced pass (totals divided by pass count).

    ``trace.overhead_pct`` compares the fastest traced pass with the
    fastest untraced one, which is less sensitive to interference from
    other processes than a mean; it can still read negative when the true
    overhead is below the host's noise. ``trace.span_cost_pct`` is the
    wrapper cost measured on a no-op function times the span count, over
    the fastest untraced pass: a floor that noise does not move.
    """
    calls, incl, own = tracer.totals()
    c = tracer.counts
    k = len(traced)
    load_s = incl["graph.load_edge_list"]
    spans = (len(tracer.name) - calls[ROOT]) / k
    base = min(untraced)
    values = {
        "graph.load_edge_list.s": load_s / k,
        "graph.load_edge_list.mb_per_s":
            _ratio(c["graph.load_edge_list.bytes"] / 1e6, load_s),
        "graph.edge_arrays.s": incl[EDGE_ARRAYS] / k,
        "graph.has_edge_many.calls": calls["graph.has_edge_many"] / k,
        "graph.has_edge_many.queries": c["graph.has_edge_many.queries"] / k,
        "graph.has_edge_many.s": incl["graph.has_edge_many"] / k,
        "graph.has_edge_many.hit_ratio":
            _ratio(c["graph.has_edge_many.hits"], c["graph.has_edge_many.queries"]),
        "graph.neighbor_rank.queries": c["graph.neighbor_rank.queries"] / k,
        "graph.neighbor_rank.s": incl["graph.neighbor_rank"] / k,
        "rng.uniform_reals.draws": c["rng.uniform_reals.draws"] / k,
        "rng.uniform_reals.s": incl["rng.uniform_reals"] / k,
        "rng.uniform_indices.draws": c["rng.uniform_indices.draws"] / k,
        "rng.uniform_indices.s": incl["rng.uniform_indices"] / k,
        "rng.derive.calls": calls["rng.derive"] / k,
        "rng.derive.s": incl["rng.derive"] / k,
        "estimators.ews_estimate.self_s": own["estimators.ews_estimate"] / k,
        "estimators.es_estimate.self_s": own["estimators.es_estimate"] / k,
        "estimators.ws_estimate.self_s": own["estimators.ws_estimate"] / k,
        "estimators.calls": c["estimators.calls"] / k,
        "estimators.sampled": c["estimators.sampled"] / k,
        "estimators.closed_ratio": _ratio(c["estimators.raw"], c["estimators.sampled"]),
        "estimators.build_wedge_sampler.calls": calls["estimators.build_wedge_sampler"] / k,
        "estimators.build_wedge_sampler.s": incl["estimators.build_wedge_sampler"] / k,
        "estimators.peak_alloc_mb": peak_alloc / 1e6,
        "exact.count_triangles_exact.s": incl["exact.count_triangles_exact"] / k,
        "exact.compute_metrics.self_s": own["exact.compute_metrics"] / k,
        "analysis.rse_sweep.s": incl["analysis.rse_sweep"] / k,
        "analysis.empirical_rse.calls": calls["analysis.empirical_rse"] / k,
        "analysis.empirical_rse.self_s": own["analysis.empirical_rse"] / k,
        "analysis.trials": c["analysis.trials"] / k,
        "analysis.theory_rse.s": incl["analysis.theory_rse"] / k,
        "cli.main.s": incl["cli.main"] / k,
        "cli.main.self_s": own["cli.main"] / k,
        "cli.output_bytes": output_bytes / k,
        "trace.overhead_pct": 100.0 * (min(traced) - base) / base,
        "trace.span_cost_pct": 100.0 * wrapper_cost_s() * spans / base,
        "trace.unattributed_pct": 100.0 * _ratio(own[ROOT], incl[ROOT]),
        "trace.spans": spans,
    }
    return values
