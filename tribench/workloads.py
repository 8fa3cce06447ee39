"""The benchmark workloads; ``run.py`` runs this file once per workload run.

Each workload is a closed loop with one caller in a fresh single-threaded
process. It sets up (load plus one untimed warm-up of the timed operation)
several times, then repeats the timed operation until ``--seconds`` have
passed and at least ``min_ops`` operations are done, then checks every
output. With ``--trace 1`` it instead alternates untraced and traced
passes over the same work and reports the per-layer metrics.

The program is reached only through module attributes looked up at call
time (``graph.load_edge_list``, ``estimators.ews_estimate``, ...), so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import tricount
from tricount import analysis, cli, estimators, exact, graph
from tricount.exact import GraphMetrics
from tricount.rng import RandomSource

import tracer

# Seed of the untimed warm-up estimate; timed call i uses seed i.
WARMUP_SEED = 1 << 40
REPEAT_CHECKS = 3
SE_LIMIT = 5.0
# Trials per row of one timed rse-sweep (three methods, two p each).
SWEEP_RUNS = {"full": 100, "tiny": 20}

# Pinned outputs at the default input seeds (8675309 and 11).
GOLDEN_STATS = {"n": 286_258, "m": 1_000_000, "triangle_count": 186_896,
                "wedge_count": 238_932_754, "phi": 220_120_957,
                "shared_edge_pairs": 9_204_647}
GOLDEN_ESTIMATES = {  # estimates of timed calls 0, 1, 2
    "ews": [141423.8095238095, 158409.5238095238, 220052.38095238092],
    "es": [211111.11111111112, 184074.0740740741, 150740.74074074076],
    "ws": [149865.69696969696, 187332.12121212122, 181712.15757575756],
}
GOLDEN_SWEEP_SHA256 = "543f674a6d909f6687998e1b8e293ac791d5416bb0d208a7ccbb5b0821a1fd6a"


def metrics_from_facts(facts: dict) -> GraphMetrics:
    return GraphMetrics(n=facts["n"], m=facts["m"], triangle_count=facts["delta"],
                        wedge_count=facts["wedges"],
                        clustering_coefficient=3.0 * facts["delta"] / facts["wedges"],
                        phi=facts["phi"], shared_edge_pairs=facts["K"])


class Workload:
    """Set-up, operations and output checks of one workload.

    ``load`` turns the input file into the state operations run on; a
    set-up is ``load`` plus one untimed warm-up operation.
    """

    setups: int        # set-ups per timed run; setup_s is their median
    min_ops: int       # timed operations per run, at least
    trace_ops: int     # operations per traced or untraced pass
    trace_pairs: int   # (untraced, traced) pass pairs per traced run

    def load(self, path):
        return graph.load_edge_list(path)

    def setup(self, path):
        state = self.load(path)
        self.op(state, WARMUP_SEED)
        return state

    def trace_pass(self, path):
        state = self.load(path)
        return state, [self.op(state, i) for i in range(self.trace_ops)]

    def probe(self, state):
        """Operations whose tracemalloc peaks the traced run reports."""
        self.op(state, 0)


class Stats(Workload):
    """``compute_metrics`` on the power-law graph: parse, CSR build, exact oracle."""

    setups = 2
    min_ops = 2
    trace_ops = 1
    trace_pairs = 2

    def op(self, g, i):
        return exact.compute_metrics(g)

    def probe(self, g):
        """No estimator runs here, so there is no allocation peak to probe."""

    def check(self, g, outs, facts, golden):
        want = {"n": facts["n"], "m": facts["m"], "triangle_count": facts["delta"],
                "wedge_count": facts["wedges"], "phi": facts["phi"],
                "shared_edge_pairs": facts["K"]}
        if golden and want != GOLDEN_STATS:
            return [True] * len(outs)
        c = 3.0 * facts["delta"] / facts["wedges"]
        return [{f: getattr(o, f) for f in want} != want
                or o.clustering_coefficient != c for o in outs]

    def corrupt(self):
        return _corrupt_first(exact, "compute_metrics",
                              lambda r: dataclasses.replace(
                                  r, triangle_count=r.triangle_count + 1))


class Estimate(Workload):
    """Rounds of single estimates on the power-law graph, one per method.

    Each method is called as the CLI calls it (``ws`` builds its wedge
    sampler on every call) at the level ``sample-size --rse 0.1`` gives
    on the default graph, so a round is the time to three answers of
    equal stated accuracy.
    """

    setups = 3
    min_ops = 100
    trace_ops = 10
    trace_pairs = 3
    levels = {"ews": 0.07, "es": 0.03, "ws": 42_515}

    def call(self, g, method, seed):
        fn = getattr(estimators, f"{method}_estimate")
        return fn(g, self.levels[method], RandomSource(seed))

    def op(self, g, i):
        return {m: self.call(g, m, i) for m in self.levels}

    def check(self, g, outs, facts, golden):
        bad = [False] * len(outs)
        metrics = metrics_from_facts(facts)
        delta = facts["delta"]
        for method, level in self.levels.items():
            est = [o[method].estimate for o in outs]
            for i, e in enumerate(est):
                bad[i] |= not (math.isfinite(e) and e >= 0)
            for i in range(min(REPEAT_CHECKS, len(est))):
                bad[i] |= self.call(g, method, i).estimate != est[i]
            if golden:
                for i, want in enumerate(GOLDEN_ESTIMATES[method][:len(est)]):
                    bad[i] |= est[i] != want
            kw = {"k": level} if method == "ws" else {"p": level}
            rse, _ = analysis.theory_rse(method, metrics, **kw)
            if abs(statistics.fmean(est) - delta) > SE_LIMIT * rse * delta / math.sqrt(len(est)):
                bad = [True] * len(outs)
        return bad

    def corrupt(self):
        return _corrupt_first(estimators, "ews_estimate",
                              lambda r: dataclasses.replace(r, estimate=r.estimate + 1.0))


class Sweep(Workload):
    """``tricount rse-sweep`` in-process on the Erdos-Renyi graph, CSV to a buffer."""

    setups = 3
    min_ops = 2
    trace_ops = 2
    trace_pairs = 6
    methods = ("ews", "es", "ws")
    ps = (0.1, 0.2)

    def __init__(self, runs: int, seed: int):
        self.runs = runs
        self.seed = seed

    def argv(self, path):
        args = ["rse-sweep", "--graph", str(path)]
        for m in self.methods:
            args += ["--method", m]
        for p in self.ps:
            args += ["--p", str(p)]
        return args + ["--runs", str(self.runs), "--seed", str(self.seed)]

    def load(self, path):
        # The CLI loads the graph inside every operation, so set-up is the
        # warm-up sweep alone.
        return path

    def op(self, path, i):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(self.argv(path))
        return rc, out.getvalue()

    def check(self, path, outs, facts, golden):
        metrics = metrics_from_facts(facts)
        usual = collections.Counter(text for _, text in outs).most_common(1)[0][0]
        return [rc != 0 or text != usual or not self._row_ok(text, metrics)
                or (golden and hashlib.sha256(text.encode()).hexdigest()
                    != GOLDEN_SWEEP_SHA256)
                for rc, text in outs]

    def _row_ok(self, text, metrics):
        lines = text.splitlines()
        want = [(m, p) for m in self.methods for p in self.ps]
        if lines[0] != analysis.RSE_REPORT_CSV_HEADER or len(lines) != len(want) + 1:
            return False
        delta = metrics.triangle_count
        for line, (method, p) in zip(lines[1:], want):
            cell = dict(zip(lines[0].split(","), line.split(",")))
            k = math.ceil(p * metrics.m) if method == "ws" else None
            rse, _ = analysis.theory_rse(method, metrics,
                                         p=None if k else p, k=k)
            mean = float(cell["mean_estimate"])
            if (cell["method"] != method or float(cell["p"]) != p
                    or int(cell["runs"]) != self.runs or not math.isfinite(mean)
                    or abs(mean - delta) > SE_LIMIT * rse * delta / math.sqrt(self.runs)):
                return False
        return True

    def corrupt(self):
        return _corrupt_first(analysis, "empirical_rse",
                              lambda r: dataclasses.replace(
                                  r, mean_estimate=r.mean_estimate + 1.0))


@contextlib.contextmanager
def _corrupt_first(module, name, mutate):
    """Fault injection for the self-test: the first call returns a wrong value."""
    orig = getattr(module, name)
    calls = []

    def corrupted(*args, **kwargs):
        out = orig(*args, **kwargs)
        calls.append(1)
        return mutate(out) if len(calls) == 1 else out

    setattr(module, name, corrupted)
    try:
        yield
    finally:
        setattr(module, name, orig)


def make_workload(name: str, size: str, seed: int):
    if name == "powerlaw-stats":
        return Stats()
    if name == "powerlaw-estimate":
        return Estimate()
    if name == "er300-sweep":
        return Sweep(runs=SWEEP_RUNS[size], seed=seed)
    raise ValueError(f"unknown workload {name!r}")


def reference_kernel() -> int:
    """Fixed work independent of tricount, in the mix the workloads use:
    many small numpy calls with fresh PCG64 generators, a large sort and
    search, and a pure Python loop."""
    small = np.arange(2000)
    total = 0
    for i in range(150):
        gen = np.random.Generator(np.random.PCG64(i))
        kept = small[gen.random(2000) < 0.1]
        total += int(np.searchsorted(small, np.where(kept > 5, kept, 0)).sum())
        total += int(gen.integers(0, 10, size=kept.size).sum())
    x = np.random.default_rng(12345).random(100_000)
    total += int(np.searchsorted(np.sort(x), x[:50_000])[0])
    for i in range(30_000):
        total += i & 7
    return total


class HostClock:
    """Times operations against the speed of the host around them.

    Other tenants of a shared host slow this process by tens of percent
    for seconds at a time. The reference kernel runs between operations,
    at most every ``REF_EVERY_S``, in a burst whose length is about
    ``REF_SHARE`` of the time since the last run, so long operations are
    bracketed by many kernel times; an operation's time is scaled by
    ``REF_NOMINAL_S`` over the kernel time measured around it, so it
    reads as on a host where the kernel takes ``REF_NOMINAL_S``. The raw
    times are reported alongside.
    """

    REF_EVERY_S = 0.4
    REF_WINDOW_S = 1.0
    REF_NOMINAL_S = 0.030
    REF_SHARE = 0.05
    REF_BURST_MAX = 10

    def __init__(self):
        self.refs: list[tuple[float, float]] = []   # (start, seconds)

    def mark(self):
        """Run the kernel if ``REF_EVERY_S`` has passed since its last run."""
        since = time.perf_counter() - self.refs[-1][0] if self.refs else 1.0
        if since < self.REF_EVERY_S:
            return
        for _ in range(min(self.REF_BURST_MAX,
                           1 + int(since * self.REF_SHARE / self.REF_NOMINAL_S))):
            start = time.perf_counter()
            reference_kernel()
            self.refs.append((start, time.perf_counter() - start))

    def scaled(self, spans: list[tuple[float, float]]) -> list[float]:
        """Host-scaled durations of (start, end) intervals between kernel runs.

        The host speed for an interval is the median of the kernel times
        within ``REF_WINDOW_S`` before its start and after its end, and at
        least the nearest kernel run on each side.
        """
        starts = [r[0] for r in self.refs]
        out = []
        for start, end in spans:
            lo = bisect.bisect_right(starts, start)
            hi = bisect.bisect_left(starts, end)
            first = min(bisect.bisect_left(starts, start - self.REF_WINDOW_S), lo - 1)
            last = max(bisect.bisect_right(starts, end + self.REF_WINDOW_S), hi + 1)
            near = [r[1] for r in self.refs[first:lo] + self.refs[hi:last]]
            out.append((end - start) * self.REF_NOMINAL_S / statistics.median(near))
        return out


def timed_run(w, path, facts, seconds, golden, corrupt=False):
    clock = HostClock()
    setups = []
    state = None
    for _ in range(w.setups):
        state = None
        gc.collect()
        clock.mark()
        start = time.perf_counter()
        state = w.setup(path)
        setups.append((start, time.perf_counter()))
    gc.collect()
    ops, outs = [], []
    clock.mark()
    begin = time.perf_counter()
    with w.corrupt() if corrupt else contextlib.nullcontext():
        while len(outs) < w.min_ops or time.perf_counter() - begin < seconds:
            clock.mark()
            start = time.perf_counter()
            out = w.op(state, len(outs))
            ops.append((start, time.perf_counter()))
            outs.append(out)
    clock.mark()
    bad = w.check(state, outs, facts, golden)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(bad)
    lat = clock.scaled(ops)
    metrics = {
        "setup_s": statistics.median(clock.scaled(setups)),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "peak_rss_mb": rss_mb,
    }
    raw = [b - a for a, b in ops]
    detail = {"raw_setup_s": statistics.median(b - a for a, b in setups),
              "raw_op_p50_ms": 1e3 * float(np.percentile(raw, 50)),
              "raw_op_p90_ms": 1e3 * float(np.percentile(raw, 90)),
              "host_factor": statistics.median(r[1] for r in clock.refs)
              / HostClock.REF_NOMINAL_S,
              "op_s": raw, "op_scaled_s": lat,
              "ref_s": [(a - begin, b) for a, b in clock.refs]}
    return metrics, len(outs), failed, detail


def trace_run(w, path, facts, golden, spans_path):
    tr = tracer.Tracer()
    untraced, traced, failed, attempted = [], [], 0, 0
    output_bytes = 0
    for _ in range(w.trace_pairs):
        for traced_pass in (False, True):
            gc.collect()
            if traced_pass:
                with tr.installed(), tr.root() as root:
                    state, outs = w.trace_pass(path)
                traced.append(tr.duration(root))
                # CLI outputs are (exit code, stdout text) pairs.
                output_bytes += sum(len(o[1].encode()) for o in outs
                                    if isinstance(o, tuple))
            else:
                start = time.perf_counter()
                state, outs = w.trace_pass(path)
                untraced.append(time.perf_counter() - start)
            failed += sum(w.check(state, outs, facts, golden))
            attempted += len(outs)
    failed += int(tr.counts["exact.sum_t_mismatch"])
    mem = tracer.Tracer(memory=True)
    with mem.installed():
        w.probe(state)
    tr.dump(spans_path)
    values = tracer.layer_metrics(tr, untraced, traced, mem.peak_alloc, output_bytes)
    detail = {"untraced_s": untraced, "traced_s": traced}
    return values, attempted, failed, detail


def main():
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input", type=Path, required=True)
    ap.add_argument("--facts", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--golden", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: the first timed operation returns a wrong value")
    args = ap.parse_args()

    facts = json.loads(args.facts.read_text())
    w = make_workload(args.workload, args.size, args.seed)
    golden = bool(args.golden)
    if args.trace:
        metrics, attempted, failed, detail = trace_run(
            w, args.input, facts, golden, args.spans)
    else:
        metrics, attempted, failed, detail = timed_run(
            w, args.input, facts, args.seconds, golden, args.corrupt)
    print(json.dumps({
        "attempted": attempted, "failed": failed, "metrics": metrics,
        "checks": "golden" if golden else "invariant", "detail": detail,
        "program": str(Path(tricount.__file__).parent),
        "python": sys.version.split()[0], "numpy": np.__version__,
    }))


if __name__ == "__main__":
    main()
