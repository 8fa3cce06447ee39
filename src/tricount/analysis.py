"""Sample-size inversion and the trial harness.

``theory_rse`` and ``sample_size_for_rse`` check their inputs once and
look the method up in the estimators' method table, which holds each
closed-form RSE (relative standard error) and its inversion.

Empirical RSE over r runs is the root-mean-square deviation of the run
estimates about their own mean, divided by the exact triangle count.
Centering at the run mean (not the exact count) means estimator bias
would not inflate this number; the harness relies on unbiasedness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, fields
from typing import Iterator

import numpy as np

from .exact import GraphMetrics, compute_metrics, csv_cell
from .graph import Graph
from .estimators import (RseDomainError, SamplingPlan, check_delta, check_level,
                         check_p, method_spec, run_trials)
from .rng import RandomSource, mix_seed


# Trial sources a sweep row derives per vectorized pass; a row holds at
# most this many not yet handed to the trial engine.
_SEED_BLOCK = 1024


@dataclass(frozen=True)
class SampleSizeRequest:
    """Target RSE plus the graph metrics the inversion formulas need."""

    target_rse: float
    metrics: GraphMetrics

    def __post_init__(self):
        if not 0.0 < self.target_rse <= 1.0:
            raise ValueError("target RSE must be in (0, 1]")


def sample_size_for_rse(request: SampleSizeRequest, method: str) -> int:
    """Entities to sample so the approximate RSE meets the target.

    Inverts the method's approximate formula: edges for ews/es, wedges
    for ws. Results round up, so the target is guaranteed (never below 1).
    A size that is not finite, or whose formula divides by a product
    that underflowed to zero, raises RseDomainError.
    """
    spec = method_spec(method)
    check_delta(request.metrics.triangle_count)
    try:
        size = spec.size(request.metrics, request.target_rse ** 2)
    except ZeroDivisionError:
        size = math.inf
    if not math.isfinite(size):
        raise RseDomainError(f"{method} sample size for target RSE "
                             f"{request.target_rse} is not finite")
    return max(1, math.ceil(size))


@dataclass(frozen=True)
class RseRow:
    """One (method, sampling level) row of an RSE report."""

    method: str
    p: float | None
    k: int | None
    sampled: float
    empirical_rse: float
    exact_rse: float
    approx_rse: float
    mean_estimate: float
    runs: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv_row(self) -> str:
        return ",".join(csv_cell(c) for c in self.to_dict().values())


RSE_REPORT_CSV_HEADER = ",".join(f.name for f in fields(RseRow))


@dataclass(frozen=True)
class RseReport:
    """Rows of empirical-vs-theory RSE, CSV/JSON emittable."""

    rows: tuple[RseRow, ...]

    def to_csv(self) -> str:
        lines = [RSE_REPORT_CSV_HEADER]
        lines.extend(row.to_csv_row() for row in self.rows)
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> list[dict]:
        return [row.to_dict() for row in self.rows]


def theory_rse(method: str, metrics: GraphMetrics, p: float | None = None,
               k: int | None = None) -> tuple[float, float]:
    """(exact, approximate) closed-form RSE for one configuration: at
    ``p`` for ews and es, at ``k`` for ws. Accepts and rejects the
    (method, p, k) a ``SamplingPlan`` does (``check_level``)."""
    level = check_level(method, p, k)
    check_delta(metrics.triangle_count)
    return method_spec(method).theory(metrics, level)


def _trial_sources(seed: int, runs: int) -> Iterator[RandomSource]:
    """``RandomSource(seed).derive(j)`` for j < runs, derived
    ``_SEED_BLOCK`` at a time as the trial engine takes them."""
    base = RandomSource(seed)
    for start in range(0, runs, _SEED_BLOCK):
        yield from base.derive(np.arange(start, min(start + _SEED_BLOCK, runs)))


def empirical_rse(g: Graph, plan: SamplingPlan, metrics: GraphMetrics) -> RseRow:
    """Run ``plan.runs`` independent seeded trials and compare to theory.

    Trial ``i`` draws from ``RandomSource(plan.seed).derive(i)``, so any
    single trial can be reproduced in isolation and trials are
    order-independent. The sources are derived a block at a time and
    the trials run as batches on the estimators' trial engine: draws
    stay per trial, the graph work runs once per batch, and memory is
    bounded by the block and batch sizes, not by ``plan.runs`` times the
    sample size. The sum of squared deviations uses compensated
    accumulation (math.fsum).
    """
    if plan.runs < 2:
        raise ValueError("empirical RSE needs at least 2 runs")
    exact, approx = theory_rse(plan.method, metrics, p=plan.p, k=plan.k)
    _, sampled, estimates = run_trials(
        g, plan.method, plan.level, _trial_sources(plan.seed, plan.runs))

    mu = math.fsum(estimates) / plan.runs
    mean_sq = math.fsum((e - mu) ** 2 for e in estimates) / plan.runs
    emp = math.sqrt(mean_sq) / metrics.triangle_count
    return RseRow(method=plan.method, p=plan.p, k=plan.k,
                  sampled=sum(sampled) / plan.runs, empirical_rse=emp,
                  exact_rse=exact, approx_rse=approx, mean_estimate=mu,
                  runs=plan.runs)


def rse_sweep(g: Graph, methods: list[str], ps: list[float], runs: int,
              seed: int) -> RseReport:
    """Empirical RSE for every (method, p) pair.

    For ws the wedge-sample count is ceil(p * m). Row ``i`` (in method-
    major order) uses base seed ``mix_seed(seed, i)``. Every (method, p)
    and the run count are checked before the graph's metrics are
    computed, and every row's theory against them before the first row
    runs.
    """
    if not methods or not ps:
        raise ValueError("need at least one method and one sampling probability")
    for p in ps:
        check_p(p)  # before ceil(p * m), which overflows at p = inf
    plans = [SamplingPlan(method=method, p=p, seed=mix_seed(seed, idx), runs=runs,
                          k=(math.ceil(p * g.m)
                             if method_spec(method).level == "k" else None))
             for idx, (method, p) in enumerate(itertools.product(methods, ps))]
    if runs < 2:
        raise ValueError("empirical RSE needs at least 2 runs")
    metrics = compute_metrics(g)
    for plan in plans:
        theory_rse(plan.method, metrics, p=plan.p, k=plan.k)
    return RseReport(rows=tuple(empirical_rse(g, plan, metrics) for plan in plans))
