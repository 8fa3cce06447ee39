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

import numpy as np

from .exact import GraphMetrics, compute_metrics
from .graph import Graph
from .estimators import (RseDomainError, check_delta, check_level, check_p,
                         check_rse, check_runs, method_spec, run_trials)
from .rng import RandomSource, mix_seed


# Trials a sweep row derives in one vectorized pass and hands to one
# trial engine call, so a row never holds more sources than this.
_SEED_BLOCK = 1024


def sample_size_for_rse(method: str, metrics: GraphMetrics, target_rse: float) -> int:
    """Entities to sample so the approximate RSE meets the target.

    Inverts the method's approximate formula: edges for ews/es, wedges
    for ws. Results round up, so the target is guaranteed (never below 1).
    A size that is not finite raises RseDomainError (``_finite``).
    """
    check_rse(target_rse)
    spec = method_spec(method)
    check_delta(metrics.triangle_count)
    size = _finite(spec.size, metrics, target_rse ** 2,
                   f"{method} sample size for target RSE {target_rse}")
    return max(1, math.ceil(size))


def _finite(formula, metrics: GraphMetrics, x: float, what: str):
    """``formula(metrics, x)``, whose values must all be finite: a value
    that is not, or a division by a product that underflowed to zero,
    raises RseDomainError naming ``what``."""
    try:
        values = formula(metrics, x)
    except ZeroDivisionError:
        values = math.inf
    if not np.isfinite(values).all():
        raise RseDomainError(f"{what} is not finite")
    return values


@dataclass(frozen=True)
class RseRow:
    """One (method, sampling level) row of ``rse_sweep``."""

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


# The ``rse-sweep`` CSV header. Nothing in the package reads it: it stays
# because ``tribench/workloads.py`` checks the CLI's header against it.
RSE_REPORT_CSV_HEADER = ",".join(f.name for f in fields(RseRow))


def theory_rse(method: str, metrics: GraphMetrics, p: float | None = None,
               k: int | None = None) -> tuple[float, float]:
    """(exact, approximate) closed-form RSE for one configuration: at
    ``p`` for ews and es, at ``k`` for ws. Accepts and rejects the
    (method, p, k) ``empirical_rse`` does (``check_level``), and raises
    RseDomainError where the RSE is not finite (``_finite``)."""
    level = check_level(method, p, k)
    check_delta(metrics.triangle_count)
    spec = method_spec(method)
    return _finite(spec.theory, metrics, level,
                   f"{method} RSE at {spec.level} = {level}")


def empirical_rse(g: Graph, method: str, metrics: GraphMetrics,
                  p: float | None = None, k: int | None = None, *,
                  seed: int, runs: int) -> RseRow:
    """Run ``runs`` independent seeded trials of ``method`` at ``p``, or
    at ``k`` for ws (which may carry a nominal ``p``), against theory.

    Trial ``i`` draws from ``RandomSource(seed).derive(i)``, so any
    single trial can be reproduced in isolation and trials are
    order-independent. The row runs ``_SEED_BLOCK`` trials at a time,
    derived in one pass and run in one call to the estimators' trial
    engine (draws per trial, graph work once per batch), so it holds one
    block's sources however many runs it has. It adds up sampled counts
    and keeps one estimate per trial (8 bytes) for its two-pass mean and
    variance. Both sums use compensated accumulation (math.fsum).
    """
    check_runs(runs)
    level = check_level(method, p, k)
    exact, approx = theory_rse(method, metrics, p=p, k=k)
    base = RandomSource(seed)
    sampled, estimates = 0, np.empty(runs)
    for start in range(0, runs, _SEED_BLOCK):
        stop = min(start + _SEED_BLOCK, runs)
        _, block_sampled, estimates[start:stop] = run_trials(
            g, method, level, base.derive(np.arange(start, stop)))
        sampled += int(block_sampled.sum())

    mu = math.fsum(estimates) / runs
    estimates -= mu
    mean_sq = math.fsum(np.square(estimates, out=estimates)) / runs
    emp = math.sqrt(mean_sq) / metrics.triangle_count
    return RseRow(method=method, p=p, k=k, sampled=sampled / runs,
                  empirical_rse=emp, exact_rse=exact, approx_rse=approx,
                  mean_estimate=mu, runs=runs)


def rse_sweep(g: Graph, methods: list[str], ps: list[float], runs: int,
              seed: int) -> tuple[RseRow, ...]:
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
    check_runs(runs)
    configs = [(method, p,
                math.ceil(p * g.m) if method_spec(method).level == "k" else None)
               for method, p in itertools.product(methods, ps)]
    metrics = compute_metrics(g)
    for method, p, k in configs:
        theory_rse(method, metrics, p=p, k=k)
    return tuple(empirical_rse(g, method, metrics, p, k, seed=mix_seed(seed, idx),
                               runs=runs)
                 for idx, (method, p, k) in enumerate(configs))
