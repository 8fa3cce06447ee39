"""Closed-form error theory, sample-size inversion, and the trial harness.

For each estimator the exact relative standard error (standard
deviation of the raw statistic over its expected value) follows from
its variance; the approximate forms drop only negative terms inside
the radical, so ``exact <= approx`` everywhere. Inverting the
approximations at a target RSE yields required sample sizes.

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
from .estimators import LEVELS, SamplingPlan, check_level, check_p, run_trials
from .rng import RandomSource, mix_seed


# Trial sources a sweep row derives per vectorized pass; a row holds at
# most this many not yet handed to the trial engine.
_SEED_BLOCK = 1024


class RseDomainError(ValueError):
    """Inputs outside the domain of a closed-form RSE expression."""


def rse_tau_exact(p: float, delta: float, shared_pairs: float, phi: float) -> float:
    """Exact RSE of the ews raw statistic: sqrt(p*phi - p^2(3D + 2K)) / (3pD)."""
    _check_p_delta(p, delta)
    radicand = p * phi - p * p * (3.0 * delta + 2.0 * shared_pairs)
    if radicand < 0:
        if radicand > -1e-9 * max(p * phi, 1.0):  # exact-zero variance cases
            radicand = 0.0
        else:
            raise RseDomainError("negative variance: inconsistent metrics")
    return math.sqrt(radicand) / (3.0 * p * delta)


def rse_tau_approx(p: float, delta: float, phi: float) -> float:
    """Approximate ews RSE: sqrt(phi / (9 p D^2)); drops the negative term."""
    _check_p_delta(p, delta)
    return math.sqrt(phi / (9.0 * p * delta * delta))


def rse_omega_exact(p: float, m: float, clustering: float, wedges: float) -> float:
    """Exact RSE of the ws closed-wedge count for k = pm draws without
    replacement: sqrt((1-C)/(pmC) * (1 - (pm-1)/(L-1)))."""
    _check_clustering(clustering)
    k = p * m
    if k < 1:
        raise RseDomainError("exact form requires p*m >= 1")
    if wedges <= 1 or k > wedges:
        raise RseDomainError("need 1 < k <= wedge count")
    radicand = (1.0 - clustering) / (k * clustering) * (1.0 - (k - 1.0) / (wedges - 1.0))
    return math.sqrt(radicand)


def rse_omega_approx(p: float, m: float, clustering: float) -> float:
    """Approximate ws RSE: sqrt((1-C) / (pmC))."""
    _check_clustering(clustering)
    return math.sqrt((1.0 - clustering) / (p * m * clustering))


def rse_rho_exact(p: float, delta: float, shared_pairs: float) -> float:
    """Exact RSE of the es closed-wedge count:
    sqrt(3D(p^2-p^4) + 8K(p^3-p^4)) / (3 p^2 D)."""
    _check_p_delta(p, delta)
    variance = 3.0 * delta * (p**2 - p**4) + 8.0 * shared_pairs * (p**3 - p**4)
    return math.sqrt(variance) / (3.0 * p * p * delta)


def rse_rho_approx(p: float, delta: float, shared_pairs: float) -> float:
    """Approximate es RSE: sqrt(1/(3 p^2 D) + 8K/(9 p D^2))."""
    _check_p_delta(p, delta)
    return math.sqrt(1.0 / (3.0 * p * p * delta)
                     + 8.0 * shared_pairs / (9.0 * p * delta * delta))


def _check_p_delta(p: float, delta: float):
    check_p(p)
    if delta <= 0:
        raise RseDomainError("triangle count must be positive")


def _check_clustering(c: float):
    if c <= 0.0:
        raise RseDomainError("clustering coefficient must be positive")
    if c > 1.0:
        raise RseDomainError(f"clustering coefficient {c} exceeds 1")


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

    Inverts the approximate formulas: edges for ews/es, wedges for ws.
    Results round up, so the target is guaranteed (never below 1).
    """
    met = request.metrics
    r2 = request.target_rse ** 2
    delta = met.triangle_count
    if delta <= 0:
        raise RseDomainError("triangle count must be positive")
    if method == "ews":
        size = met.m * met.phi / (9.0 * r2 * delta * delta)
    elif method == "ws":
        c = met.clustering_coefficient
        _check_clustering(c)
        size = (1.0 - c) / (r2 * c)
    elif method == "es":
        # r^2 = x^2/(3D) + x * 8K/(9D^2) with x = 1/p; positive root.
        a = 1.0 / (3.0 * delta)
        b = 8.0 * met.shared_edge_pairs / (9.0 * delta * delta)
        x = (-b + math.sqrt(b * b + 4.0 * a * r2)) / (2.0 * a)
        size = met.m / x
    else:
        raise ValueError(f"unknown method {method!r}")
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
    ``p`` for ews and es, at ``k`` for ws."""
    check_level(method, p, k)
    delta = metrics.triangle_count
    if method == "ews":
        return (rse_tau_exact(p, delta, metrics.shared_edge_pairs, metrics.phi),
                rse_tau_approx(p, delta, metrics.phi))
    if method == "es":
        return (rse_rho_exact(p, delta, metrics.shared_edge_pairs),
                rse_rho_approx(p, delta, metrics.shared_edge_pairs))
    p_eff = k / metrics.m
    c = metrics.clustering_coefficient
    return (rse_omega_exact(p_eff, metrics.m, c, metrics.wedge_count),
            rse_omega_approx(p_eff, metrics.m, c))


def _row_theory(plan: SamplingPlan, metrics: GraphMetrics) -> tuple[float, float]:
    """A row's closed-form (exact, approximate) RSE; raises if the row
    has none, so it can be checked before any trial runs."""
    if metrics.triangle_count <= 0:
        raise RseDomainError("empirical RSE undefined for triangle-free graphs")
    return theory_rse(plan.method, metrics, p=plan.p, k=plan.k)


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
    exact, approx = _row_theory(plan, metrics)
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
              seed: int, metrics: GraphMetrics | None = None) -> RseReport:
    """Empirical RSE for every (method, p) pair.

    For ws the wedge-sample count is ceil(p * m). Row ``i`` (in method-
    major order) uses base seed ``mix_seed(seed, i)``. Every (method, p)
    is checked, and so is its theory against the graph's metrics, before
    the first row runs.
    """
    if not ps:
        raise ValueError("need at least one sampling probability")
    for p in ps:
        check_p(p)  # before ceil(p * m), which overflows at p = inf
    plans = [SamplingPlan(method=method, p=p,
                          k=math.ceil(p * g.m) if LEVELS.get(method) == "k" else None,
                          seed=mix_seed(seed, idx), runs=runs)
             for idx, (method, p) in enumerate(itertools.product(methods, ps))]
    if metrics is None:
        metrics = compute_metrics(g)
    for plan in plans:
        _row_theory(plan, metrics)
    return RseReport(rows=tuple(empirical_rse(g, plan, metrics) for plan in plans))
