"""Sampling estimators for the triangle count of a graph.

Three methods share a deterministic random-source contract:

* ``ews``: Bernoulli edge sampling, then each sampled edge is extended
  to one wedge hinged at its lower-degree endpoint; a closed wedge
  contributes that endpoint's degree minus one. Estimate: tau / (3p).
* ``es``: Bernoulli edge sampling; every pair of sampled edges sharing
  a vertex forms a wedge, counted as closed when the third edge exists
  in the original graph. Estimate: closed / (3 p^2).
* ``ws``: wedges drawn with replacement, hinge vertex proportional to
  its wedge count, endpoints uniform among the hinge's neighbor pairs.
  Estimate: closed * total_wedges / (3k).

All three run on one trial engine. Each trial draws only from its own
:class:`RandomSource`, the same draws in the same order whether it runs
alone or among thousands; the graph work (hinge split, neighbor
lookups, closure probes) runs once over a batch of trials' samples.
Phase two makes one draw call per trial: ews draws its wedge ends, ws
its two neighbor picks (``_draw_each``). ws finds its hinges by one
search over the batch's wedge positions in ascending order, and es
groups the batch's edge ends by one exact sort of their (trial,
vertex) keys.

Each method's closed-form relative standard error (RSE: standard
deviation of the raw statistic over its expected value) sits next to
its estimator. The exact form follows from the variance; the
approximate form drops only negative terms inside the radical, so
``exact <= approx``. ``_METHODS`` holds every per-method decision:
level, draws, scale, closed-form RSE and its inversion to a sample size.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .graph import (Graph, _run_pairs, _sorted_unique_mask, _stable_order,
                    has_edge_many)
from .rng import RandomSource

# Sampled entities (edges for ews and es, wedges for ws) a batch of
# trials gathers before its graph work runs. The graph work holds
# ~60-80 bytes of temporaries per entity, so a batch stays a few MB
# however many trials a sweep row runs; its per-trial part is one
# phase-two draw call, and its sorts (ws hinges, es ends) are one per
# batch. es probes its wedge pairs in blocks of _BATCH // 2, as it holds
# the batch's edge ends and their trials meanwhile.
_BATCH = 1 << 16
# Phase one draws its uniform reals this many at a time, so a draw holds
# O(_CHUNK + pm) memory rather than 8m bytes. PCG64 gives the same
# stream whether the reals are drawn at once or in pieces.
_CHUNK = 1 << 16
# A ws trial draws k wedge positions into one array.
_K_MAX = int(np.iinfo(np.intp).max)


class NoWedgesError(ValueError):
    """Wedge sampling requires at least one wedge in the graph."""


def check_p(p: float):
    """The one rule for an edge probability: 0 < p <= 1."""
    if not 0.0 < p <= 1.0:
        raise ValueError(f"sampling probability p must be in (0, 1], got {p}")


def _check_k(k: int):
    """The one rule for a wedge-sample count: an integer k >= 1 that a
    float can hold and that can size an array of draws."""
    try:
        whole = float(k).is_integer()
    except OverflowError:
        raise ValueError("wedge-sample count k must fit a float "
                         "(at most ~1.8e308)") from None
    if not (whole and k >= 1):
        raise ValueError(f"wedge-sample count k must be an integer >= 1, got {k}")
    if k > _K_MAX:
        raise ValueError(f"wedge-sample count k must be at most {_K_MAX}, "
                         f"the largest array size, got {k}")


@dataclass(frozen=True)
class _Method:
    """How the trial engine runs one estimator.

    ``level`` names the parameter the method reads: ``p`` (edge
    probability) or ``k`` (wedge draws); ``check_level`` validates it.
    ``prepare`` builds what all trials share (ws: the wedge sampler).
    ``draw`` makes a trial's first draw; ``finish`` takes a batch's
    first draws end to end and where each trial's run of them starts,
    does the graph work, including each trial's later draws, and
    returns the raw statistic per trial; ``scale`` turns one raw
    statistic into the estimate. ``theory(metrics, level)`` is the
    (exact, approximate) closed-form RSE, and ``size(metrics, r2)`` the
    entities (edges, or wedges for ws) whose approximate RSE is sqrt(r2).
    """

    level: str
    prepare: Callable
    draw: Callable
    finish: Callable
    scale: Callable
    theory: Callable
    size: Callable


def _edge_draw(g: Graph, p: float, rng: RandomSource, sampler) -> np.ndarray:
    """Phase one: positions in ``g.edge_arrays`` of the edges kept, each
    with probability p."""
    parts = []
    for start in range(0, g.m, _CHUNK):
        kept = np.flatnonzero(rng.uniform_reals(min(_CHUNK, g.m - start)) < p)
        if start:
            kept += start
        parts.append(kept)
    return np.concatenate(parts)


def _concat(draws: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The trials' draws end to end, and where each trial's run starts
    (one more entry than trials: the last is the total). Empties
    ``draws``, so a batch holds its sample once."""
    bounds = np.zeros(len(draws) + 1, dtype=np.int64)
    np.cumsum([d.size for d in draws], out=bounds[1:])
    values = np.concatenate(draws)
    draws.clear()
    return values, bounds


def _draw_each(rngs: list[RandomSource], highs: np.ndarray,
               bounds: np.ndarray) -> np.ndarray:
    """Uniform draws below ``highs``, one row of highs per phase-two draw
    of an entity, each trial's runs from its own source.

    A trial makes one ``uniform_indices`` call on its runs of every row,
    end to end (row 0's run, then row 1's, ...); numpy's array-bounded
    draws keep their stream, 32-bit buffer included, across calls
    (``tests/test_rng.py`` pins this), so this is the stream of one call
    per row. Trials with an empty run draw nothing.
    """
    out = np.empty(highs.shape, dtype=np.int64)
    for rng, a, b in zip(rngs, bounds[:-1].tolist(), bounds[1:].tolist()):
        if b > a:
            out[:, a:b] = rng.uniform_indices(highs[:, a:b].ravel()).reshape(-1, b - a)
    return out


def _run_sums(values: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Exact integer sum of ``values`` over each trial's run."""
    cum = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=cum[1:])
    return cum[bounds[1:]] - cum[bounds[:-1]]


def _hinge_split(g: Graph, eu: np.ndarray, ev: np.ndarray):
    """Lower-degree endpoint of each edge (ties: smaller id), the other
    endpoint, and the lower endpoint's degree."""
    deg = g.degrees
    du = deg[eu]
    dv = deg[ev]
    take_v = (dv < du) | ((dv == du) & (ev < eu))
    return np.where(take_v, ev, eu), np.where(take_v, eu, ev), np.minimum(du, dv)


def _wedge_end(g: Graph, hinge: np.ndarray, other: np.ndarray,
               j: np.ndarray) -> np.ndarray:
    """Entry ``j`` (0 <= j < d(hinge) - 1) of each hinge's neighbor list
    once ``other`` is left out. The list is strictly increasing, so j
    passes ``other`` exactly when the entry at j is not below it.
    Overwrites ``j``."""
    j += g.offsets[hinge]
    j += g.neighbors[j] >= other
    return g.neighbors[j]


def _ews_finish(g: Graph, p: float, rngs, idx, bounds, sampler) -> np.ndarray:
    eu, ev = g.edge_arrays
    hinge, other, dh = _hinge_split(g, eu[idx], ev[idx])
    # Edges whose hinge is a pendant close no wedge and draw nothing.
    ok = dh >= 2
    kept = np.zeros(ok.size + 1, dtype=np.int64)
    np.cumsum(ok, out=kept[1:])
    bounds = kept[bounds]
    hinge, other, dh = hinge[ok], other[ok], dh[ok]
    del ok, kept
    dh -= 1
    w = _wedge_end(g, hinge, other, _draw_each(rngs, dh[np.newaxis], bounds)[0])
    del hinge
    closed = has_edge_many(g, other, w)
    return _run_sums(np.where(closed, dh, 0), bounds)


def _closed_wedges(g: Graph, eu: np.ndarray, ev: np.ndarray, trial: np.ndarray,
                   trials: int) -> tuple[np.ndarray, int]:
    """Closed wedges per trial among each trial's sampled edges, and the
    wedge total over all trials.

    Every unordered pair of a trial's edges sharing a vertex is one
    wedge at that hinge. Edge ends are sorted by their whole (trial,
    hinge) key (``_stable_order``), so no two vertices' runs merge at
    any key width; an end then pairs with each later end of its run,
    the pairs are probed ``_BATCH // 2`` at a time, and each hit counts
    for its first end's trial.
    """
    closed = np.zeros(trials, dtype=np.int64)
    if eu.size == 0:
        return closed, 0
    n = g.n
    key = np.concatenate([trial, trial])
    del trial
    key *= n
    key += np.concatenate([eu, ev])
    order = _stable_order(key, (trials * n - 1).bit_length())
    key = key.take(order)
    other = np.concatenate([ev, eu]).take(order)
    del eu, ev, order
    pairs = _run_pairs(np.append(np.flatnonzero(_sorted_unique_mask(key)), other.size),
                       max(_BATCH // 2, 1))
    # Each end's trial, held through the probes in the narrowest signed
    # type that holds one.
    key //= n
    trial = key.astype(np.min_scalar_type(-trials))
    del key
    total = 0
    for a, b in pairs:
        total += a.size
        b = other.take(b)
        hit = a[has_edge_many(g, other.take(a), b)]
        del a, b  # before the next block is built
        closed += np.bincount(trial.take(hit), minlength=trials)
    return closed, total


def _es_finish(g: Graph, p: float, rngs, idx, bounds, sampler) -> np.ndarray:
    eu, ev = g.edge_arrays
    closed, _ = _closed_wedges(g, eu[idx], ev[idx],
                               np.repeat(np.arange(len(rngs)), np.diff(bounds)),
                               len(rngs))
    return closed


def _ws_draw(g: Graph, k: int, rng: RandomSource, sampler) -> np.ndarray:
    """Positions of ``k`` wedges drawn uniformly with replacement."""
    return rng.uniform_indices(sampler.total, size=int(k))


def _hinges(sampler: WedgeSampler, t: np.ndarray) -> np.ndarray:
    """The hinge of each wedge position ``t``: the first vertex whose
    cumulative wedge count exceeds it.

    The search runs over the positions in ascending order
    (``_stable_order``), which keeps its branches predictable, then
    scatters back.
    """
    order = _stable_order(t, (sampler.total - 1).bit_length())
    hinge = np.empty_like(order)
    hinge[order] = np.searchsorted(sampler.cumulative, t.take(order), side="right")
    return hinge


def _ws_finish(g: Graph, k: int, rngs, t, bounds, sampler) -> np.ndarray:
    hinge = _hinges(sampler, t)
    highs = np.empty((2, hinge.size), dtype=np.int64)
    g.degrees.take(hinge, out=highs[0])
    np.subtract(highs[0], 1, out=highs[1])
    i, j = _draw_each(rngs, highs, bounds)
    del highs
    j += j >= i
    base = g.offsets[hinge]
    del hinge
    i += base
    j += base
    del base
    closed = has_edge_many(g, g.neighbors[i], g.neighbors[j])
    return _run_sums(closed, bounds)


class RseDomainError(ValueError):
    """Inputs outside the domain of a closed-form RSE expression."""


def check_delta(delta: float):
    """RSE is relative to the triangle count, so it needs one."""
    if delta <= 0:
        raise RseDomainError("triangle count must be positive: RSE is "
                             "undefined for triangle-free graphs")


def _check_p_delta(p: float, delta: float):
    check_p(p)
    check_delta(delta)


def _check_clustering(c: float):
    if c <= 0.0:
        raise RseDomainError("clustering coefficient must be positive")
    if c > 1.0:
        raise RseDomainError(f"clustering coefficient {c} exceeds 1")


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


def _es_size(met, r2: float) -> float:
    # r^2 = x^2/(3D) + x * 8K/(9D^2) with x = 1/p; positive root.
    delta = met.triangle_count
    a = 1.0 / (3.0 * delta)
    b = 8.0 * met.shared_edge_pairs / (9.0 * delta * delta)
    x = (-b + math.sqrt(b * b + 4.0 * a * r2)) / (2.0 * a)
    return met.m / x


def _ws_size(met, r2: float) -> float:
    c = met.clustering_coefficient
    _check_clustering(c)
    return (1.0 - c) / (r2 * c)


_METHODS = {
    "ews": _Method(level="p", prepare=lambda g: None,
                   draw=_edge_draw, finish=_ews_finish,
                   scale=lambda tau, p, _: tau / (3.0 * p),
                   theory=lambda met, p: (
                       rse_tau_exact(p, met.triangle_count, met.shared_edge_pairs,
                                     met.phi),
                       rse_tau_approx(p, met.triangle_count, met.phi)),
                   size=lambda met, r2: met.m * met.phi / (
                       9.0 * r2 * met.triangle_count * met.triangle_count)),
    "es": _Method(level="p", prepare=lambda g: None,
                  draw=_edge_draw, finish=_es_finish,
                  scale=lambda closed, p, _: closed / (3.0 * p * p),
                  theory=lambda met, p: (
                      rse_rho_exact(p, met.triangle_count, met.shared_edge_pairs),
                      rse_rho_approx(p, met.triangle_count, met.shared_edge_pairs)),
                  size=_es_size),
    "ws": _Method(level="k", prepare=lambda g: build_wedge_sampler(g),
                  draw=_ws_draw, finish=_ws_finish,
                  scale=lambda omega, k, s: omega * s.total / (3.0 * k),
                  # p*m is k exactly at p = 1, m = k; (k/m)*m can miss by an ulp.
                  theory=lambda met, k: (
                      rse_omega_exact(1.0, k, met.clustering_coefficient,
                                      met.wedge_count),
                      rse_omega_approx(1.0, k, met.clustering_coefficient)),
                  size=_ws_size),
}
METHODS = tuple(_METHODS)


def method_spec(method: str) -> _Method:
    """The method's table entry; rejects an unknown method."""
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    return _METHODS[method]


def check_level(method: str, p: float | None = None, k: int | None = None):
    """The one home of the level rules. Rejects an unknown method, a
    missing or invalid level (``p`` for ews and es, ``k`` for ws), a
    ``k`` given to ews or es, and an invalid nominal ``p`` of a ws
    configuration. Returns the level."""
    spec = method_spec(method)
    level = p if spec.level == "p" else k
    if level is None:
        raise ValueError(f"{method} requires {spec.level}")
    (check_p if spec.level == "p" else _check_k)(level)
    if spec.level == "p" and k is not None:
        raise ValueError(f"{method} does not take k")
    if spec.level == "k" and p is not None:
        check_p(p)  # a ws configuration's nominal p
    return level


def run_trials(g: Graph, method: str, level, rngs: Iterable[RandomSource]
               ) -> tuple[list[int], list[int], list[float]]:
    """Raw statistic, sampled count and estimate of one trial per source.

    Trial i draws only from the i-th source, exactly the draws of a lone
    estimate and in the same order, so no result depends on batching.
    Trials are gathered until their samples reach ``_BATCH`` entities,
    then the graph work runs once over the batch, so memory is
    O(_BATCH + one trial's sample) however many trials there are.
    ``level`` must have passed ``check_level``.
    """
    spec = _METHODS[method]
    sampler = spec.prepare(g)
    raw: list[int] = []
    sampled: list[int] = []
    rngs = iter(rngs)
    while True:
        batch, draws, size = [], [], 0
        for rng in rngs:  # resumes where the last batch stopped
            batch.append(rng)
            draws.append(spec.draw(g, level, rng, sampler))
            size += draws[-1].size
            if size >= _BATCH:
                break
        if not batch:
            return raw, sampled, [spec.scale(r, level, sampler) for r in raw]
        sampled += [d.size for d in draws]
        values, bounds = _concat(draws)
        raw += spec.finish(g, level, batch, values, bounds, sampler).tolist()


@dataclass(frozen=True)
class SamplingPlan:
    """One estimator configuration: method, p or k, base seed, trial count.

    ``p`` is the edge-sampling probability used by ``ews`` and ``es``;
    ``k`` is the wedge-sample count used by ``ws``. For ``ws`` plans a
    nominal ``p`` may be carried alongside ``k`` for reporting.
    """

    method: str
    p: float | None = None
    k: int | None = None
    seed: int = 0
    runs: int = 1

    def __post_init__(self):
        check_level(self.method, self.p, self.k)
        if not (isinstance(self.runs, numbers.Integral) and self.runs >= 1):
            raise ValueError(f"runs must be an integer >= 1, got {self.runs}")

    @property
    def level(self):
        """The level the method reads: ``p``, or ``k`` for ws."""
        return getattr(self, method_spec(self.method).level)


@dataclass(frozen=True)
class EstimateResult:
    """One estimator run.

    ``raw_statistic`` is the method's raw count (wedge increments for
    ews, closed wedges for es/ws); ``entities_sampled`` counts edges
    for ews/es phase one and wedges for ws.
    """

    method: str
    p_or_k: float
    seed: int
    raw_statistic: int
    entities_sampled: int
    estimate: float
    elapsed: float

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "p_or_k": self.p_or_k,
            "seed": self.seed,
            "raw": self.raw_statistic,
            "sampled": self.entities_sampled,
            "estimate": self.estimate,
            "seconds": self.elapsed,
        }


def estimate(g: Graph, method: str, level, rng: RandomSource) -> EstimateResult:
    """One trial of ``method`` at ``level`` (``p``, or ``k`` for ws)."""
    start = time.perf_counter()
    check_level(method, **{method_spec(method).level: level})
    (raw,), (sampled,), (est,) = run_trials(g, method, level, [rng])
    return EstimateResult(method=method, p_or_k=float(level), seed=rng.seed,
                          raw_statistic=raw, entities_sampled=sampled,
                          estimate=est, elapsed=time.perf_counter() - start)


def ews_estimate(g: Graph, p: float, rng: RandomSource) -> EstimateResult:
    """Edge-based wedge sampling estimate of the triangle count.

    Phase one Bernoulli-samples edges; phase two draws, for each
    sampled edge, one uniform neighbor of the lower-degree endpoint
    excluding the opposite endpoint (edges whose lower endpoint is a
    pendant contribute 0: no triangle can pass through them). The raw
    statistic is unbiased for 3p times the triangle count.
    """
    return estimate(g, "ews", p, rng)


def es_estimate(g: Graph, p: float, rng: RandomSource) -> EstimateResult:
    """Edge-sampling estimate: closed wedges in the sampled subgraph.

    Both edges of a counted wedge come from the Bernoulli sample; the
    closing third edge is looked up in the original graph. The raw
    statistic is unbiased for 3 p^2 times the triangle count.
    """
    return estimate(g, "es", p, rng)


@dataclass(frozen=True)
class WedgeSampler:
    """Prefix-sum table for O(log n) wedge-proportional vertex draws."""

    cumulative: np.ndarray
    total: int


def build_wedge_sampler(g: Graph) -> WedgeSampler:
    """The graph's cumulative per-vertex wedge counts (``g.wedge_prefix``,
    built once per graph); raises if the graph has no wedges."""
    cumulative = g.wedge_prefix
    total = int(cumulative[-1])
    if total == 0:
        raise NoWedgesError("graph has no wedges")
    return WedgeSampler(cumulative=cumulative, total=total)


def ws_estimate(g: Graph, k: int, rng: RandomSource) -> EstimateResult:
    """Uniform wedge sampling estimate over ``k`` draws with replacement.

    Each draw picks a hinge vertex with probability proportional to its
    wedge count, then a uniform unordered pair of its neighbors. The
    closed fraction, scaled by total wedges over 3, estimates the
    triangle count.
    """
    return estimate(g, "ws", k, rng)
