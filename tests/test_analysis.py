import dataclasses
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from tricount import (GraphMetrics, RseDomainError, compute_metrics,
                      empirical_rse, mix_seed, rse_sweep, sample_size_for_rse,
                      theory_rse)
from tricount import analysis
from helpers import complete_edges, er_edges, graph_from_edges
from oracles import (es_moments_exhaustive, es_variance, ews_moments_exhaustive,
                     rse_omega_approx, rse_omega_exact, rse_rho_approx,
                     rse_rho_exact, rse_tau_approx, rse_tau_exact,
                     ws_moments_exhaustive)

WEB_GOOGLE = GraphMetrics(n=875_000, m=4_322_000, triangle_count=13_391_000.0,
                          wedge_count=3 * 13_391_000 / 0.0552,
                          clustering_coefficient=0.0552,
                          phi=35.4 * 3 * 13_391_000,
                          shared_edge_pairs=46.4 * 13_391_000)

BOWTIE = [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)]
K5_MINUS_EDGE = complete_edges(5)[1:]


def metrics_of(edges):
    return compute_metrics(graph_from_edges(edges))


def form_metrics(delta, shared, phi, wedges=None, clustering=None):
    """Metrics holding just what the closed forms read; by default every
    wedge closes."""
    wedges = 3 * delta if wedges is None else wedges
    c = 3 * delta / wedges if clustering is None else clustering
    return GraphMetrics(n=10, m=10, triangle_count=delta, wedge_count=wedges,
                        clustering_coefficient=c, phi=phi, shared_edge_pairs=shared)


def test_rse_tau_exact_closed_forms():
    def exact(p, delta, shared, phi):
        return theory_rse("ews", form_metrics(delta, shared, phi), p=p)[0]

    assert exact(1.0, 4, 6, 24) == 0.0     # every wedge of K4 closes
    assert exact(1.0, 1, 0, 3) == 0.0
    assert exact(0.5, 1, 0, 3) == pytest.approx(0.57735026, abs=1e-6)
    # phi = p(3D + 2K) is zero variance, whose radicand rounds to a tiny
    # negative and is clamped to 0; a clearly negative one is refused.
    assert 0.1 * 0.5 - 0.1 * 0.1 * (3 * 1 + 2 * 1) < 0
    assert exact(0.1, 1, 1, 0.5) == 0.0
    with pytest.raises(RseDomainError, match="negative variance"):
        exact(0.5, 1, 0, 0)


@pytest.mark.parametrize("p", [0.2, 0.5, 0.8, 1.0])
@pytest.mark.parametrize("edges", [
    complete_edges(3),
    complete_edges(4),
    [(0, 1), (0, 2), (1, 2), (2, 3)],           # triangle with a tail
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],   # two triangles sharing an edge
])
def test_rse_tau_exact_matches_exhaustive_enumeration(edges, p):
    met = metrics_of(edges)
    mean, var = ews_moments_exhaustive(edges, p)
    assert mean == pytest.approx(3 * p * met.triangle_count, rel=1e-12)
    formula = theory_rse("ews", met, p=p)[0]
    assert formula == pytest.approx(math.sqrt(var) / mean, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
@pytest.mark.parametrize("edges", [complete_edges(4), BOWTIE, K5_MINUS_EDGE])
def test_es_variance_matches_exhaustive_enumeration(edges, p):
    met = metrics_of(edges)
    delta, shared = Fraction(met.triangle_count), Fraction(met.shared_edge_pairs)
    mean, var = es_moments_exhaustive(edges, p)
    assert mean == 3 * p * p * delta
    assert var == es_variance(p, delta, shared)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the es exact form leaves out 6*delta*(p^3 - p^4) "
                          "of the variance")
@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(1, 3)])
@pytest.mark.parametrize("edges", [complete_edges(4), BOWTIE, K5_MINUS_EDGE])
def test_es_theory_matches_exhaustive_enumeration(edges, p):
    mean, var = es_moments_exhaustive(edges, p)
    exact = theory_rse("es", metrics_of(edges), p=float(p))[0]
    assert exact ** 2 == pytest.approx(float(var / mean ** 2), rel=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("edges", [complete_edges(4), BOWTIE, K5_MINUS_EDGE])
def test_ws_theory_matches_exhaustive_enumeration(edges, k):
    # ws draws with replacement, which the approximate form describes;
    # the exact form is the one for draws without replacement.
    exact, approx = theory_rse("ws", metrics_of(edges), k=k)
    for form, replace in ((approx, True), (exact, False)):
        mean, var = ws_moments_exhaustive(edges, k, replace)
        assert abs(form - math.sqrt(var / mean ** 2)) <= math.ulp(form)


def test_rse_tau_approx_values():
    def approx(p, delta, phi):
        return theory_rse("ews", form_metrics(delta, 0, phi), p=p)[1]

    assert approx(1.0, 1, 3) == pytest.approx(math.sqrt(1 / 3))
    # doubling p halves the squared RSE exactly
    a, b = approx(0.1, 50, 900), approx(0.2, 50, 900)
    assert a * a == pytest.approx(2 * b * b, rel=1e-12)


def test_rse_tau_approx_hits_target_at_published_size():
    rse = theory_rse("ews", WEB_GOOGLE, p=1525 / WEB_GOOGLE.m)[1]
    assert rse == pytest.approx(0.05, rel=0.02)


def test_rse_omega_values():
    # complete graph: C = 1
    assert theory_rse("ws", form_metrics(100, 0, 300), k=30) == (0.0, 0.0)
    rse = theory_rse("ws", WEB_GOOGLE, k=6842)[1]
    assert rse == pytest.approx(0.05, rel=0.02)
    with pytest.raises(RseDomainError, match="must be positive"):
        theory_rse("ws", form_metrics(1, 0, 3, 300, clustering=0.0), k=30)
    with pytest.raises(RseDomainError, match="exceeds 1"):
        theory_rse("ws", form_metrics(1, 0, 3, 300, clustering=1.5), k=30)


def test_rse_omega_exact_needs_valid_domain():
    met = form_metrics(2, 0, 6, 12)
    with pytest.raises(ValueError, match="k must be an integer >= 1"):
        theory_rse("ws", met, k=0)  # fewer than one draw
    # correction factor reaches zero when every wedge is drawn
    assert theory_rse("ws", met, k=12)[0] == 0.0
    with pytest.raises(RseDomainError, match=r"got k = 13 and 12 wedges$"):
        theory_rse("ws", met, k=13)
    with pytest.raises(RseDomainError, match=r"more than one wedge.*got k = 1 and 1 wedges"):
        theory_rse("ws", form_metrics(1, 0, 3, 1.0, clustering=0.5), k=1)


def test_rse_rho_values():
    assert theory_rse("es", form_metrics(7, 100, 21), p=1.0)[0] == 0.0
    # closed form at p=1/2 on a single triangle with no shared edges
    assert theory_rse("es", form_metrics(1, 0, 3), p=0.5)[0] == pytest.approx(
        math.sqrt(3 * (0.25 - 0.0625)) / (3 * 0.25))
    rse = theory_rse("es", WEB_GOOGLE, p=16_556 / WEB_GOOGLE.m)[1]
    assert rse == pytest.approx(0.05, rel=0.02)


@pytest.mark.parametrize("p", [0.01, 0.05, 0.2, 0.7, 1.0])
def test_exact_is_never_above_approx(er300_metrics, p):
    met = er300_metrics
    for method, level in (("ews", {"p": p}), ("es", {"p": p}),
                          ("ws", {"k": math.ceil(p * met.m)})):
        exact, approx = theory_rse(method, met, **level)
        assert exact <= approx + 1e-15


def test_sample_size_web_google_row():
    assert sample_size_for_rse("ews", WEB_GOOGLE, 0.05) == pytest.approx(1525, rel=0.02)
    assert sample_size_for_rse("ws", WEB_GOOGLE, 0.05) == pytest.approx(6842, rel=0.02)
    assert sample_size_for_rse("es", WEB_GOOGLE, 0.05) == pytest.approx(16_556, rel=0.02)


def test_sample_size_floors_at_one(k3):
    met = compute_metrics(k3)
    sizes = {m: sample_size_for_rse(m, met, 1.0) for m in ("ews", "ws", "es")}
    assert all(1 <= s <= 3 for s in sizes.values())


@pytest.mark.parametrize("method, target, delta", [
    ("ews", 0.1, 1e-200), ("es", 0.1, 1e-200),  # delta * delta underflows to 0
    ("ws", 1e-200, 1.0)])                        # target ** 2 underflows to 0
def test_sample_size_past_the_float_range_is_a_domain_error(method, target, delta):
    met = GraphMetrics(n=10, m=10, triangle_count=delta, wedge_count=3.0,
                       clustering_coefficient=delta, phi=30.0, shared_edge_pairs=5.0)
    with pytest.raises(RseDomainError, match="not finite"):
        sample_size_for_rse(method, met, target)
    huge = GraphMetrics(n=10, m=1e300, triangle_count=1.0, wedge_count=3.0,
                        clustering_coefficient=1.0, phi=1e300, shared_edge_pairs=5.0)
    with pytest.raises(RseDomainError, match="not finite"):  # m * phi is inf
        sample_size_for_rse("ews", huge, 0.1)


@pytest.mark.parametrize("method, p", [("es", 1e-300),   # 3p^2 * delta is 0
                                      ("es", 1e-160),   # the approx form is inf
                                      ("ews", 5e-324)])
def test_theory_past_the_float_range_is_a_domain_error(method, p):
    met = metrics_of(complete_edges(4))
    with pytest.raises(RseDomainError,
                       match=rf"^{method} RSE at p = {p} is not finite$"):
        theory_rse(method, met, p=p)


def test_sample_size_validates():
    with pytest.raises(ValueError, match=r"target RSE must be in \(0, 1\]"):
        sample_size_for_rse("ews", WEB_GOOGLE, 0.0)
    with pytest.raises(ValueError, match="unknown method"):
        sample_size_for_rse("unknown", WEB_GOOGLE, 0.05)


@pytest.mark.parametrize("method", ["ews", "ws", "es"])
@pytest.mark.parametrize("target", [0.3, 0.1, 0.05, 0.02])
@pytest.mark.parametrize("which", ["er300", "web-google"])
def test_sample_size_round_trip(er300_metrics, method, target, which):
    """Forward-evaluating the approximation at the returned size meets the
    target, and one entity fewer would miss it."""
    met = er300_metrics if which == "er300" else WEB_GOOGLE
    size = sample_size_for_rse(method, met, target)
    if method != "ws" and size > met.m:
        pytest.skip("target unattainable by edge subsampling (p would exceed 1)")

    def approx_at(entities):
        if method == "ews":
            return rse_tau_approx(entities / met.m, met.triangle_count, met.phi)
        if method == "es":
            return rse_rho_approx(entities / met.m, met.triangle_count,
                                  met.shared_edge_pairs)
        return rse_omega_approx(entities / met.m, met.m,
                                met.clustering_coefficient)

    assert approx_at(size) <= target * (1 + 1e-12)
    if size > 1:
        assert approx_at(size - 1) > target


def test_parallel_trends_on_log_log_axes(er300_metrics):
    met = er300_metrics
    diffs = []
    for p in [1e-4, 1e-3, 1e-2, 1e-1, 0.5]:
        ews = rse_tau_approx(p, met.triangle_count, met.phi)
        ws = rse_omega_approx(p, met.m, met.clustering_coefficient)
        diffs.append(math.log(ews) - math.log(ws))
    assert max(diffs) - min(diffs) < 1e-12


def test_es_slope_is_steeper_than_ews():
    met = WEB_GOOGLE
    p1, p2 = 1e-8, 2e-8

    def slope(f):
        return (math.log(f(p2)) - math.log(f(p1))) / math.log(2)

    es = slope(lambda p: rse_rho_approx(p, met.triangle_count,
                                        met.shared_edge_pairs))
    ews = slope(lambda p: rse_tau_approx(p, met.triangle_count, met.phi))
    assert es == pytest.approx(-1.0, abs=1e-3)
    assert ews == pytest.approx(-0.5, abs=1e-12)
    assert es < ews


def test_empirical_rse_deterministic_cases(k3, k4):
    met3 = compute_metrics(k3)
    row = empirical_rse(k3, "ews", met3, p=1.0, seed=1, runs=50)
    assert row.empirical_rse == 0.0
    assert row.mean_estimate == 1.0
    met4 = compute_metrics(k4)
    row = empirical_rse(k4, "es", met4, p=1.0, seed=2, runs=50)
    assert row.empirical_rse == 0.0
    assert row.mean_estimate == 4.0


def test_empirical_rse_validates(k3, path3):
    met = compute_metrics(k3)
    with pytest.raises(ValueError):
        empirical_rse(k3, "ews", met, p=1.0, seed=0, runs=1)
    with pytest.raises(RseDomainError):
        empirical_rse(path3, "ews", compute_metrics(path3), p=1.0, seed=0, runs=10)


def test_runs_must_be_an_integer(k3):
    # a fractional runs count would otherwise fail in range()
    met = compute_metrics(k3)
    for bad in (2.5, 3.0, math.inf, math.nan, 0, "5"):
        with pytest.raises(ValueError, match="runs must be an integer"):
            empirical_rse(k3, "ews", met, p=0.5, seed=0, runs=bad)
    with pytest.raises(ValueError, match="runs must be an integer"):
        rse_sweep(k3, ["ews"], [0.5], runs=3.5, seed=0)
    assert empirical_rse(k3, "ews", met, p=0.5, seed=0, runs=np.int64(3)).runs == 3


def test_empirical_rse_tracks_theory():
    edges = er_edges(300, 0.05, 11)
    g = graph_from_edges(edges)
    met = compute_metrics(g)
    row = empirical_rse(g, "ews", met, p=0.1, seed=5150, runs=1000)
    assert abs(row.empirical_rse / row.approx_rse - 1) < 0.15


@pytest.mark.parametrize("method", ["ews", "es", "ws"])
def test_empirical_rse_converges_in_runs(method):
    g = graph_from_edges(er_edges(120, 0.08, 31))
    met = compute_metrics(g)
    kwargs = {"k": math.ceil(0.15 * g.m)} if method == "ws" else {"p": 0.15}
    small = empirical_rse(g, method, met, **kwargs, seed=61, runs=1000)
    big = empirical_rse(g, method, met, **kwargs, seed=62, runs=4000)
    assert abs(big.empirical_rse / small.empirical_rse - 1) < 0.10


def test_rse_sweep_shape_and_reproducibility(er300, er300_metrics):
    ps = [0.05, 0.1]
    rows = rse_sweep(er300, ["ews", "ws"], ps, runs=50, seed=999)
    assert len(rows) == 4
    assert [r.method for r in rows] == ["ews", "ews", "ws", "ws"]
    for row in rows:
        if row.method == "ws":
            assert row.k == math.ceil(row.p * er300.m)
        else:
            assert row.k is None
    # single-configuration sweep equals one empirical_rse call
    single = rse_sweep(er300, ["ews"], [0.1], runs=50, seed=123)[0]
    direct = empirical_rse(er300, "ews", er300_metrics, p=0.1,
                           seed=mix_seed(123, 0), runs=50)
    assert single == direct


def test_rse_sweep_requires_probabilities(er300):
    with pytest.raises(ValueError):
        rse_sweep(er300, ["ews"], [], runs=10, seed=0)
    with pytest.raises(ValueError):
        rse_sweep(er300, [], [0.5], runs=10, seed=0)
    # ceil(1.5 m) wedges fit in er300, but p = 1.5 is no probability
    with pytest.raises(ValueError, match="p must be"):
        rse_sweep(er300, ["ws"], [1.5], runs=10, seed=0)


def test_rse_sweep_checks_every_row_before_the_first(monkeypatch):
    k5 = graph_from_edges(complete_edges(5))
    # ceil(inf * m) would raise OverflowError before p is checked
    with pytest.raises(ValueError, match="p must be"):
        rse_sweep(k5, ["ws"], [math.inf], runs=5, seed=0)
    rows = []
    monkeypatch.setattr(analysis, "empirical_rse",
                        lambda *args, **kwargs: rows.append((args, kwargs)))
    for methods, ps in [(["ews", "ws"], [0.5, math.inf]), (["ews"], [0.5, 0.0]),
                        (["ws", "es"], [0.5, math.nan]), (["ews", "bogus"], [0.5])]:
        with pytest.raises(ValueError):
            rse_sweep(k5, methods, ps, runs=5, seed=0)
    assert rows == []  # a bad late row costs no computed row


def test_every_sweep_row_goes_through_empirical_rse(monkeypatch, er300):
    # The benchmark's tracer and its self-test patch the module global.
    want = rse_sweep(er300, ["ews", "ws"], [0.1, 0.2], runs=3, seed=1)
    calls = []
    empirical = analysis.empirical_rse

    def counting(*args, **kwargs):
        calls.append(1)
        return empirical(*args, **kwargs)

    monkeypatch.setattr(analysis, "empirical_rse", counting)
    assert rse_sweep(er300, ["ews", "ws"], [0.1, 0.2], runs=3, seed=1) == want
    assert len(calls) == 4


def test_rse_sweep_checks_row_theory_before_any_trial(monkeypatch):
    # m = 13 and 3 wedges: ws at p = 0.5 asks k = 7 wedges, past the
    # exact form's domain; it is the last of four rows.
    g = graph_from_edges([(0, 1), (1, 2), (0, 2)]
                         + [(10 + 2 * i, 11 + 2 * i) for i in range(10)])
    calls = []
    run_trials = analysis.run_trials
    monkeypatch.setattr(analysis, "run_trials",
                        lambda *args: calls.append(1) or run_trials(*args))
    with pytest.raises(RseDomainError, match=r"need more than one wedge and k <= wedge count, "
                       r"got k = 7 and 3 wedges$"):
        rse_sweep(g, ["ews", "ws"], [0.1, 0.5], runs=1000, seed=42)
    # triangle-free: the empirical-RSE message, before any trial
    with pytest.raises(RseDomainError, match="triangle-free"):
        rse_sweep(graph_from_edges(complete_edges(2) + [(1, 2)]), ["ews"], [0.5],
                  runs=10, seed=0)
    assert calls == []
    rse_sweep(g, ["ews", "ws"], [0.1], runs=10, seed=42)
    assert len(calls) == 2


@pytest.mark.parametrize("runs", [0, 1])
def test_rse_sweep_checks_runs_before_the_metrics(monkeypatch, k3, runs):
    # The metrics cost an O(m^1.5) oracle pass; fewer than two runs per
    # row are refused before it, with one message.
    calls = []
    monkeypatch.setattr(analysis, "compute_metrics",
                        lambda g: calls.append(g) or compute_metrics(g))
    with pytest.raises(ValueError, match=f"runs must be an integer >= 2, got {runs}$"):
        rse_sweep(k3, ["ews"], [0.5], runs=runs, seed=0)
    assert calls == []
    rse_sweep(k3, ["ews"], [0.5], runs=2, seed=0)
    assert len(calls) == 1


def test_rows_derive_trial_sources_a_block_at_a_time(monkeypatch, er300,
                                                     er300_metrics):
    blocks, calls = [], []
    derive, run_trials = analysis.RandomSource.derive, analysis.run_trials

    def recorded_run_trials(g, method, level, rngs):
        calls.append([r.seed for r in rngs])
        return run_trials(g, method, level, rngs)

    monkeypatch.setattr(analysis.RandomSource, "derive",
                        lambda self, idx: blocks.append(idx.size) or derive(self, idx))
    monkeypatch.setattr(analysis, "run_trials", recorded_run_trials)
    runs = 2 * analysis._SEED_BLOCK + 3
    row = empirical_rse(er300, "ews", er300_metrics, p=0.05, seed=9, runs=runs)
    assert blocks == [analysis._SEED_BLOCK, analysis._SEED_BLOCK, 3]
    assert [len(seeds) for seeds in calls] == blocks
    assert sum(calls, []) == [mix_seed(9, j) for j in range(runs)]
    # The row of one run_trials over derive(np.arange(runs)).
    monkeypatch.setattr(analysis, "_SEED_BLOCK", runs)
    calls.clear()
    assert empirical_rse(er300, "ews", er300_metrics, p=0.05, seed=9, runs=runs) == row
    assert [len(seeds) for seeds in calls] == [runs]


def test_row_memory_is_bounded_by_a_block_not_by_runs():
    # At p = 0.001 a trial samples almost no edges, so the trial engine's
    # entity budget never closes a batch: the row's blocks alone bound
    # the sources (~0.9 KB each) it holds. 10,000 runs traced ~11 MB
    # when a batch took sources until its entities filled it.
    g = graph_from_edges(complete_edges(5) + [(4, 5)])
    metrics = compute_metrics(g)
    tracemalloc.start()
    try:
        empirical_rse(g, "ews", metrics, p=0.001, seed=3, runs=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_theory_rse_dispatch(er300, er300_metrics):
    ex, ap = theory_rse("ws", er300_metrics, k=200)
    assert 0 < ex <= ap
    with pytest.raises(ValueError):
        theory_rse("bogus", er300_metrics, p=0.1)
    with pytest.raises(ValueError, match="ews requires p"):
        theory_rse("ews", er300_metrics)
    # theory_rse and empirical_rse share one level rule.
    for method, p, k, message in (("ews", 0.1, 5, "does not take k"),
                                  ("es", 0.1, 5, "does not take k"),
                                  ("ws", 7.0, 200, "p must be")):
        with pytest.raises(ValueError, match=message):
            theory_rse(method, er300_metrics, p=p, k=k)
        with pytest.raises(ValueError, match=message):
            empirical_rse(er300, method, er300_metrics, p=p, k=k, seed=0, runs=2)
    assert theory_rse("ws", er300_metrics, p=0.1, k=200) == (ex, ap)
    row = empirical_rse(er300, "ws", er300_metrics, p=0.1, k=200, seed=0, runs=2)
    assert (row.p, row.k, row.exact_rse, row.approx_rse) == (0.1, 200, ex, ap)


def test_ws_theory_reads_k_itself():
    # (k/m)*m is 7.000000000000001 at m = 25 and 0.9999999999999999 at
    # m = 49; the forms must see k = 7 and k = 1.
    met = GraphMetrics(n=25, m=25, triangle_count=1.0, wedge_count=7.0,
                       clustering_coefficient=3 / 7, phi=3.0,
                       shared_edge_pairs=0.0)
    assert theory_rse("ws", met, k=7)[0] == 0.0  # k is every wedge
    # K5 plus a 39-edge path.
    met = dataclasses.replace(met, m=49, triangle_count=10.0, wedge_count=68.0,
                              clustering_coefficient=30 / 68)
    assert theory_rse("ws", met, k=1) == (rse_omega_exact(1.0, 1, 30 / 68, 68.0),
                                          rse_omega_approx(1.0, 1, 30 / 68))


def test_theory_rse_is_the_named_closed_forms(er300_metrics):
    met = er300_metrics
    d, k_, phi = met.triangle_count, met.shared_edge_pairs, met.phi
    c, p_ws = met.clustering_coefficient, 200 / met.m
    for p in (0.05, 0.3, 1.0):
        assert theory_rse("ews", met, p=p) == (rse_tau_exact(p, d, k_, phi),
                                               rse_tau_approx(p, d, phi))
        assert theory_rse("es", met, p=p) == (rse_rho_exact(p, d, k_),
                                              rse_rho_approx(p, d, k_))
    assert theory_rse("ws", met, k=200) == (
        rse_omega_exact(p_ws, met.m, c, met.wedge_count),
        rse_omega_approx(p_ws, met.m, c))
