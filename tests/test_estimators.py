import json
import math

import numpy as np
import pytest

from tricount import (NoWedgesError, RandomSource, build_wedge_sampler,
                      compute_metrics, count_triangles_exact, empirical_rse,
                      es_estimate, ews_estimate, ws_estimate)
from tricount import estimators, graph
from tricount.estimators import run_trials
from helpers import (FIVE_TRIANGLE_EDGES, circulant_edges, complete_edges,
                     er_edges, forced_es_census, forced_ews_tau, forced_ws_omega,
                     graph_from_edges, hubs_and_path_edges, internal_id,
                     path_edges, star_edges)
from oracles import (adjacency, clean_edges, closed_wedge_census, ews_increment,
                     hinge, wedge_closed)


def test_plan_validation(k4):
    met = compute_metrics(k4)

    def row(method, runs=3, **level):
        return empirical_rse(k4, method, met, **level, seed=1, runs=runs)

    assert row("ews", p=0.5).runs == 3
    assert row("ws", k=10).k == 10
    with pytest.raises(ValueError):
        row("ews", p=0.0)
    with pytest.raises(ValueError):
        row("es", p=0.5, k=3)
    with pytest.raises(ValueError):
        row("ws", k=0)
    with pytest.raises(ValueError):
        row("ws", k=2.5)
    with pytest.raises(ValueError, match="p must be"):
        row("ws", p=7.0, k=3)  # the nominal p is checked too
    with pytest.raises(ValueError):
        row("ews", p=0.5, runs=0)
    with pytest.raises(ValueError):
        row("nope", p=0.5)


@pytest.mark.parametrize("seed", [0, 1, 99])
def test_bernoulli_p1_returns_every_edge(k3, seed):
    kept = estimators._edge_draw(k3, 1.0, RandomSource(seed))
    assert kept.tolist() == [0, 1, 2]  # every position in k3.edge_arrays


def test_bernoulli_mean_size_matches_binomial():
    g = graph_from_edges(circulant_edges(2000, 5))
    assert g.m == 10_000
    p, trials = 0.01, 200
    sizes = [es_estimate(g, p, RandomSource(s)).entities_sampled
             for s in range(trials)]
    se = math.sqrt(g.m * p * (1 - p) / trials)
    assert abs(np.mean(sizes) - g.m * p) <= 3 * se


@pytest.mark.parametrize("seed", [0, 7, 123, 9999])
def test_ews_k4_p1_is_exact(k4, seed):
    res = ews_estimate(k4, 1.0, RandomSource(seed))
    assert res.raw_statistic == 12
    assert res.estimate == 4.0


@pytest.mark.parametrize("seed", [0, 5, 42])
def test_ews_k3_p1_is_exact(k3, seed):
    res = ews_estimate(k3, 1.0, RandomSource(seed))
    assert res.raw_statistic == 3
    assert res.estimate == 1.0


@pytest.mark.parametrize("p", [0.3, 0.7, 1.0])
@pytest.mark.parametrize("seed", [1, 2])
def test_ews_star_is_zero(star4, p, seed):
    # the lower-degree endpoint of every star edge is a pendant leaf
    assert ews_estimate(star4, p, RandomSource(seed)).estimate == 0.0


def test_ews_estimate_support(er300):
    p = 0.15
    for seed in range(5):
        res = ews_estimate(er300, p, RandomSource(seed))
        lattice = res.estimate * 3 * p
        assert abs(lattice - round(lattice)) < 1e-9
        assert res.raw_statistic == round(lattice)


def test_ews_wedge_increment_on_known_graph(five_tri):
    g = five_tri
    i = lambda orig: internal_id(g, orig)
    # an open wedge at the degree-3 endpoint of (2, 5), then closed
    # wedges from the worked example
    for (u, v), w, want in [((2, 5), 4, 0), ((1, 4), 3, 2), ((7, 8), 1, 1)]:
        assert forced_ews_tau(g, [((i(u), i(v)), i(w))]) == want
        assert ews_increment(FIVE_TRIANGLE_EDGES, u, v, w) == want
    # 9 is not a neighbor of hinge 4; 1 is the excluded opposite endpoint
    for w in (9, 1):
        with pytest.raises(ValueError):
            forced_ews_tau(g, [((i(1), i(4)), i(w))])
        with pytest.raises(ValueError):
            ews_increment(FIVE_TRIANGLE_EDGES, 1, 4, w)


@pytest.mark.parametrize("edges", [complete_edges(4), circulant_edges(12, 2),
                                   FIVE_TRIANGLE_EDGES, hubs_and_path_edges()],
                         ids=["k4", "circulant", "five_tri", "hubs_and_path"])
def test_hinge_split_follows_the_hinge_rule(edges):
    # The lower-degree endpoint, ties to the smaller internal id, from the
    # degrees of the edge list; each edge is given as a canonical pair.
    g = graph_from_edges(edges)
    internal = {int(orig): i for i, orig in enumerate(g.original_ids)}
    pairs = [tuple(sorted((internal[u], internal[v]))) for u, v in clean_edges(edges)]
    adj = adjacency(pairs)
    want = []
    for u, v in pairs:
        h, o = hinge(adj, u, v)
        want.append((h, o, len(adj[h])))
    eu = np.array([u for u, _ in pairs])
    ev = np.array([v for _, v in pairs])
    got = graph._orient(g, eu, ev)
    assert list(zip(*(a.tolist() for a in got))) == want


@pytest.mark.parametrize("which", ["five_tri", "k5", "hubs_and_path"])
def test_phase_two_skip_is_exact(request, which):
    # Every sampled edge and every phase-two draw j in [0, d(hinge) - 1):
    # the wedge end is entry j of the hinge's list without the other end.
    g = (graph_from_edges(complete_edges(5)) if which == "k5"
         else request.getfixturevalue(which))
    eu, ev = g.edge_arrays
    hinge, other, dh = graph._orient(g, eu, ev)
    want = []
    for a, b in zip(hinge.tolist(), other.tolist()):
        want += [w for w in g.neighbors[g.offsets[a]:g.offsets[a + 1]].tolist()
                 if w != b]
    draws = dh - 1
    j = np.arange(draws.sum()) - np.repeat(np.cumsum(draws) - draws, draws)
    got = estimators._wedge_end(g, np.repeat(hinge, draws),
                                np.repeat(other, draws), j)
    assert got.tolist() == want
    # ws's index form: for every first end nbrs[i] of every hinge, draw j
    # is the neighbor at j, or at j + 1 once j reaches i.
    for h in range(g.n):
        nbrs = g.neighbors[g.offsets[h]:g.offsets[h + 1]]
        j = np.arange(nbrs.size - 1)
        for i in range(nbrs.size):
            got = estimators._wedge_end(g, np.full(j.size, h),
                                        np.full(j.size, nbrs[i]), j.copy())
            assert np.array_equal(got, nbrs[j + (j >= i)])


def test_forced_outcome_ews_example(five_tri):
    """Three sampled edges, wedge draws as in the worked illustration."""
    g = five_tri
    i = lambda orig: internal_id(g, orig)
    draws = [((2, 5), 4), ((1, 4), 3), ((7, 8), 1)]
    tau = forced_ews_tau(g, [((i(u), i(v)), i(w)) for (u, v), w in draws])
    assert tau == 3
    assert sum(ews_increment(FIVE_TRIANGLE_EDGES, u, v, w) for (u, v), w in draws) == tau
    p = 3 / 16
    assert tau / (3 * p) == 16 / 3


def test_forced_outcome_ws_example(five_tri):
    g = five_tri
    i = lambda orig: internal_id(g, orig)
    sampler = build_wedge_sampler(g)
    assert sampler.total == 56
    wedges = [(4, 1, 5), (2, 1, 7), (1, 11, 3)]  # (hinge, end, end)
    omega = forced_ws_omega(g, [(i(h), i(a), i(b)) for h, a, b in wedges])
    assert omega == 1
    assert sum(wedge_closed(FIVE_TRIANGLE_EDGES, h, a, b) for h, a, b in wedges) == omega
    k = 3
    assert omega * sampler.total / (3 * k) == 56 / 9


def test_forced_outcome_es_example(five_tri):
    g = five_tri
    i = lambda orig: internal_id(g, orig)
    sample = [(2, 5), (2, 6), (1, 2), (1, 4), (3, 4), (7, 8)]
    closed, total = forced_es_census(g, [(i(u), i(v)) for u, v in sample])
    assert closed == 3
    assert total == 5  # three wedges hinge at 2, one at 1, one at 4
    assert closed_wedge_census(FIVE_TRIANGLE_EDGES, sample) == (closed, total)
    p = 3 / 8
    assert closed / (3 * p * p) == 64 / 9


@pytest.mark.parametrize("edges", [complete_edges(4), FIVE_TRIANGLE_EDGES,
                                   er_edges(60, 0.12, 2), path_edges(5)])
def test_es_p1_recovers_exact_count(edges):
    g = graph_from_edges(edges)
    delta, _ = count_triangles_exact(g)
    for seed in (0, 3):
        assert es_estimate(g, 1.0, RandomSource(seed)).estimate == delta


def test_count_closed_wedges_manual(k4):
    # K4's internal ids are its edge list's ids.
    cases = [([(0, 1), (0, 2)], (1, 1)),  # the closing edge exists in K4
             ([(0, 1), (2, 3)], (0, 0)),  # disjoint edges form no wedge
             ([], (0, 0))]
    for sample, want in cases:
        assert forced_es_census(k4, sample) == want
        assert closed_wedge_census(complete_edges(4), sample) == want


def test_wedge_sampler_tables(k3, star4, path3):
    assert list(build_wedge_sampler(k3).cumulative) == [1, 2, 3]
    star = build_wedge_sampler(star4)
    assert list(star.cumulative) == [6, 6, 6, 6, 6] and star.total == 6
    path = build_wedge_sampler(path3)
    assert list(path.cumulative) == [0, 1, 1] and path.total == 1


def test_wedge_sampler_requires_wedges():
    matching = graph_from_edges([(0, 1), (2, 3)])
    with pytest.raises(NoWedgesError):
        build_wedge_sampler(matching)
    with pytest.raises(NoWedgesError):
        ws_estimate(matching, 5, RandomSource(0))


def test_wedge_prefix_is_built_once_per_graph(monkeypatch):
    g = graph_from_edges(er_edges(40, 0.2, 5))
    assert "wedge_prefix" not in vars(g)
    seen = []
    hinges = estimators._hinges
    monkeypatch.setattr(estimators, "_hinges",
                        lambda g, t: seen.append(vars(g)["wedge_prefix"]) or hinges(g, t))
    ws_estimate(g, 50, RandomSource(1))
    prefix = vars(g)["wedge_prefix"]
    d = g.degrees.astype(np.int64)
    assert prefix.dtype == np.int64
    assert prefix.tolist() == np.cumsum(d * (d - 1) // 2).tolist()
    assert not prefix.flags.writeable
    with pytest.raises(ValueError):
        prefix[0] = 7
    ws_estimate(g, 50, RandomSource(2))
    assert len(seen) == 2 and all(c is prefix for c in seen)
    assert build_wedge_sampler(g).cumulative is prefix
    matching = graph_from_edges([(0, 1), (2, 3)])
    for _ in range(2):  # the second call reads the cached prefix
        with pytest.raises(NoWedgesError):
            ws_estimate(matching, 5, RandomSource(0))
    assert vars(matching)["wedge_prefix"].tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize("k", [1, 5, 10])
@pytest.mark.parametrize("seed", [0, 17])
def test_ws_k3_always_exact(k3, k, seed):
    res = ws_estimate(k3, k, RandomSource(seed))
    assert res.raw_statistic == k
    assert res.estimate == 1.0


def test_ws_open_path_estimates_zero(path3):
    assert ws_estimate(path3, 20, RandomSource(4)).estimate == 0.0


def test_ws_estimate_support(er300):
    sampler = build_wedge_sampler(er300)
    k = 50
    res = ws_estimate(er300, k, RandomSource(8))
    assert res.estimate == res.raw_statistic * sampler.total / (3 * k)


def test_wedge_is_closed_validates(k4, path3):
    # Both graphs' internal ids are their edge lists' ids.
    k4_list, path_list = complete_edges(4), path_edges(2)
    assert forced_ws_omega(k4, [(0, 1, 2)]) == 1
    assert wedge_closed(k4_list, 0, 1, 2)
    assert forced_ws_omega(path3, [(1, 0, 2)]) == 0
    assert not wedge_closed(path_list, 1, 0, 2)
    # a repeated end; an end (2) not adjacent to the hinge (0)
    for g, edges, wedge in [(k4, k4_list, (0, 1, 1)), (path3, path_list, (0, 1, 2))]:
        with pytest.raises(ValueError):
            forced_ws_omega(g, [wedge])
        with pytest.raises(ValueError):
            wedge_closed(edges, *wedge)


@pytest.mark.parametrize("method", ["ews", "es", "ws"])
def test_estimators_deterministic_for_fixed_seed(er300, method):
    def run(seed):
        rng = RandomSource(seed)
        if method == "ews":
            return ews_estimate(er300, 0.1, rng)
        if method == "es":
            return es_estimate(er300, 0.1, rng)
        return ws_estimate(er300, 200, rng)

    a, b = run(1234), run(1234)
    assert a.raw_statistic == b.raw_statistic
    assert a.estimate == b.estimate
    assert a.entities_sampled == b.entities_sampled


def test_estimate_result_serialization(k4):
    res = ews_estimate(k4, 0.5, RandomSource(3))
    d = res.to_dict()
    assert list(d) == ["method", "p_or_k", "seed", "raw", "sampled",
                       "estimate", "seconds"]
    assert d["method"] == "ews" and d["seed"] == 3


def test_ews_unbiased_smoke():
    g = graph_from_edges(er_edges(100, 0.1, 23))
    delta, _ = count_triangles_exact(g)
    runs, p = 4000, 0.2
    base = RandomSource(77)
    ests = np.array([ews_estimate(g, p, base.derive(i)).estimate
                     for i in range(runs)])
    se = ests.std(ddof=1) / math.sqrt(runs)
    assert abs(ests.mean() - delta) <= 4 * se


def test_ews_raw_variance_matches_closed_form(er300_metrics, er300_runs20k):
    """Sample variance of the ews raw statistic over 20k runs stays within
    10% of p*phi - p^2*(3*delta + 2*K)."""
    met = er300_metrics
    data = er300_runs20k["ews"]
    p = data["level"]
    theory = (p * met.phi
              - p * p * (3 * met.triangle_count + 2 * met.shared_edge_pairs))
    observed = data["raws"].var(ddof=1)
    assert abs(observed / theory - 1) < 0.10


def test_invalid_probability_rejected(k3):
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            ews_estimate(k3, bad, RandomSource(0))
        with pytest.raises(ValueError):
            es_estimate(k3, bad, RandomSource(0))
    with pytest.raises(ValueError):
        ws_estimate(k3, 0, RandomSource(0))


def test_non_integer_k_rejected(k3):
    # ws draws int(k) wedges, so a fractional k would bias the scale
    for bad in (2.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="integer"):
            ws_estimate(k3, bad, RandomSource(1))
    for good in (np.int64(3), np.uint32(3), 3.0):
        assert ws_estimate(k3, good, RandomSource(1)).estimate == 1.0


# --------------------------------------------------------------------------
# The trial engine: batching never changes a trial's result.

def _batch_cases():
    er = graph_from_edges(er_edges(60, 0.15, 2))
    five = graph_from_edges(FIVE_TRIANGLE_EDGES)
    star = graph_from_edges(star_edges(6))
    path = graph_from_edges(path_edges(5))
    matching = graph_from_edges([(0, 1), (2, 3), (4, 5)])
    return {
        "er60-ews": (er, "ews", 0.3),
        "er60-es": (er, "es", 0.3),
        "er60-ws": (er, "ws", 40),
        # most trials sample no edge at all
        "sparse-ews": (five, "ews", 0.05),
        "sparse-es": (five, "es", 0.05),
        # every hinge is a pendant leaf / wedges but no triangle
        "star-ews": (star, "ews", 0.5),
        "star-es": (star, "es", 0.5),
        "star-ws": (star, "ws", 5),
        # triangle-free and wedge-free es
        "path-es": (path, "es", 0.7),
        "matching-es": (matching, "es", 0.9),
        "path-ws": (path, "ws", 9),
    }


def _trials(g, method, level, runs=40, seed=5):
    return run_trials(g, method, level, RandomSource(seed).derive(np.arange(runs)))


def _assert_same_trials(got, want, what):
    # The record, the sampled counts and the estimates, array by array.
    for a, b, dtype in zip(got, want, (np.int64, np.int64, np.float64)):
        assert a.dtype == b.dtype == dtype and np.array_equal(a, b), what


@pytest.mark.parametrize("budget", [1, 7])
def test_batch_budget_does_not_change_trials(monkeypatch, budget):
    cases = _batch_cases()
    want = {name: _trials(*case) for name, case in cases.items()}
    monkeypatch.setattr(estimators, "_CHUNK", budget)
    for name, case in cases.items():
        _assert_same_trials(_trials(*case), want[name], name)


def test_batched_trials_equal_lone_estimates():
    lone = {"ews": ews_estimate, "es": es_estimate, "ws": ws_estimate}
    for name, (g, method, level) in _batch_cases().items():
        sums, sampled, est = _trials(g, method, level)
        assert sums.shape == (1, sampled.size) == (1, est.size), name
        base = RandomSource(5)
        for i in range(sampled.size):
            res = lone[method](g, level, base.derive(i))
            assert (res.raw_statistic, res.entities_sampled, res.estimate) \
                == (sums[0, i], sampled[i], est[i]), (name, i)
            # Python scalars, not numpy's: json.dumps refuses np.int64,
            # and `estimate --format json` would crash on one.
            assert (type(res.raw_statistic), type(res.entities_sampled),
                    type(res.estimate)) == (int, int, float), (name, i)
            json.dumps(res.to_dict())


@pytest.mark.parametrize("budget", [1, 7])
def test_batch_budget_does_not_change_sweep_rows(monkeypatch, budget):
    g = graph_from_edges(er_edges(60, 0.15, 2))
    metrics = compute_metrics(g)
    configs = [("ews", {"p": 0.3}, 1), ("es", {"p": 0.3}, 2), ("ws", {"k": 40}, 3)]

    def rows():
        return [empirical_rse(g, method, metrics, **level, seed=seed, runs=30)
                for method, level, seed in configs]

    want = rows()
    monkeypatch.setattr(estimators, "_CHUNK", budget)
    assert rows() == want


def test_zero_edge_trials_sample_nothing(five_tri):
    sums, sampled, est = _trials(five_tri, "ews", 0.05, runs=60)
    empty = sampled == 0
    assert empty.any() and not empty.all()
    assert not sums[:, empty].any() and not est[empty].any()


@pytest.mark.parametrize("p", [1e-300, 5e-324])
def test_es_with_no_closed_wedge_estimates_zero_at_any_p(k4, p):
    # 3p^2 underflows to 0 here; a raw count of 0 still scales to 0.
    assert 3.0 * p * p == 0.0
    result = es_estimate(k4, p, RandomSource(3))
    assert (result.raw_statistic, result.estimate) == (0, 0.0)


# --------------------------------------------------------------------------
# The trial engine's orders and draw calls.

@pytest.mark.parametrize("word_bits", [64, 20, 12])
def test_sorted_hinge_search_is_the_plain_search(monkeypatch, word_bits):
    # Zero-wedge vertices repeat cumulative values: five_tri's leaves sit
    # between hubs and path3 starts on a leaf. A narrower sort word makes
    # positions and their indices too wide to pack (five_tri at 12 bits),
    # so the order is the stable argsort; the search must not notice.
    graphs = [graph_from_edges(edges)
              for edges in (FIVE_TRIANGLE_EDGES, path_edges(2), er_edges(60, 0.15, 2))]
    monkeypatch.setattr(graph, "_WORD_BITS", word_bits)
    for g in graphs:
        c = g.wedge_prefix
        t = np.concatenate([c - 1, c, np.arange(c[-1])])
        t = t[(t >= 0) & (t < c[-1])]
        t = np.random.default_rng(0).permutation(np.repeat(t, 3))
        assert np.array_equal(estimators._hinges(g, t),
                              np.searchsorted(c, t, side="right"))


def test_es_groups_ends_by_the_whole_key(monkeypatch):
    # With a 20-bit sort word, this batch's (trial, vertex) keys and end
    # positions are too wide to pack whole, as they are at n near 2**32
    # on a 64-bit word. The grouping must then take the stable argsort,
    # which keeps the runs of different vertices apart.
    g = graph_from_edges(er_edges(60, 0.15, 2))
    runs = 40
    want = _trials(g, "es", 0.3, runs=runs)
    ends = 2 * int(want[1].sum())
    assert (runs * g.n - 1).bit_length() + (ends - 1).bit_length() > 20
    monkeypatch.setattr(graph, "_WORD_BITS", 20)
    _assert_same_trials(_trials(g, "es", 0.3, runs=runs), want, "es")


@pytest.mark.parametrize("chunk", [None, 1, 7])
def test_es_census_of_a_batch_is_each_trials_census(monkeypatch, chunk):
    # 30 trials' samples censused as one batch, its wedge pairs probed
    # ``_CHUNK`` at a time: blocks of 1 and 7 pairs cut runs and trials
    # apart. A pair dropped or counted twice at a block edge moves a
    # trial's closed count or the batch's wedge total off the brute-force
    # census, taken trial by trial.
    edges = er_edges(60, 0.15, 2)
    g = graph_from_edges(edges)
    eu, ev = g.edge_arrays
    ids = g.original_ids
    draws = [estimators._edge_draw(g, 0.3, rng)
             for rng in RandomSource(4).derive(np.arange(30))]
    want = [closed_wedge_census(edges, [(int(ids[eu[i]]), int(ids[ev[i]])) for i in d])
            for d in draws]
    if chunk is not None:
        monkeypatch.setattr(estimators, "_CHUNK", chunk)
    idx = np.concatenate(draws)
    trial = np.repeat(np.arange(len(draws)), [d.size for d in draws])
    closed, total = estimators._closed_wedges(g, eu[idx], ev[idx], trial, len(draws))
    assert closed.tolist() == [c for c, _ in want]
    assert total == sum(t for _, t in want)
    assert all(c for c, _ in want) and total > 7 * len(draws)


def test_phase_two_draws_once_per_trial(monkeypatch):
    # ws draws a trial's i and j in one call, ews its wedge ends in one:
    # a return to a call per draw array fails here.
    calls = []
    real = RandomSource.uniform_indices

    def counted(self, n, size=None):
        calls.append("two" if np.ndim(n) else "one")
        return real(self, n, size)

    monkeypatch.setattr(RandomSource, "uniform_indices", counted)
    g = graph_from_edges(complete_edges(8))  # no pendant hinges
    runs = 30
    _trials(g, "ws", 40, runs=runs)
    assert calls.count("one") == runs and calls.count("two") == runs
    calls.clear()
    _, sampled, _ = _trials(g, "ews", 0.3, runs=runs)
    assert all(sampled) and calls == ["two"] * runs
