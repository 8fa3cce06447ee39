import io

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricount import (EmptyGraphError, GraphFormatError, has_edge_many,
                      load_edge_list)
from tricount.graph import _lower_bound, edge_key, neighbor_rank
from helpers import (complete_edges, er_edges, graph_from_edges,
                     graph_from_text, path_edges, powerlaw_edges, star_edges)
from oracles import clean_edges


def test_load_triangle():
    g = graph_from_text("0 1\n1 2\n2 0\n")
    assert (g.n, g.m) == (3, 3)


def test_load_collapses_duplicates_and_self_loops():
    g = graph_from_text("0 1\n1 0\n0 0\n")
    assert (g.n, g.m) == (2, 1)


def test_load_remaps_by_first_appearance():
    g = graph_from_text("5 9\n9 7\n")
    assert (g.n, g.m) == (3, 2)
    assert list(g.original_ids) == [5, 9, 7]


def test_load_comments_blank_lines_and_tabs():
    g = graph_from_text("# header\n\n0\t1\n# mid\n1\t2\n\n")
    assert (g.n, g.m) == (3, 2)


def test_load_wrong_arity_reports_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        graph_from_text("0 1\n0 1 2\n")


def test_load_non_integer_reports_line():
    with pytest.raises(GraphFormatError, match="line 3"):
        graph_from_text("0 1\n1 2\n2 x\n")


def test_load_negative_id_rejected():
    with pytest.raises(GraphFormatError, match="line 1"):
        graph_from_text("-1 2\n")


def test_load_full_64_bit_ids():
    top = 2**64 - 1
    g = graph_from_text(f"{top} 3\n3 {top - 1}\n")
    assert (g.n, g.m) == (3, 2)
    assert [int(x) for x in g.original_ids] == [top, 3, top - 1]
    with pytest.raises(GraphFormatError, match="line 1"):
        graph_from_text(f"{2**64} 3\n")


def test_load_inline_comment_rejected():
    with pytest.raises(GraphFormatError, match="line 1"):
        graph_from_text("0 1 # note\n")


def test_load_empty_input_rejected():
    with pytest.raises(EmptyGraphError):
        graph_from_text("# only a comment\n")


def test_load_only_self_loops_rejected():
    with pytest.raises(EmptyGraphError):
        graph_from_text("3 3\n7 7\n")


def test_has_edge_trivial_cases():
    tri = graph_from_edges(complete_edges(3))
    assert tri.has_edge(0, 2)
    assert not tri.has_edge(0, 0)
    path = graph_from_edges(path_edges(2))
    assert not path.has_edge(0, 2)


def test_degree_examples():
    k4 = graph_from_edges(complete_edges(4))
    assert all(k4.degree(v) == 3 for v in range(4))
    star = graph_from_edges(star_edges(4))
    assert star.degree(0) == 4


@pytest.mark.parametrize("seed", range(10))
def test_membership_matches_dense_oracle(seed):
    n = 5 + seed * 5
    edges = er_edges(n, 0.15, seed=100 + seed)
    if not edges:
        pytest.skip("empty draw")
    g = graph_from_edges(edges)
    cleaned = clean_edges(edges)
    dense = np.zeros((n, n), dtype=bool)
    for u, v in cleaned:
        dense[u, v] = dense[v, u] = True
    # ids: all of 0..n-1 appearing in edges, remapped by first appearance
    back = {i: int(orig) for i, orig in enumerate(g.original_ids)}
    for u in range(g.n):
        for v in range(g.n):
            assert g.has_edge(u, v) == dense[back[u], back[v]]
            assert g.has_edge(u, v) == g.has_edge(v, u)


def test_every_input_edge_survives():
    edges = er_edges(40, 0.2, seed=5)
    g = graph_from_edges(edges)
    back = {int(orig): i for i, orig in enumerate(g.original_ids)}
    for u, v in clean_edges(edges):
        assert g.has_edge(back[u], back[v])


@pytest.mark.parametrize("edges", [complete_edges(6), er_edges(50, 0.1, 3)])
def test_degree_sum_is_twice_edge_count(edges):
    g = graph_from_edges(edges)
    assert int(g.degrees.sum()) == 2 * g.m
    assert g.degrees.min() >= 1  # vertices only arise from edges


def test_loading_is_deterministic():
    text = "3 1\n1 4\n4 3\n9 1\n"
    a = load_edge_list(io.BytesIO(text.encode()))
    b = load_edge_list(io.BytesIO(text.encode()))
    assert a.n == b.n and a.m == b.m
    assert np.array_equal(a.offsets, b.offsets)
    assert np.array_equal(a.neighbors, b.neighbors)
    assert np.array_equal(a.original_ids, b.original_ids)


def test_offsets_invariants():
    g = graph_from_edges(er_edges(30, 0.2, 9))
    assert g.offsets[0] == 0
    assert g.offsets[-1] == 2 * g.m
    assert (np.diff(g.offsets) >= 0).all()
    for v in range(g.n):
        nbrs = g.neighbors_of(v)
        assert (np.diff(nbrs) > 0).all()  # strictly ascending, no dups


def test_has_edge_many_matches_scalar():
    g = graph_from_edges(er_edges(60, 0.08, 17))
    rng = np.random.default_rng(0)
    us = rng.integers(0, g.n, 500)
    vs = rng.integers(0, g.n, 500)
    bulk = has_edge_many(g, us, vs)
    for u, v, got in zip(us, vs, bulk):
        assert got == g.has_edge(int(u), int(v))


def test_degrees_are_cached_and_read_only():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    deg = g.degrees
    assert deg is g.degrees
    assert np.array_equal(deg, np.diff(g.offsets))
    assert not deg.flags.writeable
    with pytest.raises(ValueError):
        deg[0] = 7


# Run lengths mix short runs (1-4 search rounds) with runs of up to
# 3,000 (12 rounds), so the open set is compacted at several rounds.
_RUN_LENGTHS = st.lists(st.one_of(st.integers(0, 8), st.integers(9, 3_000)),
                        max_size=12)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lengths=_RUN_LENGTHS, seed=st.integers(0, 2**32 - 1),
       nbr_dtype=st.sampled_from([np.int32, np.int64]),
       x_dtype=st.sampled_from([np.int32, np.int64]))
@example(lengths=[], seed=0, nbr_dtype=np.int32, x_dtype=np.int64)
@example(lengths=[1, 3_000, 0, 2, 2_048], seed=1, nbr_dtype=np.int32,
         x_dtype=np.int32)
def test_lower_bound_matches_searchsorted(lengths, seed, nbr_dtype, x_dtype):
    rng = np.random.default_rng(seed)
    runs = [np.sort(rng.integers(0, 2 * n + 1, n)) for n in lengths]
    nbr = np.concatenate(runs + [np.zeros(0, dtype=np.int64)]).astype(nbr_dtype)
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    run_of, xs = [], []
    for r, vals in enumerate(runs):
        # below, above, at and between the run's values
        q = [-1, 2 * vals.size + 1, *rng.integers(-1, 2 * vals.size + 2, 4)]
        if vals.size:
            q += [vals[0] - 1, vals[-1] + 1, *rng.choice(vals, 3)]
        run_of += [r] * len(q)
        xs += q
    order = rng.permutation(len(xs))
    run_of = np.array(run_of, dtype=np.int64)[order]
    x = np.array(xs, dtype=x_dtype)[order]
    lo, hi = offsets[run_of], offsets[run_of + 1]
    want = [int(np.searchsorted(nbr[a:b], q)) + a
            for a, b, q in zip(lo.tolist(), hi.tolist(), x.tolist())]
    got = _lower_bound(nbr, lo.copy(), hi.copy(), x)
    assert got.tolist() == want


@pytest.fixture(scope="module")
def hubs_and_path():
    """Hubs 0 and 1, adjacent, share 3,000 leaves; a path runs along the
    leaves and on through a tail that ends in a pendant."""
    leaves = range(2, 3_002)
    edges = [(0, 1)] + [(h, v) for v in leaves for h in (0, 1)]
    edges += [(v, v + 1) for v in range(2, 3_010)]
    return graph_from_edges(edges)


@pytest.fixture(scope="module")
def powerlaw10k():
    u, v = powerlaw_edges(8675309, n=3_000, raw=14_000, m=10_000)
    return graph_from_edges(zip(u.tolist(), v.tolist()))


@pytest.mark.parametrize("which", ["hubs_and_path", "powerlaw10k"])
def test_has_edge_many_mixed_search_depths(request, which):
    g = request.getfixturevalue(which)
    rng = np.random.default_rng(3)
    eu, ev = g.edge_arrays
    top = np.argsort(g.degrees)[-40:]
    us = np.concatenate([eu, ev, rng.integers(0, g.n, 4_000),
                         np.repeat(top, top.size)])
    vs = np.concatenate([ev, eu, rng.integers(0, g.n, 4_000),
                         np.tile(top, top.size)])
    shorter = np.minimum(g.degrees[us], g.degrees[vs])
    assert shorter.min() == 1
    if which == "hubs_and_path":
        assert shorter.max() >= 2_048  # a 12-round search in the same call
    order = rng.permutation(us.size)
    us, vs = us[order], vs[order]
    bulk = has_edge_many(g, us, vs)
    assert bulk.tolist() == [g.has_edge(u, v) for u, v in zip(us.tolist(), vs.tolist())]


@pytest.mark.parametrize("which", ["hubs_and_path", "powerlaw10k"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_neighbor_rank_matches_searchsorted(request, which, dtype):
    g = request.getfixturevalue(which)
    eu, ev = g.edge_arrays
    v = np.concatenate([eu, ev]).astype(dtype)
    w = np.concatenate([ev, eu]).astype(dtype)
    order = np.random.default_rng(4).permutation(v.size)
    v, w = v[order], w[order]
    want = [int(np.searchsorted(g.neighbors_of(a), b))
            for a, b in zip(v.tolist(), w.tolist())]
    assert neighbor_rank(g, v, w).tolist() == want


def test_edge_arrays_are_canonical_and_sorted():
    g = graph_from_edges(er_edges(25, 0.3, 21))
    eu, ev = g.edge_arrays
    assert eu.shape[0] == g.m
    assert (eu < ev).all()
    keys = eu.astype(np.int64) * g.n + ev.astype(np.int64)
    assert (np.diff(keys) > 0).all()


def test_edge_key_round_trips_and_orders_at_the_vertex_limit():
    # The largest vertex count the loader accepts; u * n + v then exceeds
    # the int64 range, so the key must be computed in uint64.
    n = 2**32 - 1
    vals = [0, 1, 2**31, 2**32 - 3, n - 1]
    pairs = sorted((a, b) for a in vals for b in vals)
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    key = edge_key(u, v, n)
    assert key.dtype == np.uint64
    assert np.all(key[1:] > key[:-1])
    back_u, back_v = np.divmod(key, np.uint64(n))
    assert back_u.tolist() == u.tolist() and back_v.tolist() == v.tolist()
