import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricount import compute_metrics, count_triangles_exact, exact, wedge_count
from tricount.exact import METRICS_CSV_HEADER
from tricount.graph import _stable_order, edge_key
from helpers import (FIVE_TRIANGLE_EDGES, complete_edges, er_edges,
                     graph_from_edges, path_edges, star_edges)
from oracles import (edge_triangle_counts, phi_by_triangle_enumeration,
                     triangles_by_triples)


def test_k4_triangles_and_per_edge_counts(k4):
    delta, per_edge = count_triangles_exact(k4)
    assert delta == 4
    assert list(per_edge.counts) == [2] * 6


def test_path_has_no_triangles(path3):
    delta, per_edge = count_triangles_exact(path3)
    assert delta == 0
    assert int(per_edge.counts.sum()) == 0


def test_five_triangle_example_graph(five_tri):
    delta, _ = count_triangles_exact(five_tri)
    assert delta == 5
    assert wedge_count(five_tri) == 56


@pytest.mark.parametrize("seed,density", [(1, 0.05), (2, 0.15), (3, 0.35),
                                          (4, 0.6), (5, 0.9)])
def test_forward_matches_brute_force(seed, density):
    edges = er_edges(10 + 12 * seed, density, seed=seed)
    if not edges:
        pytest.skip("empty draw")
    g = graph_from_edges(edges)
    delta, per_edge = count_triangles_exact(g)
    assert delta == len(triangles_by_triples(edges))
    assert int(per_edge.counts.sum()) == 3 * delta


_BLOCK_GRAPHS = [
    er_edges(30, 0.3, 21), er_edges(45, 0.2, 22), er_edges(20, 0.7, 23),
    complete_edges(6), FIVE_TRIANGLE_EDGES,
    star_edges(6), path_edges(5), [(4, 9)],
]


def _assert_oracle_counts(edges):
    g = graph_from_edges(edges)
    delta, per_edge = count_triangles_exact(g)
    ids = g.original_ids
    got = {tuple(sorted((int(ids[a]), int(ids[b])))): int(t)
           for a, b, t in zip(*g.edge_arrays, per_edge.counts)}
    assert got == edge_triangle_counts(edges)
    assert delta == len(triangles_by_triples(edges))


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("edges", _BLOCK_GRAPHS)
def test_per_edge_counts_across_wedge_blocks(monkeypatch, block, edges):
    # Tiny blocks split one edge's wedges over several blocks; the star,
    # the path and the single edge have no oriented wedges at all.
    monkeypatch.setattr(exact, "_WEDGE_BLOCK", block)
    _assert_oracle_counts(edges)


@pytest.mark.parametrize("slots", [
    pytest.param(lambda m: 1, id="one-slot"),
    # At most m slots: most slots hold an edge, so many non-edges pass
    # the filter and only the search rejects them; others are dropped.
    pytest.param(lambda m: 1 << (m.bit_length() - 1), id="shared-slots"),
    # 256 to 512 slots per edge: nearly every edge has a slot of its own,
    # so an edge whose slot went unmarked would lose its triangles.
    pytest.param(lambda m: 1 << (m.bit_length() + 8), id="sparse-slots"),
])
@pytest.mark.parametrize("edges", _BLOCK_GRAPHS)
def test_non_edge_filter_changes_no_count(monkeypatch, slots, edges):
    monkeypatch.setattr(exact, "_filter_slots", slots)
    monkeypatch.setattr(exact, "_WEDGE_BLOCK", 7)
    _assert_oracle_counts(edges)


def _assert_orientation_is_the_argsort(edges):
    # The orientation by rank under the (degree, id) order, built here
    # from a lexsort. Sorting the tails alone must give the permutation
    # that an argsort of the (tail, head) keys gives.
    g = graph_from_edges(edges)
    eu, ev = g.edge_arrays
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.lexsort((np.arange(g.n), g.degrees))] = np.arange(g.n)
    up = rank[eu] < rank[ev]
    tail, head = np.where(up, eu, ev), np.where(up, ev, eu)
    want = np.argsort(edge_key(tail, head, g.n))
    canon, out_head, out_off, min_degree = exact._out_edges(g)
    assert canon.tolist() == want.tolist()
    assert out_head.tolist() == head[want].tolist()
    assert np.diff(out_off).tolist() == np.bincount(tail, minlength=g.n).tolist()
    assert min_degree.tolist() == g.degrees[tail].tolist()
    assert min_degree.dtype == eu.dtype


@pytest.mark.parametrize("edges", _BLOCK_GRAPHS)
def test_orientation_sort_is_the_argsort_on_block_graphs(edges):
    _assert_orientation_is_the_argsort(edges)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(base=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=40),
       leaves=st.lists(st.integers(0, 40), max_size=30))
@example(base=[(4, 9)], leaves=[])  # one edge: positions take no bits
@example(base=complete_edges(5), leaves=[])  # every degree tied
def test_orientation_sort_is_the_argsort(base, leaves):
    # The hub 99 appears after every vertex of ``base``, so it takes a
    # higher id than all of them; its leaves above 12 are new vertices.
    edges = base + [(99, leaf) for leaf in leaves]
    if all(u == v for u, v in edges):
        return
    _assert_orientation_is_the_argsort(edges)


def test_block_order_of_keys_too_wide_to_pack_whole():
    # Edge keys at the vertex limit and the positions of a full block
    # need more than 64 bits, so no packed word holds both: the order
    # must then be the stable argsort of the whole keys, with no low key
    # bits dropped.
    n = 2**32 - 1
    key_bits = (n * n - 1).bit_length()
    drop = key_bits + (exact._WEDGE_BLOCK - 1).bit_length() - 64
    assert drop > 0
    # Keys that differ in the low ``drop`` bits alone, which a packed
    # word would lose, next to the largest key and on both sides of
    # 2**63, and keys spread over the whole range.
    rng = np.random.default_rng(12)
    near = rng.integers(0, 1 << (drop + 4), size=exact._WEDGE_BLOCK, dtype=np.uint64)
    query = np.concatenate([np.uint64(n * n - 1) - near[:20000],
                            np.uint64(2**63) + near[20000:30000],
                            np.uint64(2**63) - near[30000:40000]])
    query = np.concatenate([query, rng.integers(
        0, n * n, size=exact._WEDGE_BLOCK - query.size, dtype=np.uint64)])
    rng.shuffle(query)
    order = _stable_order(query, key_bits)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(query, kind="stable"))
    # Below the limit the whole key fits a packed word: the same order.
    small = query % np.uint64(1000**2)
    assert np.array_equal(_stable_order(small, (1000**2 - 1).bit_length()),
                          np.argsort(small, kind="stable"))


def test_wedge_count_examples(k3, k4, five_tri):
    assert wedge_count(k3) == 3
    assert wedge_count(k4) == 12  # 4 vertices, C(3,2) wedges each


def test_k4_metrics(k4):
    met = compute_metrics(k4)
    assert (met.triangle_count, met.wedge_count) == (4, 12)
    assert met.clustering_coefficient == 1.0
    assert (met.phi, met.shared_edge_pairs) == (24, 6)
    assert met.tri_per_edge == 2.0
    assert met.phi_over_3delta == 2.0
    assert met.k_over_delta == 1.5


def test_k3_metrics(k3):
    met = compute_metrics(k3)
    assert (met.triangle_count, met.wedge_count) == (1, 3)
    assert (met.phi, met.shared_edge_pairs) == (3, 0)
    assert met.clustering_coefficient == 1.0


@pytest.mark.parametrize("edges", [
    complete_edges(5), er_edges(40, 0.15, 8), er_edges(25, 0.4, 9),
    FIVE_TRIANGLE_EDGES, path_edges(6),
])
def test_phi_matches_triangle_enumeration(edges):
    g = graph_from_edges(edges)
    met = compute_metrics(g)
    assert met.phi == phi_by_triangle_enumeration(edges)


@pytest.mark.parametrize("make", [lambda: star_edges(5), lambda: path_edges(7)])
def test_triangle_free_metrics_are_zero(make):
    met = compute_metrics(graph_from_edges(make()))
    assert met.triangle_count == 0
    assert met.phi == 0
    assert met.shared_edge_pairs == 0
    assert met.clustering_coefficient == 0.0


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_complete_graph_properties(n):
    g = graph_from_edges(complete_edges(n))
    delta, per_edge = count_triangles_exact(g)
    assert delta == math.comb(n, 3)
    assert set(per_edge.counts.tolist()) == {n - 2}
    met = compute_metrics(g)
    assert met.clustering_coefficient == 1.0


def test_phi_at_least_three_delta():
    for seed in range(6):
        met = compute_metrics(graph_from_edges(er_edges(30, 0.3, 40 + seed)))
        assert met.phi >= 3 * met.triangle_count
        assert (met.phi == 0) == (met.triangle_count == 0)


def test_metrics_csv_and_json(k4):
    met = compute_metrics(k4)
    assert METRICS_CSV_HEADER == "n,m,delta,lambda,C,tri_per_edge,phi_over_3delta,K_over_delta"
    assert met.to_csv_row() == "4,6,4,12,1,2,2,1.5"
    payload = json.loads(json.dumps(met.to_dict()))
    assert payload["delta"] == 4 and payload["K"] == 6 and payload["phi"] == 24
