import concurrent.futures
import json
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricount import compute_metrics, count_triangles_exact, exact, graph
from tricount.graph import _stable_order, edge_key
from helpers import (BITMAP_BITS, FIVE_TRIANGLE_EDGES, complete_edges, er_edges,
                     graph_from_edges, path_edges, powerlaw_edges, star_edges,
                     threads_running)
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
    assert compute_metrics(five_tri).wedge_count == 56


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
    want = edge_triangle_counts(edges)
    assert got == want
    assert delta == len(triangles_by_triples(edges))
    # phi and K are both summed from T(e), over _CHUNK edges at a time.
    met = compute_metrics(g)
    assert met.phi == phi_by_triangle_enumeration(edges)
    assert met.shared_edge_pairs == sum(math.comb(t, 2) for t in want.values())


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("edges", _BLOCK_GRAPHS)
def test_per_edge_counts_across_wedge_blocks(monkeypatch, block, edges):
    # Tiny blocks split one edge's wedges over several blocks; the star,
    # the path and the single edge have no oriented wedges at all. The
    # same chunk size splits the orientation, the pair table's build and
    # compute_metrics' pass over T(e).
    monkeypatch.setattr(exact, "_CHUNK", block)
    monkeypatch.setattr(graph, "_CHUNK", block)
    _assert_oracle_counts(edges)


@pytest.mark.parametrize("bits", list(BITMAP_BITS.values()), ids=list(BITMAP_BITS))
@pytest.mark.parametrize("edges", _BLOCK_GRAPHS)
def test_non_edge_filter_changes_no_count(monkeypatch, bits, edges):
    # The oracle's filter is the graph's edge bitmap, built after the
    # patch; an edge whose bit went unset would lose its triangles.
    monkeypatch.setattr(graph, "_bitmap_bits", bits)
    monkeypatch.setattr(exact, "_CHUNK", 7)
    _assert_oracle_counts(edges)


def test_worker_pools_give_identical_outputs(monkeypatch):
    # 517 pairs in blocks of 7: 74 blocks, finished in any order by the
    # workers and summed in block order; T(e) is tallied in two batches.
    # The 218 edges are oriented and read back in 32 chunks of 7.
    # Switching threads every microsecond interleaves the workers finely.
    # Each count of workers must really run the blocks, so a patch that
    # no longer reaches the pool fails here.
    edges = er_edges(45, 0.2, 22)
    monkeypatch.setattr(exact, "_CHUNK", 7)
    outputs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(graph, "_worker_count", lambda tasks, k=workers: min(tasks, k))
                ran = threads_running(mp, exact, "_check_block", workers)
                g = graph_from_edges(edges)
                delta, per_edge = count_triangles_exact(g)
                assert len(ran) == workers
                ran.clear()
                outputs.append((delta, per_edge.counts.tobytes(), compute_metrics(g)))
    finally:
        sys.setswitchinterval(interval)
    assert outputs[0][0] == len(triangles_by_triples(edges))
    assert outputs[0] == outputs[1] == outputs[2]


_CACHED = {"degrees", "edge_arrays", "edge_keys", "edge_bitmap"}


@pytest.fixture
def pools(monkeypatch):
    """Every ``ThreadPoolExecutor`` the oracle creates, on 8 CPUs, each
    with the cached properties that ``pools.graph`` held at creation;
    those created while ``pools.graph`` is None, by a load's parse, go
    to ``pools.loads`` instead."""

    class Counted(concurrent.futures.ThreadPoolExecutor):
        made = []
        loads = []
        graph = None

        def __init__(self, *args, **kwargs):
            if self.graph is None:
                self.loads.append(self)
            else:
                self.cached = set(vars(self.graph))
                self.made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    monkeypatch.setattr(graph.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    return Counted


def _record_threads(monkeypatch, module, name):
    """Whether each call of ``module.name`` ran on the main thread."""
    on_main = []
    real = getattr(module, name)

    def spy(*args):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return on_main


def _pair_count(g):
    with graph._Tasks() as tasks:
        out_off = exact._out_edges(g, tasks)[2]
    return int(graph._pair_table(out_off)[-1])


def test_one_block_builds_no_executor(monkeypatch, pools):
    # er300 (the benchmark's sweep graph) and a smaller graph: one chunk
    # of edges and one block of pairs each, so no stage has two tasks.
    for edges in (er_edges(300, 0.05, 11), er_edges(45, 0.2, 22)):
        g = pools.graph = graph_from_edges(edges)
        assert g.m <= exact._CHUNK and _pair_count(g) <= exact._CHUNK
        count_triangles_exact(g)
    assert pools.made == []
    # The second graph's 517 pairs over several blocks, on two workers,
    # do build one.
    monkeypatch.setattr(exact, "_CHUNK", 100)
    monkeypatch.setattr(graph, "_worker_count", lambda tasks: min(tasks, 2))
    count_triangles_exact(g)
    assert len(pools.made) == 1


def test_one_chunk_of_many_blocks_builds_one_executor(pools):
    # K_300: 44,850 edges in one chunk, C(300, 3) pairs in 68 blocks.
    # Its 360 KB of text parse in 3 blocks, on a pool of the load's own.
    g = pools.graph = graph_from_edges(complete_edges(300))
    assert g.m <= exact._CHUNK
    assert len(pools.loads) == 1
    delta, per_edge = count_triangles_exact(g)
    assert delta == math.comb(300, 3)
    assert set(per_edge.counts.tolist()) == {298}
    assert len(pools.made) == 1
    assert pools.made[0].cached >= _CACHED


def test_orientation_and_blocks_share_one_executor(monkeypatch, pools):
    # 218 edges in 32 chunks and 517 pairs in 74 blocks: both stages
    # have tasks for every worker, and all of them run on one pool,
    # created once every property a worker reads is cached.
    monkeypatch.setattr(exact, "_CHUNK", 7)
    orient_on_main = _record_threads(monkeypatch, exact, "_orient")
    block_on_main = _record_threads(monkeypatch, exact, "_check_block")
    edges = er_edges(45, 0.2, 22)
    g = pools.graph = graph_from_edges(edges)
    delta, _ = count_triangles_exact(g)
    assert delta == len(triangles_by_triples(edges))
    assert len(pools.made) == 1
    assert pools.made[0].cached >= _CACHED
    assert len(orient_on_main) == 32 and not any(orient_on_main)
    assert len(block_on_main) == 74 and not any(block_on_main)


def test_no_thread_outlives_a_call(monkeypatch):
    # The orientation's chunks and the pair blocks both run on the pool.
    monkeypatch.setattr(exact, "_CHUNK", 7)
    monkeypatch.setattr(graph, "_worker_count", lambda tasks: min(tasks, 3))
    orient_on_main = _record_threads(monkeypatch, exact, "_orient")
    before = threading.active_count()
    count_triangles_exact(graph_from_edges(er_edges(45, 0.2, 22)))
    assert threading.active_count() == before
    assert orient_on_main and not any(orient_on_main)


@pytest.mark.parametrize("cpus,blocks,want", [
    (1, 33, 1), (2, 33, 2), (16, 33, graph._MAX_WORKERS), (16, 3, 3),
    (2, 1, 1), (2, 0, 1),
])
def test_worker_count_is_bounded_by_cpus_cap_and_blocks(monkeypatch, cpus, blocks, want):
    # The CPUs are those of the affinity mask, as ``taskset`` sets them.
    monkeypatch.setattr(graph.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    assert graph._worker_count(blocks) == want


def test_worker_count_without_an_affinity_mask_counts_the_cpus(monkeypatch):
    # Platforms without os.sched_getaffinity (macOS, Windows) fall back
    # on os.cpu_count(), which may not know the count at all.
    monkeypatch.delattr(graph.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(graph.os, "cpu_count", lambda: 3)
    for tasks in (0, 1, 2, 33):
        assert graph._worker_count(tasks) == max(1, min(3, graph._MAX_WORKERS, tasks))
    monkeypatch.setattr(graph.os, "cpu_count", lambda: None)
    assert graph._worker_count(33) == 1


def _assert_orientation_is_the_argsort(edges):
    # The orientation by rank under the (degree, id) order, built here
    # from a lexsort. Sorting the tails alone must give the permutation
    # that an argsort of the (tail, head) keys gives, on 1, 2 and 3
    # workers alike.
    g = graph_from_edges(edges)
    eu, ev = g.edge_arrays
    rank = np.empty(g.n, dtype=np.int64)
    rank[np.lexsort((np.arange(g.n), g.degrees))] = np.arange(g.n)
    up = rank[eu] < rank[ev]
    tail, head = np.where(up, eu, ev), np.where(up, ev, eu)
    want = np.argsort(edge_key(tail, head, g.n))
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_worker_count", lambda tasks, k=workers: min(tasks, k))
            with graph._Tasks() as tasks:
                canon, out_head, out_off = exact._out_edges(g, tasks)
        assert canon.tolist() == want.tolist()
        assert canon.dtype == np.uint32
        assert out_head.tolist() == head[want].tolist()
        assert out_head.dtype == eu.dtype
        assert np.diff(out_off).tolist() == np.bincount(tail, minlength=g.n).tolist()
        assert out_off.dtype == graph._index_dtype(g.m)


@pytest.mark.parametrize("edges", _BLOCK_GRAPHS)
def test_orientation_sort_is_the_argsort_on_block_graphs(edges):
    _assert_orientation_is_the_argsort(edges)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("edges", _BLOCK_GRAPHS)
def test_orientation_sort_is_the_argsort_across_chunks(monkeypatch, chunk, edges):
    # Chunks of 1 and 7 edges split the orientation and the read-back of
    # head, canon and the out-degrees, a tail's out-edges among them,
    # over the workers' tasks; the 218 edges of er_edges(45, 0.2, 22)
    # end in a partial chunk of one.
    monkeypatch.setattr(exact, "_CHUNK", chunk)
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
    drop = key_bits + (exact._CHUNK - 1).bit_length() - 64
    assert drop > 0
    # Keys that differ in the low ``drop`` bits alone, which a packed
    # word would lose, next to the largest key and on both sides of
    # 2**63, and keys spread over the whole range.
    rng = np.random.default_rng(12)
    near = rng.integers(0, 1 << (drop + 4), size=exact._CHUNK, dtype=np.uint64)
    query = np.concatenate([np.uint64(n * n - 1) - near[:20000],
                            np.uint64(2**63) + near[20000:30000],
                            np.uint64(2**63) - near[30000:40000]])
    query = np.concatenate([query, rng.integers(
        0, n * n, size=exact._CHUNK - query.size, dtype=np.uint64)])
    rng.shuffle(query)
    order = _stable_order(query, key_bits)
    assert order.dtype == np.int64
    assert np.array_equal(order, np.argsort(query, kind="stable"))
    # Below the limit the whole key fits a packed word: the same order.
    small = query % np.uint64(1000**2)
    assert np.array_equal(_stable_order(small, (1000**2 - 1).bit_length()),
                          np.argsort(small, kind="stable"))


def test_wedge_count_examples(k3, k4, five_tri):
    assert compute_metrics(k3).wedge_count == 3
    assert compute_metrics(k4).wedge_count == 12  # 4 vertices, C(3,2) wedges each


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


def test_metrics_json(k4):
    met = compute_metrics(k4)
    payload = json.loads(json.dumps(met.to_dict()))
    assert payload["delta"] == 4 and payload["K"] == 6 and payload["phi"] == 24


def _edge_sums(t, deg):
    """``exact._edge_sums`` of ``t`` on edges whose smaller endpoint
    degree is ``deg`` (an int, or one per edge)."""
    d = np.broadcast_to(np.asarray(deg, dtype=np.int64), t.shape).copy()
    ends = np.arange(t.size)
    return exact._edge_sums(t, ends, ends, d)


def test_edge_sums_are_exact_where_an_int64_dot_wraps():
    # T(e) can pass 2**31 only beyond the edge limit, but sum T^2 wraps
    # int64 well inside it: K_92,682 has 4,294,930,221 edges, each with
    # T = 92,680, and sum T^2 ~ 3.69e19.
    big = np.full(4, 3 * 10**9, dtype=np.int64)
    assert int(np.dot(big, big)) != 4 * (3 * 10**9) ** 2  # the wrap
    assert _edge_sums(big, 1) == (4 * (3 * 10**9) ** 2, 4 * 3 * 10**9)
    many = np.arange(3 * graph._CHUNK + 5, dtype=np.int64)
    many[7] = 2**31
    want = sum(x * x for x in many.tolist())
    assert _edge_sums(many, 1) == (want, int(many.sum()))
    assert _edge_sums(np.zeros(0, dtype=np.int64), 1) == (0, 0)
    # sum T * min degree wraps as well where the degrees exceed T: a
    # slice of 4 edges at T = 10**9 and degree 3 * 10**9 sums to 1.2e19,
    # where T^2 alone lets the whole chunk be one slice.
    t = np.full(4, 10**9, dtype=np.int64)
    d = np.full(4, 3 * 10**9, dtype=np.int64)
    assert int(np.dot(t, d)) != 4 * 3 * 10**18  # the wrap
    assert _edge_sums(t, d) == (4 * 10**18, 4 * 3 * 10**18)
    # Among many small products, an edge of no triangle gathers no
    # degree, and the degrees come from the smaller end.
    t = np.arange(3 * graph._CHUNK + 5, dtype=np.int64) % 5
    t[9] = 10**9
    d = np.arange(t.size, dtype=np.int64) + 3 * 10**9
    hi = d + 1
    want = sum(x * y for x, y in zip(t.tolist(), d.tolist()))
    assert exact._edge_sums(t, np.arange(t.size), np.arange(t.size) + t.size,
                            np.concatenate([d, hi]))[1] == want


def _metrics_peak(scale):
    """The traced peak of ``compute_metrics`` above the graph, its edge
    keys and bitmap, on a power-law graph of 10,000 * scale edges."""
    u, v = powerlaw_edges(8675309, n=3_000 * scale, raw=14_000 * scale, m=10_000 * scale)
    g = graph_from_edges(list(zip(u.tolist(), v.tolist())))
    g.edge_bitmap
    tracemalloc.start()
    try:
        compute_metrics(g)
        return g.m, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_oracle_memory_grows_by_few_bytes_per_edge(monkeypatch):
    # Both graphs exceed graph._CHUNK edges, so the fixed temporaries of
    # a chunk and a block cancel out of the difference. Beside T(e) the
    # oracle holds the sort words (8 bytes per edge) and then head and
    # canon (4 each) and the pair table (4): ~15 bytes per added edge
    # here, where the m-sized degree, orientation and int64 pair-table
    # temporaries of the earlier oracle took ~27.
    #
    # On two workers the pool's tasks run one at a time, so one chunk or
    # block is in flight in both graphs, as on one. Left to overlap, two
    # blocks' ~2.5 MB of temporaries coincide at the peak in some runs
    # and not in others, as the threads happen to run: the difference
    # read 7 to 49 bytes per added edge over 30 runs on a 2-CPU x86-64
    # host, and 16.2 to 16.9 with the tasks one at a time.
    lock = threading.Lock()
    pooled = []
    real_map = graph._Tasks.map

    def one_at_a_time(self, fn, tasks):
        def locked(task):
            with lock:
                pooled.append(threading.current_thread() is not threading.main_thread())
                return fn(task)
        return real_map(self, locked, tasks)

    monkeypatch.setattr(graph._Tasks, "map", one_at_a_time)
    for workers in (1, 2):
        monkeypatch.setattr(graph, "_worker_count", lambda tasks, k=workers: min(tasks, k))
        pooled.clear()
        m1, p1 = _metrics_peak(7)
        m2, p2 = _metrics_peak(14)
        assert graph._CHUNK < m1 < m2
        assert any(pooled) == (workers == 2)
        assert p2 - p1 < 21 * (m2 - m1), workers
