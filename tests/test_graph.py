import concurrent.futures
import functools
import io
import itertools
import math
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricount import (EmptyGraphError, GraphFormatError, compute_metrics,
                      has_edge_many, load_edge_list)
from tricount import exact, graph
from tricount.graph import (Graph, _pair_block, _pair_table, _parse_pairs,
                            _parse_pairs_slow, edge_key, neighbor_rank)
from helpers import (BITMAP_BITS, complete_edges, er_edges, graph_from_edges,
                     graph_from_text, graph_text, hubs_and_path_edges, path_edges,
                     powerlaw_edges, star_edges, threads_running)
from oracles import clean_edges, has_edges
from test_golden import _powerlaw_text


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


def test_load_remaps_by_first_appearance_far_apart():
    # The remap's packed sort is stable, so each id's first position
    # comes first among its equal ids; ids this small never take the
    # stable argsort, which runs only when an id and a position need
    # more than 64 bits together.
    rng = np.random.default_rng(7)
    edges = (rng.integers(0, 40, size=(3_000, 2)) * 1_000 + 5).tolist()
    g = graph_from_edges(edges)
    assert g.original_ids.tolist() == list(dict.fromkeys(itertools.chain(*edges)))
    eu, ev = (g.original_ids[x].tolist() for x in g.edge_arrays)
    assert sorted(map(tuple, map(sorted, zip(eu, ev)))) == clean_edges(edges)


# Vertex ids on both sides of the remap's packed-sort limit: small ones;
# ones of 2**59 to 2**61, which pack with a position into 64 bits or not
# depending on how many ids the list holds; and ones of 10**18 and up,
# which the line scan reads (as uint64 from 2**63 on).
_REMAP_IDS = st.one_of(st.integers(0, 40), st.integers(2**59, 2**61),
                       st.integers(10**18, 2**64 - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pool=st.lists(_REMAP_IDS, min_size=2, max_size=10, unique=True),
       data=st.data())
def test_load_remaps_wide_ids_by_first_appearance(pool, data):
    ends = st.sampled_from(pool)
    edges = data.draw(st.lists(st.tuples(ends, ends), min_size=1, max_size=12))
    if not clean_edges(edges):
        with pytest.raises(EmptyGraphError):
            graph_from_edges(edges)
        return
    g = graph_from_edges(edges)
    assert g.original_ids.tolist() == list(dict.fromkeys(itertools.chain(*edges)))
    eu, ev = (g.original_ids[x].tolist() for x in g.edge_arrays)
    assert sorted(map(tuple, map(sorted, zip(eu, ev)))) == clean_edges(edges)


@pytest.mark.parametrize("top, argsorts", [(2**60 - 1, 0), (2**60, 1)])
def test_remap_argsorts_only_ids_too_wide_to_pack(monkeypatch, top, argsorts):
    # Positions of 16 ids take 4 bits, so ids of up to 60 bits pack with
    # them; the 5 first positions (4 bits) always pack with theirs.
    ids = np.array([top, 3, top - 1, 3, 9, top, top - 1, 0] * 2, dtype=np.int64)
    first = list(dict.fromkeys(ids.tolist()))
    dense = [first.index(i) for i in ids.tolist()]
    calls = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort",
                        lambda *a, **kw: calls.append(kw) or argsort(*a, **kw))
    remapped, original_ids = graph._remap(ids)
    assert original_ids.tolist() == first
    assert remapped.tolist() == dense and remapped.dtype == np.int32
    assert calls == [{"kind": "stable"}] * argsorts


class _UfuncSpy:
    """Stands in for a ufunc and counts the calls of its ``at``."""

    def __init__(self, ufunc):
        self.ufunc, self.at_calls = ufunc, 0

    def __call__(self, *args, **kwargs):
        return self.ufunc(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self.ufunc, name)

    def at(self, *args):
        self.at_calls += 1
        return self.ufunc.at(*args)


@pytest.mark.parametrize("top, tables", [(8, 1), (9, 0)])
def test_remap_tables_only_ids_below_their_count(monkeypatch, top, tables):
    # 8 ids: a largest id of 7 (max id + 1 == ids.size) takes the
    # direct-address table, a largest id of 8 the packed sort.
    ids = np.array([top - 1, 3, 0, 3, 5, top - 1, 2, 0], dtype=np.int64)
    first = list(dict.fromkeys(ids.tolist()))
    dense = [first.index(i) for i in ids.tolist()]
    spy = _UfuncSpy(np.minimum)
    monkeypatch.setattr(np, "minimum", spy)
    remapped, original_ids = graph._remap(ids)
    assert original_ids.tolist() == first and original_ids.dtype == np.int64
    assert remapped.tolist() == dense and remapped.dtype == np.int32
    assert spy.at_calls == tables


@pytest.mark.parametrize("relabel", [False, True])
def test_remap_paths_build_the_same_graph(monkeypatch, relabel):
    # One edge list loaded as is (dense ids: the table) and with every id
    # plus 2**40 (the packed sort), with its labels as generated and
    # permuted.
    u, v = powerlaw_edges(8675309, n=3_000, raw=14_000, m=10_000)
    if relabel:
        perm = np.random.default_rng(5).permutation(3_000)
        u, v = perm[u], perm[v]
    shift = 2**40
    spy = _UfuncSpy(np.minimum)
    monkeypatch.setattr(np, "minimum", spy)
    dense = graph_from_edges(zip(u.tolist(), v.tolist()))
    assert spy.at_calls == 1
    wide = graph_from_edges(zip((u + shift).tolist(), (v + shift).tolist()))
    assert spy.at_calls == 1
    assert np.array_equal(dense.offsets, wide.offsets)
    assert np.array_equal(dense.neighbors, wide.neighbors)
    for a, b in zip(dense.edge_arrays, wide.edge_arrays):
        assert np.array_equal(a, b)
    assert dense.original_ids.dtype == wide.original_ids.dtype == np.int64
    assert (wide.original_ids - dense.original_ids == shift).all()


def test_load_releases_its_parse_temporaries(tmp_path):
    # The input bytes and the parsed pairs are dropped before the CSR
    # build. The peak reads ~7.3 bytes per input byte here; holding the
    # bytes to the end reads ~8.3, the pairs ~8.4, and the np.loadtxt
    # loader, which held both, ~12.
    u, v = powerlaw_edges(8675309, n=3_000, raw=14_000, m=10_000)
    path = tmp_path / "powerlaw10k.txt"
    path.write_text(graph_text(zip(u.tolist(), v.tolist())))
    tracemalloc.start()
    try:
        load_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * path.stat().st_size


def test_load_wrong_arity_reports_line():
    with pytest.raises(GraphFormatError, match="line 2"):
        graph_from_text("0 1\n0 1 2\n")


def test_load_non_integer_reports_line():
    with pytest.raises(GraphFormatError, match="line 3"):
        graph_from_text("0 1\n1 2\n2 x\n")


def test_load_negative_id_rejected():
    with pytest.raises(GraphFormatError, match="line 1"):
        graph_from_text("-1 2\n")


@pytest.mark.parametrize("text", ["1_000 2\n", "0 1\n+7 2\n", "0 1\n1 -0\n",
                                  "0 \u0663\n"])
def test_load_non_digit_ids_rejected(text):
    # numpy's parser takes +7 and -0, Python's int() 1_000; ids are digits only.
    line = text.count("\n")
    with pytest.raises(GraphFormatError, match=f"line {line}"):
        graph_from_text(text)
    with pytest.raises(GraphFormatError, match=f"line {line}"):
        _parse_pairs_slow(text.encode())


def test_comment_lines_keep_the_fast_path(monkeypatch):
    # A header such as "# gen_graph.py, 2010-04-01" must not send a
    # million-line file to the line scan, which is ~10x slower.
    def line_scan(data, first_line=1):
        raise AssertionError("took the line scan")

    monkeypatch.setattr(graph, "_parse_pairs_slow", line_scan)
    data = b"# gen_graph.py +1, 2010-04-01\x1c\n0 1\n#-0\n1 2"
    assert _parse_pairs(data).tolist() == [[0, 1], [1, 2]]
    with pytest.raises(AssertionError, match="line scan"):
        _parse_pairs(b"# a+b\n0 1\n+1 2\n")


def _no_line_scan(data, first_line=1):
    raise AssertionError("took the line scan")


def _force_workers(mp, workers):
    """Run every stage of more than one task on ``workers`` threads."""
    mp.setattr(graph, "_worker_count", lambda tasks, k=workers: min(tasks, k))


def test_non_ascii_comment_lines_keep_the_fast_path(monkeypatch):
    # A header such as "# Zürich road network" sent a million-line file
    # to the line scan, ~10x slower, while the fast path checked the whole
    # input for ASCII.
    monkeypatch.setattr(graph, "_parse_pairs_slow", _no_line_scan)
    data = "# Zürich road network\n0 1\n#\u00a0\u0663 7\n1 2\n".encode() + b"#\xff\n"
    assert _parse_pairs(data).tolist() == [[0, 1], [1, 2]]


@pytest.mark.parametrize("data, want", [
    (b"\n\n", []),  # np.fromstring reads a blank block as [0]
    (b"0 1\n\n \t\n2 3\n", [[0, 1], [2, 3]]),
    (b"0 1\n# 5 6 7, a comment\n#\n2 3\n", [[0, 1], [2, 3]]),
    (b"0 1\n2 3", [[0, 1], [2, 3]]),
    (b"0 1\r\n2 3\r\n", [[0, 1], [2, 3]]),
    (b"999999999999999999 0\n", [[10**18 - 1, 0]]),  # the largest fast id
])
def test_parser_block_edges_keep_the_fast_path(monkeypatch, data, want):
    # Blocks of only comments or blank lines, and a last line with no
    # newline, on 1, 2 and 3 workers.
    monkeypatch.setattr(graph, "_parse_pairs_slow", _no_line_scan)
    for block, workers in itertools.product(range(1, len(data) + 2), (1, 2, 3)):
        monkeypatch.setattr(graph, "_CHUNK", block)
        _force_workers(monkeypatch, workers)
        pairs = _parse_pairs(data)
        assert pairs.tolist() == want
        assert pairs.dtype == np.int64


@pytest.mark.parametrize("last, message", [
    (b"5 x\n", "line 22: vertex ids must be decimal digits only"),
    (b"5 6 7", "line 22: expected two integer tokens, got 3"),
    (b" ".join(b"%d" % i for i in range(258)), "line 22: expected two integer tokens, got 258"),
])
def test_parser_bad_line_in_the_last_block_reports_its_line(monkeypatch, last, message):
    # 258 ids on a line: 2 runs once the per-line count wraps at 256.
    monkeypatch.setattr(graph, "_CHUNK", 8)
    with pytest.raises(GraphFormatError, match=message):
        _parse_pairs(b"0 1\n" * 20 + b"# note\n" + last)


def test_parser_reads_a_big_id_block_alone_by_line_scan(monkeypatch):
    # One id of 10**18 or more sent the whole input to the line scan,
    # ~20x slower on a million-edge file; now only its block goes there,
    # and its line numbers run on from the blocks before it.
    scanned = []

    def line_scan(data, first_line=1):
        scanned.append((data, first_line))
        return _parse_pairs_slow(data, first_line)

    monkeypatch.setattr(graph, "_parse_pairs_slow", line_scan)
    monkeypatch.setattr(graph, "_CHUNK", 4)  # a block per line here
    big = b"%d 2\n" % (2**64 - 1)
    data = b"0 1\n" * 20 + b"# note\n" + big
    pairs = _parse_pairs(data)
    assert scanned == [(big, 22)]
    assert pairs.dtype == np.uint64
    assert pairs.tolist() == _parse_pairs_slow(data).tolist()
    scanned.clear()
    with pytest.raises(GraphFormatError, match="line 23: expected two"):
        _parse_pairs(b"0 1\n" + big + b"0 1\n" * 20 + b"5\n")
    assert [line for _, line in scanned] == [2, 23]


def test_load_rejects_more_edges_than_the_limit(monkeypatch):
    monkeypatch.setattr(graph, "_MAX_EDGES", 3)
    assert graph_from_edges(complete_edges(3) + [(1, 0), (2, 2)]).m == 3
    with pytest.raises(GraphFormatError, match="more than 3 distinct edges"):
        graph_from_edges(complete_edges(3) + [(0, 3)])


def test_load_ids_longer_than_int_converts():
    # Python's int() takes at most 4,300 digits; numpy's parser takes
    # leading zeros of any length, and so must the line scan.
    padded = b"0 1\n" + b"0" * 5000 + b"1 2\n"
    assert _parse_pairs(padded).tolist() == _parse_pairs_slow(padded).tolist() \
        == [[0, 1], [1, 2]]
    with pytest.raises(GraphFormatError, match="line 2: vertex id exceeds 64 bits"):
        graph_from_text("0 1\n" + "1" * 5000 + " 2\n")


def test_load_full_64_bit_ids():
    top = 2**64 - 1
    g = graph_from_text(f"{top} 3\n3 {top - 1}\n")
    assert (g.n, g.m) == (3, 2)
    assert [int(x) for x in g.original_ids] == [top, 3, top - 1]
    with pytest.raises(GraphFormatError, match="line 1"):
        graph_from_text(f"{2**64} 3\n")


# Edge-list bytes mixing valid lines with near misses: signs, digit
# separators, other bases, floats, non-ASCII digits, and separators that
# some parsers count as whitespace and others do not.
_PARSER_TOKENS = st.one_of(
    st.integers(0, 2**64 + 1).map(lambda i: str(i).encode()),
    st.sampled_from([b"-1", b"+7", b"1_000", b"0x1f", b"1.0", b"1e3", b"007",
                     b"x", b"#", b"#7", "\u0663".encode(), b"\xa0"]))
_PARSER_GAPS = st.sampled_from([b" ", b"\t", b"  ", b"\x0b", b"\x0c", b"\r",
                                b"\x1c", b"\x1f", b"\x85", b"\xa0", b"\xc2\xa0",
                                b",", b""])
_PARSER_LINES = st.lists(
    st.tuples(st.sampled_from([b"", b" ", b"\t", b"#"]),
              st.lists(_PARSER_TOKENS, max_size=3), _PARSER_GAPS,
              st.sampled_from([b"\n", b"\r\n", b"\r", b"\n\n", b""])),
    max_size=6)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(lines=_PARSER_LINES)
@example(lines=[(b"", [b"0", b"1"], b"\xa0", b"\n")])
def test_parser_fast_path_agrees_with_line_scan(lines):
    data = b"".join(lead + gap.join(tokens) + end for lead, tokens, gap, end in lines)
    try:
        pairs = _parse_pairs(data)
    except GraphFormatError:
        return  # only the line scan raises, so both paths reject it alike
    assert _parse_pairs_slow(data).tolist() == pairs.tolist()


def _parsed_or_error(parse, data):
    try:
        return parse(data).tolist()
    except GraphFormatError as err:
        return str(err)


@pytest.mark.parametrize("block", [1, 7, 64])
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(lines=_PARSER_LINES)
def test_parser_blocks_agree_with_line_scan(block, lines):
    # On 1, 2 and 3 workers: the blocks are parsed on the pool, the
    # line scan and every error stay on the calling thread.
    data = b"".join(lead + gap.join(tokens) + end for lead, tokens, gap, end in lines)
    want = _parsed_or_error(_parse_pairs_slow, data)
    for workers in (1, 2, 3):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_CHUNK", block)
            _force_workers(mp, workers)
            assert _parsed_or_error(_parse_pairs, data) == want, workers


# Blocks of 8 bytes on 1, 2 and 3 workers: every line below is a block.
@pytest.fixture(params=[1, 2, 3])
def parse_workers(request, monkeypatch):
    monkeypatch.setattr(graph, "_CHUNK", 8)
    _force_workers(monkeypatch, request.param)
    return request.param


def test_parser_threads_run_the_blocks(monkeypatch, parse_workers):
    # The workers really parse the blocks: a patch that no longer
    # reaches the pool fails here.
    ran = threads_running(monkeypatch, graph, "_parse_block", parse_workers)
    data = b"".join(b"%d %d\n" % (i, i + 1) for i in range(40))
    assert _parse_pairs(data).tolist() == [[i, i + 1] for i in range(40)]
    assert len(ran) == parse_workers
    assert (threading.main_thread() in ran) == (parse_workers == 1)


def test_parser_on_more_threads_than_cpus_keeps_every_id():
    # Four workers on blocks of a line or two, switching threads every
    # microsecond: a slot written late, or moved down before its block
    # is parsed, would lose or shift ids. Every fifth line is a comment
    # and a blank line, whose slots hold no ids, so most slots move.
    data = b"".join(b"%d %d\n" % (i, 7 * i + 3) if i % 5 else b"# note\n\n"
                    for i in range(600))
    want = _parse_pairs_slow(data).tolist()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_CHUNK", 8)
            _force_workers(mp, 4)
            for _ in range(5):
                assert _parse_pairs(data).tolist() == want
    finally:
        sys.setswitchinterval(interval)


def test_parser_big_id_in_a_late_block(parse_workers):
    # The 2**63 id turns the output uint64 after the workers have written
    # the earlier blocks' ids, and likely some later ones, as int64.
    head = b"".join(b"%d %d\n" % (i, 10**17 + i) for i in range(30))
    tail = b"".join(b"%d 7\n" % i for i in range(10))
    data = head + b"%d 5\n" % 2**63 + tail
    pairs = _parse_pairs(data)
    assert pairs.dtype == np.uint64
    assert pairs.tolist() == _parse_pairs_slow(data).tolist()
    assert pairs[30].tolist() == [2**63, 5]


def test_parser_id_of_ten_to_the_eighteen(monkeypatch, parse_workers):
    # numpy's parser reads 10**18 right, but the line scan takes it, and
    # the output stays int64.
    scanned = []

    def line_scan(data, first_line=1):
        scanned.append(first_line)
        return _parse_pairs_slow(data, first_line)

    monkeypatch.setattr(graph, "_parse_pairs_slow", line_scan)
    data = b"0 1\n" * 10 + b"%d 2\n" % 10**18 + b"3 4\n" * 10
    pairs = _parse_pairs(data)
    assert scanned == [11]
    assert pairs.dtype == np.int64
    assert pairs.tolist() == [[0, 1]] * 10 + [[10**18, 2]] + [[3, 4]] * 10


def test_parser_bad_line_in_a_later_block_keeps_its_line(parse_workers):
    good = b"0 1\n# note\n\n" * 12
    with pytest.raises(GraphFormatError, match="line 37: expected two integer tokens, got 1"):
        _parse_pairs(good + b"5\n" + good)
    with pytest.raises(GraphFormatError, match="line 38: vertex ids must be decimal"):
        _parse_pairs(good + b"%d 1\n" % (2**64 - 1) + b"1 x\n" + good)


def test_load_on_threads_leaves_no_thread_and_keeps_id_dtypes(parse_workers):
    before = threading.active_count()
    edges = [(i, (3 * i + 1) % 50) for i in range(50)]
    g = graph_from_edges(edges)
    assert threading.active_count() == before
    assert g.original_ids.dtype == np.int64
    assert g.m == len(clean_edges(edges))
    big = graph_from_edges(edges + [(2**64 - 1, 0)])
    assert threading.active_count() == before
    assert big.original_ids.dtype == np.uint64
    assert big.original_ids[:g.n].tolist() == g.original_ids.tolist()


def test_one_block_load_starts_no_thread(monkeypatch):
    # Even with CPUs to spare, one block runs on the calling thread.
    def no_pool(*args, **kwargs):
        raise AssertionError("started a thread pool")

    monkeypatch.setattr(graph.os, "sched_getaffinity", lambda pid: set(range(8)),
                        raising=False)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    data = graph_text(er_edges(300, 0.05, 11)).encode()
    assert len(data) <= graph._CHUNK
    before = threading.active_count()
    assert load_edge_list(io.BytesIO(data)).m == 2239
    assert threading.active_count() == before
    monkeypatch.setattr(graph, "_CHUNK", len(data) // 2)
    with pytest.raises(AssertionError, match="started a thread pool"):
        _parse_pairs(data)


def test_tasks_cancel_the_queued_tasks_on_an_error(monkeypatch):
    # A malformed block ends the parse at once: the tasks still queued
    # behind it are dropped, not run.
    calls = []
    lock = threading.Lock()

    def task(i):
        with lock:
            calls.append(i)
        if i:
            time.sleep(0.02)
        return i

    # The results are held in a name, as _parse_pairs holds them: a
    # results iterator dropped by the error would cancel them itself.
    _force_workers(monkeypatch, 2)
    with pytest.raises(GraphFormatError):
        with graph._Tasks() as tasks:
            results = tasks.map(task, range(50))
            for i in results:
                raise GraphFormatError(f"task {i}")
    assert len(calls) < 10
    calls.clear()
    with graph._Tasks() as tasks:
        assert list(tasks.map(task, range(5))) == list(range(5))
    assert sorted(calls) == list(range(5))


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
    # Internal ids are the edge lists' ids here.
    for edges, (u, v), want in [(complete_edges(3), (0, 2), True),
                                (complete_edges(3), (0, 0), False),
                                (path_edges(2), (0, 2), False)]:
        g = graph_from_edges(edges)
        assert has_edge_many(g, u, v).tolist() == has_edges(edges, [(u, v)]) == [want]


def test_degree_examples():
    k4 = graph_from_edges(complete_edges(4))
    assert k4.degrees.tolist() == [3] * 4
    star = graph_from_edges(star_edges(4))
    assert star.degrees[0] == 4


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
    us, vs = np.divmod(np.arange(g.n * g.n), g.n)
    got = has_edge_many(g, us, vs)
    back = g.original_ids
    assert got.tolist() == dense[back[us], back[vs]].tolist()
    assert np.array_equal(got.reshape(g.n, g.n), got.reshape(g.n, g.n).T)


def test_every_input_edge_survives():
    edges = er_edges(40, 0.2, seed=5)
    g = graph_from_edges(edges)
    back = {int(orig): i for i, orig in enumerate(g.original_ids)}
    cleaned = clean_edges(edges)
    got = has_edge_many(g, [back[u] for u, _ in cleaned], [back[v] for _, v in cleaned])
    assert got.tolist() == has_edges(edges, cleaned) == [True] * len(cleaned)


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


def test_text_mode_stream_loads_as_its_bytes():
    text = "# comment\n3 1\n1 4\n4 3\n9 1\n"
    a = load_edge_list(io.StringIO(text))
    b = load_edge_list(io.BytesIO(text.encode()))
    assert a.n == b.n == 4 and a.m == b.m == 4
    assert np.array_equal(a.neighbors, b.neighbors)
    assert np.array_equal(a.original_ids, b.original_ids)


def test_offsets_invariants():
    g = graph_from_edges(er_edges(30, 0.2, 9))
    assert g.offsets[0] == 0
    assert g.offsets[-1] == 2 * g.m
    assert (np.diff(g.offsets) >= 0).all()
    for v in range(g.n):
        nbrs = g.neighbors[g.offsets[v]:g.offsets[v + 1]]
        assert (np.diff(nbrs) > 0).all()  # strictly ascending, no dups


def test_has_edge_many_matches_scalar():
    edges = er_edges(60, 0.08, 17)
    g = graph_from_edges(edges)
    rng = np.random.default_rng(0)
    us = rng.integers(0, g.n, 500)
    vs = rng.integers(0, g.n, 500)
    bulk = has_edge_many(g, us, vs)
    ids = g.original_ids
    assert bulk.tolist() == has_edges(edges, zip(ids[us].tolist(), ids[vs].tolist()))
    for u, v, got in zip(us.tolist(), vs.tolist(), bulk.tolist()):
        assert has_edge_many(g, u, v).tolist() == [got]


def test_has_edge_many_scalar_queries():
    # K5 and a path, one scalar pair per query: each result is 1-d, as
    # a 0-d one could not record the hits of the lookup.
    edges = complete_edges(5) + [(i, i + 1) for i in range(5, 60)]
    g = graph_from_edges(edges)
    ids = g.original_ids.tolist()
    pairs = [(u, v) for u in range(g.n) for v in range(g.n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [has_edge_many(g, u, v) for u, v in pairs]
    assert all(r.shape == (1,) for r in got)
    want = has_edges(edges, [(ids[u], ids[v]) for u, v in pairs])
    assert [bool(r[0]) for r in got] == want


def test_has_edge_many_keeps_the_queries_shape():
    g = graph_from_text("0 1\n1 2\n2 0\n2 3\n")
    got = has_edge_many(g, [[0, 1], [2, 0]], [[1, 3], [3, 2]])
    assert got.shape == (2, 2) and got.tolist() == [[True, False], [True, True]]
    got = has_edge_many(g, np.arange(8).reshape(2, 1, 4) % 4,
                        np.arange(8)[::-1].reshape(2, 1, 4) % 4)
    assert got.shape == (2, 1, 4)
    assert got.ravel().tolist() == has_edge_many(g, np.arange(8) % 4,
                                                 np.arange(8)[::-1] % 4).tolist()
    assert has_edge_many(g, np.zeros((3, 0), int), np.zeros((3, 0), int)).shape == (3, 0)
    assert has_edge_many(g, 0, 1).shape == (1,)


def test_degrees_are_cached_and_read_only():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    deg = g.degrees
    assert deg is g.degrees
    assert np.array_equal(deg, np.diff(g.offsets))
    assert deg.dtype == g.neighbors.dtype
    assert not deg.flags.writeable
    with pytest.raises(ValueError):
        deg[0] = 7


def test_wedge_prefix_holds_past_int64_degree_products():
    # A star with 3.5e9 leaves is within the limits (n < 2**32, m <=
    # 2**32), but d(d - 1) for its hub passes 2**63. Only the offsets
    # are read, so nothing that large is built.
    d = 3_500_000_000
    g = Graph(n=2, m=0, offsets=np.array([0, d, d + 1]),
              neighbors=np.empty(0, np.int64), original_ids=np.arange(2))
    assert g.wedge_prefix.dtype == np.int64
    assert g.wedge_prefix.tolist() == [d * (d - 1) // 2] * 2


def _powerlaw10k_edges():
    u, v = powerlaw_edges(8675309, n=3_000, raw=14_000, m=10_000)
    return list(zip(u.tolist(), v.tolist()))


@pytest.fixture(scope="module")
def powerlaw10k():
    return graph_from_edges(_powerlaw10k_edges())


_EDGES = {"hubs_and_path": hubs_and_path_edges, "powerlaw10k": _powerlaw10k_edges}


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
    ids = g.original_ids
    assert bulk.tolist() == has_edges(_EDGES[which](),
                                      zip(ids[us].tolist(), ids[vs].tolist()))


@pytest.mark.parametrize("which", ["hubs_and_path", "powerlaw10k"])
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_neighbor_rank_matches_searchsorted(request, which, dtype):
    g = request.getfixturevalue(which)
    eu, ev = g.edge_arrays
    v = np.concatenate([eu, ev]).astype(dtype)
    w = np.concatenate([ev, eu]).astype(dtype)
    order = np.random.default_rng(4).permutation(v.size)
    v, w = v[order], w[order]
    want = [int(np.searchsorted(g.neighbors[g.offsets[a]:g.offsets[a + 1]], b))
            for a, b in zip(v.tolist(), w.tolist())]
    assert neighbor_rank(g, v, w).tolist() == want


# The multipliers of the edge bitmap's two filters, as Python integers.
_FILTER_MULTIPLIERS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F)


def _bit_ref(key: int, size: int, mult: int) -> int:
    """Bit of ``key`` in an edge filter of ``size`` bits under the
    multiplier ``mult``, from the documented formula in Python integers."""
    bits = size.bit_length() - 1
    return (key * mult % 2**64) >> (64 - bits)


def test_has_edge_many_rejects_ids_outside_the_graph():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    # (-1, n - 1) has the key 2**64 - 1, which once probed an edge index
    # forever; (0, n + 5) has the key of the pair (1, 5).
    for u, v in [(-1, g.n - 1), ([0], [g.n + 5]), (np.array([3, 2]), np.array([4, -2]))]:
        with pytest.raises(ValueError, match="vertex ids"):
            has_edge_many(g, u, v)


def test_has_edge_many_rejects_ids_that_are_not_integers():
    # Float ids once truncated: (0.5, 1.9) was read as the edge (0, 1).
    g = graph_from_text("0 1\n1 2\n2 0\n2 3\n")
    for u, v in [(np.array([0.5]), np.array([1.9])), (np.array([True]), np.array([1])),
                 (0, np.array([1.0])), (0.0, 1)]:
        with pytest.raises(ValueError, match="integers"):
            has_edge_many(g, u, v)
    # Python ints and integer scalars of any width are ids.
    for u, v, want in [(0, 1, True), (np.int32(0), np.uint8(3), False),
                       (np.uint64(2), np.uint32(3), True)]:
        assert has_edge_many(g, u, v).tolist() == [want]


def test_has_edge_many_rejects_arrays_of_different_shapes():
    # Once numpy's own errors: a reduction over an empty array, or a
    # failed broadcast.
    g = graph_from_text("0 1\n1 2\n2 0\n2 3\n")
    for u, v, shapes in [([0], np.zeros(0, int), r"\(1,\) and \(0,\)"),
                         (np.zeros(0, int), 3, r"\(0,\) and \(1,\)"),
                         ([0, 1], [1, 2, 3], r"\(2,\) and \(3,\)")]:
        with pytest.raises(ValueError, match="same shape.*" + shapes):
            has_edge_many(g, u, v)


def test_has_edge_many_self_pairs_and_empty_queries(five_tri):
    v = np.arange(five_tri.n)
    assert not has_edge_many(five_tri, v, v).any()
    out = has_edge_many(five_tri, np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32))
    assert out.dtype == bool and out.shape == (0,)


def test_edge_keys_are_cached_and_read_only():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    keys = g.edge_keys
    assert keys is g.edge_keys
    assert keys.dtype == np.uint64 and keys.size == g.m
    assert (np.diff(keys) > 0).all()
    assert np.array_equal(keys, edge_key(*g.edge_arrays, g.n))
    assert not keys.flags.writeable
    with pytest.raises(ValueError):
        keys[0] = 7
    # A graph built from its CSR fields, not by the loader, has the same.
    built = Graph(n=g.n, m=g.m, offsets=g.offsets, neighbors=g.neighbors,
                  original_ids=g.original_ids)
    assert np.array_equal(built.edge_keys, keys)
    assert not built.edge_keys.flags.writeable


def test_edge_bitmap_is_cached_and_read_only():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    bitmap = g.edge_bitmap
    assert bitmap is g.edge_bitmap
    assert bitmap.dtype == np.uint8 and bitmap.shape == (2, 1 << g.m.bit_length())
    size = 8 * bitmap.shape[1]
    keys = edge_key(*g.edge_arrays, g.n).tolist()
    for row, mult in zip(bitmap, _FILTER_MULTIPLIERS):
        want = {_bit_ref(k, size, mult) for k in keys}
        bits = np.unpackbits(row, bitorder="little")
        assert set(np.flatnonzero(bits).tolist()) == want
    # The filters differ: each sets bits the other does not.
    assert (bitmap[0] & ~bitmap[1]).any() and (bitmap[1] & ~bitmap[0]).any()
    assert not bitmap.flags.writeable
    with pytest.raises(ValueError):
        bitmap[1, 0] = 7


@pytest.mark.parametrize("bits", list(BITMAP_BITS.values()), ids=list(BITMAP_BITS))
@pytest.mark.parametrize("edges", [er_edges(60, 0.08, 17), complete_edges(6),
                                   star_edges(6), [(4, 9)]])
def test_has_edge_many_follows_any_bitmap_size(monkeypatch, bits, edges):
    monkeypatch.setattr(graph, "_bitmap_bits", bits)
    g = graph_from_edges(edges)
    assert g.edge_bitmap.shape == (2, -(-bits(g.m) // 8))  # rows padded to bytes
    passed = []
    may_be_edges = graph._may_be_edges

    def spy(g, key):
        out = may_be_edges(g, key)
        passed.append(out.copy())
        return out

    monkeypatch.setattr(graph, "_may_be_edges", spy)
    us, vs = np.divmod(np.arange(g.n * g.n), g.n)
    got = has_edge_many(g, us, vs)
    ids = g.original_ids
    want = has_edges(edges, zip(ids[us].tolist(), ids[vs].tolist()))
    assert got.tolist() == want
    (where,) = passed
    reached = np.zeros(got.size, dtype=bool)
    reached[where] = True
    assert reached[got].all()  # the filters drop no edge
    if bits(g.m) == 1:
        assert reached.all()  # every bit set: every query goes to the search
    elif bits(g.m) > 64 * g.m:
        assert not reached.all()


def test_two_filters_pass_few_non_edges(powerlaw10k):
    # A seeded sample of non-edge pairs: one filter passes 7.1% of them,
    # both 0.5%, so a lookup that tested one filter alone would fail.
    g = powerlaw10k
    rng = np.random.default_rng(23)
    lo, hi = np.sort(rng.integers(0, g.n, size=(2, 200_000)), axis=0)
    key = edge_key(lo, hi, g.n)[lo < hi]
    key = key[~np.isin(key, g.edge_keys)]
    passed = graph._may_be_edges(g, key).size
    assert key.size > 150_000 and passed < 0.02 * key.size


def test_loading_does_not_build_the_edge_keys_or_bitmap():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    assert "edge_keys" not in vars(g) and "edge_bitmap" not in vars(g)
    has_edge_many(g, [0], [1])
    assert "edge_keys" in vars(g) and "edge_bitmap" in vars(g)


def test_first_edge_lookup_builds_little(powerlaw10k):
    # The first query builds the edge keys (8 bytes per edge) and the
    # bitmap's two filters (1 to 2 each), and the build briefly holds
    # one filter's bool per bit and one block's hashes, all m of them
    # below graph._CHUNK edges: 31 bytes per edge here. An edge hash
    # index (8 bytes per slot, 2 to 4 slots per edge) built as well
    # took 44.
    g = Graph(n=powerlaw10k.n, m=powerlaw10k.m, offsets=powerlaw10k.offsets,
              neighbors=powerlaw10k.neighbors, original_ids=powerlaw10k.original_ids)
    g.edge_arrays
    tracemalloc.start()
    try:
        has_edge_many(g, [0], [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * g.m


def _sorted_keys(n: int, m: int, seed: int) -> np.ndarray:
    """``m`` distinct canonical edge keys of ``n`` vertices, ascending."""
    u, v = np.triu_indices(n, 1)
    pick = np.sort(np.random.default_rng(seed).choice(u.size, size=m, replace=False))
    return edge_key(u[pick], v[pick], n)


def test_first_edge_lookup_hashes_a_block_of_keys_at_a_time():
    # Past graph._CHUNK edges the bitmap's build holds one block's
    # hashes, not one per edge: 22.4 bytes per edge here, where hashing
    # every key at once took 27.8.
    g = graph._build(_sorted_keys(2048, 200_000, 5), np.arange(2048))
    assert g.m > graph._CHUNK and "edge_keys" not in vars(g)
    tracemalloc.start()
    try:
        has_edge_many(g, [0], [1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * g.m


def test_build_holds_no_wide_copy_of_the_edges():
    # Beside the keys, which the caller holds here, the build holds the
    # keys of both directions (16 bytes per edge), the narrow edge arrays
    # (8) and the neighbor lists (8): 32 bytes per edge. Taking the edge
    # arrays by a uint64 divmod, and the reversed keys into an array of
    # their own, took 40.
    key = _sorted_keys(1024, 2**18, 3)
    tracemalloc.start()
    try:
        g = graph._build(key, np.arange(1024))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 33 * g.m
    assert np.array_equal(edge_key(*g.edge_arrays, g.n), key)
    assert g.neighbors.dtype == g.edge_arrays[0].dtype == np.int32


def test_index_dtype_boundary():
    # The one rule for the build's ids, the dense ids and the remap's
    # table; no test can load a graph of 2**31 vertices or ids.
    assert graph._index_dtype(2**31 - 1) is np.int32
    assert graph._index_dtype(2**31) is np.int64


def test_edge_arrays_are_canonical_and_sorted():
    g = graph_from_edges(er_edges(25, 0.3, 21))
    eu, ev = g.edge_arrays
    assert eu.shape[0] == g.m
    assert (eu < ev).all()
    keys = eu.astype(np.int64) * g.n + ev.astype(np.int64)
    assert (np.diff(keys) > 0).all()


@pytest.mark.parametrize("which", ["er300", "scrambled_powerlaw10k"])
def test_loaded_edge_arrays_are_the_derived_ones(request, which):
    g = (request.getfixturevalue(which) if which == "er300"
         else graph_from_text(_powerlaw_text()))
    assert "edge_arrays" in vars(g)  # seeded by the loader
    assert isinstance(Graph.__dict__["edge_arrays"], functools.cached_property)
    seeded, derived = g.edge_arrays, Graph.edge_arrays.func(g)
    for a, b in zip(seeded, derived):
        assert a.dtype == b.dtype == g.neighbors.dtype
        assert np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable


def _assert_derives_the_loaders_edge_arrays(g):
    # A Graph built from its CSR fields, not by the loader, derives its
    # edge arrays: the loader's, in order, in dtype and read-only.
    built = Graph(n=g.n, m=g.m, offsets=g.offsets, neighbors=g.neighbors,
                  original_ids=g.original_ids)
    assert "edge_arrays" not in vars(built)
    for a, b in zip(g.edge_arrays, built.edge_arrays):
        assert b.dtype == a.dtype
        assert np.array_equal(a, b)
        assert not a.flags.writeable and not b.flags.writeable


def test_graph_built_from_csr_derives_the_edge_arrays(five_tri):
    _assert_derives_the_loaders_edge_arrays(five_tri)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(edges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
                      min_size=1, max_size=60))
def test_graph_built_from_csr_derives_the_edge_arrays_of_any_graph(edges):
    if clean_edges(edges):
        _assert_derives_the_loaders_edge_arrays(graph_from_edges(edges))


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


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lengths=st.lists(st.one_of(st.integers(0, 1), st.integers(2, 40)),
                        max_size=10),
       block=st.sampled_from([1, 7, graph._CHUNK]),
       chunk=st.sampled_from([1, 3, graph._CHUNK]))
@example(lengths=[], block=1, chunk=1)
@example(lengths=[0, 1, 0, 1], block=7, chunk=3)
def test_run_pairs_are_the_combinations_of_each_run(lengths, block, chunk):
    # The pair table is built ``graph._CHUNK`` positions at a time; chunks
    # of 1 and 3 split runs, and empty runs fall on chunk edges.
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    want = [pair for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())
            for pair in itertools.combinations(range(a, b), 2)]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(graph, "_CHUNK", chunk)
        bounds = _pair_table(offsets)
    total = int(bounds[-1])
    blocks = [_pair_block(bounds, t0, min(t0 + block, total))
              for t0 in range(0, total, block)]
    assert all(0 < a.size <= block and a.size == b.size for a, b in blocks)
    got = [(int(a), int(b)) for pa, pb in blocks for a, b in zip(pa, pb)]
    assert got == want


def test_pair_table_of_int32_offsets_counts_past_int32():
    # The oracle's out-edge offsets are int32 below 2**31 edges, but one
    # run of 70,000 positions makes C(70,000, 2) ~ 2.4e9 pairs: the
    # squares, the running sums and the table must not wrap in int32.
    offsets = np.array([0, 3, 70_003, 70_010], dtype=np.int32)
    bounds = graph._pair_table(offsets)
    assert bounds.dtype == np.int64
    assert int(bounds[-1]) == math.comb(3, 2) + math.comb(70_000, 2) + math.comb(7, 2)
    assert np.array_equal(bounds, graph._pair_table(offsets.astype(np.int64)))
    assert np.all(np.diff(bounds) >= 0)


def test_pair_block_searches_the_table_in_its_own_dtype():
    # Below 2**31 pairs the pair table is int32; a search key of another
    # dtype would make numpy cast the whole table on every block. Here
    # position q pairs with q+1 .. q+3.
    bounds = np.arange(0, 3 * 2**20 + 1, 3, dtype=graph._index_dtype(3 * 2**20))
    assert bounds.dtype == np.int32
    t = np.arange(3 * 2**19, 3 * 2**19 + 64)
    tracemalloc.start()
    try:
        a, b = graph._pair_block(bounds, int(t[0]), int(t[-1]) + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024  # the int64 copy of the table would take 8 MiB
    assert a.dtype == b.dtype == np.int64
    assert a.tolist() == (t // 3).tolist()
    assert b.tolist() == (t // 3 + 1 + t % 3).tolist()
