import functools
import io
import itertools
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tricount import (EmptyGraphError, GraphFormatError, compute_metrics,
                      has_edge_many, load_edge_list)
from tricount import exact, graph
from tricount.graph import (Graph, _parse_pairs, _parse_pairs_slow, _run_pairs,
                            edge_key, neighbor_rank)
from helpers import (complete_edges, er_edges, graph_from_edges, graph_from_text,
                     graph_text, hubs_and_path_edges, path_edges, powerlaw_edges,
                     star_edges)
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
    assert graph._remap(ids).tolist() == first
    assert ids.tolist() == dense
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
    original_ids = graph._remap(ids)
    assert original_ids.tolist() == first and original_ids.dtype == np.int64
    assert ids.tolist() == dense
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
    monkeypatch.setattr(graph, "_parse_pairs_slow", _no_line_scan)
    for block in range(1, len(data) + 2):
        monkeypatch.setattr(graph, "_PARSE_BLOCK", block)
        assert _parse_pairs(data).tolist() == want


@pytest.mark.parametrize("last, message", [
    (b"5 x\n", "line 22: vertex ids must be decimal digits only"),
    (b"5 6 7", "line 22: expected two integer tokens, got 3"),
    (b" ".join(b"%d" % i for i in range(258)), "line 22: expected two integer tokens, got 258"),
])
def test_parser_bad_line_in_the_last_block_reports_its_line(monkeypatch, last, message):
    # 258 ids on a line: 2 runs once the per-line count wraps at 256.
    monkeypatch.setattr(graph, "_PARSE_BLOCK", 8)
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
    monkeypatch.setattr(graph, "_PARSE_BLOCK", 4)  # a block per line here
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
    data = b"".join(lead + gap.join(tokens) + end for lead, tokens, gap, end in lines)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(graph, "_PARSE_BLOCK", block)
        got = _parsed_or_error(_parse_pairs, data)
    assert got == _parsed_or_error(_parse_pairs_slow, data)


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
    # K5 and a path: the queries whose home slot holds another key probe
    # on, which a 0-d result cannot record.
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


def test_degrees_are_cached_and_read_only():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    deg = g.degrees
    assert deg is g.degrees
    assert np.array_equal(deg, np.diff(g.offsets))
    assert not deg.flags.writeable
    with pytest.raises(ValueError):
        deg[0] = 7


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


def _home_slot_ref(key: int, size: int) -> int:
    """Home slot of ``key`` in an edge index of ``size`` home slots, from
    the documented formula in Python integers."""
    bits = size.bit_length() - 1
    return (key * 0x9E3779B97F4A7C15 % 2**64) >> (64 - bits)


# Internal ids of a path over 0..199 are its own ids (first appearance),
# so the keys of extra chords are known before loading; with 56 chords
# or fewer m stays in [128, 256), so the index has 2**10 home slots.
_PATH_N, _PATH_SLOTS = 200, 1 << 10
_PATH = [(i, i + 1) for i in range(_PATH_N - 1)]


def _chords_by_home(n: int, size: int) -> dict:
    """Every chord of the path over 0..n-1, listed by its home slot."""
    by_home = {}
    for u in range(n):
        for v in range(u + 2, n):
            by_home.setdefault(_home_slot_ref(u * n + v, size), []).append((u, v))
    return by_home


_CHORDS_BY_HOME = _chords_by_home(_PATH_N, _PATH_SLOTS)
# Chords homed at the last two home slots, then at the first.
_CHORD_POOL = (_CHORDS_BY_HOME[_PATH_SLOTS - 1] + _CHORDS_BY_HOME[_PATH_SLOTS - 2]
               + _CHORDS_BY_HOME[0])


def test_edge_index_last_chain_runs_into_the_tail():
    n, size = _PATH_N, _PATH_SLOTS
    last, first = _CHORDS_BY_HOME[size - 1], _CHORDS_BY_HOME[0]
    assert len(last) >= 6 and len(first) >= 4
    g = graph_from_edges(_PATH + last[:3] + first[:2])
    assert (g.n, g.m) == (n, n + 4)
    assert g.original_ids.tolist() == list(range(n))
    table = g.edge_index
    slot_of = {int(k): s for s, k in enumerate(table.tolist()) if k != 2**64 - 1}
    # Nothing wraps around: the three keys homed at the last slot fill it
    # and the two tail slots after it, and one empty slot ends the table.
    assert sorted(slot_of[u * n + v] for u, v in last[:3]) == [size - 1, size, size + 1]
    assert table.size == size + 3 and table[-1] == 2**64 - 1
    assert all(slot_of[u * n + v] < 8 for u, v in first[:2])
    # Absent keys whose home slot another key holds walk the same chain.
    absent = last[3:6] + first[2:4]
    assert all(table[_home_slot_ref(u * n + v, size)] != 2**64 - 1 for u, v in absent)
    eu, ev = g.edge_arrays
    au = np.array([u for u, _ in absent])
    av = np.array([v for _, v in absent])
    us = np.concatenate([eu, ev, au, av])
    vs = np.concatenate([ev, eu, av, au])
    want = [True] * (2 * g.m) + [False] * (2 * len(absent))
    assert has_edge_many(g, us, vs).tolist() == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(chosen=st.sets(st.integers(0, len(_CHORD_POOL) - 1), max_size=56),
       seed=st.integers(0, 2**32 - 1))
@example(chosen=set(range(len(_CHORDS_BY_HOME[_PATH_SLOTS - 1]))), seed=0)
def test_edge_index_is_ordered_and_agrees_with_a_set(chosen, seed):
    n, size = _PATH_N, _PATH_SLOTS
    chords = [_CHORD_POOL[i] for i in sorted(chosen)]
    g = graph_from_edges(_PATH + chords)
    table = g.edge_index
    assert table.size > size and table[-1] == 2**64 - 1
    slots = np.flatnonzero(table != 2**64 - 1).tolist()
    keys = table[slots].tolist()
    homes = [_home_slot_ref(k, size) for k in keys]
    assert homes == sorted(homes)  # homes never decrease along a chain
    hashes = [k * 0x9E3779B97F4A7C15 % 2**64 for k in keys]
    assert hashes == sorted(hashes)
    occupied = set(slots)
    assert all(occupied.issuperset(range(h, s)) for h, s in zip(homes, slots))
    present = set(_PATH) | set(chords)
    rng = np.random.default_rng(seed)
    pairs = (_PATH + _CHORD_POOL
             + list(zip(rng.integers(0, n, 200).tolist(), rng.integers(0, n, 200).tolist())))
    us = np.array([u for u, _ in pairs] + [v for _, v in pairs])
    vs = np.array([v for _, v in pairs] + [u for u, _ in pairs])
    want = [(min(u, v), max(u, v)) in present for u, v in zip(us.tolist(), vs.tolist())]
    assert has_edge_many(g, us, vs).tolist() == want


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(keys=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
@example(keys=[0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1])
def test_golden_inverse_round_trips_every_uint64(keys):
    assert int(graph._GOLDEN) * int(graph._GOLDEN_INVERSE) % 2**64 == 1
    key = np.array(keys, dtype=np.uint64)
    h = key * graph._GOLDEN
    assert h.tolist() == [k * 0x9E3779B97F4A7C15 % 2**64 for k in keys]
    assert (h * graph._GOLDEN_INVERSE).tolist() == keys


def test_has_edge_many_rejects_ids_outside_the_graph():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    # (-1, n - 1) has the key of an empty slot, which once probed on
    # forever; (0, n + 5) has the key of the pair (1, 5).
    for u, v in [(-1, g.n - 1), ([0], [g.n + 5]), (np.array([3, 2]), np.array([4, -2]))]:
        with pytest.raises(ValueError, match="vertex ids"):
            has_edge_many(g, u, v)


def test_has_edge_many_self_pairs_and_empty_queries(five_tri):
    v = np.arange(five_tri.n)
    assert not has_edge_many(five_tri, v, v).any()
    out = has_edge_many(five_tri, np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int32))
    assert out.dtype == bool and out.shape == (0,)


def test_edge_index_is_cached_and_read_only():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    table = g.edge_index
    assert table is g.edge_index
    assert table.dtype == np.uint64 and table.size > 1 << (g.m.bit_length() + 2)
    assert table[-1] == 2**64 - 1
    assert sorted(table[table != 2**64 - 1].tolist()) == \
        edge_key(*g.edge_arrays, g.n).tolist()
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 7


def test_loading_and_metrics_do_not_build_the_edge_index():
    g = graph_from_edges(er_edges(40, 0.2, 5))
    compute_metrics(g)
    assert "edge_index" not in vars(g)
    has_edge_many(g, [0], [1])
    assert "edge_index" in vars(g)


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
       block=st.sampled_from([1, 7, exact._WEDGE_BLOCK]))
@example(lengths=[], block=1)
@example(lengths=[0, 1, 0, 1], block=7)
def test_run_pairs_are_the_combinations_of_each_run(lengths, block):
    offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    want = [pair for a, b in zip(offsets[:-1].tolist(), offsets[1:].tolist())
            for pair in itertools.combinations(range(a, b), 2)]
    blocks = list(_run_pairs(offsets, block))
    assert all(0 < a.size <= block and a.size == b.size for a, b in blocks)
    got = [(int(a), int(b)) for pa, pb in blocks for a, b in zip(pa, pb)]
    assert got == want


def test_run_pairs_keeps_no_reference_to_a_yielded_block():
    pairs = _run_pairs(np.array([0, 5, 9], dtype=np.int64), 4)
    a, b = next(pairs)
    gone = weakref.ref(b)
    del a, b
    assert gone() is None
    assert next(pairs)[0].size == 4  # the generator was only suspended
