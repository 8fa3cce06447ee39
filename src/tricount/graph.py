"""Immutable undirected simple-graph representation with CSR adjacency.

Graphs are built from whitespace-separated edge lists (SNAP style:
``#``-prefixed comment lines, two integer tokens per line). Loading
drops self-loops, collapses parallel edges, symmetrizes direction, and
remaps the source ids densely to ``[0, n)`` in order of first
appearance, in a few passes: numpy's text parser reads the input in
blocks of whole lines, each checked byte by byte first, on a thread
pool of one thread per CPU of the affinity mask, at most four (one
thread under ``taskset -c 0``, and none for an input of one block),
each block into its own slot of the output (a line scan on the calling
thread reads each block that fails the check, and reports its errors);
the remap of dense ids, whose largest is below the number of ids read,
goes through a direct-address table of first positions, and that of
wider or sparser ids through one stable sort of the ids, each packed
with its position into one uint64 (a stable argsort instead when an id
and a position need more than 64 bits together, as ids of 2**43 and up
do at a million edges); one sort of the edge keys of both directions,
written into one array, gives the sorted neighbor lists, and the
canonical edge arrays come from the same pass. Dense ids, degrees,
neighbor lists and edge arrays are int32 below 2**31 vertices, and the
remap's table of positions below 2**31 ids read (one rule,
``_index_dtype``), so no stage of the build holds a 64-bit copy of
values that fit 32 bits: loading the million-edge power-law graph peaks
at 32.7 MiB of traced memory on one CPU, 34 bytes per edge, and 33.3 MiB
on two (the parse's ids take 16 bytes per edge, and each worker one
block's temporaries, ~0.3 MiB). Edge membership is one bit in each of two
bitmaps of the canonical edge keys' hashes (two one-hash Bloom filters
under independent multipliers, 1 MB each at a million edges, each built
a block of keys at a time; the second is tested only on the keys that
pass the first), and, for the keys whose bits are set in both, one
binary search of the ascending canonical edge keys; a graph builds both
on first use.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property, partial
from pathlib import Path
from typing import BinaryIO

import numpy as np


# Fibonacci hashing: a key's hash is key * multiplier mod 2**64, and its
# bit in a filter of the edge bitmap the top bits of the hash. One filter
# per multiplier: 2**64 over the golden ratio, and xxHash's second 64-bit
# prime (any odd multiplier with well-mixed bits serves).
_MULTIPLIERS = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xC2B2AE3D27D4EB4F))
# Most edges a graph may have. With n < 2**32 an edge's position and a
# vertex id pack into one uint64 (the exact oracle's packed sorts rely
# on it).
_MAX_EDGES = 2**32
# Elements per block of every pass that would otherwise hold a temporary
# the size of m, of the input or of a batch's sample, so that each holds
# a few MB at most:
# - the edge keys hashed at a time into a filter of the edge bitmap, and
#   the positions of a pair table filled at a time;
# - the bytes of a block of the parse, which runs on to the end of the
#   line this many bytes in. Each worker holds one block's temporaries,
#   ~5x its bytes (0.31 MiB traced at 64 KB). On two threads the
#   million-edge power-law graph parsed as fast in blocks of 64 KB to
#   1 MB, but 1 MB blocks raised powerlaw-estimate's peak RSS to 98 MB;
# - the edges ``exact`` orients, and the out-edge pairs it checks, per
#   task. A pair costs ~33 bytes of temporaries (tracemalloc, the peak
#   difference between blocks of 2**20 and 2**16 pairs on the
#   million-edge power-law graph, its edge bitmap built, on one thread:
#   50.5 against 18.0 MB), so a block holds ~2 MB and adds nothing to
#   the peak memory of loading a million-edge graph;
# - the uniform reals that ``estimators``' phase one draws at a time
#   (O(_CHUNK + pm) memory per draw rather than 8m bytes; PCG64 gives the
#   same stream whether the reals are drawn at once or in pieces);
# - the sampled entities (edges for ews and es, wedges for ws) a batch of
#   trials gathers before its graph work runs. The graph work holds
#   ~60-80 bytes of temporaries per entity, and the batch a ~0.9 KB
#   source per trial, at most 1,024 from a sweep row; its per-trial part
#   is one phase-two draw call, and its sorts (ws hinges, es ends) are
#   one per batch;
# - the wedge pairs es probes at a time, beside the batch's edge ends and
#   their trials (one es estimate on the million-edge power-law graph at
#   p = 0.03 traces 2.68 MiB, below the 2.86 MiB of ews at p = 0.07).
_CHUNK = 1 << 16


class GraphFormatError(ValueError):
    """A line of the edge-list input could not be parsed."""


class EmptyGraphError(ValueError):
    """No edges survived cleaning (self-loop removal, deduplication)."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in compressed adjacency form.

    Attributes:
        n: number of vertices (dense internal ids 0..n-1), below 2**32.
        m: number of undirected edges after cleaning, at most 2**32.
        offsets: per-vertex index into ``neighbors``, length n+1.
        neighbors: concatenated sorted neighbor lists, length 2m.
        original_ids: internal id -> id used in the source file.

    Instances are immutable after construction. The cached properties
    below are built on first use, since Python 3.12 without a lock, so
    concurrent readers should find the ones they read built, as
    ``count_triangles_exact`` builds them before its worker threads
    start; then a graph is safe to share among any number of concurrent
    readers.
    """

    n: int
    m: int
    offsets: np.ndarray
    neighbors: np.ndarray
    original_ids: np.ndarray

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex (length n) in the dtype of ``neighbors``,
        which holds any degree below n; computed once, read-only."""
        deg = np.diff(self.offsets).astype(self.neighbors.dtype, copy=False)
        deg.flags.writeable = False
        return deg

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical edge list as two aligned arrays (u < v), sorted by (u, v),
        in the dtype of ``neighbors``; read-only.

        This is the iteration order used by edge sampling, so results
        are reproducible for a fixed seed. The loader seeds it; a graph
        built otherwise derives it from the CSR on first use.
        """
        src = np.repeat(np.arange(self.n, dtype=self.neighbors.dtype), self.degrees)
        keep = src < self.neighbors
        eu, ev = src[keep], self.neighbors[keep]
        eu.flags.writeable = ev.flags.writeable = False
        return eu, ev

    @cached_property
    def wedge_prefix(self) -> np.ndarray:
        """Cumulative wedge counts (int64, length n): entry v is the number
        of wedges hinged at vertices 0..v, d(d - 1)/2 each, taken in uint64
        so no d < 2**32 wraps. Computed once; read-only."""
        d = self.degrees.astype(np.uint64)
        d *= d - 1
        d //= 2
        d = d.view(np.int64)
        np.cumsum(d, out=d)
        d.flags.writeable = False
        return d

    @cached_property
    def edge_keys(self) -> np.ndarray:
        """The canonical edge keys ``edge_key(u, v, n)`` of ``edge_arrays``,
        ascending, as those are sorted by (u, v): 8 bytes per edge. Built
        on first use; read-only."""
        key = edge_key(*self.edge_arrays, self.n)
        key.flags.writeable = False
        return key

    @cached_property
    def edge_bitmap(self) -> np.ndarray:
        """Two one-hash Bloom filters of ``edge_keys``, the rows of a uint8
        array of shape ``(2, ceil(size / 8))``: ``size = _bitmap_bits(m)``
        bits each, 8 to 16 per edge, in little bit order. In row i each
        key sets the bit at the top bits of its hash
        ``key * _MULTIPLIERS[i]``, so a pair whose bit is clear in either
        row is no edge. Built on first use, one row after the other, and
        each row from ``_CHUNK`` keys' hashes at a time, so the build
        holds one row's bool array (8 to 16 bytes per edge) and one
        block's hashes; read-only.

        On the million-edge power-law graph 11% of the non-edge keys that
        the estimators' closure probes and the exact oracle look up pass
        one filter, and 1.2% pass both.
        """
        size = _bitmap_bits(self.m)
        key = self.edge_keys
        rows = []
        for mult in _MULTIPLIERS:
            bits = np.zeros(size, dtype=bool)
            for start in range(0, self.m, _CHUNK):
                bits[_home_of_hash(key[start:start + _CHUNK] * mult, size)] = True
            rows.append(np.packbits(bits, bitorder="little"))
            del bits
        bitmap = np.stack(rows)
        bitmap.flags.writeable = False
        return bitmap


def _bitmap_bits(m: int) -> int:
    """Bits of each filter of the edge bitmap of a graph of ``m`` edges:
    8 to 16 per edge, a power of two."""
    return 1 << (m.bit_length() + 3)


def _home_of_hash(h: np.ndarray, size: int) -> np.ndarray:
    """Bit (int64) of each hash ``key * multiplier`` among ``size`` bits,
    a power of two: the hash's top bits, written over ``h``."""
    return np.right_shift(h, np.uint64(65 - size.bit_length()), out=h).view(np.int64)


def _bit_is_set(bitmap: np.ndarray, h: np.ndarray, size: int) -> np.ndarray:
    """Whether the bit of each hash ``h`` is set in the one-hash filter
    ``bitmap`` of ``size`` bits (bool); ``h`` is overwritten."""
    pos = _home_of_hash(h, size)
    shift = pos.astype(np.uint8)  # the low byte; its low 3 bits pick the bit
    shift &= np.uint8(7)
    pos >>= 3
    byte = bitmap.take(pos)
    byte >>= shift
    byte &= np.uint8(1)
    return byte.view(bool)


def _may_be_edges(g: Graph, key: np.ndarray) -> np.ndarray:
    """Positions (int64, ascending) of the edge keys ``key`` whose bits are
    set in both filters of ``g.edge_bitmap``; the second filter tests
    only the keys that pass the first. A key not among them is no edge
    of ``g``."""
    size = _bitmap_bits(g.m)
    first, second = g.edge_bitmap
    where = np.flatnonzero(_bit_is_set(first, key * _MULTIPLIERS[0], size))
    return where[_bit_is_set(second, key.take(where) * _MULTIPLIERS[1], size)]


def _orient(g: Graph, u: np.ndarray, v: np.ndarray):
    """For canonical pairs ``u < v`` in the dtype of ``neighbors``: the
    endpoint first in (degree, id) order (u iff d(u) <= d(v)), the other
    endpoint (``u ^ v ^ first``), and the smaller degree, all in that
    dtype. The degrees gathered are that narrow too, 4 bytes per pair
    below 2**31 vertices."""
    deg = g.degrees
    du, dv = deg.take(u), deg.take(v)
    first = np.where(du <= dv, u, v)
    np.minimum(du, dv, out=du)
    del dv
    other = u ^ v
    other ^= first
    return first, other, du


def _find_edges(g: Graph, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which of the pair keys ``key`` are edges of ``g``: their indices
    into ``key``, and the edges' positions in ``edge_arrays`` (int64
    both, in ascending order of key).

    A key whose bit is clear in either filter of ``g.edge_bitmap`` is
    no edge. The rest are sorted by ``_stable_order`` and found by one
    ``np.searchsorted`` over ``g.edge_keys``; the order buys the search
    locality.
    """
    where = _may_be_edges(g, key)
    key = key.take(where)
    order = _stable_order(key, (g.n * g.n - 1).bit_length())
    key = key.take(order)
    pos = np.searchsorted(g.edge_keys, key)
    np.minimum(pos, g.m - 1, out=pos)
    hit = g.edge_keys.take(pos) == key
    return where.take(order[hit]), pos[hit]


def has_edge_many(g: Graph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each pair ``(u[i], v[i])`` of aligned vertex arrays is an edge.

    Tests each pair's canonical key in the two filters of
    ``g.edge_bitmap`` first: a pair whose bit is clear in either is no
    edge. Only the rest are sorted and looked up by one binary search of
    ``g.edge_keys``. In three powerlaw-estimate rounds on the
    million-edge power-law graph 11.7% of the closure probes pass the
    first filter (111,486 of 955,468, of which 5,289 are edges) and 1.8%
    pass both (17,109). Pairs ``u == v`` are never edges. The answer has
    the queries' shape; scalars are queries of one pair, shape ``(1,)``.

    Raises:
        ValueError: arrays of different shapes, a vertex id outside
            ``[0, n)``, or ids of a dtype other than integer (float or
            bool ids would be truncated).
    """
    u = np.atleast_1d(u)
    v = np.atleast_1d(v)
    if u.shape != v.shape:
        raise ValueError(f"vertex arrays must have the same shape, got {u.shape} and {v.shape}")
    if u.size == 0:
        return np.zeros(u.shape, dtype=bool)
    if u.dtype.kind not in "iu" or v.dtype.kind not in "iu":
        raise ValueError(f"vertex ids must be integers, got {u.dtype} and {v.dtype}")
    shape = u.shape
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    del u, v
    if lo.min() < 0 or hi.max() >= g.n:
        raise ValueError(f"vertex ids must be in [0, {g.n})")
    want = edge_key(lo, hi, g.n).reshape(-1)
    del lo, hi
    found = np.zeros(want.size, dtype=bool)
    found[_find_edges(g, want)[0]] = True
    return found.reshape(shape)


def neighbor_rank(g: Graph, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Position of ``w`` within the sorted neighbor list of ``v``.

    Every (v, w) pair must be an edge; positions are 0-based. Nothing in
    the package calls it: it stays because ``tribench/tracer.py`` binds
    it by name.
    """
    v = np.asarray(v)
    src = np.repeat(np.arange(g.n), g.degrees)
    pos = np.searchsorted(edge_key(src, g.neighbors, g.n),
                          edge_key(v, np.asarray(w), g.n))
    pos -= g.offsets[v]
    return pos


# Most threads that run the tasks of a _Tasks pool at once: the parse's
# blocks, and the exact oracle's chunks and pair blocks. numpy releases
# the GIL in the parse's np.fromstring and in the takes, sorts and
# searches of the oracle's blocks, but not in the rest: at 2 workers the
# oracle's block loop ran 1.6-1.8x faster than on one thread (70 against
# 119 ms on the million-edge power-law graph, 2 CPUs), so a sixth to a
# quarter of a block holds the GIL, which bounds the speed-up near
# 2.3-2.6x at 4 workers, while each worker holds one task's temporaries.
_MAX_WORKERS = 4


def _worker_count(tasks: int) -> int:
    """Threads for ``tasks`` independent tasks: the CPUs this process may
    run on, at most ``_MAX_WORKERS`` and one per task; at least 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, _MAX_WORKERS, tasks))


class _Tasks:
    """Runs the independent tasks of one stage: the blocks of
    ``load_edge_list``'s parse, or the orientation chunks or pair blocks
    of ``exact.count_triangles_exact``. ``map`` runs them on the calling
    thread when ``_worker_count`` gives one worker (one task, or one CPU
    in the affinity mask, as under ``taskset -c 0``), else on a thread
    pool of ``_worker_count(_MAX_WORKERS)`` threads, created by the first
    such stage and shared by the later ones. The pool is joined when the
    ``with`` block ends; if it ends on an exception, the tasks not yet
    started are cancelled first."""

    def __init__(self):
        self._pool = None

    def map(self, fn, tasks):
        if _worker_count(len(tasks)) == 1:
            return map(fn, tasks)
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(_worker_count(_MAX_WORKERS))
        return self._pool.map(fn, tasks)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, *exc):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=exc_type is not None)


def load_edge_list(source: str | Path | BinaryIO) -> Graph:
    """Parse an edge-list byte stream into a :class:`Graph`.

    Lines beginning with ``#`` are comments; blank lines are ignored;
    every other line must hold exactly two ids, each a run of ASCII digits.
    Self-loops are dropped, parallel/reverse duplicates collapse to one
    undirected edge, and source ids are remapped densely to ``[0, n)``
    in order of first appearance. The graph may have fewer than 2**32
    vertices and at most 2**32 edges.

    Raises:
        GraphFormatError: malformed line (with its 1-based line number),
            or a graph over the vertex or edge limit.
        EmptyGraphError: no edges survive cleaning.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read()
        if isinstance(data, str):  # tolerate text-mode file objects
            data = data.encode()
    ids = _parse_pairs(data).reshape(-1)  # u0, v0, u1, v1, ...
    del data
    if ids.size == 0:
        raise EmptyGraphError("edge list contains no edges")
    dense, original_ids = _remap(ids)
    del ids
    if original_ids.shape[0] >= 2**32:
        raise GraphFormatError("more than 2**32 distinct vertex ids")
    keys = [_canonical_keys(dense, original_ids.shape[0])]
    del dense
    if keys[0].shape[0] > _MAX_EDGES:
        raise GraphFormatError(f"more than {_MAX_EDGES} distinct edges")
    # Popped into the call, so that _build holds the keys' only reference
    # and frees them once copied (CPython moves a call's arguments into
    # the callee's frame from 3.11 on).
    return _build(keys.pop(), original_ids)


def _parse_pairs(data: bytes) -> np.ndarray:
    # Fast path: numpy's text parser, one block of whole lines at a time,
    # into one array sized for two ids per line. A block that fails the
    # checks of _checked_block, or whose values do not match its digit
    # runs one to one and stay below 10**18 (numpy's parser saturates at
    # 2**63 - 1), is read by the line scan instead: the only path that
    # reports errors, and the only one that reads ids of 10**18 and up.
    # Ids of 2**63 and up turn the output uint64.
    #
    # The calling thread cuts the blocks, counts their lines and gives
    # each a slot of two ids per line in ``out``; the blocks are checked
    # and parsed into their slots as tasks of a _Tasks pool. The calling
    # thread takes their counts in block order, moves each slot down to
    # the ids before it and runs the line scan itself, so every id, line
    # number and error is the same on any number of threads.
    blocks = []  # (start, end, first line, slot)
    start, line, slot = 0, 1, 0
    text = np.frombuffer(data, dtype=np.uint8)
    while start < len(data):
        end = data.find(b"\n", start + _CHUNK - 1)
        end = len(data) if end == -1 else end + 1
        # A block-sized bool array: 4x faster than data.count(b"\n", ...).
        newlines = int(np.count_nonzero(text[start:end] == ord("\n")))
        blocks.append((start, end, line, slot))
        line += newlines
        slot += 2 * (newlines + (not data.endswith(b"\n", start, end)))
        start = end
    out = np.empty(slot, dtype=np.int64)
    size = 0
    with _Tasks() as tasks:
        parsed = tasks.map(partial(_parse_block, data, out), blocks)
        for (start, end, line, slot), count in zip(blocks, parsed):
            if count is None:
                values = _parse_pairs_slow(data[start:end], line).reshape(-1)
                if values.dtype == np.uint64:
                    out = out.view(np.uint64)  # the ids so far are below 2**63
                out[size:size + values.size] = values
                count = values.size
            elif slot != size:
                out[size:size + count] = out[slot:slot + count]
            size += count
    return out[:size].reshape(-1, 2)


def _parse_block(data: bytes, out: np.ndarray,
                 block: tuple[int, int, int, int]) -> int | None:
    """Parse the block ``data[start:end]`` of ``block = (start, end, line,
    slot)`` into ``out[slot:]`` by numpy's text parser, and return the
    count of ids written; None, writing nothing, if the line scan must
    read it. Writes only the block's own slot, so blocks may run on
    several threads at once."""
    start, end, _, slot = block
    checked = _checked_block(data[start:end])
    if checked is None:
        return None
    if checked[1] == 0:
        return 0  # np.fromstring reads a blank block as [0]
    values = np.fromstring(checked[0], dtype=np.int64, sep=" ")
    if values.size != checked[1] or values.max() >= 10**18:
        return None
    out[slot:slot + values.size] = values
    return values.size


def _checked_block(block: bytes) -> tuple[bytes, int] | None:
    """A block of whole lines with its comment lines blanked, and its
    count of digit runs; None if the line scan must read it.

    A comment line is one whose first byte is ``#``, and it is not
    checked. Every other byte must be an ASCII digit or ASCII whitespace,
    and every line must hold 0 or 2 runs of digits. Those are the lines
    the line scan accepts, but for ids of 2**64 and up, which the caller
    catches by value.
    """
    a = np.frombuffer(block, dtype=np.uint8)
    starts = np.flatnonzero(a[:-1] == ord("\n"))
    starts = np.concatenate(([0], starts + 1))  # line starts
    if b"#" in block:
        comment = a[starts] == ord("#")
        if comment.any():
            # Newlines too: the line starts are already taken.
            a = a.copy()
            a[np.repeat(comment, np.diff(starts, append=a.size))] = ord(" ")
            block = a.tobytes()
    if block.translate(None, b"0123456789 \t\n\v\f\r"):
        return None  # a byte other than an ASCII digit or ASCII whitespace
    digit = a - np.uint8(ord("0")) < 10
    runs = np.empty_like(digit)  # the first digit of each run
    runs[:1] = digit[:1]
    np.greater(digit[1:], digit[:-1], out=runs[1:])
    # One byte per count, as a wider dtype would copy ``runs`` into it
    # first. Counts wrap at 256 runs in a line; the total then falls short
    # of the values np.fromstring reads, and the line scan takes over.
    per_line = np.add.reduceat(runs.view(np.uint8), starts, dtype=np.uint8)
    if ((per_line | 2) != 2).any():  # a line with other than 0 or 2 runs
        return None
    return block, int(per_line.sum())


def _parse_pairs_slow(data: bytes, first_line: int = 1) -> np.ndarray:
    """The line scan: every id pair of ``data``, int64, or uint64 if an id
    is 2**63 or above. Errors name lines from ``first_line`` on."""
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(data.split(b"\n"), start=first_line):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(b"#") and raw.lstrip() == raw:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise GraphFormatError(
                f"line {lineno}: expected two integer tokens, got {len(tokens)}")
        if not (tokens[0].isdigit() and tokens[1].isdigit()):
            raise GraphFormatError(
                f"line {lineno}: vertex ids must be decimal digits only, got "
                f"{line.decode(errors='replace')!r}")
        # int() refuses more than 4,300 digits, leading zeros included.
        sig = [t.lstrip(b"0") or b"0" for t in tokens]
        u, v = (int(t) if len(t) <= 20 else 2**64 for t in sig)
        if u >= 2**64 or v >= 2**64:
            raise GraphFormatError(f"line {lineno}: vertex id exceeds 64 bits")
        us.append(u)
        vs.append(v)
    big = max(us, default=0) > np.iinfo(np.int64).max or \
        max(vs, default=0) > np.iinfo(np.int64).max
    dtype = np.uint64 if big else np.int64
    return np.array([us, vs], dtype=dtype).T.reshape(-1, 2)


def edge_key(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """One uint64 key per vertex pair, ordered like the pairs ``(u, v)``.

    Requires ``0 <= u, v < n <= 2**32``, so ``u * n + v < 2**64``; the
    pair is recovered as ``np.divmod(key, np.uint64(n))``.
    """
    key = u.astype(np.uint64)
    key *= np.uint64(n)
    # Ids are non-negative, so the cast loses nothing and spares a copy.
    np.add(key, v, out=key, dtype=np.uint64, casting="unsafe")
    return key


def _sorted_unique_mask(x: np.ndarray) -> np.ndarray:
    """True at the first element of each run of equal values of sorted ``x``."""
    mask = np.empty(x.shape[0], dtype=bool)
    mask[:1] = True
    np.not_equal(x[1:], x[:-1], out=mask[1:])
    return mask


# Bits in the word a packed sort sorts: a key above a position.
_WORD_BITS = 64


def _stable_order(key: np.ndarray, key_bits: int) -> np.ndarray:
    """The positions (int64) of ``key``, integers below ``2**key_bits``,
    stably sorted by the whole key.

    When a key and a position fit in 64 bits together, one ``np.sort``
    of ``key << w | position``, w the bit width of the largest position,
    then the positions masked back out. They always fit for vertex ids
    (n < 2**32, m <= 2**32), for a block's edge keys while n <= 2**24,
    and for ws's wedge positions while the wedge total times a batch's
    draws is below 2**64. Otherwise (at 2**21 keys, keys of 2**43 and
    up) a stable ``np.argsort``.
    """
    width = (key.size - 1).bit_length()
    if key_bits + width > _WORD_BITS:
        return np.argsort(key, kind="stable")
    packed = key.astype(np.uint64)
    packed <<= np.uint64(width)
    packed |= np.arange(key.size, dtype=np.uint64)
    packed.sort()
    packed &= np.uint64((1 << width) - 1)
    return packed.view(np.int64)


def _pair_table(offsets: np.ndarray) -> np.ndarray:
    """Position q of the runs ``offsets`` (run r holds the positions
    ``offsets[r] .. offsets[r+1]-1``, with ``offsets[0] == 0``) pairs
    with the later positions of its run: pairs ``bounds[q] ..
    bounds[q+1]-1`` in the numbering of all pairs. ``bounds`` is in
    ``_index_dtype`` of the pair total (4 bytes per position below 2**31
    pairs), filled in ``_CHUNK`` positions at a time. ``offsets`` may be
    int32 or int64; the pair counts are summed in int64 and in the
    table's dtype."""
    size = np.diff(offsets).astype(np.int64, copy=False)
    total = (int(np.dot(size, size)) - int(offsets[-1])) // 2  # sum of C(size, 2)
    del size
    bounds = np.zeros(int(offsets[-1]) + 1, dtype=_index_dtype(total))
    for p0 in range(0, bounds.size - 1, _CHUNK):
        p1 = min(p0 + _CHUNK, bounds.size - 1)
        r0, r1, span = _spans(offsets, p0, p1)
        fan = np.repeat(offsets[r0 + 1:r1 + 1].astype(bounds.dtype, copy=False), span)
        del span
        fan -= np.arange(p0 + 1, p1 + 1)
        np.cumsum(fan, out=fan)
        fan += bounds[p0]
        bounds[p0 + 1:p1 + 1] = fan
    return bounds


def _spans(starts: np.ndarray, lo: int, hi: int) -> tuple[int, int, np.ndarray]:
    """The ranges ``j0 .. j1-1`` of the ascending ``starts``, range j
    being ``starts[j] .. starts[j+1]-1``, that meet ``lo .. hi-1``, and
    how many of ``lo .. hi-1`` each holds (in the dtype of ``starts``).
    The bounds are searched in that dtype, so no search casts ``starts``."""
    lo_key, hi_key = starts.dtype.type(lo), starts.dtype.type(hi)
    j0 = int(np.searchsorted(starts, lo_key, side="right")) - 1
    j1 = int(np.searchsorted(starts, hi_key, side="left"))
    return j0, j1, np.diff(np.clip(starts[j0:j1 + 1], lo_key, hi_key))


def _pair_block(bounds: np.ndarray, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``t0 .. t1-1`` of the pair table ``bounds`` of runs, as
    int64 arrays ``(a, b)``: the pairs of positions ``a < b`` in the
    same run, in (a, b) order."""
    j0, j1, fan = _spans(bounds, t0, t1)
    a = np.repeat(np.arange(j0, j1), fan)
    b = np.repeat(np.arange(j0 + 1, j1 + 1) - bounds[j0:j1], fan)
    del fan
    b += np.arange(t0, t1)
    return a, b


def _index_dtype(top: int) -> type:
    """The dtype of vertex ids or positions up to ``top``: int32 when it
    holds ``top``, as below 2**31, else int64."""
    return np.int32 if top <= np.iinfo(np.int32).max else np.int64


def _remap(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense ids in ``[0, n)`` for the 1-D ``ids``, numbered in order of
    first appearance, in ``_index_dtype(n)``, and the source id of each,
    in the dtype of ``ids``.

    Dense ids, whose largest is below ``ids.size`` (SNAP's, for one),
    take a direct-address table of ``max id + 1`` entries in
    ``_index_dtype(ids.size)``, so no table outgrows ``ids``:
    ``np.minimum.at`` writes each id's first position into it, the n
    distinct first positions sorted give the appearance order, and the
    table, overwritten with each present id's dense id, maps ``ids`` by
    one gather. ``np.minimum.at`` is exact on every supported numpy, but
    fast only from numpy 1.25 on.

    Wider or sparser ids are sorted once by ``_stable_order``: one
    packed ``np.sort`` of each id above its position, or a stable
    argsort when an id and a position need more than 64 bits together
    (at 2**21 ids, ids of 2**43 and up). The sort is stable, so each run
    of equal ids starts at that id's first position; the n first
    positions are put in appearance order by the same helper.

    Both paths give the same dense ids and the same ``original_ids``.
    """
    top = int(ids.max()) + 1
    if top <= ids.size:
        position = _index_dtype(ids.size)
        table = np.full(top, ids.size, dtype=position)
        np.minimum.at(table, ids, np.arange(ids.size, dtype=position))
        first = table[table < ids.size]
        first.sort()
        original_ids = ids.take(first)
        del first
        n = original_ids.shape[0]
        table[original_ids] = np.arange(n, dtype=position)
        # The table's dtype already holds n below 2**31 ids: no copy.
        dense = table.take(ids).astype(_index_dtype(n), copy=False)
        return dense, original_ids
    order = _stable_order(ids, (top - 1).bit_length())
    sorted_ids = ids.take(order)
    starts = np.flatnonzero(_sorted_unique_mask(sorted_ids))
    appearance = _stable_order(order.take(starts), (ids.size - 1).bit_length())
    original_ids = sorted_ids.take(starts.take(appearance))
    del sorted_ids
    n = int(original_ids.shape[0])
    rank = np.empty(n, dtype=_index_dtype(n))
    rank[appearance] = np.arange(n)
    del appearance
    dense = np.empty(ids.size, dtype=rank.dtype)
    dense[order] = np.repeat(rank, np.diff(starts, append=ids.size))
    return dense, original_ids


def _canonical_keys(ids: np.ndarray, n: int) -> np.ndarray:
    """Sorted distinct ``edge_key(u, v, n)``, u < v, of the dense id pairs
    ``ids[0::2], ids[1::2]``, self-loops dropped."""
    u, v = ids[0::2], ids[1::2]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    keep = lo != hi
    key = edge_key(lo, hi, n)
    del lo, hi
    key = key[keep]
    if key.size == 0:
        raise EmptyGraphError("no edges survive self-loop removal")
    key.sort()
    return key[_sorted_unique_mask(key)]


def _build(key: np.ndarray, original_ids: np.ndarray) -> Graph:
    """CSR graph of the sorted canonical edge keys.

    The keys of both edge directions, ``src * n + dst``, sorted together
    sort by (src, dst); modulo n they are the neighbor lists. The
    canonical keys are copied into the first half of that array, and
    each reversed key is written into its second half from the narrow
    ``edge_arrays``; a caller that passes its only reference to ``key``
    has it freed once copied.
    """
    n = int(original_ids.shape[0])
    m = int(key.shape[0])
    idx_dtype = _index_dtype(n)
    both = np.empty(2 * m, dtype=np.uint64)
    head, tail = both[:m], both[m:]
    head[:] = key
    del key
    np.floor_divide(head, np.uint64(n), out=tail)
    eu = tail.astype(idx_dtype)
    # key - eu * n: a second uint64 division would cost more than twice.
    np.multiply(tail, np.uint64(n), out=tail)
    np.subtract(head, tail, out=tail)
    ev = tail.astype(idx_dtype)
    # ev * n + eu: the reversed keys, over the ev they were taken from.
    np.multiply(tail, np.uint64(n), out=tail)
    np.add(tail, eu, out=tail, dtype=np.uint64, casting="unsafe")
    del head, tail  # views: they would keep ``both`` past its del below
    both.sort()
    np.remainder(both, np.uint64(n), out=both)
    neighbors = both.astype(idx_dtype)
    del both
    degrees = np.bincount(eu, minlength=n)
    degrees += np.bincount(ev, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])

    for arr in (offsets, neighbors, original_ids, eu, ev):
        arr.flags.writeable = False
    g = Graph(n=n, m=m, offsets=offsets, neighbors=neighbors,
              original_ids=original_ids)
    # The keys' pairs are the canonical edge list, in its order.
    g.__dict__["edge_arrays"] = eu, ev
    return g
