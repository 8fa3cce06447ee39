"""Immutable undirected simple-graph representation with CSR adjacency.

Graphs are built from whitespace-separated edge lists (SNAP style:
``#``-prefixed comment lines, two integer tokens per line). Loading
drops self-loops, collapses parallel edges, symmetrizes direction, and
remaps the source ids densely to ``[0, n)`` in order of first
appearance. Neighbor lists are stored sorted. Edge membership is one
lookup in a hash set of the canonical edge keys, which a graph builds
on its first membership query.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO

import numpy as np


# Empty slot of an edge index. No edge key can take this value, since
# keys are below n**2 and the loader requires n < 2**32.
_EMPTY = np.uint64(2**64 - 1)
# Fibonacci hashing: a key's home slot is the top bits of key * _GOLDEN.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


class GraphFormatError(ValueError):
    """A line of the edge-list input could not be parsed."""


class EmptyGraphError(ValueError):
    """No edges survived cleaning (self-loop removal, deduplication)."""


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph in compressed adjacency form.

    Attributes:
        n: number of vertices (dense internal ids 0..n-1).
        m: number of undirected edges after cleaning.
        offsets: per-vertex index into ``neighbors``, length n+1.
        neighbors: concatenated sorted neighbor lists, length 2m.
        original_ids: internal id -> id used in the source file.

    Instances are immutable after construction and safe to share among
    any number of concurrent readers.
    """

    n: int
    m: int
    offsets: np.ndarray
    neighbors: np.ndarray
    original_ids: np.ndarray

    def degree(self, u: int) -> int:
        return int(self.offsets[u + 1] - self.offsets[u])

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex (length n), computed once; read-only."""
        deg = np.diff(self.offsets)
        deg.flags.writeable = False
        return deg

    def neighbors_of(self, v: int) -> np.ndarray:
        """Sorted neighbor list of ``v`` (read-only view)."""
        return self.neighbors[self.offsets[v]:self.offsets[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Edge membership via binary search in the shorter neighbor list."""
        if self.degree(u) > self.degree(v):
            u, v = v, u
        lst = self.neighbors_of(u)
        i = int(np.searchsorted(lst, v))
        return i < lst.shape[0] and int(lst[i]) == v

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Canonical edge list as two aligned arrays (u < v), sorted by (u, v).

        This is the iteration order used by edge sampling, so results
        are reproducible for a fixed seed.
        """
        src = np.repeat(np.arange(self.n, dtype=self.neighbors.dtype), self.degrees)
        keep = src < self.neighbors
        return src[keep], self.neighbors[keep]

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Hash set of the canonical edge keys ``edge_key(u, v, n)``, u < v.

        Open addressing with linear probing that wraps at the end, in a
        uint64 table of ``2**(m.bit_length() + 2)`` slots (load factor
        at most 1/4); empty slots hold ``2**64 - 1``. Built on first
        use, in vectorized rounds: each round, one writer wins each
        empty slot and the keys not placed move one slot on. Read-only.
        """
        table = np.full(1 << (self.m.bit_length() + 2), _EMPTY, dtype=np.uint64)
        key = edge_key(*self.edge_arrays, self.n)
        slot = _home_slot(key, table.size)
        while key.size:
            free = table[slot] == _EMPTY
            table[slot[free]] = key[free]
            left = table[slot] != key
            key, slot = key[left], slot[left]
            slot += 1
            slot &= table.size - 1
        table.flags.writeable = False
        return table


def _home_slot(key: np.ndarray, size: int) -> np.ndarray:
    """Home slot (int64) of each key in an edge index of ``size`` slots,
    a power of two."""
    slot = key * _GOLDEN
    slot >>= np.uint64(65 - size.bit_length())
    return slot.view(np.int64)


def has_edge_many(g: Graph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Vectorized ``has_edge`` over aligned vertex arrays.

    Looks each pair's canonical key up in ``g.edge_index``: all queries
    probe their home slot at once, then the ones still open probe the
    next slot, and so on; a query stops at a hit or at an empty slot.
    At load factor 1/4 about four in five stop at the home slot. Pairs
    ``u == v`` are never edges.
    """
    u = np.asarray(u)
    v = np.asarray(v)
    if u.size == 0:
        return np.zeros(0, dtype=bool)
    table = g.edge_index
    key = edge_key(np.minimum(u, v), np.maximum(u, v), g.n)
    del u, v
    home = _home_slot(key, table.size)
    held = table.take(home)
    found = held == key
    open_ = held != _EMPTY
    open_ ^= found  # hits hold a key: left are the slots holding another
    where = np.flatnonzero(open_)  # the queries still open
    step = 0
    while where.size:
        step += 1
        slot = home.take(where)
        slot += step
        slot &= table.size - 1
        held = table.take(slot)
        hit = held == key.take(where)
        found[where[hit]] = True
        open_ = held != _EMPTY
        open_ ^= hit
        where = where[open_]
    return found


def neighbor_rank(g: Graph, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Position of ``w`` within the sorted neighbor list of ``v``.

    Every (v, w) pair must be an edge; positions are 0-based.
    """
    v = np.asarray(v)
    w = np.asarray(w)
    start = g.offsets[v]
    pos = _lower_bound(g.neighbors, start.copy(), g.offsets[v + 1], w)
    pos -= start
    return pos


def _lower_bound(nbr: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 x: np.ndarray) -> np.ndarray:
    """Per query, the first position in the sorted run ``nbr[lo:hi]``
    holding a value not below ``x``, or ``hi`` if there is none.

    ``lo`` and ``hi`` (int64) are scratch: both are overwritten, and the
    positions are returned in ``lo``'s array. A branchless binary search
    over all queries at once: each round halves every open range. Once
    at most half of the queries in the working arrays are open, the open
    ones are gathered into smaller arrays, with their original
    positions, so a query costs work only in the rounds it still needs;
    the working positions are scattered back at each later compaction
    and at the end.
    """
    pos = lo
    where = None  # positions in ``pos`` of the working arrays; None: all
    while True:
        open_ = lo < hi
        count = np.count_nonzero(open_)
        if count == 0:
            break
        if 2 * count <= open_.size:
            keep = np.flatnonzero(open_)
            if where is None:
                where = keep
            else:
                pos[where] = lo
                where = where[keep]
            lo, hi, x = lo[keep], hi[keep], x[keep]
            continue
        mid = lo + hi
        mid >>= 1
        less = nbr.take(mid, mode="clip") < x
        less &= open_  # queries closed since the last compaction stay put
        np.copyto(hi, mid, where=~less)
        mid += 1
        np.copyto(lo, mid, where=less)
    if where is not None:
        pos[where] = lo
    return pos


def load_edge_list(source: str | Path | BinaryIO) -> Graph:
    """Parse an edge-list byte stream into a :class:`Graph`.

    Lines beginning with ``#`` are comments; blank lines are ignored;
    every other line must hold exactly two ids, each a run of ASCII digits.
    Self-loops are dropped, parallel/reverse duplicates collapse to one
    undirected edge, and source ids are remapped densely to ``[0, n)``
    in order of first appearance.

    Raises:
        GraphFormatError: malformed line (with its 1-based line number).
        EmptyGraphError: no edges survive cleaning.
    """
    if isinstance(source, (str, Path)):
        data = Path(source).read_bytes()
    else:
        data = source.read()
        if isinstance(data, str):  # tolerate text-mode file objects
            data = data.encode()
    pairs = _parse_pairs(data)
    return _build(pairs)


def _parse_pairs(data: bytes) -> np.ndarray:
    # Fast path: numpy's C parser. Falls back to a line-by-line scan to
    # produce an error message with the offending line number, and to
    # reject inline '#' (only whole-line comments are allowed). Ids are
    # ASCII digits split at ASCII whitespace; numpy's parser also splits
    # at \x1c-\x1f and at non-ASCII spaces, and reads +7 and -0 as ids
    # (it rejects 1_000 today; '_' is guarded in case a version does
    # not). So input that is not ASCII, or that holds one of those bytes
    # or a '-' outside comment lines, takes the line scan too.
    strict = (data.isascii()
              and all(pos == 0 or data[pos - 1:pos] == b"\n"
                      for pos in _hash_positions(data))
              and not any(_outside_comments(data, b) for b in b"\x1c\x1d\x1e\x1f_+-"))
    if strict:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # empty input warns; slow path decides
                arr = np.loadtxt(io.BytesIO(data), dtype=np.int64,
                                 comments="#", ndmin=2)
        except ValueError:
            arr = None
        if arr is not None and arr.shape[1] == 2 and (arr.size == 0 or arr.min() >= 0):
            return arr
    return _parse_pairs_slow(data)


def _hash_positions(data: bytes):
    pos = data.find(b"#")
    while pos != -1:
        yield pos
        pos = data.find(b"#", pos + 1)


def _outside_comments(data: bytes, byte: int) -> bool:
    """Whether ``byte`` occurs in ``data`` on a line not starting with '#'."""
    pos = data.find(byte)
    while pos != -1:
        if not data.startswith(b"#", data.rfind(b"\n", 0, pos) + 1):
            return True
        end = data.find(b"\n", pos)
        pos = -1 if end == -1 else data.find(byte, end)
    return False


def _parse_pairs_slow(data: bytes) -> np.ndarray:
    us: list[int] = []
    vs: list[int] = []
    for lineno, raw in enumerate(data.split(b"\n"), start=1):
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
    key += v.astype(np.uint64)
    return key


def _sorted_unique_mask(x: np.ndarray) -> np.ndarray:
    """True at the first element of each run of equal values of sorted ``x``."""
    mask = np.empty(x.shape[0], dtype=bool)
    mask[:1] = True
    np.not_equal(x[1:], x[:-1], out=mask[1:])
    return mask


def _run_pairs(offsets: np.ndarray, block: int):
    """Every pair of positions ``a < b`` in the same run, in (a, b) order.

    Run r holds the positions ``offsets[r] .. offsets[r+1]-1``, with
    ``offsets[0] == 0``. Yields int64 arrays ``(a, b)`` of at most
    ``block`` pairs at a time, so memory is O(positions + block).
    """
    # Position q pairs with the later positions of its run: pairs
    # bounds[q] .. bounds[q+1]-1 in the numbering of all pairs. A caller
    # that passes its only reference to ``offsets`` frees it here.
    fan = np.repeat(offsets[1:], np.diff(offsets))
    del offsets
    fan -= np.arange(1, fan.size + 1)
    bounds = np.zeros(fan.size + 1, dtype=np.int64)
    np.cumsum(fan, out=bounds[1:])
    del fan
    total = int(bounds[-1])
    for t0 in range(0, total, block):
        # Built by a helper, so this frame holds no reference to a block
        # while the caller works on it.
        yield _pair_block(bounds, t0, min(t0 + block, total))


def _pair_block(bounds: np.ndarray, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs ``t0 .. t1-1`` of ``_run_pairs``, as its ``(a, b)`` arrays."""
    j0 = int(np.searchsorted(bounds, t0, side="right")) - 1
    j1 = int(np.searchsorted(bounds, t1, side="left"))
    fan = np.diff(np.clip(bounds[j0:j1 + 1], t0, t1))
    a = np.repeat(np.arange(j0, j1), fan)
    b = np.repeat(np.arange(j0 + 1, j1 + 1) - bounds[j0:j1], fan)
    del fan
    b += np.arange(t0, t1)
    return a, b


def _build(pairs: np.ndarray) -> Graph:
    if pairs.size == 0:
        raise EmptyGraphError("edge list contains no edges")

    # Dense remap in order of first appearance (row-major over the pairs):
    # sort the ids once, take each distinct id's smallest position, and
    # rank the distinct ids by that position.
    flat = pairs.reshape(-1)
    order = np.argsort(flat)
    ids = flat[order]
    new = _sorted_unique_mask(ids)
    first_pos = np.minimum.reduceat(order, np.flatnonzero(new))
    appearance = np.argsort(first_pos)
    del first_pos
    original_ids = ids[new][appearance]
    del ids
    n = int(original_ids.shape[0])
    if n >= 2**32:
        raise GraphFormatError("more than 2**32 distinct vertex ids")
    rank = np.empty(n, dtype=np.int64)
    rank[appearance] = np.arange(n)
    del appearance
    codes = np.empty(order.shape[0], dtype=np.int64)
    codes[order] = rank[np.cumsum(new) - 1]
    del order, new, rank
    codes = codes.reshape(-1, 2)

    u, v = codes[:, 0], codes[:, 1]
    keep = u != v
    u, v = u[keep], v[keep]
    del codes, keep
    if u.size == 0:
        raise EmptyGraphError("no edges survive self-loop removal")
    key = np.sort(edge_key(np.minimum(u, v), np.maximum(u, v), n))
    del u, v
    key = key[_sorted_unique_mask(key)]  # sorted canonical (u, v) keys
    eu, ev = np.divmod(key, np.uint64(n))
    del key
    m = int(eu.shape[0])

    idx_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    src = np.concatenate([eu, ev]).astype(idx_dtype)
    dst = np.concatenate([ev, eu]).astype(idx_dtype)
    del eu, ev
    neighbors = dst[np.argsort(edge_key(src, dst, n))]
    del dst
    degrees = np.bincount(src, minlength=n)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])

    for arr in (offsets, neighbors, original_ids):
        arr.flags.writeable = False
    return Graph(n=n, m=m, offsets=offsets, neighbors=neighbors,
                 original_ids=original_ids)
