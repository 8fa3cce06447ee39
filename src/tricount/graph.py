"""Immutable undirected simple-graph representation with CSR adjacency.

Graphs are built from whitespace-separated edge lists (SNAP style:
``#``-prefixed comment lines, two integer tokens per line). Loading
drops self-loops, collapses parallel edges, symmetrizes direction, and
remaps the source ids densely to ``[0, n)`` in order of first
appearance, in a few passes: numpy's text parser reads the input in
blocks of whole lines, each checked byte by byte first (a line scan
reads each block that fails the check, and reports its errors); the
remap of dense ids, whose largest is below the number of ids read,
goes through a direct-address table of first positions, and that of
wider or sparser ids through one stable sort of the ids, each packed
with its position into one uint64 (a stable argsort instead when an id
and a position need more than 64 bits together, as ids of 2**43 and up
do at a million edges); one sort of the edge keys of both directions
gives the sorted neighbor lists, and the canonical edge arrays come
from the same pass. Edge membership is one lookup in an ordered hash
set of the canonical edge keys, which a graph builds on its first
membership query with one sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import BinaryIO

import numpy as np


# Empty slot of an edge index. No edge key can take this value, since
# keys are below n**2 and the loader requires n < 2**32.
_EMPTY = np.uint64(2**64 - 1)
# Fibonacci hashing: a key's hash is key * _GOLDEN mod 2**64, and its
# home slot the top bits of the hash. The constant is odd, so hashing is
# a bijection: hash * _GOLDEN_INVERSE gives the key back.
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_GOLDEN_INVERSE = np.uint64(pow(0x9E3779B97F4A7C15, -1, 2**64))
# Most edges a graph may have. With n < 2**32 an edge's position and a
# vertex id pack into one uint64 (the exact oracle's packed sorts rely
# on it).
_MAX_EDGES = 2**32


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

    Instances are immutable after construction and safe to share among
    any number of concurrent readers.
    """

    n: int
    m: int
    offsets: np.ndarray
    neighbors: np.ndarray
    original_ids: np.ndarray

    @cached_property
    def degrees(self) -> np.ndarray:
        """Degree of every vertex (length n), computed once; read-only."""
        deg = np.diff(self.offsets)
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
        of wedges hinged at vertices 0..v, d(d - 1)/2 each. Computed once;
        read-only."""
        d = self.degrees.astype(np.int64)
        d *= d - 1
        d //= 2
        np.cumsum(d, out=d)
        d.flags.writeable = False
        return d

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Ordered hash set of the canonical edge keys ``edge_key(u, v, n)``,
        u < v, in a uint64 table; empty slots hold ``2**64 - 1``.

        Open addressing with linear probing over ``_index_slots(m)`` home
        slots (load factor at most 1/4). Keys sit in ascending order of
        their hash, so the homes never decrease along the table. Instead
        of wrapping around, the last chain runs on into a short tail, and
        the table ends with one empty slot. Built on first use, with one
        sort: the i-th smallest hash goes to slot ``i + max(home_j - j)``
        over ``j <= i``, the first free slot at or after its home.
        Read-only.
        """
        slots = _index_slots(self.m)
        h = edge_key(*self.edge_arrays, self.n)
        h *= _GOLDEN
        h.sort()
        slot = _home_of_hash(h, slots)
        step = np.arange(self.m)
        slot -= step
        np.maximum.accumulate(slot, out=slot)
        slot += step
        del step
        table = np.full(max(slots, int(slot[-1]) + 1) + 1, _EMPTY, dtype=np.uint64)
        h *= _GOLDEN_INVERSE
        table[slot] = h
        table.flags.writeable = False
        return table


def _index_slots(m: int) -> int:
    """Home slots of the edge index of a graph of ``m`` edges: 4 to 8 per
    edge, a power of two."""
    return 1 << (m.bit_length() + 2)


def _home_of_hash(h: np.ndarray, size: int, out=None) -> np.ndarray:
    """Home slot (int64) of each hash ``key * _GOLDEN`` among ``size``
    slots, a power of two: the hash's top bits."""
    return np.right_shift(h, np.uint64(65 - size.bit_length()), out=out).view(np.int64)


def _home_slot(key: np.ndarray, size: int) -> np.ndarray:
    """Home slot (int64) of each key among ``size`` slots, a power of two."""
    h = key * _GOLDEN
    return _home_of_hash(h, size, out=h)


def has_edge_many(g: Graph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Whether each pair ``(u[i], v[i])`` of aligned vertex arrays is an edge.

    Looks each pair's canonical key up in ``g.edge_index``: all queries
    probe their home slot at once, then the ones still open probe the
    next slot, and so on. The table holds the keys in order of their
    hash, so a query stops at its key, at an empty slot, or at the first
    key whose hash exceeds its own. At load factor 1/4 about six in seven
    stop at the home slot (86% of the closure probes of powerlaw-estimate
    rounds on the million-edge power-law graph; 76% stop there without
    the order). Pairs ``u == v`` are never edges. Scalars are queries of
    one pair.

    Raises:
        ValueError: a vertex id outside ``[0, n)``.
    """
    u = np.atleast_1d(u)
    v = np.atleast_1d(v)
    if u.size == 0:
        return np.zeros(0, dtype=bool)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    del u, v
    if lo.min() < 0 or hi.max() >= g.n:
        raise ValueError(f"vertex ids must be in [0, {g.n})")
    table = g.edge_index
    hq = edge_key(lo, hi, g.n)
    del lo, hi
    hq *= _GOLDEN
    home = _home_of_hash(hq, _index_slots(g.m))
    held = table.take(home)
    open_ = held != _EMPTY
    held *= _GOLDEN
    found = held == hq  # never at an empty slot: no key is 2**64 - 1
    open_ &= held < hq  # a lower hash: the query's key may lie further on
    where = np.flatnonzero(open_)
    step = 0
    while where.size:
        step += 1
        slot = home.take(where)
        slot += step
        held = table.take(slot)
        open_ = held != _EMPTY
        held *= _GOLDEN
        want = hq.take(where)
        found[where[held == want]] = True
        open_ &= held < want
        where = where[open_]
    return found


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
    original_ids = _remap(ids)
    if original_ids.shape[0] >= 2**32:
        raise GraphFormatError("more than 2**32 distinct vertex ids")
    key = _canonical_keys(ids, original_ids.shape[0])
    del ids
    if key.shape[0] > _MAX_EDGES:
        raise GraphFormatError(f"more than {_MAX_EDGES} distinct edges")
    return _build(key, original_ids)


# Bytes per block of the fast parser; a block runs on to the end of the
# line this many bytes in.
_PARSE_BLOCK = 1 << 20


def _parse_pairs(data: bytes) -> np.ndarray:
    # Fast path: numpy's text parser, one block of whole lines at a time,
    # into one array sized for two ids per line. A block that fails the
    # checks of _checked_block, or whose values do not match its digit
    # runs one to one and stay below 10**18 (numpy's parser saturates at
    # 2**63 - 1), is read by the line scan instead: the only path that
    # reports errors, and the only one that reads ids of 10**18 and up.
    # Ids of 2**63 and up turn the output uint64.
    lines = np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n")) + 1
    out = np.empty(2 * lines, dtype=np.int64)
    size = start = 0
    line, counted = 1, 0  # the line number at byte ``counted``
    while start < len(data):
        end = data.find(b"\n", start + _PARSE_BLOCK - 1)
        end = len(data) if end == -1 else end + 1
        block, begin, start = data[start:end], start, end
        checked = _checked_block(block)
        if checked is None:
            values = None
        elif checked[1] == 0:
            continue  # np.fromstring reads a blank block as [0]
        else:
            values = np.fromstring(checked[0], dtype=np.int64, sep=" ")
        if values is None or values.size != checked[1] or values.max() >= 10**18:
            line += data.count(b"\n", counted, begin)
            counted = begin
            values = _parse_pairs_slow(block, line).reshape(-1)
            if values.dtype == np.uint64:
                out = out.view(np.uint64)  # the ids so far are below 2**63
        out[size:size + values.size] = values
        size += values.size
    return out[:size].reshape(-1, 2)


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
    key += v.astype(np.uint64)
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


def _remap(ids: np.ndarray) -> np.ndarray:
    """Overwrite the 1-D ``ids`` with dense ids in ``[0, n)``, numbered in
    order of first appearance, and return the source id of each.

    Dense ids, whose largest is below ``ids.size`` (SNAP's, for one),
    take a direct-address table of ``max id + 1`` entries, so no table
    outgrows ``ids``: ``np.minimum.at`` writes each id's first position
    into it, the n distinct first positions sorted give the appearance
    order, and the table, overwritten with each present id's dense id,
    rewrites ``ids`` by one gather. ``np.minimum.at`` is exact on every
    supported numpy, but fast only from numpy 1.25 on.

    Wider or sparser ids are sorted once by ``_stable_order``: one
    packed ``np.sort`` of each id above its position, or a stable
    argsort when an id and a position need more than 64 bits together
    (at 2**21 ids, ids of 2**43 and up). The sort is stable, so each run
    of equal ids starts at that id's first position; the n first
    positions are put in appearance order by the same helper.

    Both paths give the same dense ids and the same ``original_ids``,
    in the dtype of ``ids``.
    """
    top = int(ids.max()) + 1
    if top <= ids.size:
        table = np.full(top, ids.size, dtype=np.int64)
        np.minimum.at(table, ids, np.arange(ids.size))
        first = table[table < ids.size]
        first.sort()
        original_ids = ids.take(first)
        del first
        table[original_ids] = np.arange(original_ids.shape[0])
        # Every id indexes the table, so "clip" never clips; it spares
        # the copy that the default mode makes of an ``out`` array.
        table.take(ids, out=ids, mode="clip")
        return original_ids
    order = _stable_order(ids, (top - 1).bit_length())
    sorted_ids = ids.take(order)
    starts = np.flatnonzero(_sorted_unique_mask(sorted_ids))
    appearance = _stable_order(order.take(starts), (ids.size - 1).bit_length())
    original_ids = sorted_ids.take(starts.take(appearance))
    del sorted_ids
    n = int(original_ids.shape[0])
    rank = np.empty(n, dtype=np.int64)
    rank[appearance] = np.arange(n)
    del appearance
    ids[order] = np.repeat(rank, np.diff(starts, append=ids.size))
    return original_ids


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
    sort by (src, dst); modulo n they are the neighbor lists.
    """
    n = int(original_ids.shape[0])
    m = int(key.shape[0])
    eu, ev = np.divmod(key, np.uint64(n))
    both = np.concatenate([key, edge_key(ev, eu, n)])
    both.sort()
    np.remainder(both, np.uint64(n), out=both)
    idx_dtype = np.int32 if n <= np.iinfo(np.int32).max else np.int64
    neighbors = both.astype(idx_dtype)
    del both
    eu, ev = eu.astype(idx_dtype), ev.astype(idx_dtype)
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
