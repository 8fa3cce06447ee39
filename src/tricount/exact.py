"""Exact triangle-related graph quantities.

These serve as ground truth for the sampling experiments and as inputs
to the closed-form error theory: the triangle count, the wedge count,
the global clustering coefficient, the per-edge triangle counts T(e),
and the two variance terms, both sums over edges of T(e): ``phi``,
of T(e) * (min endpoint degree - 1) (24 on K4), and
``shared_edge_pairs``, the number of unordered triangle pairs sharing
an edge, of C(T(e), 2) (6 on K4).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .graph import (_CHUNK, Graph, _Tasks, _find_edges, _index_dtype, _orient,
                    _pair_block, _pair_table, edge_key)


@dataclass(frozen=True)
class GraphMetrics:
    """Exact global quantities of a graph (or externally supplied ones).

    Count fields are typed ``float`` because callers may supply metrics
    reconstructed from published, rounded statistics; exact computation
    stores Python ints in them.
    """

    n: int
    m: int
    triangle_count: float
    wedge_count: float
    clustering_coefficient: float
    phi: float
    shared_edge_pairs: float

    @property
    def tri_per_edge(self) -> float:
        """3 * triangles / m: triangles an average edge participates in."""
        return 3.0 * self.triangle_count / self.m if self.m else 0.0

    @property
    def phi_over_3delta(self) -> float:
        if self.triangle_count == 0:
            return 0.0
        return self.phi / (3.0 * self.triangle_count)

    @property
    def k_over_delta(self) -> float:
        if self.triangle_count == 0:
            return 0.0
        return self.shared_edge_pairs / self.triangle_count

    def to_dict(self) -> dict:
        """Flat JSON-ready mapping (raw counts plus the table ratios)."""
        return {
            "n": self.n,
            "m": self.m,
            "delta": self.triangle_count,
            "lambda": self.wedge_count,
            "C": self.clustering_coefficient,
            "phi": self.phi,
            "K": self.shared_edge_pairs,
            "tri_per_edge": self.tri_per_edge,
            "phi_over_3delta": self.phi_over_3delta,
            "K_over_delta": self.k_over_delta,
        }


@dataclass(frozen=True)
class EdgeTriangleCounts:
    """T(e) of every canonical edge, aligned with ``Graph.edge_arrays``."""

    counts: np.ndarray


def count_triangles_exact(g: Graph) -> tuple[int, EdgeTriangleCounts]:
    """Exact triangle count and per-edge T(e).

    The forward algorithm in array form. Each edge is oriented from
    lower to higher rank under the (degree, id) total order, so a
    triangle is found exactly once, at its lowest-ranked vertex ``u``:
    as the pair of out-edges ``u->v``, ``u->w`` whose heads are
    adjacent. That makes sum over u of C(d+(u), 2) candidate pairs,
    where d+(u) is the out-degree, taken ``_CHUNK`` at a time.

    Each block's closing keys are looked up as ``has_edge_many`` looks
    up its pairs, by ``graph._find_edges``: a key whose bit is clear in
    either filter of the graph's cached ``Graph.edge_bitmap`` is no edge
    and is dropped, and the rest are sorted and found by one binary
    search over the cached ascending ``Graph.edge_keys``. On the
    million-edge power-law graph 19% of the pairs pass the first filter
    (403,766 of 2,147,830) and 9.8% pass both (210,665, the 186,896
    triangles included). A block returns the canonical positions of
    each triangle's three edges and nothing else, and T(e) is tallied
    from them with ``np.bincount``. Time is O(m^1.5) on the graphs this
    library targets.

    Threads: three stages split into independent tasks: the
    orientation's chunk loops before and after its sort, one task per
    chunk, and the pair blocks. A stage of more than one task, on more
    than one CPU of the process's affinity mask, runs on a
    ``graph._Tasks`` thread pool (the loader's parse uses the same
    kind), one thread per CPU up to ``graph._MAX_WORKERS``; the first
    such stage creates the pool and the later ones share it, so a call
    creates at most one. numpy releases the GIL in most of that work.
    The sort, the out-edge offsets' sum, the narrowing of ``canon``, the
    pair table and the sums stay on the calling thread: it takes the
    chunk and block results in order and alone sums the offsets and Δ
    and tallies T(e), so every output is the same on any number of
    threads. A graph of one chunk and one block, or one
    CPU, runs on the calling thread and starts no thread; the pool is
    joined before the call returns.

    Memory: the keys and bitmap, 10 to 12 bytes per edge, are built
    first, as their build peaks above any array of the oracle. Beside
    them the orientation holds its sort words (8 bytes per edge) and two
    4-byte arrays per edge: the heads in canonical and in sorted order,
    then, once the first is freed, the sorted heads and ``canon``,
    narrowed from the masked words. The blocks hold head and canon (4
    each) and the pair table (4), and T(e) takes 8. Each worker has one
    chunk of ``_CHUNK`` edges or one block of ``_CHUNK`` pairs in flight,
    ~1.5 or ~2 MB of temporaries. On the million-edge power-law graph
    the traced peak of a first ``compute_metrics`` above the graph, its
    keys and bitmap is 18.2 MiB (19.1 bytes per edge) on one CPU, set by
    the orientation's read-back, and 19.7 MiB on two, set by the blocks
    in flight.
    """
    m = g.m
    # Every cached property a worker reads is built before the pool
    # starts: the bitmap builds the edge arrays and keys, and
    # ``_out_edges`` the degrees. The bitmap comes first, as its build
    # peaks above any array below.
    g.edge_bitmap
    with _Tasks() as tasks:
        canon, head, out_off = _out_edges(g, tasks)
        bounds = _pair_table(out_off)
        del out_off
        starts = range(0, int(bounds[-1]), _CHUNK)
        check = partial(_check_block, g, canon, head, bounds)
        # Blocks run in any order on the pool's threads; ``map`` hands
        # back their results in block order.
        delta, t_counts, pending = _sum_blocks(tasks.map(check, starts), m)
        del check, canon, head, bounds  # before the last tally
    t_counts = _tally(t_counts, pending, m)
    t_counts.flags.writeable = False
    return delta, EdgeTriangleCounts(counts=t_counts)


def _check_block(g: Graph, canon: np.ndarray, head: np.ndarray,
                 bounds: np.ndarray, t0: int):
    """The triangles closed by pairs ``t0 .. t0 + _CHUNK - 1`` of
    the pair table ``bounds``: ``(a, b, closing)``, the canonical
    positions of each triangle's three edges. Reads only arrays built
    before the call, so blocks may run on several threads at once."""
    a, b = _pair_block(bounds, t0, min(t0 + _CHUNK, int(bounds[-1])))
    # A tail's heads ascend, so out-edges a < b of one tail close on
    # the canonical edge head[a]--head[b].
    hit, closing = _find_edges(g, edge_key(head.take(a), head.take(b), g.n))
    return canon.take(a.take(hit)), canon.take(b.take(hit)), closing


def _sum_blocks(blocks, m: int):
    """Δ, as a Python int, from the results of ``_check_block`` taken in
    block order, with T(e) as far as tallied (None: not yet) and the
    edge hits still to tally."""
    # T(e) is allocated at the first tally, so it takes no room during
    # the blocks before it.
    t_counts = None
    pending: list[np.ndarray] = []
    npending = 0
    delta = 0
    for edges in blocks:
        delta += int(edges[0].size)
        pending += edges
        npending += 3 * edges[0].size
        # Tally in batches of about m edge hits: one bincount per block
        # would cost O(m) each, one at the end O(triangles) memory.
        if npending >= m:
            t_counts = _tally(t_counts, pending, m)
            pending, npending = [], 0
    return delta, t_counts, pending


def _tally(t_counts: np.ndarray | None, pending: list[np.ndarray],
           m: int) -> np.ndarray:
    """``t_counts`` (None: all zeros) plus the count of each of the ``m``
    edge positions in the arrays of ``pending``."""
    hits = np.bincount(np.concatenate([np.zeros(0, dtype=np.int64), *pending]),
                       minlength=m)
    if t_counts is None:
        return hits
    t_counts += hits
    return t_counts


def _out_edges(g: Graph, tasks: _Tasks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The edges oriented tail->head, from lower to higher rank, as
    out-edge lists sorted by (tail, head): ``(canon, head, out_off)``.

    ``canon`` (uint32) maps each oriented edge to its position in
    ``edge_arrays``; ``head`` is in the dtype of ``edge_arrays``; tail
    t's out-edges are ``out_off[t]`` to ``out_off[t+1] - 1`` (in
    ``_index_dtype(m)``, 4 bytes per vertex below 2**31 edges).

    The edges are oriented ``_CHUNK`` at a time: each edge's head is
    kept in canonical order, and its tail packed above its position into
    the uint64 word that one ``np.sort`` sorts (``_stable_order``'s
    packed sort; a vertex id and a position always fit 64 bits
    together). The sort is by tail alone: in canonical order a tail's
    lower heads come from earlier rows and its upper heads from its own
    row, so its heads already ascend, and a stable sort by tail gives
    (tail, head) order.

    Both chunk loops run on ``tasks``, one task per chunk. The
    orientation writes each chunk's slices of the words and of the
    heads; after the sort the read-back gathers each chunk's sorted
    heads and returns its tail counts, which the calling thread adds
    into ``out_off`` and sums. ``canon`` is then the words' low bits,
    masked in place and narrowed on the calling thread. No stage holds
    more than the words and two 4-byte arrays per edge.
    """
    eu, ev = g.edge_arrays
    g.degrees  # ``_orient`` reads it on the workers
    m = g.m
    width = np.uint64((m - 1).bit_length())
    word = np.empty(m, dtype=np.uint64)
    edge_head = np.empty(m, dtype=eu.dtype)
    starts = range(0, m, _CHUNK)

    def orient(s: int) -> None:
        tail, edge_head[s:s + _CHUNK], _ = _orient(g, eu[s:s + _CHUNK], ev[s:s + _CHUNK])
        chunk = word[s:s + _CHUNK]
        chunk[:] = tail
        chunk <<= width
        chunk |= np.arange(s, s + chunk.size, dtype=np.uint64)

    list(tasks.map(orient, starts))  # waits for every chunk
    word.sort()
    mask = (np.uint64(1) << width) - np.uint64(1)
    head = np.empty(m, dtype=eu.dtype)

    def read_back(s: int) -> tuple[int, np.ndarray]:
        # The chunk's heads, and its first tail with the count of each
        # tail from there on: a sorted chunk's tails ascend. Both are
        # int64, which take and np.bincount use without a copy.
        chunk = word[s:s + _CHUNK]
        pos = np.bitwise_and(chunk, mask).view(np.int64)
        # Every position is in range; "clip" takes into ``out`` without
        # the buffer that the default "raise" makes.
        edge_head.take(pos, out=head[s:s + _CHUNK], mode="clip")
        del pos
        tail = (chunk >> width).view(np.int64)
        first = int(tail[0])
        tail -= first
        return first, np.bincount(tail)

    # out_off[t + 1] adds up tail t's count over the chunks its run
    # spans; the running sum then makes it the end of t's out-edges.
    out_off = np.zeros(g.n + 1, dtype=_index_dtype(m))
    for first, counts in tasks.map(read_back, starts):
        out_off[first + 1:first + 1 + counts.size] += counts
        del counts  # before the next chunk's
    np.cumsum(out_off, out=out_off)
    del edge_head  # before canon is taken out of the words
    np.bitwise_and(word, mask, out=word)
    canon = word.astype(np.uint32)
    return canon, head, out_off


def compute_metrics(g: Graph) -> GraphMetrics:
    """Assemble all exact metrics of a graph in one pass."""
    delta, per_edge = count_triangles_exact(g)
    wedges = int(g.wedge_prefix[-1])
    squares, dots = _edge_sums(per_edge.counts, *g.edge_arrays, g.degrees)
    c = 3.0 * delta / wedges if wedges > 0 else 0.0
    # sum T(e) == 3 delta, so the sums over e of C(T(e), 2) and of
    # T(e) * (min endpoint degree - 1) are these.
    return GraphMetrics(n=g.n, m=g.m, triangle_count=delta,
                        wedge_count=wedges, clustering_coefficient=c,
                        phi=dots - 3 * delta,
                        shared_edge_pairs=(squares - 3 * delta) // 2)


def _edge_sums(t: np.ndarray, eu: np.ndarray, ev: np.ndarray,
               deg: np.ndarray) -> tuple[int, int]:
    """The exact sums over edges e = (eu, ev) of T(e)^2 and of
    T(e) * min(deg[eu], deg[ev]), for the non-negative int64 ``t``.

    ``_CHUNK`` edges at a time, and fewer once max T * max(max T,
    max degree) passes 2**63 / ``_CHUNK``, so that no slice's int64
    ``np.dot`` wraps; the slices' sums add up as Python ints. Degrees
    are gathered only at the edges of some triangle.
    """
    top = int(t.max(initial=0))
    big = top * max(top, int(deg.max(initial=0)))
    step = max(1, min(_CHUNK, (2**63 - 1) // max(big, 1)))
    squares = dots = 0
    for s in range(0, t.size, step):
        c = t[s:s + step]
        squares += int(np.dot(c, c))
        at = np.flatnonzero(c != 0)  # faster on bools than on int64
        d = np.minimum(deg.take(eu[s:s + step].take(at)),
                       deg.take(ev[s:s + step].take(at)))
        dots += int(np.dot(c.take(at), d))
    return squares, dots
