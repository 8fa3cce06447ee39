"""Exact triangle-related graph quantities.

These serve as ground truth for the sampling experiments and as inputs
to the closed-form error theory: the triangle count, the wedge count,
the global clustering coefficient, the per-edge triangle counts T(e),
and the two variance drivers ``phi`` (sum over triangles of the two
smaller endpoint degrees minus 3, equivalently sum over edges of
T(e) * (min endpoint degree - 1)) and ``shared_edge_pairs`` (number of
unordered triangle pairs sharing an edge, sum over edges of C(T(e), 2)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import Graph, _find_edges, _orient, _run_pairs, _stable_order, edge_key

# Out-edge pairs checked per block of ``count_triangles_exact``. Each
# pair costs ~47 bytes of temporaries (tracemalloc, the peak difference
# between blocks of 2**20 and 2**16 pairs on the million-edge power-law
# graph, its edge bitmap built: 86.5 against 42.2 MB), so a block holds
# ~3 MB and adds nothing to the peak memory of loading a million-edge
# graph.
_WEDGE_BLOCK = 1 << 16


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
    """T(e) and the smaller endpoint degree of every canonical edge,
    aligned with ``Graph.edge_arrays``."""

    counts: np.ndarray
    min_degree: np.ndarray


def count_triangles_exact(g: Graph) -> tuple[int, EdgeTriangleCounts]:
    """Exact triangle count and per-edge T(e), with each edge's smaller
    endpoint degree, which the orientation below reads anyway.

    The forward algorithm in array form. Each edge is oriented from
    lower to higher rank under the (degree, id) total order, so a
    triangle is found exactly once, at its lowest-ranked vertex ``u``:
    as the pair of out-edges ``u->v``, ``u->w`` whose heads are
    adjacent. That makes sum over u of C(d+(u), 2) candidate pairs,
    where d+(u) is the out-degree, taken a fixed block at a time.

    Each block's closing keys are looked up as ``has_edge_many`` looks
    up its pairs, by ``graph._find_edges``: a key whose bit is clear in
    either filter of the graph's cached ``Graph.edge_bitmap`` is no edge
    and is dropped, and the rest are sorted and found by one binary
    search over the cached ascending ``Graph.edge_keys``. On the
    million-edge power-law graph 19% of the pairs pass the first filter
    (403,766 of 2,147,830) and 9.8% pass both (210,665, the 186,896
    triangles included). T(e) is tallied with ``np.bincount``. Time is
    O(m^1.5) on the graphs this library targets; memory is O(m + block),
    with the keys and bitmap, built on the first call, 10 to 12 bytes
    per edge.

    Both sorts, of the oriented edges and of a block's keys, are
    ``_stable_order``'s: one ``np.sort`` of uint64 words that pack a sort
    key above a position, or a stable ``argsort`` when a key and a
    position do not fit in 64 bits together (a block's keys at
    n > 2**24). The oriented edges are sorted by tail alone: in
    canonical order a tail's lower heads come from earlier rows and its
    upper heads from its own row, so its heads already ascend, and a
    stable sort by tail gives (tail, head) order, the one permutation an
    ``argsort`` of their edge keys gives.
    """
    n, m = g.n, g.m
    canon, head, out_off, min_degree = _out_edges(g)
    g.edge_bitmap  # the keys' and bitmap's build, before the blocks it would add to

    # A tail's heads ascend, so out-edges a < b of one tail close on
    # the canonical edge head[a]--head[b]. T(e) is allocated at the first
    # tally, so it takes no room during the blocks before it.
    t_counts = None
    pending: list[np.ndarray] = []
    npending = 0
    delta = 0
    for a, b in _run_pairs(out_off, _WEDGE_BLOCK):
        hit, closing = _find_edges(g, edge_key(head.take(a), head.take(b), n))
        if hit.size:
            delta += int(hit.size)
            pending += [canon.take(a.take(hit)), canon.take(b.take(hit)), closing]
            npending += 3 * hit.size
        # Tally in batches of about m edge hits: one bincount per block
        # would cost O(m) each, one at the end O(triangles) memory.
        if npending >= m:
            t_counts = _tally(t_counts, pending, m)
            pending, npending = [], 0
    t_counts = _tally(t_counts, pending, m)
    t_counts.flags.writeable = False
    return delta, EdgeTriangleCounts(counts=t_counts, min_degree=min_degree)


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


def _out_edges(g: Graph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The edges oriented tail->head, from lower to higher rank, as
    out-edge lists sorted by (tail, head), and the tail's degree of each
    canonical edge: ``(canon, head, out_off, min_degree)``.

    ``canon`` maps each oriented edge to its position in
    ``edge_arrays``, in the smallest unsigned dtype that holds ``m - 1``,
    and tail t's out-edges are ``out_off[t]`` to ``out_off[t+1] - 1``.
    The tail is the endpoint of smaller degree; ``min_degree`` is
    read-only, in the dtype of ``edge_arrays``.
    """
    eu, ev = g.edge_arrays
    tail, head, min_degree = _orient(g, eu, ev)
    min_degree.flags.writeable = False
    canon = _stable_order(tail, (g.n - 1).bit_length())
    head = head.take(canon)
    canon = canon.astype(np.min_scalar_type(g.m - 1))
    out_off = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=g.n), out=out_off[1:])
    return canon, head, out_off, min_degree


def wedge_count(g: Graph) -> int:
    """Number of wedges: sum over vertices of d(d-1)/2."""
    return int(g.wedge_prefix[-1])


def compute_metrics(g: Graph) -> GraphMetrics:
    """Assemble all exact metrics of a graph in one pass."""
    delta, per_edge = count_triangles_exact(g)
    wedges = wedge_count(g)
    t = per_edge.counts
    phi = int(np.dot(t, per_edge.min_degree)) - 3 * delta  # sum(t) == 3 delta
    shared = int(np.dot(t, t - 1)) // 2  # each t*(t-1) is even
    c = 3.0 * delta / wedges if wedges > 0 else 0.0
    return GraphMetrics(n=g.n, m=g.m, triangle_count=delta,
                        wedge_count=wedges, clustering_coefficient=c,
                        phi=phi, shared_edge_pairs=shared)
