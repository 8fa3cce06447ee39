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

from .graph import Graph, _home_slot, _run_pairs, edge_key

# Out-edge pairs checked per block of ``count_triangles_exact``. Each
# pair costs ~47 bytes of temporaries (tracemalloc, the peak difference
# between blocks of 2**20 and 2**16 pairs), so a block holds ~3 MB and
# adds nothing to the peak memory of loading a million-edge graph.
_WEDGE_BLOCK = 1 << 16


def _filter_slots(m: int) -> int:
    """Slots of ``count_triangles_exact``'s non-edge filter: 8 to 16 per
    edge, twice as many as ``Graph.edge_index`` has. On the million-edge
    power-law graph 19% of the pairs pass it; half the slots pass 28%
    and took longer end to end."""
    return 1 << (m.bit_length() + 3)


METRICS_CSV_HEADER = "n,m,delta,lambda,C,tri_per_edge,phi_over_3delta,K_over_delta"


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

    def to_csv_row(self) -> str:
        cells = [self.n, self.m, self.triangle_count, self.wedge_count,
                 self.clustering_coefficient, self.tri_per_edge,
                 self.phi_over_3delta, self.k_over_delta]
        return ",".join(csv_cell(c) for c in cells)


def csv_cell(x) -> str:
    """One CSV cell: empty for None, integral floats without a fraction,
    other floats by ``repr`` (shortest round-trip form)."""
    if x is None:
        return ""
    if isinstance(x, float):
        return str(int(x)) if x.is_integer() else repr(x)
    return str(x)


@dataclass(frozen=True)
class EdgeTriangleCounts:
    """T(e) for every canonical edge, aligned with ``Graph.edge_arrays``."""

    u: np.ndarray
    v: np.ndarray
    counts: np.ndarray


def count_triangles_exact(g: Graph) -> tuple[int, EdgeTriangleCounts]:
    """Exact triangle count and per-edge T(e).

    The forward algorithm in array form. Each edge is oriented from
    lower to higher rank under the (degree, id) total order, so a
    triangle is found exactly once, at its lowest-ranked vertex ``u``:
    as the pair of out-edges ``u->v``, ``u->w`` whose heads are
    adjacent. That makes sum over u of C(d+(u), 2) candidate pairs,
    where d+(u) is the out-degree, taken a fixed block at a time.

    Each block is filtered, then sorted and searched. The filter is a
    bool table marked at the home slot of every edge key, under the
    hash of ``Graph.edge_index``: a closing key whose home slot is
    unmarked is no edge and is dropped. No edge is ever dropped, so the
    filter changes no count. The keys that pass are sorted and found by
    one binary search over the sorted canonical edge keys, and T(e) is
    tallied with ``np.bincount``. Time is O(m^1.5) on the graphs this
    library targets; memory is O(m + block), the filter one byte per
    slot, freed on return.
    """
    n, m = g.n, g.m
    deg = g.degrees

    # Oriented edges tail->head, sorted by (tail, head); ``canon`` maps
    # each back to its position in ``edge_arrays``. Since eu < ev, the
    # (degree, id) order puts eu first exactly when deg[eu] <= deg[ev].
    eu, ev = g.edge_arrays
    up = deg[eu] <= deg[ev]
    tail = np.where(up, eu, ev)
    head = np.where(up, ev, eu)
    del up
    canon = np.argsort(edge_key(tail, head, n))
    head = head[canon]
    out_off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tail, minlength=n), out=out_off[1:])
    del tail

    # Every edge marks its home slot, so the filter drops only non-edges.
    ekey = edge_key(eu, ev, n)
    size = _filter_slots(m)
    held = np.zeros(size, dtype=bool)
    held[_home_slot(ekey, size)] = True

    # A tail's heads ascend, so out-edges a < b of one tail close on
    # the canonical edge head[a]--head[b].
    t_counts = np.zeros(m, dtype=np.int64)
    pending: list[np.ndarray] = []
    npending = 0
    delta = 0
    for a, b in _run_pairs(out_off, _WEDGE_BLOCK):
        query = edge_key(head[a], head[b], n)
        kept = np.flatnonzero(held.take(_home_slot(query, size)))
        query = query[kept]
        order = np.argsort(query)
        query = query[order]
        closing = np.searchsorted(ekey, query)
        np.minimum(closing, m - 1, out=closing)
        closed = ekey[closing] == query
        del query
        if closed.any():
            hit = kept[order[closed]]
            delta += int(hit.size)
            pending += [canon[a[hit]], canon[b[hit]], closing[closed]]
            npending += 3 * hit.size
        # Tally in batches of about m edge hits: one bincount per block
        # would cost O(m) each, one at the end O(triangles) memory.
        if npending >= m:
            t_counts += np.bincount(np.concatenate(pending), minlength=m)
            pending, npending = [], 0
    if pending:
        t_counts += np.bincount(np.concatenate(pending), minlength=m)
    t_counts.flags.writeable = False
    return delta, EdgeTriangleCounts(u=eu, v=ev, counts=t_counts)


def brute_force_triangles(g: Graph) -> int:
    """Cubic triangle count over all vertex triples, for small graphs.

    Builds a dense boolean adjacency matrix purely through
    ``has_edge`` queries, then counts closed triples. Independent of
    the forward algorithm; used as a testing oracle.
    """
    n = g.n
    mat = np.zeros((n, n), dtype=np.int64)
    for u in range(n):
        for v in range(u + 1, n):
            if g.has_edge(u, v):
                mat[u, v] = mat[v, u] = 1
    closed_ordered = int(np.einsum("ij,jk,ki->", mat, mat, mat))
    return closed_ordered // 6


def wedge_count(g: Graph) -> int:
    """Number of wedges: sum over vertices of d(d-1)/2."""
    d = g.degrees.astype(np.int64)
    return int((d * (d - 1) // 2).sum())


def compute_metrics(g: Graph) -> GraphMetrics:
    """Assemble all exact metrics of a graph in one pass."""
    delta, per_edge = count_triangles_exact(g)
    wedges = wedge_count(g)
    deg = g.degrees.astype(np.int64)
    min_deg = np.minimum(deg[per_edge.u], deg[per_edge.v])
    t = per_edge.counts
    phi = int((t * (min_deg - 1)).sum())
    shared = int((t * (t - 1) // 2).sum())
    c = 3.0 * delta / wedges if wedges > 0 else 0.0
    return GraphMetrics(n=g.n, m=g.m, triangle_count=delta,
                        wedge_count=wedges, clustering_coefficient=c,
                        phi=phi, shared_edge_pairs=shared)
