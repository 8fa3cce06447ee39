"""Shared graph builders for the test suite, and the library's own path
through forced sampling outcomes."""

import io
import threading
from itertools import combinations

import numpy as np

from tricount import Graph, has_edge_many, load_edge_list
from tricount.estimators import _closed_wedges
from tricount.graph import _orient


def graph_text(edges) -> str:
    return "\n".join(f"{u} {v}" for u, v in edges) + "\n"


def graph_from_edges(edges) -> Graph:
    return load_edge_list(io.BytesIO(graph_text(edges).encode()))


def graph_from_text(text: str) -> Graph:
    return load_edge_list(io.BytesIO(text.encode()))


def threads_running(monkeypatch, module, name, workers):
    """The threads that call ``module.name``, filled as the calls run.
    The first call on each thread waits, up to 10 s, until ``workers``
    threads have made one, so a pool of fewer threads than that raises
    ``threading.BrokenBarrierError`` rather than pass."""
    seen = set()
    lock = threading.Lock()
    barrier = threading.Barrier(workers, timeout=10)
    real = getattr(module, name)

    def spy(*args):
        # Thread objects, not idents: a later pool's threads may reuse
        # the idents of an earlier one's.
        with lock:
            first = threading.current_thread() not in seen
            seen.add(threading.current_thread())
        if first:
            barrier.wait()
        return real(*args)

    monkeypatch.setattr(module, name, spy)
    return seen


def complete_edges(n):
    return list(combinations(range(n), 2))


def path_edges(length):
    return [(i, i + 1) for i in range(length)]


def star_edges(leaves):
    return [(0, i) for i in range(1, leaves + 1)]


def circulant_edges(n, width):
    """n vertices, each linked to the next ``width`` (mod n): m = n*width."""
    return [(i, (i + d) % n) for i in range(n) for d in range(1, width + 1)]


def hubs_and_path_edges():
    """Hubs 0 and 1, adjacent, share 3,000 leaves; a path runs along the
    leaves and on through a tail that ends in a pendant."""
    leaves = range(2, 3_002)
    edges = [(0, 1)] + [(h, v) for v in leaves for h in (0, 1)]
    return edges + [(v, v + 1) for v in range(2, 3_010)]


def er_edges(n, prob, seed):
    """Erdos-Renyi G(n, prob) edge list, deterministic for a seed."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < prob
    return list(zip(iu[keep].tolist(), iv[keep].tolist()))


# Sizes of the edge bitmap (``graph._bitmap_bits``, bits for a graph of
# m edges) that the filter tests patch in, by test id.
BITMAP_BITS = {
    # Every edge sets the one bit, so every query passes the filter.
    "one-slot": lambda m: 1,
    # At most m bits: most bits are set by an edge, so many non-edges
    # pass the filter and only the lookup rejects them; others are dropped.
    "shared-slots": lambda m: 1 << (m.bit_length() - 1),
    # 256 to 512 bits per edge: nearly every edge has a bit of its own,
    # so an edge whose bit went unset would be missed.
    "sparse-slots": lambda m: 1 << (m.bit_length() + 8),
}


# 11 vertices, 16 edges, 5 triangles: {1,2,6} {1,2,7} {1,3,4} {1,7,8}
# {2,5,6}; degrees 9,4,2,3,3,3,3,2,1,1,1 so the wedge count is 56.
FIVE_TRIANGLE_EDGES = [
    (1, 2), (1, 3), (1, 4), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (1, 11),
    (2, 5), (2, 6), (2, 7), (3, 4), (4, 5), (5, 6), (7, 8),
]


def internal_id(g: Graph, original: int) -> int:
    """Internal id of a source-file vertex id."""
    pos = np.nonzero(g.original_ids == original)[0]
    assert pos.size == 1
    return int(pos[0])


def powerlaw_edges(seed, n, raw, m):
    """The criterion-8 generator: ``m`` distinct skewed edges over ``n`` ids.

    Endpoints are drawn with weight ``i ** -0.7``; self-loops and
    duplicates are dropped and ``m`` of the distinct pairs are kept, as
    two aligned arrays sorted by (u, v).
    """
    rng = np.random.default_rng(seed)
    weights = np.arange(1, n + 1, dtype=np.float64) ** -0.7
    cum = np.cumsum(weights)
    cum /= cum[-1]
    us = np.searchsorted(cum, rng.random(raw)).astype(np.int64)
    vs = np.searchsorted(cum, rng.random(raw)).astype(np.int64)
    keep = us != vs
    lo = np.minimum(us[keep], vs[keep])
    hi = np.maximum(us[keep], vs[keep])
    keys = np.unique(lo * np.int64(n) + hi)
    assert keys.size >= m
    pick = np.sort(rng.permutation(keys.size)[:m])
    return keys[pick] // n, keys[pick] % n


def _columns(rows, width):
    """The columns of ``width``-tuples, as int64 arrays."""
    return np.array(rows, dtype=np.int64).reshape(-1, width).T


def forced_ews_tau(g: Graph, draws) -> int:
    """The ews raw statistic of forced draws ``[((u, v), w), ...]`` in
    internal ids, by the library's orientation and closure probe. Raises
    ValueError if a ``w`` is not a neighbor of its edge's hinge other
    than the edge's other end."""
    u, v = _columns([e for e, _ in draws], 2)
    w = np.array([w for _, w in draws], dtype=np.int64)
    hinge, other, dh = _orient(g, np.minimum(u, v), np.maximum(u, v))
    if not (has_edge_many(g, hinge, w) & (w != other)).all():
        raise ValueError("a draw is not an eligible wedge end")
    return int(np.where(has_edge_many(g, other, w), dh - 1, 0).sum())


def forced_ws_omega(g: Graph, wedges) -> int:
    """Closed wedges among forced ws draws ``[(hinge, a, b), ...]`` in
    internal ids, by the library's closure probe. Raises ValueError if
    one is not a wedge."""
    h, a, b = _columns(wedges, 3)
    if not (has_edge_many(g, h, a) & has_edge_many(g, h, b) & (a != b)).all():
        raise ValueError("a draw is not a wedge")
    return int(has_edge_many(g, a, b).sum())


def forced_es_census(g: Graph, sample) -> tuple[int, int]:
    """``(closed, total)`` wedges of a forced es edge sample in internal
    ids, by the library's wedge census."""
    eu, ev = _columns(sample, 2)
    closed, total = _closed_wedges(g, eu, ev, np.zeros(eu.size, dtype=np.int64), 1)
    return int(closed[0]), total
