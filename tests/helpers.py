"""Shared graph builders for the test suite."""

import io
from itertools import combinations

import numpy as np

from tricount import Graph, load_edge_list


def graph_text(edges) -> str:
    return "\n".join(f"{u} {v}" for u, v in edges) + "\n"


def graph_from_edges(edges) -> Graph:
    return load_edge_list(io.BytesIO(graph_text(edges).encode()))


def graph_from_text(text: str) -> Graph:
    return load_edge_list(io.BytesIO(text.encode()))


def complete_edges(n):
    return list(combinations(range(n), 2))


def path_edges(length):
    return [(i, i + 1) for i in range(length)]


def star_edges(leaves):
    return [(0, i) for i in range(1, leaves + 1)]


def circulant_edges(n, width):
    """n vertices, each linked to the next ``width`` (mod n): m = n*width."""
    return [(i, (i + d) % n) for i in range(n) for d in range(1, width + 1)]


def er_edges(n, prob, seed):
    """Erdos-Renyi G(n, prob) edge list, deterministic for a seed."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < prob
    return list(zip(iu[keep].tolist(), iv[keep].tolist()))


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
