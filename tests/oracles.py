"""Independent reference computations the library is checked against.

Everything here works from raw edge lists, in the ids of the list, with
plain Python data structures, on purpose: these paths share no code with
the CSR implementation they verify. They cover triangle counts, T(e),
phi, the ews moments and single ews increments, wedge closure, the
closed-wedge census of an edge sample, and edge membership.
"""

from fractions import Fraction
from itertools import combinations


def clean_edges(edges):
    """Drop self-loops, deduplicate, canonicalize to (min, max) pairs."""
    return sorted({(min(u, v), max(u, v)) for u, v in edges if u != v})


def adjacency(edges):
    adj = {}
    for u, v in clean_edges(edges):
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    return adj


def hinge(adj, u, v):
    """The hinge of edge (u, v) and its other end: the lower-degree
    endpoint, ties to the smaller id."""
    return (v, u) if (len(adj[v]), v) < (len(adj[u]), u) else (u, v)


def has_edges(edges, pairs):
    """Whether each (u, v) of ``pairs`` is an edge."""
    adj = adjacency(edges)
    return [v in adj.get(u, ()) for u, v in pairs]


def ews_increment(edges, u, v, w):
    """ews contribution of sampled edge (u, v) with phase-two draw ``w``:
    degree(hinge) - 1 if the wedge at the hinge closes, else 0. ``w``
    must be a neighbor of the hinge other than the edge's other end."""
    adj = adjacency(edges)
    h, o = hinge(adj, u, v)
    if w == o or w not in adj[h]:
        raise ValueError(f"{w} is not an eligible wedge draw for edge ({u}, {v})")
    return len(adj[h]) - 1 if w in adj[o] else 0


def wedge_closed(edges, h, a, b):
    """Whether the wedge a-h-b is closed (its endpoints adjacent)."""
    adj = adjacency(edges)
    if a == b or a not in adj[h] or b not in adj[h]:
        raise ValueError(f"({a}, {h}, {b}) is not a wedge")
    return b in adj[a]


def closed_wedge_census(edges, sample):
    """``(closed, total)`` over the wedges of an edge sample: each pair of
    sampled edges sharing a vertex, closed when its other ends are
    adjacent in the graph."""
    adj = adjacency(edges)
    ends = [set(e) ^ set(f) for e, f in combinations(clean_edges(sample), 2)
            if len(set(e) ^ set(f)) == 2]
    return sum(b in adj[a] for a, b in map(sorted, ends)), len(ends)


def triangles_by_triples(edges):
    """All triangles by testing every vertex triple."""
    adj = adjacency(edges)
    verts = sorted(adj)
    return [t for t in combinations(verts, 3)
            if t[1] in adj[t[0]] and t[2] in adj[t[0]] and t[2] in adj[t[1]]]


def edge_triangle_counts(edges):
    """T(e) for every cleaned edge (min, max), from triangle enumeration."""
    counts = dict.fromkeys(clean_edges(edges), 0)
    for a, b, c in triangles_by_triples(edges):
        for e in ((a, b), (a, c), (b, c)):
            counts[e] += 1
    return counts


def phi_by_triangle_enumeration(edges):
    """Sum over triangles of (sum of per-edge min endpoint degrees) - 3."""
    adj = adjacency(edges)
    deg = {v: len(adj[v]) for v in adj}
    total = 0
    for a, b, c in triangles_by_triples(edges):
        sigma = sum(min(deg[x], deg[y]) for x, y in ((a, b), (a, c), (b, c)))
        total += sigma - 3
    return total


def ews_moments_exhaustive(edges, p):
    """Exact mean and variance of the ews raw statistic for tiny graphs.

    Each edge contributes independently: with probability p it is
    selected, then one wedge draw at its lower-degree endpoint (ties to
    the smaller id) yields degree-1 when closed, else 0. Exact
    rational arithmetic over all outcomes.
    """
    adj = adjacency(edges)
    deg = {v: len(adj[v]) for v in adj}
    pf = Fraction(p).limit_denominator(10**9)
    mean = Fraction(0)
    var = Fraction(0)
    for u, v in clean_edges(edges):
        h, o = hinge(adj, u, v)
        dh = deg[h]
        if dh == 1:
            continue
        draws = sorted(adj[h] - {o})
        outcomes = [(Fraction(1, dh - 1), dh - 1 if w in adj[o] else 0)
                    for w in draws]
        ex = pf * sum(pr * c for pr, c in outcomes)
        ex2 = pf * sum(pr * c * c for pr, c in outcomes)
        mean += ex
        var += ex2 - ex * ex
    return float(mean), float(var)
