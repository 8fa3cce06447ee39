"""Independent reference computations the library is checked against.

Everything here works from raw edge lists with plain Python data
structures, on purpose: these paths share no code with the CSR
implementation they verify.
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
        h, o = (v, u) if (deg[v], v) < (deg[u], u) else (u, v)
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
