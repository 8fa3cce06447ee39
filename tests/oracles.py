"""Independent reference computations the library is checked against.

Everything here works from raw edge lists, in the ids of the list, with
plain Python data structures, on purpose: these paths share no code with
the CSR implementation they verify. They cover triangle counts, T(e),
phi, the ews moments and single ews increments, wedge closure, the
closed-wedge census of an edge sample, and edge membership. They also
hold the closed-form RSEs as named functions of scalars, which the
library's method table must reproduce bit for bit, the true es variance,
and exhaustive es and ws moments to check the forms against.
"""

import math
from fractions import Fraction
from itertools import combinations, permutations, product


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


def _check_p_delta(p, delta):
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    if delta <= 0:
        raise ValueError("triangle count must be positive")


def _check_clustering(c):
    if not 0.0 < c <= 1.0:
        raise ValueError(f"clustering coefficient {c} is not in (0, 1]")


def rse_tau_exact(p, delta, shared_pairs, phi):
    """Exact RSE of the ews raw statistic: sqrt(p*phi - p^2(3D + 2K)) / (3pD)."""
    _check_p_delta(p, delta)
    radicand = p * phi - p * p * (3.0 * delta + 2.0 * shared_pairs)
    if radicand < 0:
        if radicand > -1e-9 * max(p * phi, 1.0):  # exact-zero variance cases
            radicand = 0.0
        else:
            raise ValueError("negative variance: inconsistent metrics")
    return math.sqrt(radicand) / (3.0 * p * delta)


def rse_tau_approx(p, delta, phi):
    """Approximate ews RSE: sqrt(phi / (9 p D^2)); drops the negative term."""
    _check_p_delta(p, delta)
    return math.sqrt(phi / (9.0 * p * delta * delta))


def rse_omega_exact(p, m, clustering, wedges):
    """Exact RSE of the ws closed-wedge count for k = pm draws without
    replacement: sqrt((1-C)/(pmC) * (1 - (pm-1)/(L-1)))."""
    _check_clustering(clustering)
    k = p * m
    if k < 1:
        raise ValueError("exact form requires p*m >= 1")
    if wedges <= 1 or k > wedges:
        raise ValueError("need more than one wedge and k <= wedge count")
    radicand = (1.0 - clustering) / (k * clustering) * (1.0 - (k - 1.0) / (wedges - 1.0))
    return math.sqrt(radicand)


def rse_omega_approx(p, m, clustering):
    """Approximate ws RSE: sqrt((1-C) / (pmC))."""
    _check_clustering(clustering)
    return math.sqrt((1.0 - clustering) / (p * m * clustering))


def rse_rho_exact(p, delta, shared_pairs):
    """The library's exact es RSE: sqrt(3D(p^2-p^4) + 8K(p^3-p^4)) / (3 p^2 D).
    Its variance leaves out 6D(p^3-p^4); ``es_variance`` is the true one."""
    _check_p_delta(p, delta)
    variance = 3.0 * delta * (p**2 - p**4) + 8.0 * shared_pairs * (p**3 - p**4)
    return math.sqrt(variance) / (3.0 * p * p * delta)


def rse_rho_approx(p, delta, shared_pairs):
    """Approximate es RSE: sqrt(1/(3 p^2 D) + 8K/(9 p D^2))."""
    _check_p_delta(p, delta)
    return math.sqrt(1.0 / (3.0 * p * p * delta)
                     + 8.0 * shared_pairs / (9.0 * p * delta * delta))


def es_variance(p, delta, shared_pairs):
    """Variance of the es closed-wedge count: 3D(p^2-p^4) + (6D + 8K)(p^3-p^4).

    The count sums one indicator per closed wedge, set when both its
    edges are kept: 3D(p^2-p^4) from each one alone, 6D(p^3-p^4) from the
    ordered pairs of one triangle's wedges, which share one edge, and
    8K(p^3-p^4) from the ordered pairs on two triangles that share an edge.
    Exact in ``Fraction`` arithmetic for ``Fraction`` or integer
    arguments."""
    return 3 * delta * (p**2 - p**4) + (6 * delta + 8 * shared_pairs) * (p**3 - p**4)


def es_moments_exhaustive(edges, p):
    """Exact mean and variance, as ``Fraction``, of the es closed-wedge
    count over every Bernoulli(p) subset of the edges."""
    es = clean_edges(edges)
    p = Fraction(p)
    mean = second = Fraction(0)
    for keep in product((False, True), repeat=len(es)):
        sample = [e for e, k in zip(es, keep) if k]
        weight = p ** len(sample) * (1 - p) ** (len(es) - len(sample))
        closed, _ = closed_wedge_census(edges, sample)
        mean += weight * closed
        second += weight * closed * closed
    return mean, second - mean * mean


def ws_moments_exhaustive(edges, k, replace=True):
    """Exact mean and variance, as ``Fraction``, of the closed count over
    every sequence of ``k`` uniform wedge draws, with replacement or
    (``replace=False``) without."""
    adj = adjacency(edges)
    closed = [b in adj[a] for h in adj for a, b in combinations(adj[h], 2)]
    runs = product(closed, repeat=k) if replace else permutations(closed, k)
    counts = [sum(run) for run in runs]
    mean = Fraction(sum(counts), len(counts))
    return mean, Fraction(sum(c * c for c in counts), len(counts)) - mean * mean
