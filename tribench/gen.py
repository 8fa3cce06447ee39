"""Seeded benchmark inputs and an independent triangle oracle.

Two generators, each a pure function of its seed:

* ``powerlaw``: the criterion-8 power-law graph of the acceptance suite.
  Endpoints are drawn with weight ``i ** -0.7`` over ``n`` ids, self-loops
  and duplicates are dropped, and ``m`` of the distinct edges are kept.
  Seed 8675309 gives n = 286,258 and m = 1,000,000.
* ``er``: Erdos-Renyi G(n, prob) over the upper triangle. Seed 11 with
  n = 300 and prob 0.05 gives m = 2,239.

``triangle_facts`` counts triangles, wedges and the variance drivers
(phi, K) with a sort-and-search enumeration that shares no code with the
program under test, so the benchmark can check the program's answers at
any seed.

Run as a script, it writes one edge list and its facts into a cache
directory (``python3 tribench/gen.py --kind powerlaw --seed 7 --size full
--out DIR``); ``ensure_input`` in ``run.py`` calls it in its own process.
"""

from __future__ import annotations

import argparse
import json
import os
import time
from pathlib import Path

import numpy as np

SIZES = {
    # kind -> size -> generator parameters
    "powerlaw": {"full": {"n": 300_000, "raw": 1_400_000, "m": 1_000_000},
                 "tiny": {"n": 3_000, "raw": 14_000, "m": 10_000}},
    "er": {"full": {"n": 300, "prob": 0.05},
           "tiny": {"n": 60, "prob": 0.2}},
}

# Oriented wedges checked per chunk by the oracle; bounds its memory.
_CHUNK = 1 << 22


def _sorted_unique(x: np.ndarray) -> np.ndarray:
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def powerlaw_edges(seed: int, n: int, raw: int, m: int):
    """The criterion-8 generator: ``m`` distinct skewed edges, sorted by (u, v)."""
    rng = np.random.default_rng(seed)
    weights = np.arange(1, n + 1, dtype=np.float64) ** -0.7
    cum = np.cumsum(weights)
    cum /= cum[-1]
    us = np.searchsorted(cum, rng.random(raw)).astype(np.int64)
    vs = np.searchsorted(cum, rng.random(raw)).astype(np.int64)
    keep = us != vs
    lo = np.minimum(us[keep], vs[keep])
    hi = np.maximum(us[keep], vs[keep])
    # Same sorted distinct keys as np.unique, without its slower hash path.
    keys = _sorted_unique(lo * np.int64(n) + hi)
    if keys.size < m:
        raise ValueError(f"seed {seed}: only {keys.size} distinct edges, need {m}")
    pick = np.sort(rng.permutation(keys.size)[:m])
    return keys[pick] // n, keys[pick] % n


def er_edges(seed: int, n: int, prob: float):
    """Erdos-Renyi G(n, prob) edge list, deterministic for a seed."""
    rng = np.random.default_rng(seed)
    iu, iv = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < prob
    return iu[keep].astype(np.int64), iv[keep].astype(np.int64)


def triangle_facts(u: np.ndarray, v: np.ndarray) -> dict:
    """Exact counts of a simple undirected graph given as distinct edges u != v.

    Edges are oriented from lower to higher (degree, id) rank; every
    triangle is found once as an oriented wedge s->t->w whose closing edge
    s->w exists, which a binary search over the sorted oriented keys decides.
    """
    ids, inv = np.unique(np.concatenate([u, v]), return_inverse=True)
    n = int(ids.size)
    m = int(u.size)
    a, b = inv[:m].astype(np.int64), inv[m:].astype(np.int64)
    deg = np.bincount(np.concatenate([a, b]), minlength=n).astype(np.int64)
    rank = np.empty(n, dtype=np.int64)
    rank[np.lexsort((np.arange(n), deg))] = np.arange(n)
    fwd = rank[a] < rank[b]
    s = np.where(fwd, a, b)
    t = np.where(fwd, b, a)
    key = s * n + t
    order = np.argsort(key, kind="stable")
    s, t, key = s[order], t[order], key[order]
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(s, minlength=n), out=off[1:])

    per_edge = off[t + 1] - off[t]           # oriented wedges s->t->w per edge
    ends = np.cumsum(per_edge)
    tri_of_edge = np.zeros(m, dtype=np.int64)
    delta = 0
    first = 0
    while first < m:
        base = ends[first - 1] if first else 0
        last = int(np.searchsorted(ends, base + _CHUNK, side="right"))
        last = max(last, first + 1)
        cnt = per_edge[first:last]
        total = int(cnt.sum())
        if total:
            e = np.repeat(np.arange(first, last), cnt)
            within = np.arange(total) - np.repeat(ends[first:last] - cnt - base, cnt)
            tw = off[t[e]] + within           # index of oriented edge t->w
            q = s[e] * n + t[tw]
            sw = np.minimum(np.searchsorted(key, q), m - 1)
            hit = key[sw] == q
            delta += int(hit.sum())
            tri_of_edge += np.bincount(
                np.concatenate([e[hit], tw[hit], sw[hit]]), minlength=m)
        first = last

    min_deg = np.minimum(deg[s], deg[t])
    return {
        "n": n,
        "m": m,
        "delta": delta,
        "wedges": int((deg * (deg - 1) // 2).sum()),
        "phi": int((tri_of_edge * (min_deg - 1)).sum()),
        "K": int((tri_of_edge * (tri_of_edge - 1) // 2).sum()),
        "max_degree": int(deg.max()),
    }


def generate(kind: str, seed: int, size: str):
    params = SIZES[kind][size]
    if kind == "powerlaw":
        return powerlaw_edges(seed, **params)
    return er_edges(seed, **params)


def write_input(kind: str, seed: int, size: str, out: Path) -> dict:
    """Write ``<stem>.txt`` and ``<stem>.json`` (facts) into ``out`` atomically."""
    stem = out / f"{kind}-{size}-{seed}"
    start = time.perf_counter()
    u, v = generate(kind, seed, size)
    text = "\n".join(f"{a} {b}" for a, b in zip(u.tolist(), v.tolist())) + "\n"
    gen_s = time.perf_counter() - start
    facts = triangle_facts(u, v)
    facts.update(kind=kind, seed=seed, size=size, bytes=len(text), gen_s=gen_s)
    out.mkdir(parents=True, exist_ok=True)
    for suffix, body in ((".txt", text), (".json", json.dumps(facts))):
        tmp = stem.with_suffix(suffix + f".tmp{os.getpid()}")
        tmp.write_text(body)
        os.replace(tmp, stem.with_suffix(suffix))
    return facts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", choices=sorted(SIZES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    write_input(args.kind, args.seed, args.size, args.out)


if __name__ == "__main__":
    main()
