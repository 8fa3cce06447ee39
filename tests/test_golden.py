"""Golden pins: loading, the exact oracle and the estimators reproduce
recorded values.

Any rewrite of the CSR build, the exact oracle or the estimators must
give byte-identical arrays, identical metrics and identical estimates,
not merely values within a tolerance, so these pins never change with
the implementation.
"""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from tricount import (RandomSource, compute_metrics, count_triangles_exact,
                      es_estimate, ews_estimate, ws_estimate)
from tricount import cli, estimators
from helpers import graph_from_text, graph_text, powerlaw_edges


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(arr.dtype.str.encode() + b"\0")
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _powerlaw_text(shift: int = 0) -> str:
    """A criterion-8 graph at 10k edges, written in a scrambled order.

    Rows are shuffled, endpoints flipped at random, ids spread out, and
    duplicates, reversed duplicates and self-loops added, so the
    first-appearance remap and the deduplication both have work to do.
    Every id is then raised by ``shift``.
    """
    u, v = powerlaw_edges(8675309, n=3_000, raw=14_000, m=10_000)
    rng = np.random.default_rng(5)
    flip = rng.random(u.size) < 0.5
    a, b = np.where(flip, v, u), np.where(flip, u, v)
    dup = rng.choice(u.size, 500, replace=False)
    loops = rng.choice(3_000, 50, replace=False)
    a = np.concatenate([a, b[dup], loops])
    b = np.concatenate([b, a[dup], loops])
    order = rng.permutation(a.size)
    a, b = a[order] * 7 + 3, b[order] * 7 + 3
    return graph_text((x + shift, y + shift) for x, y in zip(a.tolist(), b.tolist()))


# graph -> (offsets, neighbors, original_ids, T(e)) digests, (n, m), (Δ, λ, φ, K)
GOLDEN = {
    "er300": (
        ("96af0c45e0866b5076c74e81230165a06efecce602b4ff9789d0293f63e6a58a",
         "ff8588425d85bbe6a141ca6e62cde6809dc04d4e6e62a1f77f557377fffab158",
         "293c2c454933fc6f54f6a19d20bee56c320cedfe736ef63fe4660f951f16357a",
         "492ad5f3097976bd7a79ebef0895fc1ae2f973ae9e0f45c4ade6e1758300fb1b"),
        (300, 2_239),
        (547, 33_551, 23_026, 653),
    ),
    "powerlaw10k": (
        ("a9090438e11375bbd6af381ae53679ae49d8dda2c7b77d901c4a89a6954ef15e",
         "e993f600b18f8185a9baad3bfa709b7ec67e86ecd6d52e485537da6dcbea66ec",
         "ab6e6124be2b1c76501a3560e136028abf63eca446eedaa6401b00f712bc66dd",
         "0c8c71d839417dc53ae0082e5628de9e9569e3aa619b181444ecf94a9f94a888"),
        (2_882, 10_000),
        (2_933, 367_572, 349_577, 29_754),
    ),
}


@pytest.fixture(scope="module")
def graphs(er300):
    return {"er300": er300, "powerlaw10k": graph_from_text(_powerlaw_text())}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csr_and_oracle(graphs, name):
    g = graphs[name]
    _, per_edge = count_triangles_exact(g)
    met = compute_metrics(g)
    got = ((_digest(g.offsets), _digest(g.neighbors), _digest(g.original_ids),
            _digest(per_edge.counts)),
           (g.n, g.m),
           (met.triangle_count, met.wedge_count, met.phi, met.shared_edge_pairs))
    assert got == GOLDEN[name]


def test_golden_csr_of_ids_too_wide_to_pack(graphs):
    # Ids of 2**62 and up do not fit in 64 bits with a position, so the
    # remap takes its stable argsort; the graph must not change.
    g = graph_from_text(_powerlaw_text(shift=2**62))
    offsets, neighbors, original_ids, _ = GOLDEN["powerlaw10k"][0]
    assert (_digest(g.offsets), _digest(g.neighbors)) == (offsets, neighbors)
    assert _digest(g.original_ids - 2**62) == original_ids
    assert np.array_equal(g.original_ids - 2**62, graphs["powerlaw10k"].original_ids)


# Single estimates: graph -> method -> (level, {seed: (estimate, raw, sampled)})
GOLDEN_ESTIMATES = {
    "er300": {
        "ews": (0.1, {3: (363.33333333333326, 109, 250),
                      17: (449.99999999999994, 135, 208),
                      2024: (633.3333333333333, 190, 211)}),
        "es": (0.2, {3: (658.3333333333333, 79, 475),
                     17: (533.3333333333333, 64, 447),
                     2024: (533.3333333333333, 64, 425)}),
        "ws": (224, {3: (299.5625, 6, 224),
                     17: (599.125, 12, 224),
                     2024: (599.125, 12, 224)}),
    },
    "five_tri": {
        "ews": (0.3, {3: (5.555555555555556, 5, 5),
                      17: (7.777777777777779, 7, 6),
                      2024: (7.777777777777779, 7, 7)}),
        "es": (0.5, {3: (8.0, 6, 9),
                     17: (8.0, 6, 9),
                     2024: (6.666666666666667, 5, 10)}),
        "ws": (20, {3: (4.666666666666667, 5, 20),
                    17: (2.8, 3, 20),
                    2024: (2.8, 3, 20)}),
    },
}
# sha256 of the stdout of ``tricount rse-sweep`` on er300 (_sweep_digest)
GOLDEN_SWEEP_SHA256 = "96852a978d70f76edd254b1438dbffba19c2f5c40508b3a95a1de2f289d7e703"
# ... at --p 0.05 and 2,051 runs, three blocks of trials per row
GOLDEN_SWEEP_BLOCKS_SHA256 = "945db2e91c2baf2508962099fae9740a7ab90b4fb23fc82cdf79afd21b611cca"


@pytest.mark.parametrize("name", sorted(GOLDEN_ESTIMATES))
@pytest.mark.parametrize("method", ["ews", "es", "ws"])
def test_golden_estimates(er300, five_tri, name, method):
    g = {"er300": er300, "five_tri": five_tri}[name]
    estimate = {"ews": ews_estimate, "es": es_estimate, "ws": ws_estimate}[method]
    level, want = GOLDEN_ESTIMATES[name][method]
    for seed, (est, raw, sampled) in want.items():
        res = estimate(g, level, RandomSource(seed))
        assert (res.estimate, res.raw_statistic, res.entities_sampled) == (est, raw, sampled)
        assert type(res.raw_statistic) is int


def _sweep_digest(path, ps=("0.1", "0.2"), runs=50) -> str:
    out = io.StringIO()
    levels = [arg for p in ps for arg in ("--p", p)]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["rse-sweep", "--graph", path, "--method", "ews",
                         "--method", "es", "--method", "ws", *levels,
                         "--runs", str(runs), "--seed", "7"])
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_golden_sweep_csv(er300_file):
    assert _sweep_digest(er300_file) == GOLDEN_SWEEP_SHA256


def test_golden_sweep_csv_over_blocks(er300_file):
    assert _sweep_digest(er300_file, ["0.05"], 2051) == GOLDEN_SWEEP_BLOCKS_SHA256


@pytest.mark.parametrize("chunk", [1, 7])
def test_phase_one_chunk_does_not_change_results(monkeypatch, er300, er300_file,
                                                  five_tri, chunk):
    monkeypatch.setattr(estimators, "_CHUNK", chunk)
    for name, g in {"er300": er300, "five_tri": five_tri}.items():
        for method in ("ews", "es"):
            level, want = GOLDEN_ESTIMATES[name][method]
            for seed, expected in want.items():
                res = estimators.estimate(g, method, level, RandomSource(seed))
                assert (res.estimate, res.raw_statistic, res.entities_sampled) == expected
    if chunk > 1:
        # Chunk 7 already cuts every draw, batch and es pair block the
        # sweep makes, so chunk 1, whose one-trial batches run the sweep
        # ~10x slower, checks the estimates alone.
        assert _sweep_digest(er300_file) == GOLDEN_SWEEP_SHA256
