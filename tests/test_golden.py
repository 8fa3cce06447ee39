"""Golden pins: loading and the exact oracle reproduce recorded bytes.

Any rewrite of the CSR build or of the exact oracle must give
byte-identical arrays and identical metrics, not merely values within a
tolerance, so these digests never change with the implementation.
"""

import hashlib

import numpy as np
import pytest

from tricount import compute_metrics, count_triangles_exact
from helpers import graph_from_text, graph_text, powerlaw_edges


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(arr.dtype.str.encode() + b"\0")
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _powerlaw_text() -> str:
    """A criterion-8 graph at 10k edges, written in a scrambled order.

    Rows are shuffled, endpoints flipped at random, ids spread out, and
    duplicates, reversed duplicates and self-loops added, so the
    first-appearance remap and the deduplication both have work to do.
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
    return graph_text(zip(a.tolist(), b.tolist()))


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
