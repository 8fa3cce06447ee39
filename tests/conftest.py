import math
import time

import numpy as np
import pytest

from tricount import RandomSource, compute_metrics
from tricount.estimators import run_trials
from helpers import (FIVE_TRIANGLE_EDGES, complete_edges, er_edges,
                     graph_from_edges, graph_text, hubs_and_path_edges,
                     path_edges, star_edges)

# The reference graph for the statistical checks: Erdos-Renyi with 300
# vertices and edge probability 0.05, pinned seed.
ER_N, ER_PROB, ER_SEED = 300, 0.05, 11

UNBIASEDNESS_RUNS = 20_000
UNBIASEDNESS_SEEDS = {"ews": 101, "es": 202, "ws": 303}


@pytest.fixture(scope="session")
def k3():
    return graph_from_edges(complete_edges(3))


@pytest.fixture(scope="session")
def k4():
    return graph_from_edges(complete_edges(4))


@pytest.fixture(scope="session")
def path3():
    return graph_from_edges(path_edges(2))


@pytest.fixture(scope="session")
def star4():
    return graph_from_edges(star_edges(4))


@pytest.fixture(scope="session")
def five_tri():
    return graph_from_edges(FIVE_TRIANGLE_EDGES)


@pytest.fixture(scope="session")
def hubs_and_path():
    return graph_from_edges(hubs_and_path_edges())


@pytest.fixture(scope="session")
def er300():
    return graph_from_edges(er_edges(ER_N, ER_PROB, ER_SEED))


@pytest.fixture
def er300_file(tmp_path):
    """er300 as an edge-list file, for the CLI."""
    path = tmp_path / "er300.txt"
    path.write_text(graph_text(er_edges(ER_N, ER_PROB, ER_SEED)))
    return str(path)


@pytest.fixture(scope="session")
def er300_metrics(er300):
    return compute_metrics(er300)


@pytest.fixture(scope="session")
def er300_runs20k(er300, er300_metrics):
    """20,000 independent seeded trials of each estimator on er300.

    Returns per method: the engine's estimates (float64) and raw
    statistics (int64) arrays, the plan level and the elapsed seconds.
    Shared by the unbiasedness and variance-match checks.
    """
    g = er300
    k_ws = math.ceil(0.1 * g.m)
    configs = {"ews": ("p", 0.1), "es": ("p", 0.2), "ws": ("k", k_ws)}
    out = {}
    for method, (kind, level) in configs.items():
        start = time.perf_counter()
        sums, _, estimates = run_trials(
            g, method, level,
            RandomSource(UNBIASEDNESS_SEEDS[method]).derive(np.arange(UNBIASEDNESS_RUNS)))
        out[method] = {"estimates": estimates, "raws": sums[0],
                       "kind": kind, "level": level,
                       "elapsed": time.perf_counter() - start}
    return out
