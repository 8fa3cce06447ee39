import re
from pathlib import Path

import tricount
from tricount import estimators, graph
from helpers import complete_edges, graph_text

REPO = Path(__file__).resolve().parents[1]

# The public API, pinned so that any growth or removal shows in review.
PUBLIC_API = [
    "EdgeTriangleCounts", "EmptyGraphError", "EstimateResult", "Graph",
    "GraphFormatError", "GraphMetrics", "NoWedgesError", "RandomSource",
    "RseDomainError", "RseRow", "WedgeSampler",
    "build_wedge_sampler", "compute_metrics", "count_triangles_exact",
    "empirical_rse", "es_estimate", "ews_estimate", "has_edge_many",
    "load_edge_list", "mix_seed", "rse_sweep", "sample_size_for_rse",
    "theory_rse", "ws_estimate",
]


def test_public_api_is_pinned():
    assert sorted(tricount.__all__) == PUBLIC_API
    namespace = {}
    exec("from tricount import *", namespace)
    assert all(name in namespace for name in PUBLIC_API)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # The README's python block is the documented use of the API; it must
    # run as written, on a small graph in its own directory.
    block, = re.findall(r"```python\n(.*?)```", (REPO / "README.md").read_text(),
                        re.DOTALL)
    (tmp_path / "graph.txt").write_text(graph_text(complete_edges(6)))
    monkeypatch.chdir(tmp_path)
    exec(block, {})
    assert capsys.readouterr().out.startswith("20 ")


def test_tracer_bindings_resolve_and_are_restored(monkeypatch):
    # The benchmark's tracer binds library names by name; a missing one
    # fails here rather than only in a traced benchmark run.
    monkeypatch.syspath_prepend(str(REPO / "tribench"))
    import tracer

    bound = (graph.has_edge_many, estimators.has_edge_many, graph.neighbor_rank)
    with tracer.Tracer().installed():
        assert graph.has_edge_many is not bound[0]
    after = (graph.has_edge_many, estimators.has_edge_many, graph.neighbor_rank)
    assert all(a is b for a, b in zip(after, bound))
