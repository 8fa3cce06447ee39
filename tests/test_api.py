from pathlib import Path

import tricount
from tricount import estimators, graph

# The public API, pinned so that any growth or removal shows in review.
PUBLIC_API = [
    "EdgeTriangleCounts", "EmptyGraphError", "EstimateResult", "Graph",
    "GraphFormatError", "GraphMetrics", "NoWedgesError", "RandomSource",
    "RseDomainError", "RseRow", "SampleSizeRequest",
    "SamplingPlan", "WedgeSampler", "build_wedge_sampler", "compute_metrics",
    "count_triangles_exact", "empirical_rse", "es_estimate", "ews_estimate",
    "has_edge_many", "load_edge_list", "mix_seed",
    "rse_omega_approx", "rse_omega_exact", "rse_rho_approx", "rse_rho_exact",
    "rse_sweep", "rse_tau_approx", "rse_tau_exact", "sample_size_for_rse",
    "theory_rse", "wedge_count", "ws_estimate",
]


def test_public_api_is_pinned():
    assert sorted(tricount.__all__) == PUBLIC_API
    namespace = {}
    exec("from tricount import *", namespace)
    assert all(name in namespace for name in PUBLIC_API)


def test_tracer_bindings_resolve_and_are_restored(monkeypatch):
    # The benchmark's tracer binds library names by name; a missing one
    # fails here rather than only in a traced benchmark run.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "tribench"))
    import tracer

    bound = (graph.has_edge_many, estimators.has_edge_many, graph.neighbor_rank)
    with tracer.Tracer().installed():
        assert graph.has_edge_many is not bound[0]
    after = (graph.has_edge_many, estimators.has_edge_many, graph.neighbor_rank)
    assert all(a is b for a, b in zip(after, bound))
