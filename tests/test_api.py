import tricount

# The public API, pinned so that any growth or removal shows in review.
PUBLIC_API = [
    "EdgeTriangleCounts", "EmptyGraphError", "EstimateResult", "Graph",
    "GraphFormatError", "GraphMetrics", "NoWedgesError", "RandomSource",
    "RseDomainError", "RseReport", "RseRow", "SampleSizeRequest",
    "SamplingPlan", "WedgeSampler", "brute_force_triangles",
    "build_wedge_sampler", "compute_metrics", "count_closed_wedges",
    "count_triangles_exact", "empirical_rse", "es_estimate", "ews_estimate",
    "ews_wedge_increment", "has_edge_many", "load_edge_list", "mix_seed",
    "rse_omega_approx", "rse_omega_exact", "rse_rho_approx", "rse_rho_exact",
    "rse_sweep", "rse_tau_approx", "rse_tau_exact", "sample_size_for_rse",
    "theory_rse", "wedge_count", "wedge_is_closed", "ws_estimate",
]


def test_public_api_is_pinned():
    assert sorted(tricount.__all__) == PUBLIC_API
    namespace = {}
    exec("from tricount import *", namespace)
    assert all(name in namespace for name in PUBLIC_API)
