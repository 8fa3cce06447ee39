"""Triangle counting for large sparse graphs.

Exact counting (the forward algorithm), three sampling estimators over
a reproducible random-source contract, the closed-form RSE theory for
each, sample-size inversion, and an empirical trial harness. See the
``tricount`` CLI for the command-line surface.
"""

from .analysis import (RseReport, RseRow, SampleSizeRequest, empirical_rse,
                       rse_sweep, sample_size_for_rse, theory_rse)
from .estimators import (EstimateResult, NoWedgesError, RseDomainError,
                         SamplingPlan, WedgeSampler, build_wedge_sampler,
                         es_estimate, ews_estimate, rse_omega_approx,
                         rse_omega_exact, rse_rho_approx, rse_rho_exact,
                         rse_tau_approx, rse_tau_exact, ws_estimate)
from .exact import (EdgeTriangleCounts, GraphMetrics, compute_metrics,
                    count_triangles_exact, wedge_count)
from .graph import (EmptyGraphError, Graph, GraphFormatError, has_edge_many,
                    load_edge_list)
from .rng import RandomSource, mix_seed

__version__ = "0.1.0"

__all__ = [
    "EdgeTriangleCounts", "EmptyGraphError", "EstimateResult",
    "Graph", "GraphFormatError", "GraphMetrics", "NoWedgesError",
    "RandomSource", "RseDomainError", "RseReport", "RseRow",
    "SampleSizeRequest", "SamplingPlan", "WedgeSampler",
    "build_wedge_sampler", "compute_metrics", "count_triangles_exact",
    "empirical_rse", "es_estimate", "ews_estimate", "has_edge_many",
    "load_edge_list", "mix_seed",
    "rse_omega_approx", "rse_omega_exact", "rse_rho_approx", "rse_rho_exact",
    "rse_sweep", "rse_tau_approx", "rse_tau_exact", "sample_size_for_rse",
    "theory_rse", "wedge_count", "ws_estimate",
]
