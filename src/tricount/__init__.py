"""Triangle counting for large sparse graphs.

Exact counting (the forward algorithm), three sampling estimators over
a reproducible random-source contract, the closed-form RSE theory for
each, sample-size inversion, and an empirical trial harness. See the
``tricount`` CLI for the command-line surface.
"""

from .analysis import (RseRow, empirical_rse, rse_sweep, sample_size_for_rse,
                       theory_rse)
from .estimators import (EstimateResult, NoWedgesError, RseDomainError,
                         WedgeSampler, build_wedge_sampler, es_estimate,
                         ews_estimate, ws_estimate)
from .exact import (EdgeTriangleCounts, GraphMetrics, compute_metrics,
                    count_triangles_exact)
from .graph import (EmptyGraphError, Graph, GraphFormatError, has_edge_many,
                    load_edge_list)
from .rng import RandomSource, mix_seed

__version__ = "0.1.0"

__all__ = [
    "EdgeTriangleCounts", "EmptyGraphError", "EstimateResult",
    "Graph", "GraphFormatError", "GraphMetrics", "NoWedgesError",
    "RandomSource", "RseDomainError", "RseRow", "WedgeSampler",
    "build_wedge_sampler", "compute_metrics", "count_triangles_exact",
    "empirical_rse", "es_estimate", "ews_estimate", "has_edge_many",
    "load_edge_list", "mix_seed", "rse_sweep", "sample_size_for_rse",
    "theory_rse", "ws_estimate",
]
