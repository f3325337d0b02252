"""Randomized triangle counting for simple undirected graphs.

Exact counting by closing degree-ordered wedges, five two-stage sampling
estimators summed exactly, with closed-form variance analytics and
tail-bound sample planning, and a two-pass variant for edge streams.
"""

from .analytics import (
    EDGE_BOUND,
    VERTEX_BOUND,
    ChernoffPlan,
    VarianceReport,
    chernoff_sample_size,
    plan_from_profile,
    variance_closed_form,
    variance_generic,
    variance_report,
)
from .estimator import Estimate, estimate, run_trials
from .exact import TriangleProfile, count_exact
from .graph import (
    EdgeStreamSource,
    FileEdgeStream,
    Graph,
    MemoryEdgeStream,
    ParseError,
    load_edge_list,
    write_edge_list,
)
from .rng import SampleStreams, seed_streams
from .samplers import (
    EDGE_DEGREE,
    EDGE_UNIFORM,
    OPTIMAL,
    QOPT_DEGREE,
    QOPT_UNIFORM,
    SAMPLER_KINDS,
    SamplerSpec,
    build_sampler,
)
from .streaming import (
    StreamFormatError,
    StreamRun,
    StreamState,
    finalize_stream_estimate,
    pass1_neighborhoods,
    pass2_local_counts,
    pass_count_n,
    stream_estimate,
)

__version__ = "0.1.0"

__all__ = [
    "ChernoffPlan",
    "EDGE_BOUND",
    "EDGE_DEGREE",
    "EDGE_UNIFORM",
    "EdgeStreamSource",
    "Estimate",
    "FileEdgeStream",
    "Graph",
    "MemoryEdgeStream",
    "OPTIMAL",
    "ParseError",
    "QOPT_DEGREE",
    "QOPT_UNIFORM",
    "SAMPLER_KINDS",
    "SampleStreams",
    "SamplerSpec",
    "StreamFormatError",
    "StreamRun",
    "StreamState",
    "TriangleProfile",
    "VERTEX_BOUND",
    "VarianceReport",
    "build_sampler",
    "chernoff_sample_size",
    "count_exact",
    "estimate",
    "finalize_stream_estimate",
    "load_edge_list",
    "pass1_neighborhoods",
    "pass2_local_counts",
    "pass_count_n",
    "plan_from_profile",
    "run_trials",
    "seed_streams",
    "stream_estimate",
    "variance_closed_form",
    "variance_generic",
    "variance_report",
    "write_edge_list",
]
