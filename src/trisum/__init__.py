"""Vertex-distinguishing 3-weightings of graphs.

A library and CLI around a randomized construction of edge weightings with
weights 1, 2, 3 whose induced weighted degrees properly colour the
vertices, plus an exact small-graph oracle and a verification harness.
"""

from .analytic import (
    breakpoints,
    dbar_closed_form,
    r_value,
)
from .graph import (
    Graph,
    gen_gnp,
    gen_random_regular,
    load_edge_list,
    parse_edge_list,
    write_edge_list,
)
from .oracle import OracleResult, min_k_weighting, sweep_small_graphs
from .partition import Partition, audit_partition, sample_partition
from .pipeline import PipelineOutcome, run
from .profiles import DESK, FULL_SCALE, ProfileConstants, load_profile, resolve_profile
from .ustage import build_estar, final_verify, finalize_u
from .weighting import (
    EdgeWeighting,
    conflicts,
    weighted_degrees,
)
from .wstage import apply_additions, choose_sum_additions, resample_w_stage

__version__ = "0.1.0"
