"""Purification of thermal graph states under independent phase noise.

Simulation stack, bottom to top: exact dense oracle (small systems), a
pattern-level trajectory engine (graph + error bits + correction frame), the
Bell-pair recurrence channel, the divide-and-rebuild protocol itself, and a
desk-scale check of the two-party reconstruction argument behind the
threshold's optimality.

Purifiability has one predicate, ``purifiable_at(p)``; for a thermal model
use ``purifiable_at(model.error_prob())``.
"""

from .errors import CapacityError, InvariantError, ParameterError
from .graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    icosahedron_graph,
    load_graph,
    parse_family,
    path_graph,
    read_edge_list,
    star_graph,
    write_edge_list,
)
from .optimality import (
    Reconstruction,
    VerifyResult,
    build_reconstruction,
    proof_applies,
    reconstruction_plan,
    verify_reconstruction,
)
from .pairs import (
    BellDiagonal,
    composite_r2,
    distill_trace,
    from_z_noise,
    hashing_yield,
    recurrence_step,
)
from .pattern import (
    PatternState,
    apply_cz,
    apply_cz_via_pair,
    ideal_state,
    is_ideal,
    measure_z,
    merge_local,
    sample_thermal,
)
from .protocol import (
    ExtractionPlan,
    PairExtraction,
    ProtocolResult,
    RateReport,
    ScanRow,
    n_geo_formula,
    plan_extraction,
    rate_report,
    run_drpp,
    threshold_scan,
)
from .rng import derive_rng, derive_seed
from .thermal import (
    P_STAR,
    ThermalModel,
    critical_temperature,
    purifiable_at,
    temperature_for_p,
)
from .verification import SweepReport, check_graph, run_oracle_sweep

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "CapacityError",
    "InvariantError",
    "ParameterError",
    "Graph",
    "complete_graph",
    "cycle_graph",
    "grid_graph",
    "icosahedron_graph",
    "load_graph",
    "parse_family",
    "path_graph",
    "read_edge_list",
    "star_graph",
    "write_edge_list",
    "P_STAR",
    "ThermalModel",
    "critical_temperature",
    "purifiable_at",
    "temperature_for_p",
    "PatternState",
    "apply_cz",
    "apply_cz_via_pair",
    "ideal_state",
    "is_ideal",
    "measure_z",
    "merge_local",
    "sample_thermal",
    "BellDiagonal",
    "composite_r2",
    "distill_trace",
    "from_z_noise",
    "hashing_yield",
    "recurrence_step",
    "ExtractionPlan",
    "PairExtraction",
    "ProtocolResult",
    "RateReport",
    "ScanRow",
    "n_geo_formula",
    "plan_extraction",
    "rate_report",
    "run_drpp",
    "threshold_scan",
    "Reconstruction",
    "VerifyResult",
    "build_reconstruction",
    "proof_applies",
    "reconstruction_plan",
    "verify_reconstruction",
    "SweepReport",
    "check_graph",
    "run_oracle_sweep",
    "derive_rng",
    "derive_seed",
]
