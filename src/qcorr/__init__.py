"""Geometric entanglement and discord of two-qubit Bell-diagonal and X states
under local decoherence channels, with brute-force verification oracles."""

from .channels import (
    ChannelKind,
    apply_local_pair,
    decay_factors,
    evolved_vector,
    kraus_for,
    parse_channel_spec,
)
from .dynamics import (
    ContractivityReport,
    EventRecord,
    Trajectory,
    contractivity_scan,
    d_vs_e_curve,
    run_trajectory,
)
from .errors import (
    BranchUnknown,
    EmptyWindow,
    NonPhysical,
    NotEntangled,
    NumericalFailure,
    OutOfRange,
    QcorrError,
    WindowViolation,
)
from .oracles import (
    OracleResult,
    clamped_minimizer,
    clamped_minimizer_columns,
    closest_classical,
    closest_classical_columns,
    closest_separable_hs,
    closest_separable_hs_columns,
    closest_separable_trace_xfamily,
    closest_separable_trace_xfamily_columns,
    trace_norm,
)
from .quantifiers import (
    Norm,
    QuantifierValue,
    concurrence_x,
    hs_axis_distances,
    hs_discord,
    hs_entanglement,
    trace_discord,
    wootters_concurrence,
)
from .relations import (
    CriticalTimes,
    RelationCase,
    critical_times,
    hs_discord_from_entanglement,
    trace_discord_from_concurrence,
)
from .states import (
    CorrelationVector,
    RegionLabel,
    XState,
    bd_to_density,
    bd_to_xstate,
    bell_eigenvalues,
    classify_region,
    density_to_bd,
    is_entangled_ppt,
    partial_transpose,
    validate_density,
)
from .verify import physical_grid, report_to_json, run_verification

__version__ = "0.1.0"
