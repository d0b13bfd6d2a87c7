"""Splitting solver for coupled systems of composite monotone inclusions."""

from .errors import (
    ConfigurationError,
    HypothesisError,
    InfeasibleError,
    MonosplitError,
    NotComputableError,
    NumericError,
    OracleError,
    SpecificationError,
    StepBoundError,
)
from .linops import (
    LinOp,
    OpNormEstimate,
    adjoint_check,
    compose,
    dense_op,
    identity_op,
    operator_norm,
    scaled_identity_op,
    zero_op,
)
from .minimization import (
    MinimizationSpec,
    SmoothFunction,
    build_system,
    dual_surrogate,
    primal_surrogate,
    quadratic_smooth,
    smooth_coupling,
    zero_smooth,
)
from .prox import (
    ConvexFunction,
    LipschitzCoupling,
    ResolventOp,
    make_function,
    resolvent_of_inverse,
    soft_threshold,
    zero_coupling,
)
from .solver import (
    BlockSteps,
    ErrorSchedule,
    IterateState,
    StepPolicy,
    TraceRecord,
    geometric_schedule,
    make_policy,
    solve,
    step,
    write_trace_csv,
    zero_schedule,
)
from .system import (
    SolutionPair,
    SpaceLayout,
    SystemSpec,
    compute_beta,
    extract_solution,
    fixed_point_residual,
    step_policy,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "HypothesisError", "InfeasibleError",
    "MonosplitError", "NotComputableError", "NumericError", "OracleError",
    "SpecificationError", "StepBoundError",
    "LinOp", "OpNormEstimate", "adjoint_check", "compose", "dense_op",
    "identity_op", "operator_norm", "scaled_identity_op", "zero_op",
    "MinimizationSpec", "SmoothFunction", "build_system", "dual_surrogate",
    "primal_surrogate", "quadratic_smooth", "smooth_coupling", "zero_smooth",
    "ConvexFunction", "LipschitzCoupling", "ResolventOp", "make_function",
    "resolvent_of_inverse", "soft_threshold", "zero_coupling",
    "BlockSteps", "ErrorSchedule", "IterateState", "StepPolicy", "TraceRecord",
    "geometric_schedule", "make_policy", "solve", "step", "write_trace_csv",
    "zero_schedule",
    "SolutionPair", "SpaceLayout", "SystemSpec", "compute_beta",
    "extract_solution", "fixed_point_residual", "step_policy", "validate",
]
