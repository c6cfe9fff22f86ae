"""Guaranteed outer approximations of global relative attractors.

Covers a compact box with dyadic cells, overapproximates the backward
dynamics by a multivalued map on cell indices, prunes indices whose image
chains die out, and refines the survivors. The kept union always contains
the attractor relative to the box, and shrinks onto it as the cover and the
time discretisation are refined together.
"""

from .attractor import (
    DEFAULT_BOX_BUDGET,
    BoxBudgetError,
    LevelReport,
    PruneResult,
    prune,
    run_global,
    run_subdivision,
)
from .geometry import (
    Box,
    BoxKey,
    CoverLevel,
    point_box_distance,
    refine_cover,
    region_semidistance,
)
from .integrator import (
    EulerParams,
    EulerSchedule,
    enclosure_radius,
    euler_backward,
    euler_defect,
    reference_backward_flow,
    rk4_backward,
)
from .oracle import (
    ReferenceAttractor,
    SandwichVerdict,
    backward_containment_mask,
    reach_cycle_set,
    reference_attractor_points,
    verify_sandwich,
)
from .systems import (
    BUILTIN_NAMES,
    ContinuousSystemSpec,
    DiscreteSystemSpec,
    EvaluationError,
    eval_field,
    eval_inverse,
    make_builtin,
)
from .transition import (
    GapReport,
    TransitionMap,
    build_transition,
    check_containment_condition,
    measure_overapprox_gap,
    run_diagnostics,
)

__all__ = [
    "BUILTIN_NAMES",
    "Box",
    "BoxBudgetError",
    "BoxKey",
    "ContinuousSystemSpec",
    "CoverLevel",
    "DEFAULT_BOX_BUDGET",
    "DiscreteSystemSpec",
    "EulerParams",
    "EulerSchedule",
    "EvaluationError",
    "GapReport",
    "LevelReport",
    "PruneResult",
    "ReferenceAttractor",
    "SandwichVerdict",
    "TransitionMap",
    "backward_containment_mask",
    "build_transition",
    "check_containment_condition",
    "enclosure_radius",
    "euler_backward",
    "euler_defect",
    "eval_field",
    "eval_inverse",
    "make_builtin",
    "measure_overapprox_gap",
    "point_box_distance",
    "prune",
    "reach_cycle_set",
    "reference_attractor_points",
    "reference_backward_flow",
    "refine_cover",
    "region_semidistance",
    "rk4_backward",
    "run_diagnostics",
    "run_global",
    "run_subdivision",
    "verify_sandwich",
]
