"""Operational quantum theory augmented with nonlinear boxes."""

from .boxes import (
    BrunBoxConfig,
    DeutschBoxConfig,
    KentBoxConfig,
    LinearBoxConfig,
    NonlinearBox,
    Semantics,
    apply_box,
    deutsch_fixed_point,
)
from .preparations import (
    MembershipPolicy,
    PolicyKind,
    Preparation,
    Provenance,
    ProvenanceTag,
    SpacetimeEvent,
    classify_membership,
    effective_density,
    in_past_light_cone,
    linearly_equivalent,
)
from .qcore import (
    COMPUTATIONAL_BASIS,
    HADAMARD_BASIS,
    DensityOperator,
    KetVector,
    Povm,
    Unitary,
    born_probabilities,
    tensor,
    trace_distance,
)
from .steering import (
    EnsembleDecomposition,
    SteeringAssemblage,
    hjw_assemblage,
    steer,
)
from .witness import (
    LinearFit,
    StatsTable,
    affinity_violation,
    fit_linear_map,
    is_linear_explainable,
)
from .protocols import (
    run_bb84_attack,
    run_preparation_problem_demo,
    run_signaling_test,
    run_verification,
)
from .scenario import Report, ScenarioConfig, emit_table, parse_scenario, run_scenario

__version__ = "0.1.0"
