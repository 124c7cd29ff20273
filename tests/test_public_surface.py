"""The names `import nlbox` exports. An addition or removal edits PUBLIC."""

import types

import nlbox

PUBLIC = {
    # qcore
    "COMPUTATIONAL_BASIS", "HADAMARD_BASIS", "DensityOperator", "KetVector", "Povm",
    "Unitary", "born_probabilities", "tensor", "trace_distance",
    # preparations
    "MembershipPolicy", "PolicyKind", "Preparation", "Provenance", "ProvenanceTag",
    "SpacetimeEvent", "classify_membership", "effective_density", "in_past_light_cone",
    "linearly_equivalent",
    # boxes
    "BrunBoxConfig", "DeutschBoxConfig", "KentBoxConfig", "LinearBoxConfig", "NonlinearBox",
    "Semantics", "apply_box", "deutsch_fixed_point",
    # steering
    "EnsembleDecomposition", "SteeringAssemblage", "hjw_assemblage", "steer",
    # witness
    "LinearFit", "StatsTable", "affinity_violation", "fit_linear_map", "is_linear_explainable",
    # protocols
    "run_bb84_attack", "run_preparation_problem_demo", "run_signaling_test", "run_verification",
    # scenario
    "Report", "ScenarioConfig", "emit_table", "parse_scenario", "run_scenario",
}


def test_public_names_are_the_listed_set():
    names = {name for name, value in vars(nlbox).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == PUBLIC
