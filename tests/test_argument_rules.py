"""The shared argument rules, through every entry point that applies them.

Integer parameters (shot counts, bit counts, seeds, loop dimensions) go
through `errors.check_integer`; tolerances through `errors.check_tol`;
spacetime coordinates through `SpacetimeEvent`; ensemble weights through
`errors.finite_float`. Each rejects with a ValidationError (ConfigurationError
is one), never a bare TypeError, and accepts numpy scalars. A malformed
container at the API (a box event, an ensemble, a table's pairs, a label,
a policy's labels, the signaling settings) is a ValidationError too, and
so is an argument of the wrong type at an exported function: the error
names the type it expected. A guard that raises a narrower type (a
ShapeError for operands whose dimensions disagree) is pinned to that exact
type and message.
"""

import math

import numpy as np
import pytest

from conftest import make_box
from nlbox.boxes import (
    BrunBoxConfig,
    DeutschBoxConfig,
    KentBoxConfig,
    NonlinearBox,
    Semantics,
    apply_box,
)
from nlbox.errors import ConfigurationError, DecompositionError, ShapeError, ValidationError
from nlbox.preparations import (
    MembershipPolicy,
    PolicyKind,
    Preparation,
    Provenance,
    ProvenanceTag,
    SpacetimeEvent,
    classify_membership,
    linearly_equivalent,
)
from nlbox.protocols import MAX_BB84_BITS, run_bb84_attack, run_signaling_test, run_verification
from nlbox.qcore import (
    COMPUTATIONAL_BASIS,
    HADAMARD_BASIS,
    KET0,
    KET1,
    KET_PLUS,
    KetVector,
    Unitary,
    basis_povm,
    born_probabilities,
    computational_povm,
    ket,
    maximally_mixed,
    tensor,
    trace_distance,
)
from nlbox.scenario import Report, emit_table, write_report
from nlbox.steering import EnsembleDecomposition, assemblage_from, steer
from nlbox.witness import (
    StatsTable,
    affinity_violation,
    fit_linear_map,
    linearity_verdict,
    sample_table,
    sampled_tolerance,
)

HUGE = 10 ** 400  # an exact int that no float can hold

# The identity channel on four tomographically complete qubit inputs.
TABLE = StatsTable(
    preparations=(("zero", KET0.projector()), ("one", KET1.projector()),
                  ("plus", KET_PLUS.projector()),
                  ("iplus", ket(1 / np.sqrt(2), 1j / np.sqrt(2)).projector())),
    measurements=(("comp", computational_povm(2)),),
    probabilities={("zero", "comp"): (1.0, 0.0), ("one", "comp"): (0.0, 1.0),
                   ("plus", "comp"): (0.5, 0.5), ("iplus", "comp"): (0.5, 0.5)})


def counted_table(n):
    return StatsTable(preparations=TABLE.preparations, measurements=TABLE.measurements,
                      probabilities=TABLE.probabilities, sample_counts={("zero", "comp"): n})


BOX = make_box(BrunBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS))

# Entry point name -> the call that hands it the value.
REAL_RULES = {
    "run_verification": lambda v: run_verification(BOX, v),
    "linearity_verdict": lambda v: linearity_verdict(TABLE, v),
    "event_t": lambda v: SpacetimeEvent(v, 0.0),
    "event_x": lambda v: SpacetimeEvent(0.0, v),
}
INTEGER_RULES = {
    "bb84_n_bits": lambda v: run_bb84_attack(BOX, v, seed=1),
    "bb84_seed": lambda v: run_bb84_attack(BOX, 10, seed=v),
    "sample_table": lambda v: sample_table(TABLE, v, np.random.default_rng(0)),
    "stats_count": counted_table,
    "ctc_dim": lambda v: DeutschBoxConfig(Unitary(np.eye(4)), v),
}
TOLERANCES = ("run_verification", "linearity_verdict")

# A real rule takes any finite real (a non-negative one for a tolerance); an
# integer rule any integer at or above its least value. 10**400 is an integer,
# so it is a rejection case only where a float must hold it, as a shot count
# must, or where a cap bounds it, as MAX_BB84_BITS bounds n_bits.
REJECTED = (
    [(name, value) for name in REAL_RULES
     for value in (True, "0.1", math.nan, math.inf, -math.inf, HUGE)]
    + [(name, -1) for name in TOLERANCES]
    + [(name, value) for name in INTEGER_RULES
       for value in (True, "1", 2.5, 2.0, math.nan, math.inf, -1)]
    + [("bb84_n_bits", HUGE), ("bb84_n_bits", MAX_BB84_BITS + 1), ("stats_count", HUGE)]
)
ACCEPTED = (
    [(name, np.float64(0.25)) for name in REAL_RULES]
    + [(name, np.float32(0.25)) for name in REAL_RULES]
    + [(name, -1.0) for name in REAL_RULES if name not in TOLERANCES]
    + [(name, np.int64(2)) for name in INTEGER_RULES]
)
RULES = {**REAL_RULES, **INTEGER_RULES}


def _ids(cases):
    return [f"{name}-{'10**400' if value is HUGE else repr(value)}" for name, value in cases]


@pytest.mark.parametrize("name,value", REJECTED, ids=_ids(REJECTED))
def test_rejects(name, value):
    with pytest.raises(ValidationError):
        RULES[name](value)


@pytest.mark.parametrize("name,value", ACCEPTED, ids=_ids(ACCEPTED))
def test_accepts_numpy_scalars(name, value):
    RULES[name](value)


def test_values_come_back_as_plain_python_numbers():
    from nlbox.errors import check_integer, check_tol

    assert type(check_integer(np.int64(3), "n")) is int
    assert type(check_tol(1)) is float and check_tol(1) == 1.0
    assert type(check_tol(np.float64(0.5))) is float
    assert SpacetimeEvent(np.int64(1), 0) == SpacetimeEvent(1.0, 0.0)
    # A float32 passes with no warning (the suite fails on any) and comes back a float.
    assert type(check_tol(np.float32(0.1))) is float
    assert type(SpacetimeEvent(np.float32(1.0), 0.0).t) is float


def test_verification_report_holds_a_float_tol():
    assert type(run_verification(BOX, 1).tol) is float


# A box event given as a bare [t, x] pair would fail only when a light cone is read.
EVENT_PAIRS = {
    "kent_box": lambda e: make_box(KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS),
                                   box_event=e),
    "brun_box": lambda e: make_box(BrunBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS),
                                   box_event=e),
    "kent_light_cone_policy": lambda e: MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=e),
    "naive_pure_policy": lambda e: MembershipPolicy(PolicyKind.NAIVE_PURE, box_event=e),
}


@pytest.mark.parametrize("event", [(1.0, 0.0), [1.0, 0.0]], ids=["tuple", "list"])
@pytest.mark.parametrize("build", list(EVENT_PAIRS.values()), ids=list(EVENT_PAIRS))
def test_box_event_must_be_a_spacetime_event(build, event):
    with pytest.raises(ConfigurationError, match="SpacetimeEvent"):
        build(event)


RECORDS = Provenance(ProvenanceTag.LOCAL_ENSEMBLE, (SpacetimeEvent(0.0, 0.0),))
ENSEMBLE_BUILDERS = {
    "preparation": lambda ensemble: Preparation(ensemble, RECORDS, "p"),
    "decomposition": lambda ensemble: EnsembleDecomposition(maximally_mixed(2), ensemble),
}
BAD_ENSEMBLES = {
    "string_weight": (("0.5", KET0.projector()), (0.5, KET1.projector())),
    "bool_weight": ((True, maximally_mixed(2)),),
    "none_weight": ((None, maximally_mixed(2)),),
    "nan_weight": ((math.nan, KET0.projector()), (0.5, KET1.projector())),
    "huge_weight": ((HUGE, maximally_mixed(2)),),
    "none_ensemble": None,
    "density_ensemble": maximally_mixed(2),
    "member_not_a_pair": ((maximally_mixed(2),),),
}


@pytest.mark.parametrize("ensemble", list(BAD_ENSEMBLES.values()), ids=list(BAD_ENSEMBLES))
@pytest.mark.parametrize("build", list(ENSEMBLE_BUILDERS.values()), ids=list(ENSEMBLE_BUILDERS))
def test_ensembles_follow_the_number_rule(build, ensemble):
    with pytest.raises(DecompositionError):
        build(ensemble)


def test_ensemble_accepts_numpy_and_integer_weights():
    p = Preparation(((np.float32(0.5), KET0.projector()), (np.int64(0) + 0.5, KET1.projector())),
                    RECORDS, "p")
    assert [type(w) for w, _ in p.ensemble] == [float, float]
    assert Preparation(((1, KET0.projector()),), RECORDS, "q").ensemble[0][0] == 1.0


# Containers that ended in a bare TypeError or AttributeError at the Python
# API, were read one character at a time (a settings string), or built
# although no policy could name them (a label that is not a string): each
# case is the call and what its error names.
BAD_CONTAINERS = {
    "table_preparation_not_a_pair": (lambda: StatsTable(
        preparations=(KET0.projector(),), measurements=TABLE.measurements,
        probabilities=TABLE.probabilities), "preparations must be"),
    "table_probabilities_list": (lambda: StatsTable(
        preparations=TABLE.preparations, measurements=TABLE.measurements,
        probabilities=list(TABLE.probabilities.items())), "probabilities must be a dict"),
    "table_sample_counts_list": (lambda: StatsTable(
        preparations=TABLE.preparations, measurements=TABLE.measurements,
        probabilities=TABLE.probabilities, sample_counts=[(("zero", "comp"), 10)]),
        "sample_counts must be a dict"),
    "table_preparation_label_list": (lambda: StatsTable(
        preparations=(([1], KET0.projector()),), measurements=TABLE.measurements,
        probabilities=TABLE.probabilities), r"preparations must be .*\(string label"),
    "table_measurement_label_int": (lambda: StatsTable(
        preparations=TABLE.preparations, measurements=((0, computational_povm(2)),),
        probabilities=TABLE.probabilities), r"measurements must be .*\(string label"),
    "preparation_label_none": (lambda: Preparation(((1.0, KET0.projector()),), RECORDS, None),
                               "label must be a string, got None"),
    "preparation_label_list": (lambda: Preparation(((1.0, KET0.projector()),), RECORDS, ["x"]),
                               r"label must be a string, got \['x'\]"),
    "policy_labels_none": (lambda: MembershipPolicy(PolicyKind.NAIVE_PURE, labels=None),
                           "labels must be"),
    "signaling_settings_int": (lambda: run_signaling_test(BOX, 5), "got 5"),
    "signaling_settings_string": (lambda: run_signaling_test(BOX, "psi"), "got 'psi'"),
}


@pytest.mark.parametrize("call,match", list(BAD_CONTAINERS.values()), ids=list(BAD_CONTAINERS))
def test_malformed_containers_are_typed_errors(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


# An argument of the wrong type at an exported function, which read an
# attribute it lacks (a bare AttributeError) before these checks: each case
# is the call and the expected type its error names.
RAW_DENSITY = np.eye(2) / 2
PREP = Preparation(((1.0, KET0.projector()),), RECORDS, "p")
NAIVE = MembershipPolicy(PolicyKind.NAIVE_PURE)
WRONG_TYPES = {
    "born_raw_density": (lambda: born_probabilities(RAW_DENSITY, computational_povm(2)),
                         "DensityOperator, got ndarray"),
    "born_raw_effects": (lambda: born_probabilities(maximally_mixed(2), np.eye(2)[None]),
                         "Povm, got ndarray"),
    "trace_distance_a": (lambda: trace_distance(RAW_DENSITY, maximally_mixed(2)),
                         "DensityOperator, got ndarray"),
    "trace_distance_b": (lambda: trace_distance(maximally_mixed(2), RAW_DENSITY),
                         "DensityOperator, got ndarray"),
    "tensor_a": (lambda: tensor(RAW_DENSITY, maximally_mixed(2)), "two density operators"),
    "tensor_b": (lambda: tensor(maximally_mixed(2), RAW_DENSITY), "two density operators"),
    "steer_none": (lambda: steer(None, 0), "SteeringAssemblage, got NoneType"),
    "assemblage_raw_state": (lambda: assemblage_from(np.eye(4) / 4, computational_povm(2)),
                             "state_ab must be a DensityOperator, got ndarray"),
    "assemblage_raw_povm": (lambda: assemblage_from(maximally_mixed(4), np.eye(2)[None]),
                            "povm_a must be a Povm, got ndarray"),
    "emit_table_none": (lambda: emit_table(None), "Report, got NoneType"),
    "emit_table_dict": (lambda: emit_table({"payload": {}}, "csv"), "Report, got dict"),
    "apply_box_raw_density": (lambda: apply_box(BOX, RAW_DENSITY),
                              "apply_box's p must be a Preparation, got ndarray"),
    "apply_box_none_box": (lambda: apply_box(None, PREP), "NonlinearBox, got NoneType"),
    "classify_membership_none": (lambda: classify_membership(None, NAIVE),
                                 "Preparation, got NoneType"),
    "classify_membership_raw_policy": (lambda: classify_membership(PREP, "naive_pure"),
                                       "MembershipPolicy, got str"),
    "linearly_equivalent_none": (lambda: linearly_equivalent(None, None),
                                 "Preparation, got NoneType"),
    "ket_overlap_raw": (lambda: KET0.overlap(np.array([1.0, 0.0])), "KetVector, got ndarray"),
    "basis_povm_raw_kets": (lambda: basis_povm([np.array([1.0, 0.0]), np.array([0.0, 1.0])]),
                            "KetVector, got ndarray"),
    "fit_linear_map_none": (lambda: fit_linear_map(None), "StatsTable, got NoneType"),
    "linearity_verdict_none": (lambda: linearity_verdict(None), "StatsTable, got NoneType"),
    "sample_table_none": (lambda: sample_table(None, 10, np.random.default_rng(0)),
                          "StatsTable, got NoneType"),
    "sampled_tolerance_none": (lambda: sampled_tolerance(None), "StatsTable, got NoneType"),
    "affinity_violation_none_box": (lambda: affinity_violation(None, PREP, PREP),
                                    "NonlinearBox, got NoneType"),
}


@pytest.mark.parametrize("call,match", list(WRONG_TYPES.values()), ids=list(WRONG_TYPES))
def test_wrong_argument_types_are_validation_errors(call, match):
    with pytest.raises(ValidationError, match=match):
        call()


def test_write_report_checks_the_report_before_opening_the_file(tmp_path):
    path = tmp_path / "report.json"
    with pytest.raises(ValidationError, match="Report, got NoneType"):
        write_report(None, path)
    assert not path.exists()


# Guards with a narrower type than ValidationError, or a message no other test
# reads: each case is the call, its exact error type and its message.
EXACT_ERRORS = {
    "deutsch_unitary_not_a_multiple": (lambda: DeutschBoxConfig(Unitary(np.eye(5)), 2),
                                       ShapeError, r"unitary dim must be system_dim \* ctc_dim"),
    "box_membership_string": (lambda: NonlinearBox(BOX.config, BOX.box_event, Semantics.STATE,
                                                   "naive_pure"),
                              ConfigurationError, "a box's membership must be a MembershipPolicy"),
    "provenance_record_pair": (lambda: Provenance(ProvenanceTag.LOCAL_ENSEMBLE, ((0.0, 0.0),)),
                               ValidationError, "provenance records must be SpacetimeEvent values"),
    "ensemble_mixed_dims": (lambda: Preparation(((0.5, KET0.projector()),
                                                 (0.5, maximally_mixed(4))), RECORDS, "p"),
                            ShapeError, "ensemble members have mixed dimensions"),
    "ket_overlap_dims": (lambda: KET0.overlap(KetVector(np.eye(3)[0])),
                         ShapeError, "ket dims differ: 2 vs 3"),
    "emit_table_format": (lambda: emit_table(Report("s", "verification", {}, {}), "xml"),
                          ConfigurationError, "unknown output format 'xml'"),
    "decomposition_member_dim": (lambda: EnsembleDecomposition(maximally_mixed(2),
                                                               ((1.0, maximally_mixed(4)),)),
                                 ShapeError, "member dimension differs from sigma_B"),
}


@pytest.mark.parametrize("call,error,match", list(EXACT_ERRORS.values()), ids=list(EXACT_ERRORS))
def test_guards_raise_their_exact_error(call, error, match):
    with pytest.raises(error, match=match) as exc:
        call()
    assert type(exc.value) is error
