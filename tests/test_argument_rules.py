"""The shared argument rules, through every entry point that applies them.

Integer parameters (shot counts, bit counts, seeds, loop dimensions) go
through `errors.check_integer`; tolerances through `errors.check_tol`;
spacetime coordinates through `SpacetimeEvent`; ensemble weights through
`errors.finite_float`. Each rejects with a ValidationError (ConfigurationError
is one), never a bare TypeError, and accepts numpy scalars. A malformed
container at the API (a box event, an ensemble, a table's pairs, a policy's
labels, the signaling settings) is a ValidationError too.
"""

import math

import numpy as np
import pytest

from conftest import make_box
from nlbox.boxes import BrunBoxConfig, DeutschBoxConfig, KentBoxConfig
from nlbox.errors import ConfigurationError, DecompositionError, ValidationError
from nlbox.preparations import (
    MembershipPolicy,
    PolicyKind,
    Preparation,
    Provenance,
    ProvenanceTag,
    SpacetimeEvent,
)
from nlbox.protocols import MAX_BB84_BITS, run_bb84_attack, run_signaling_test, run_verification
from nlbox.qcore import (
    COMPUTATIONAL_BASIS,
    HADAMARD_BASIS,
    KET0,
    KET1,
    KET_PLUS,
    Unitary,
    computational_povm,
    ket,
    maximally_mixed,
)
from nlbox.steering import EnsembleDecomposition
from nlbox.witness import StatsTable, linearity_verdict, sample_table

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
# API, or (a settings string) were read one character at a time: each case is
# the call and what its error names.
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
    "policy_labels_none": (lambda: MembershipPolicy(PolicyKind.NAIVE_PURE, labels=None),
                           "labels must be"),
    "signaling_settings_int": (lambda: run_signaling_test(BOX, 5), "got 5"),
    "signaling_settings_string": (lambda: run_signaling_test(BOX, "psi"), "got 'psi'"),
}


@pytest.mark.parametrize("call,match", list(BAD_CONTAINERS.values()), ids=list(BAD_CONTAINERS))
def test_malformed_containers_are_typed_errors(call, match):
    with pytest.raises(ValidationError, match=match):
        call()
