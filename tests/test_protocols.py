import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX_EVENT, make_box
from nlbox import boxes, protocols
from nlbox.boxes import (
    BrunBoxConfig,
    DeutschBoxConfig,
    KentBoxConfig,
    LinearBoxConfig,
    Semantics,
)
from nlbox.errors import CapacityError, ConfigurationError, ShapeError, ValidationError
from nlbox.preparations import (
    MembershipPolicy,
    PolicyKind,
    Preparation,
    Provenance,
    ProvenanceTag,
    SpacetimeEvent,
    classify_membership,
    effective_density,
)
from nlbox.protocols import (
    MAX_BB84_BITS,
    AttackReport,
    _inverse_cdf,
    run_bb84_attack,
    run_preparation_problem_demo,
    run_signaling_test,
    run_verification,
)
from nlbox.qcore import (
    COMPUTATIONAL_BASIS,
    HADAMARD_BASIS,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    KetVector,
    Povm,
    Unitary,
    basis_povm,
    born_probabilities,
    computational_povm,
    ket,
    partial_trace,
    trace_distance,
)
from nlbox.rand import random_cptp_kraus, random_unitary
from nlbox.tolerances import ATOL, DTOL, PURITY_MIN

SWAPPED_PAIR = (ket(0.6, 0.8), ket(0.8, -0.6))


class TestVerification:
    def test_brun_identifies_map(self, brun_config):
        report = run_verification(make_box(brun_config))
        assert report.identified
        for i, name in enumerate(("psi0", "psi1", "phi0", "phi1")):
            row = report.table[name]
            assert abs(row[i] - 1.0) < 1e-12
            assert abs(sum(row) - 1.0) < 1e-12

    def test_kent_emulation_identifies_map(self, brun_config):
        report = run_verification(make_box(KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS)))
        assert report.identified

    def test_linear_box_fails_verification(self):
        # A channel has no domain states to verify the map with.
        box = make_box(LinearBoxConfig(np.eye(4, dtype=complex)[None, :, ::2]))
        with pytest.raises(ConfigurationError, match="no discrimination bases"):
            run_verification(box)

    def test_excluded_verifying_preparations_not_identified(self, brun_config):
        # Outside the policy's list the box passes |1> through with its
        # ancilla, to outcome |10> instead of the map's |01>.
        policy = MembershipPolicy(PolicyKind.EXPLICIT_LIST, labels=frozenset({"other"}))
        report = run_verification(make_box(brun_config, policy=policy))
        assert not report.identified
        assert np.allclose(report.table["psi1"], [0, 0, 1, 0], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-3])
    def test_rejects_meaningless_tol(self, brun_config, tol):
        # With a NaN or infinite tol, `probs[i] < 1 - tol` is never true, so
        # a box that fails verification would read as identified.
        policy = MembershipPolicy(PolicyKind.EXPLICIT_LIST, labels=frozenset({"other"}))
        with pytest.raises(ConfigurationError, match="tol must be a finite non-negative"):
            run_verification(make_box(brun_config, policy=policy), tol)


class TestSignaling:
    def test_naive_decomposition_signals(self, brun_config):
        box = make_box(brun_config, semantics=Semantics.DECOMPOSITION)
        report = run_signaling_test(box, ("psi", "phi"))
        assert abs(report.signaling_metric - 1.0) < 1e-12

    def test_naive_state_semantics_signals(self, brun_config):
        # Even as a density functional the map is nonlinear, so remote
        # admission still leaks the setting.
        box = make_box(brun_config, semantics=Semantics.STATE)
        report = run_signaling_test(box, ("psi", "phi"))
        assert report.signaling_metric > 0.4

    def test_kent_policy_blocks_signaling(self, brun_config):
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        for sem in (Semantics.DECOMPOSITION, Semantics.STATE):
            box = make_box(brun_config, semantics=sem, policy=policy)
            report = run_signaling_test(box, ("psi", "phi"))
            assert report.signaling_metric < 1e-9

    def test_box_and_kent_policy_share_one_event(self, brun_config):
        # A policy reading the light cone at (100, 0) would admit the remote
        # preparations of a box at (1, 0), which then signals ~1.0.
        far = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=SpacetimeEvent(100, 0))
        with pytest.raises(ConfigurationError, match="box's own event"):
            make_box(brun_config, policy=far, box_event=SpacetimeEvent(1, 0))
        box = make_box(brun_config, policy=far, box_event=SpacetimeEvent(100.0, 0.0))
        assert run_signaling_test(box, ("psi", "phi")).signaling_metric > 0.99

    @pytest.mark.parametrize("build,error", [
        (lambda box: run_signaling_test(box, [("a", "b")]), ConfigurationError),
        (lambda box: run_signaling_test(box, [(KET0,)]), ConfigurationError),
        (lambda box: run_signaling_test(box, [(KET0, KET1, KET_PLUS)]), ConfigurationError),
        (lambda box: run_signaling_test(box, [(ket(1, 0, 0), ket(0, 1, 0))]),
         ConfigurationError),
        (lambda box: run_signaling_test(box, [5]), ConfigurationError),
        (lambda box: Provenance(ProvenanceTag.LOCAL_DETERMINISTIC, SpacetimeEvent(0, 0)),
         ValidationError),
    ], ids=["strings", "one_ket", "three_kets", "qutrit_kets", "number", "bare_record"])
    def test_malformed_structures_raise_typed_errors(self, brun_config, build, error):
        # A typed error, not an AttributeError, a ValueError from unpacking
        # or a TypeError from iterating one event.
        with pytest.raises(error):
            build(make_box(brun_config))

    def test_deterministic_experimenter_blocks_signaling(self, brun_config):
        policy = MembershipPolicy(PolicyKind.DETERMINISTIC_EXPERIMENTER)
        for sem in (Semantics.DECOMPOSITION, Semantics.STATE):
            box = make_box(brun_config, semantics=sem, policy=policy)
            report = run_signaling_test(box, ("psi", "phi"))
            assert report.signaling_metric < 1e-9

    def test_linear_boxes_never_signal(self, brun_config, rng):
        for _ in range(10):
            kraus = random_cptp_kraus(2, rng)
            box = make_box(LinearBoxConfig(tuple(kraus)))
            report = run_signaling_test(box, ("psi", "phi", SWAPPED_PAIR))
            assert report.signaling_metric < 1e-9

    def test_explicit_settings_match_named(self, brun_config):
        box = make_box(brun_config)
        named = run_signaling_test(box, ("psi", "phi"))
        explicit = run_signaling_test(
            box, ((COMPUTATIONAL_BASIS[0], COMPUTATIONAL_BASIS[1]),
                  (KET_PLUS, KET_MINUS)))
        assert abs(named.signaling_metric - explicit.signaling_metric) < 1e-9

    def test_needs_settings(self, brun_config):
        with pytest.raises(ConfigurationError):
            run_signaling_test(make_box(brun_config), ())


# The labels run_signaling_test gives the remote preparations of the
# settings ("psi", "phi", <basis pair>).
REMOTE_LABELS = frozenset(f"remote_{name}_{i}" for name in ("psi", "phi", "setting2")
                          for i in (0, 1))


def random_pair(rng):
    return tuple(KetVector(col) for col in random_unitary(2, rng).matrix.T)


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("policy", list(PolicyKind))
@pytest.mark.parametrize("square", [True, False], ids=["2to2", "2to4"])
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1),
       admitted=st.sets(st.sampled_from(sorted(REMOTE_LABELS | {"local"})), min_size=1))
def test_random_linear_channel_never_signals(square, policy, semantics, seed, admitted):
    rng = np.random.default_rng(seed)
    kraus = np.array(random_cptp_kraus(2 if square else 4, rng))
    config = LinearBoxConfig(kraus if square else kraus[:, :, ::2])
    membership = MembershipPolicy(policy, box_event=BOX_EVENT, labels=admitted)
    box = make_box(config, semantics=semantics, policy=membership)
    report = run_signaling_test(box, ("psi", "phi", random_pair(rng)))
    assert report.signaling_metric <= 1e-9


def test_partial_explicit_list_leaves_a_linear_channel_silent():
    # Admitting remote_psi_0 but not its partner: a linear box acts on the
    # effective density whether or not a preparation is a member, so the
    # policy cannot make it read the heralding record.
    rng = np.random.default_rng(0)
    config = LinearBoxConfig(random_cptp_kraus(2, rng))
    membership = MembershipPolicy(PolicyKind.EXPLICIT_LIST, labels=frozenset({"remote_psi_0"}))
    box = make_box(config, policy=membership)
    report = run_signaling_test(box, ("psi", "phi", random_pair(rng)))
    assert report.signaling_metric <= 1e-12


def random_brun(rng):
    """A Brun config on a random non-identical pair of bases."""
    return BrunBoxConfig(random_pair(rng), random_pair(rng))


def partial_trace_readout(box, basis, name):
    """The receiver's distribution for one setting, read as the first output
    qubit's validated density measured in the computational basis."""
    q = np.zeros(2)
    labels = (f"remote_{name}_0", f"remote_{name}_1")
    for p_i, prep in protocols._steered(basis, protocols.DEFAULT_ALICE_EVENT, labels):
        out = boxes.apply_box(box, prep)
        reduced = out if out.dim == 2 else partial_trace(out, (2, 2), [0])
        q += p_i * born_probabilities(reduced, computational_povm(2))
    return q


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("policy", list(PolicyKind))
@pytest.mark.parametrize("kind", ["brun", "kent", "linear_2to2", "linear_2to4"])
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), admitted=st.sets(st.sampled_from(sorted(REMOTE_LABELS))))
def test_signaling_read_equals_the_partial_trace_readout(kind, policy, semantics, seed, admitted):
    # One Born call on the whole output, its outcomes summed over the second
    # qubit, reads what the reduced one-qubit density would.
    rng = np.random.default_rng(seed)
    if kind.startswith("linear"):
        kraus = np.array(random_cptp_kraus(2 if kind == "linear_2to2" else 4, rng))
        config = LinearBoxConfig(kraus if kind == "linear_2to2" else kraus[:, :, ::2])
        named = {"psi": COMPUTATIONAL_BASIS, "phi": HADAMARD_BASIS}
    else:
        brun = random_brun(rng)
        config = brun if kind == "brun" else KentBoxConfig(brun.psi_basis, brun.phi_basis)
        named = {"psi": brun.psi_basis, "phi": brun.phi_basis}
    # A Brun box has no map for a member off its domain, such as a random pair's state.
    if kind != "brun":
        named["setting2"] = random_pair(rng)
    membership = MembershipPolicy(policy, box_event=BOX_EVENT, labels=admitted | {"local"})
    box = make_box(config, semantics=semantics, policy=membership)
    report = run_signaling_test(box, [name if name in ("psi", "phi") else basis
                                      for name, basis in named.items()])
    assert report.distributions.keys() == named.keys()
    for name, basis in named.items():
        reference = partial_trace_readout(box, basis, name)
        assert np.abs(np.subtract(report.distributions[name], reference)).max() <= 1e-15


def test_signaling_read_rejects_other_output_dimensions():
    box = make_box(LinearBoxConfig(np.eye(8, dtype=complex)[None, :, ::4]))
    with pytest.raises(ShapeError, match="unexpected box output dimension 8"):
        run_signaling_test(box, ("psi", "phi"))


VERIFY_AND_LOCAL = frozenset(f"{kind}_{name}" for kind in ("verify", "local")
                             for name in ("psi0", "psi1", "phi0", "phi1"))


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("policy", list(PolicyKind))
@pytest.mark.parametrize("kind", ["brun", "kent"])
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_verification_without_signaling_splits_the_classes(kind, policy, semantics, seed):
    # The dichotomy: a box that reveals its map either lets the remote
    # sender signal, or its policy splits linearly equivalent preparations.
    tol = 1e-6
    brun = random_brun(np.random.default_rng(seed))
    config = brun if kind == "brun" else KentBoxConfig(brun.psi_basis, brun.phi_basis)
    membership = MembershipPolicy(policy, box_event=BOX_EVENT, labels=VERIFY_AND_LOCAL)
    box = make_box(config, semantics=semantics, policy=membership)
    assert run_verification(box, tol).identified
    metric = run_signaling_test(box, ("psi", "phi")).signaling_metric
    if policy is PolicyKind.NAIVE_PURE:
        assert metric >= 1 - tol
    if metric <= tol:
        report = run_preparation_problem_demo(box)
        assert not report.hazard
        for entry in report.entries:
            assert entry["linearly_equivalent"]
            assert entry["output_distance"] > tol


@settings(max_examples=50)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_steered_outcomes_average_to_the_singlet_marginal(seed):
    rng = np.random.default_rng(seed)
    outcomes = protocols._steered(random_pair(rng), BOX_EVENT, ("a", "b"))
    assert abs(sum(p for p, _ in outcomes) - 1) <= ATOL
    average = DensityOperator(sum(p * effective_density(prep).matrix for p, prep in outcomes))
    assert trace_distance(average, protocols.SINGLET_MARGINAL) <= DTOL
    assert all(prep.unconditioned is protocols.SINGLET_MARGINAL for _, prep in outcomes)


@settings(max_examples=20)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_demo_heralds_each_domain_state(seed):
    # The singlet heralds the state orthogonal to the sender's outcome, so
    # a basis measured in the wrong order would herald each state's partner.
    brun = random_brun(np.random.default_rng(seed))
    seen = {}

    def spy(p, policy):
        seen[p.label] = effective_density(p)
        return classify_membership(p, policy)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocols, "classify_membership", spy)
        run_preparation_problem_demo(make_box(brun))
    for name, state in zip(("psi0", "psi1", "phi0", "phi1"), brun.domain_states):
        rho = seen[f"remote_{name}"].matrix
        assert np.vdot(state.amplitudes, rho @ state.amplitudes).real >= PURITY_MIN


class TestPreparationProblem:
    def test_kent_policy_splits_classes(self, brun_config):
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        report = run_preparation_problem_demo(make_box(brun_config, policy=policy))
        assert not report.hazard
        for entry in report.entries:
            assert entry["linearly_equivalent"]
            assert entry["local_member"]
            assert not entry["remote_member"]
            assert entry["output_distance"] > 0.4

    def test_deterministic_experimenter_splits_classes(self, brun_config):
        policy = MembershipPolicy(PolicyKind.DETERMINISTIC_EXPERIMENTER)
        report = run_preparation_problem_demo(make_box(brun_config, policy=policy))
        assert not report.hazard
        assert all(e["output_distance"] > 0.4 for e in report.entries)

    def test_naive_policy_reports_hazard(self, brun_config):
        report = run_preparation_problem_demo(make_box(brun_config))
        assert report.hazard
        assert all("output_distance" not in e for e in report.entries)

    @pytest.mark.parametrize("kind,calls", [
        (PolicyKind.KENT_LIGHT_CONE, 16),
        (PolicyKind.DETERMINISTIC_EXPERIMENTER, 16),
        (PolicyKind.NAIVE_PURE, 8),
    ])
    def test_decides_each_membership_once(self, brun_config, monkeypatch, kind, calls):
        # Each of the 8 preparations is classified once for its entry and,
        # without a hazard, once more inside apply_box.
        seen = []

        def spy(p, policy):
            seen.append(p.label)
            return classify_membership(p, policy)

        monkeypatch.setattr(protocols, "classify_membership", spy)
        monkeypatch.setattr(boxes, "classify_membership", spy)
        policy = MembershipPolicy(kind, box_event=BOX_EVENT)
        run_preparation_problem_demo(make_box(brun_config, policy=policy))
        assert len(seen) == calls
        assert all(seen.count(label) == calls // 8 for label in seen)

    def test_membership_matches_policy_invariant(self, brun_config):
        # Report entries must agree with classify_membership on the same
        # preparations they describe.
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        box = make_box(brun_config, policy=policy)
        report = run_preparation_problem_demo(box)
        for entry in report.entries:
            assert entry["local_member"] != entry["remote_member"]


class TestAttack:
    def test_identify_strategy_is_perfect(self, brun_config):
        report = run_bb84_attack(make_box(brun_config), 2000, seed=7)
        assert report.eve_bit_accuracy == 1.0
        assert report.eve_basis_accuracy == 1.0
        assert report.induced_qber == 0.0
        assert abs(report.sifted_key_fraction - 0.5) < 0.05

    def test_fixed_basis_ablation_qber(self, brun_config):
        report = run_bb84_attack(make_box(brun_config), 20000, seed=11,
                                 eve_strategy="fixed_basis")
        sigma = np.sqrt(0.25 * 0.75 / (report.sifted_key_fraction * 20000))
        assert abs(report.induced_qber - 0.25) <= 3 * sigma

    def test_zero_rounds(self, brun_config):
        report = run_bb84_attack(make_box(brun_config), 0, seed=1)
        assert report.n_bits == 0
        assert report.induced_qber == 0.0

    def test_seed_determinism(self, brun_config):
        a = run_bb84_attack(make_box(brun_config), 500, seed=3)
        b = run_bb84_attack(make_box(brun_config), 500, seed=3)
        assert a == b

    def test_rejects_non_bb84_bases(self):
        from nlbox.boxes import BrunBoxConfig
        cfg = BrunBoxConfig(COMPUTATIONAL_BASIS, SWAPPED_PAIR)
        with pytest.raises(ConfigurationError):
            run_bb84_attack(make_box(cfg), 100, seed=1)

    def test_rejects_unknown_strategy(self, brun_config):
        with pytest.raises(ConfigurationError):
            run_bb84_attack(make_box(brun_config), 100, seed=1, eve_strategy="guess")

    def test_rejects_boxless_attack(self):
        box = make_box(DeutschBoxConfig(Unitary(np.eye(4)), 2),
                       semantics=Semantics.STATE)
        with pytest.raises(ConfigurationError):
            run_bb84_attack(box, 100, seed=1)

    @pytest.mark.parametrize("n_bits", [0, 1])
    @pytest.mark.parametrize("config,message", [
        (LinearBoxConfig(np.eye(4, dtype=complex)[None, :, ::2]), "no discrimination bases"),
        (BrunBoxConfig(COMPUTATIONAL_BASIS, SWAPPED_PAIR), "attack requires"),
    ], ids=["linear", "swapped_bases"])
    def test_checks_the_box_before_the_zero_bit_shortcut(self, config, message, n_bits):
        with pytest.raises(ConfigurationError, match=message):
            run_bb84_attack(make_box(config), n_bits, seed=1)

    @pytest.mark.parametrize("n_bits", [-5, -1, 2.0, 1.5, "10", None, True, False])
    def test_rejects_bad_n_bits(self, brun_config, n_bits):
        with pytest.raises(ConfigurationError, match="n_bits"):
            run_bb84_attack(make_box(brun_config), n_bits, seed=1)

    @pytest.mark.parametrize("n_bits", [MAX_BB84_BITS + 1, 10 ** 400], ids=["cap+1", "10**400"])
    def test_caps_n_bits_before_sampling(self, brun_config, n_bits):
        with pytest.raises(CapacityError, match=f"n_bits must be at most {MAX_BB84_BITS}"):
            run_bb84_attack(make_box(brun_config), n_bits, seed=1)

    @pytest.mark.parametrize("seed", [-1, 3.0, "7", None, True, False])
    def test_rejects_bad_seed(self, brun_config, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            run_bb84_attack(make_box(brun_config), 100, seed=seed)

    def test_accepts_numpy_integers(self, brun_config):
        a = run_bb84_attack(make_box(brun_config), np.int64(300), seed=np.uint32(9))
        b = run_bb84_attack(make_box(brun_config), 300, seed=9)
        assert a == b
        assert type(a.n_bits) is int and type(a.seed) is int

    @pytest.mark.parametrize("n_bits", [1, 2, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fixed_basis_statistics(self, brun_config, n_bits, seed):
        report = run_bb84_attack(make_box(brun_config), n_bits, seed=seed,
                                 eve_strategy="fixed_basis")
        assert report.eve_bit_accuracy == 1.0
        assert abs(report.sifted_key_fraction - 0.5) <= 5 * np.sqrt(0.25 / n_bits)
        sifted = round(report.sifted_key_fraction * n_bits)
        if sifted:
            assert abs(report.induced_qber - 0.25) <= 5 * np.sqrt(0.1875 / sifted)
        else:
            assert report.induced_qber == 0.0

    @pytest.mark.parametrize("strategy", ["identify", "fixed_basis"])
    def test_batches_cover_every_bit(self, brun_config, monkeypatch, strategy):
        # The box identifies every bit, so the accuracies are exactly 1 only
        # if the batches sample n_bits bits in total, the short last one too.
        monkeypatch.setattr(protocols, "_BB84_BATCH", 64)
        report = run_bb84_attack(make_box(brun_config), 1000, seed=4,
                                 eve_strategy=strategy)
        assert report.eve_bit_accuracy == 1.0
        assert report.eve_basis_accuracy == 1.0
        assert abs(report.sifted_key_fraction - 0.5) <= 5 * np.sqrt(0.25 / 1000)


ATTACK_POLICIES = {
    "naive_pure": MembershipPolicy(PolicyKind.NAIVE_PURE),
    "kent_light_cone": MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT),
    "deterministic_experimenter": MembershipPolicy(PolicyKind.DETERMINISTIC_EXPERIMENTER),
    "explicit_list": MembershipPolicy(PolicyKind.EXPLICIT_LIST,
                                      labels=frozenset({"alice_00", "alice_11"})),
}


def phased_bases(rng):
    """The computational and Hadamard bases as new kets, each with a random global phase."""
    def phased(basis):
        return tuple(KetVector(np.exp(2j * np.pi * rng.random()) * k.amplitudes) for k in basis)
    return phased(COMPUTATIONAL_BASIS), phased(HADAMARD_BASIS)


def attack_box(bases, kent, semantics, policy):
    config = (KentBoxConfig if kent else BrunBoxConfig)(*bases)
    return make_box(config, semantics=semantics, policy=policy)


def reference_tables(box, strategy):
    """The eavesdropper's and receiver's tables built a row at a time: a
    basis_povm per receiver basis, and one born_probabilities per row."""
    states = box.config.domain_states
    povm4, meas = computational_povm(4), (basis_povm(states[:2]), basis_povm(states[2:]))
    eve = []
    for k, state in enumerate(states):
        prep = Preparation(ensemble=((1.0, state.projector()),), label=f"alice_{k // 2}{k % 2}",
                           provenance=Provenance(ProvenanceTag.LOCAL_DETERMINISTIC,
                                                 (box.box_event,)))
        eve.append(born_probabilities(boxes.apply_box(box, prep), povm4))
    resent = states if strategy == "identify" else COMPUTATIONAL_BASIS * 2
    return np.array(eve), np.array([born_probabilities(r.projector(), m)
                                    for r in resent for m in meas])


def reference_attack(eve, bob, n_bits, seed, strategy):
    """run_bb84_attack's report for at most one batch of bits, sampled from the given tables."""
    rng = np.random.default_rng(seed)
    a_basis, a_bit, b_basis = rng.integers(2, size=(3, n_bits), dtype=np.int8)
    u_eve, u_bob = rng.random((2, n_bits))
    eve_idx = _inverse_cdf(eve, 2 * a_basis + a_bit, u_eve)
    b_bit = _inverse_cdf(bob, 2 * eve_idx + b_basis, u_bob)
    sifted = b_basis == a_basis
    n_sifted = int(np.count_nonzero(sifted))
    errors = int(np.count_nonzero(sifted & (b_bit != a_bit)))
    return AttackReport(n_bits=n_bits,
                        eve_bit_accuracy=int(np.count_nonzero((eve_idx & 1) == a_bit)) / n_bits,
                        eve_basis_accuracy=int(np.count_nonzero((eve_idx >> 1) == a_basis)) / n_bits,
                        induced_qber=errors / n_sifted if n_sifted else 0.0,
                        sifted_key_fraction=n_sifted / n_bits, strategy=strategy, seed=seed)


def spy(monkeypatch, owner, name):
    """The list of argument tuples of every later call to owner.name."""
    calls, real = [], getattr(owner, name)

    def record(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, record)
    return calls


class TestAttackTables:
    """The receiver's table is one overlap product, |<b|r>|^2, and the
    reports equal those of the per-row Born-rule construction."""

    @pytest.mark.parametrize("strategy", protocols.EVE_STRATEGIES)
    @pytest.mark.parametrize("semantics", list(Semantics), ids=lambda s: s.value)
    @pytest.mark.parametrize("kent", [False, True], ids=["brun", "kent"])
    @pytest.mark.parametrize("policy", ATTACK_POLICIES.values(), ids=ATTACK_POLICIES.keys())
    def test_reports_equal_the_per_row_reference(self, monkeypatch, rng, policy, kent,
                                                  semantics, strategy):
        tables = spy(monkeypatch, protocols, "_inverse_cdf")
        # 3 bases (the module constants and two random-phase copies) x 10 seeds.
        for bases in [(COMPUTATIONAL_BASIS, HADAMARD_BASIS), phased_bases(rng), phased_bases(rng)]:
            box = attack_box(bases, kent, semantics, policy)
            eve, bob = reference_tables(box, strategy)
            for seed in range(10):
                tables.clear()
                assert (run_bb84_attack(box, 600, seed, strategy)
                        == reference_attack(eve, bob, 600, seed, strategy))
                # The eavesdropper's rows are the same arithmetic; the
                # receiver's are the same sums in another order.
                assert np.array_equal(tables[0][0], eve)
                assert np.abs(tables[1][0] - bob).max() <= 4 * np.finfo(float).eps

    @pytest.mark.parametrize("strategy", protocols.EVE_STRATEGIES)
    @pytest.mark.parametrize("semantics", list(Semantics), ids=lambda s: s.value)
    @pytest.mark.parametrize("kent", [False, True], ids=["brun", "kent"])
    def test_second_attack_runs_no_eigh_and_builds_no_povm(self, monkeypatch, rng, kent,
                                                           semantics, strategy):
        # New kets, so the first attack builds every projector and purity it keeps.
        box = attack_box(phased_bases(rng), kent, semantics, ATTACK_POLICIES["naive_pure"])
        first = run_bb84_attack(box, 500, seed=2, eve_strategy=strategy)
        eighs = spy(monkeypatch, np.linalg, "eigh")
        povms = spy(monkeypatch, Povm, "__post_init__")
        assert run_bb84_attack(box, 500, seed=2, eve_strategy=strategy) == first
        assert (len(eighs), len(povms)) == (0, 0)


class TestInverseCdf:
    # A row that sums to 1 - 1e-12 with zero-probability outcomes last: a
    # draw above its total must not fall through to the final outcome.
    SHORT_ROW = [0.5, 0.5 - 1e-12, 0.0, 0.0]
    EDGE_U = np.array([0.0, 1e-300, 0.25, 0.5, 0.5 - 1e-16, 1 - 1e-12,
                       1 - 1e-13, np.nextafter(1.0, 0.0)])

    @pytest.mark.parametrize("row", [[0, 1, 0, 0], [0.5, 0, 0, 0.5],
                                     [0, 0, 0, 1], [1, 0, 0, 0], SHORT_ROW])
    def test_never_returns_zero_probability_outcome(self, row):
        dist = np.array([row])
        u = np.concatenate([self.EDGE_U, np.random.default_rng(0).random(10000)])
        out = _inverse_cdf(dist, np.zeros(u.size, dtype=np.int8), u)
        assert np.all(dist[0, out] > 0)

    def test_matches_per_draw_reference(self):
        rng = np.random.default_rng(3)
        dist = rng.random((6, 4)) * (rng.random((6, 4)) < 0.6)
        dist[:, 0] += 1e-3
        dist /= dist.sum(axis=1, keepdims=True)
        rows = rng.integers(6, size=5000)
        u = rng.random(5000)
        out = _inverse_cdf(dist, rows, u)
        for k, r, x in zip(out, rows, u):
            cdf = np.cumsum(dist[r])
            assert k == np.searchsorted(cdf / cdf[-1], x, side="right")

    def test_frequencies_within_five_sigma(self):
        n = 200_000
        row = np.array([0.1, 0.2, 0.3, 0.4])
        u = np.random.default_rng(2024).random(n)
        out = _inverse_cdf(row[None, :], np.zeros(n, dtype=np.int8), u)
        freq = np.bincount(out, minlength=4) / n
        sigma = np.sqrt(row * (1 - row) / n)
        assert np.all(np.abs(freq - row) <= 5 * sigma)


class TestValidationCount:
    """Each density is validated once, when it is built: a ket's projector
    and a preparation's mixture are kept and shared, never rebuilt."""

    @staticmethod
    def fresh_box(**kwargs):
        # New kets, as a .scn file would give, so no projector is cached yet.
        s = 1 / np.sqrt(2)
        return make_box(BrunBoxConfig((ket(1, 0), ket(0, 1)), (ket(s, s), ket(s, -s))),
                        **kwargs)

    @staticmethod
    def count_validations(monkeypatch):
        calls = []
        validate = DensityOperator.__post_init__

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(DensityOperator, "__post_init__", counting)
        return calls

    def test_bb84_validates_each_domain_projector_once(self, monkeypatch):
        box = self.fresh_box()
        calls = self.count_validations(monkeypatch)
        run_bb84_attack(box, 1000, seed=5)
        assert len(calls) <= 4

    def test_preparation_demo_builds_only_new_values(self, monkeypatch):
        # 4 projectors, then per basis the 2 states the singlet heralds,
        # and per excluded remote preparation the singlet marginal with the
        # ancilla appended. The marginal is a module constant.
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        box = self.fresh_box(policy=policy)
        calls = self.count_validations(monkeypatch)
        report = run_preparation_problem_demo(box)
        assert not report.hazard
        assert len(calls) <= 12

    @pytest.mark.parametrize("kind,bound", [
        (PolicyKind.KENT_LIGHT_CONE, 12),
        (PolicyKind.NAIVE_PURE, 8),
    ])
    def test_signaling_reuses_the_singlet(self, monkeypatch, kind, bound):
        # Per outcome: its heralded state and the box output's first-qubit
        # marginal; under kent_light_cone the excluded outcome also builds
        # the singlet marginal with the ancilla appended. The singlet and
        # its marginal are module constants, built before counting.
        box = self.fresh_box(policy=MembershipPolicy(kind, box_event=BOX_EVENT))
        calls = self.count_validations(monkeypatch)
        report = run_signaling_test(box, ("psi", "phi"))
        assert report.signaling_metric == pytest.approx(
            1.0 if kind is PolicyKind.NAIVE_PURE else 0.0, abs=1e-9)
        assert len(calls) <= bound
