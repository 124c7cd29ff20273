import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOX_EVENT, make_box
from nlbox import protocols
from nlbox.boxes import (
    BrunBoxConfig,
    DeutschBoxConfig,
    KentBoxConfig,
    LinearBoxConfig,
    Semantics,
)
from nlbox.errors import ConfigurationError
from nlbox.preparations import MembershipPolicy, PolicyKind, classify_membership
from nlbox.protocols import (
    _inverse_cdf,
    run_bb84_attack,
    run_preparation_problem_demo,
    run_signaling_test,
    run_verification,
)
from nlbox.qcore import (
    COMPUTATIONAL_BASIS,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    KetVector,
    Unitary,
    ket,
)
from nlbox.rand import random_cptp_kraus, random_unitary

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
        report = run_verification(make_box(KentBoxConfig(brun_config)))
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
@given(seed=st.integers(0, 2 ** 32 - 1), admit_remote=st.booleans())
def test_random_linear_channel_never_signals(square, policy, semantics, seed, admit_remote):
    # An explicit list names every remote preparation or none of them; see
    # test_partial_explicit_list_lets_a_linear_channel_signal.
    rng = np.random.default_rng(seed)
    kraus = np.array(random_cptp_kraus(2 if square else 4, rng))
    config = LinearBoxConfig(kraus if square else kraus[:, :, ::2])
    membership = MembershipPolicy(policy, box_event=BOX_EVENT,
                                  labels=REMOTE_LABELS if admit_remote else {"local"})
    box = make_box(config, semantics=semantics, policy=membership)
    report = run_signaling_test(box, ("psi", "phi", random_pair(rng)))
    assert report.signaling_metric <= 1e-9


def test_partial_explicit_list_lets_a_linear_channel_signal():
    # Admitting remote_psi_0 but not its partner: the channel then acts on
    # the heralded state for one outcome and on the unconditioned mixture
    # for the other, so the policy reads the heralding record.
    rng = np.random.default_rng(0)
    config = LinearBoxConfig(random_cptp_kraus(2, rng))
    membership = MembershipPolicy(PolicyKind.EXPLICIT_LIST, labels=frozenset({"remote_psi_0"}))
    box = make_box(config, policy=membership)
    report = run_signaling_test(box, ("psi", "phi", random_pair(rng)))
    assert abs(report.signaling_metric - 0.0903) < 1e-4


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

    @pytest.mark.parametrize("n_bits", [-5, -1, 2.0, 1.5, "10", None])
    def test_rejects_bad_n_bits(self, brun_config, n_bits):
        with pytest.raises(ConfigurationError, match="n_bits"):
            run_bb84_attack(make_box(brun_config), n_bits, seed=1)

    @pytest.mark.parametrize("seed", [-1, 3.0, "7", None])
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
        # 4 projectors, then per remote preparation its unconditioned
        # mixture and that mixture with the ancilla appended.
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        box = self.fresh_box(policy=policy)
        calls = self.count_validations(monkeypatch)
        report = run_preparation_problem_demo(box)
        assert not report.hazard
        assert len(calls) <= 12

    @pytest.mark.parametrize("kind,bound", [
        (PolicyKind.KENT_LIGHT_CONE, 16),
        (PolicyKind.NAIVE_PURE, 8),
    ])
    def test_signaling_reuses_the_singlet(self, monkeypatch, kind, bound):
        # Per outcome: its heralded state and the box output's first-qubit
        # marginal; under kent_light_cone the excluded outcome also builds
        # its unconditioned mixture and that mixture with the ancilla
        # appended. The singlet is a module constant, built before counting.
        box = self.fresh_box(policy=MembershipPolicy(kind, box_event=BOX_EVENT))
        calls = self.count_validations(monkeypatch)
        report = run_signaling_test(box, ("psi", "phi"))
        assert report.signaling_metric == pytest.approx(
            1.0 if kind is PolicyKind.NAIVE_PURE else 0.0, abs=1e-9)
        assert len(calls) <= bound
