import numpy as np
import pytest

from conftest import (
    BOX_EVENT,
    CNOT,
    FAR_EVENT,
    SWAP,
    ensemble_prep,
    local_prep,
    make_box,
    remote_prep,
)
from nlbox.boxes import (
    BrunBoxConfig,
    DeutschBoxConfig,
    LinearBoxConfig,
    NonlinearBox,
    Semantics,
    apply_box,
    brun_apply_pure,
    deutsch_apply,
    deutsch_fixed_point,
    kent_brun_emulation,
    kent_readout,
)
from nlbox.errors import DomainError, ShapeError, ValidationError
from nlbox.preparations import (
    MembershipPolicy,
    PolicyKind,
    ProvenanceTag,
    SpacetimeEvent,
)
from nlbox.qcore import (
    COMPUTATIONAL_BASIS,
    HADAMARD_BASIS,
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    Unitary,
    ket,
    maximally_mixed,
    tensor,
    trace_distance,
)
from nlbox.rand import random_density, random_ket

KET_I = ket(1 / np.sqrt(2), 1j / np.sqrt(2))


def two_qubit_state(i):
    m = np.zeros((4, 4), dtype=complex)
    m[i, i] = 1.0
    return DensityOperator(m)


class TestBrunConfig:
    def test_rejects_non_orthogonal_basis(self):
        with pytest.raises(ValidationError):
            BrunBoxConfig((KET0, KET_PLUS), HADAMARD_BASIS)

    def test_rejects_identical_bases(self):
        with pytest.raises(ValidationError):
            BrunBoxConfig(COMPUTATIONAL_BASIS, COMPUTATIONAL_BASIS)

    def test_rejects_reordered_identical_bases(self):
        with pytest.raises(ValidationError):
            BrunBoxConfig(COMPUTATIONAL_BASIS, (KET1, KET0))


class TestBrunMap:
    def test_psi0(self, brun_config):
        out = brun_apply_pure(brun_config, KET0)
        assert trace_distance(out, two_qubit_state(0)) < 1e-12

    def test_psi1(self, brun_config):
        out = brun_apply_pure(brun_config, KET1)
        assert trace_distance(out, two_qubit_state(1)) < 1e-12

    def test_phi0(self, brun_config):
        out = brun_apply_pure(brun_config, KET_PLUS)
        assert trace_distance(out, two_qubit_state(2)) < 1e-12

    def test_phi1(self, brun_config):
        out = brun_apply_pure(brun_config, KET_MINUS)
        assert trace_distance(out, two_qubit_state(3)) < 1e-12

    def test_targets_shared_read_only(self, brun_config):
        out = brun_apply_pure(brun_config, KET0)
        assert brun_apply_pure(brun_config, KET0) is out
        with pytest.raises(ValueError):
            out.matrix[0, 0] = 0.0

    def test_out_of_domain_strict(self, brun_config):
        # (|0> + i|1>)/sqrt(2) has fidelity 1/2 with every domain state.
        for state in brun_config.domain_states:
            assert KET_I.fidelity(state) < 1 - 1e-9
        with pytest.raises(DomainError):
            brun_apply_pure(brun_config, KET_I)

    def test_custom_completion(self):
        filler = maximally_mixed(4)
        cfg = BrunBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS,
                            completion=lambda k: filler)
        assert trace_distance(brun_apply_pure(cfg, KET_I), filler) < 1e-12
        # Domain states still follow the map.
        assert trace_distance(brun_apply_pure(cfg, KET0), two_qubit_state(0)) < 1e-12


def iterated_loop_oracle(u, rho_in_mat, d_sys, d_ctc, steps=400):
    """Independent check: iterate the induced loop map from the maximally
    mixed state and average the tail of the trajectory."""
    sigma = np.eye(d_ctc, dtype=complex) / d_ctc
    tail = []
    for step in range(steps):
        joint = u @ np.kron(rho_in_mat, sigma) @ u.conj().T
        t = joint.reshape(d_sys, d_ctc, d_sys, d_ctc)
        sigma = np.einsum("iaib->ab", t)
        if step >= steps // 2:
            tail.append(sigma)
    return sum(tail) / len(tail)


class TestDeutsch:
    def test_swap_fixed_point_is_input(self, rng):
        cfg = DeutschBoxConfig(Unitary(SWAP), 2)
        for _ in range(10):
            rho = random_density(2, rng)
            star = deutsch_fixed_point(cfg, rho)
            assert trace_distance(star, rho) < 1e-8

    def test_identity_fixed_point_is_maximally_mixed(self, rng):
        cfg = DeutschBoxConfig(Unitary(np.eye(4)), 2)
        rho = random_density(2, rng)
        star = deutsch_fixed_point(cfg, rho)
        assert trace_distance(star, maximally_mixed(2)) < 1e-10

    def test_cnot_on_one_gives_maximally_mixed(self):
        # Induced loop map is conjugation by X; oracle by brute iteration.
        cfg = DeutschBoxConfig(Unitary(CNOT), 2)
        star = deutsch_fixed_point(cfg, KET1.projector())
        assert trace_distance(star, maximally_mixed(2)) < 1e-8
        oracle = iterated_loop_oracle(CNOT, KET1.projector().matrix, 2, 2)
        assert np.max(np.abs(star.matrix - oracle)) < 1e-8

    def test_swap_apply_replaces_system(self):
        cfg = DeutschBoxConfig(Unitary(SWAP), 2)
        out = deutsch_apply(cfg, KET0.projector())
        assert trace_distance(out, KET0.projector()) < 1e-10

    def test_identity_apply_is_identity(self, rng):
        cfg = DeutschBoxConfig(Unitary(np.eye(4)), 2)
        rho = random_density(2, rng)
        assert trace_distance(deutsch_apply(cfg, rho), rho) < 1e-10

    def test_dim_mismatch(self):
        cfg = DeutschBoxConfig(Unitary(SWAP), 2)
        with pytest.raises(ShapeError):
            deutsch_fixed_point(cfg, maximally_mixed(4))

    def test_nonlinearity_witness(self):
        # Scan mixing weights for a CNOT-based loop circuit; the brute
        # iteration oracle confirms every output used in the gap.
        u = CNOT @ SWAP
        cfg = DeutschBoxConfig(Unitary(u), 2)
        rho_a = KET_PLUS.projector()
        rho_b = KET_MINUS.projector()
        out_a = deutsch_apply(cfg, rho_a)
        out_b = deutsch_apply(cfg, rho_b)
        gap = 0.0
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            mixed = DensityOperator(lam * rho_a.matrix + (1 - lam) * rho_b.matrix)
            out_mixed = deutsch_apply(cfg, mixed)
            star_oracle = iterated_loop_oracle(u, mixed.matrix, 2, 2)
            joint = u @ np.kron(mixed.matrix, star_oracle) @ u.conj().T
            out_oracle = np.einsum("abcb->ac", joint.reshape(2, 2, 2, 2))
            assert np.max(np.abs(out_mixed.matrix - out_oracle)) < 1e-7
            combo = DensityOperator(lam * out_a.matrix + (1 - lam) * out_b.matrix)
            gap = max(gap, trace_distance(out_mixed, combo))
        assert gap > 1e-3


class TestKentReadout:
    def test_local_record_in_cone(self):
        p = local_prep(KET_PLUS.projector(), record=BOX_EVENT)
        readout = kent_readout(p, BOX_EVENT)
        assert trace_distance(readout, KET_PLUS.projector()) < 1e-12

    def test_remote_record_outside_cone_appears_mixed(self):
        p = remote_prep(KET0.projector(),
                        [(0.5, KET0.projector()), (0.5, KET1.projector())],
                        record=FAR_EVENT)
        readout = kent_readout(p, BOX_EVENT)
        assert trace_distance(readout, maximally_mixed(2)) < 1e-12

    def test_remote_record_inside_cone_reveals_member(self):
        p = remote_prep(KET0.projector(),
                        [(0.5, KET0.projector()), (0.5, KET1.projector())],
                        record=SpacetimeEvent(0.0, 0.0))
        readout = kent_readout(p, BOX_EVENT)
        assert trace_distance(readout, KET0.projector()) < 1e-12


class TestApplyBox:
    def test_brun_decomposition_mixture(self, brun_config):
        box = make_box(brun_config)
        p = ensemble_prep([(0.5, KET0.projector()), (0.5, KET_PLUS.projector())],
                          tag=ProvenanceTag.LOCAL_ENSEMBLE)
        out = apply_box(box, p)
        expected = DensityOperator(
            0.5 * two_qubit_state(0).matrix + 0.5 * two_qubit_state(2).matrix)
        assert trace_distance(out, expected) < 1e-12

    def test_brun_non_member_identity_action(self, brun_config):
        policy = MembershipPolicy(PolicyKind.EXPLICIT_LIST, labels=frozenset({"other"}))
        box = make_box(brun_config, policy=policy)
        p = local_prep(KET_PLUS.projector(), label="excluded")
        out = apply_box(box, p)
        expected = tensor(KET_PLUS.projector(), KET0.projector())
        assert trace_distance(out, expected) < 1e-12

    def test_deutsch_identity_member(self, brun_config):
        cfg = DeutschBoxConfig(Unitary(np.eye(4)), 2)
        box = make_box(cfg, semantics=Semantics.STATE)
        p = local_prep(KET_PLUS.projector())
        assert trace_distance(apply_box(box, p), KET_PLUS.projector()) < 1e-10

    def test_equal_ensembles_equal_outputs(self, brun_config):
        box = make_box(brun_config)
        members = [(0.5, KET0.projector()), (0.5, KET1.projector())]
        p1 = ensemble_prep(members, "a")
        p2 = ensemble_prep(members, "b")
        assert trace_distance(apply_box(box, p1), apply_box(box, p2)) < 1e-9

    def test_state_semantics_density_functional(self, brun_config):
        box = make_box(brun_config, semantics=Semantics.STATE)
        p1 = ensemble_prep([(0.5, KET0.projector()), (0.5, KET1.projector())], "a")
        p2 = ensemble_prep([(0.5, KET_PLUS.projector()), (0.5, KET_MINUS.projector())], "b")
        assert trace_distance(apply_box(box, p1), apply_box(box, p2)) < 1e-9

    def test_decomposition_semantics_splits_equal_densities(self, brun_config):
        box = make_box(brun_config)
        p1 = ensemble_prep([(0.5, KET0.projector()), (0.5, KET1.projector())], "a")
        p2 = ensemble_prep([(0.5, KET_PLUS.projector()), (0.5, KET_MINUS.projector())], "b")
        d = trace_distance(apply_box(box, p1), apply_box(box, p2))
        assert abs(d - 1.0) < 1e-12

    def test_outputs_are_valid_densities(self, brun_config, rng):
        boxes = [
            make_box(brun_config),
            make_box(DeutschBoxConfig(Unitary(CNOT @ SWAP), 2), semantics=Semantics.STATE),
            make_box(kent_brun_emulation(brun_config)),
            make_box(LinearBoxConfig((np.eye(2, dtype=complex),))),
        ]
        p = local_prep(KET_PLUS.projector())
        for box in boxes:
            out = apply_box(box, p)  # DensityOperator construction validates
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-9

    def test_kent_box_excluded_remote_appears_mixed(self, brun_config):
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        box = make_box(kent_brun_emulation(brun_config), policy=policy)
        p = remote_prep(KET0.projector(),
                        [(0.5, KET0.projector()), (0.5, KET1.projector())])
        out = apply_box(box, p)
        expected = tensor(maximally_mixed(2), KET0.projector())
        assert trace_distance(out, expected) < 1e-12

    def test_kent_box_member_follows_map(self, brun_config):
        box = make_box(kent_brun_emulation(brun_config))
        p = local_prep(KET_MINUS.projector())
        assert trace_distance(apply_box(box, p), two_qubit_state(3)) < 1e-12

    def test_deutsch_linear_when_fixed_point_input_independent(self, rng):
        # U = I: the loop state is always maximally mixed, so the induced
        # channel is affine in the input.
        cfg = DeutschBoxConfig(Unitary(np.eye(4)), 2)
        for _ in range(5):
            a = random_density(2, rng)
            b = random_density(2, rng)
            lam = float(rng.uniform())
            mixed = DensityOperator(lam * a.matrix + (1 - lam) * b.matrix)
            lhs = deutsch_apply(cfg, mixed)
            rhs = DensityOperator(lam * deutsch_apply(cfg, a).matrix
                                  + (1 - lam) * deutsch_apply(cfg, b).matrix)
            assert trace_distance(lhs, rhs) < 1e-9


class TestLinearBox:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValidationError):
            LinearBoxConfig((np.eye(2) * 0.5,))

    def test_ancilla_embedding(self):
        cfg = LinearBoxConfig((np.eye(4, dtype=complex),), ancilla=True)
        out = cfg.apply(KET_PLUS.projector())
        assert trace_distance(out, tensor(KET_PLUS.projector(), KET0.projector())) < 1e-12
