import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from nlbox import boxes
from nlbox.boxes import (
    BrunBoxConfig,
    DeutschBoxConfig,
    KentBoxConfig,
    LinearBoxConfig,
    NonlinearBox,
    Semantics,
    apply_box,
    brun_apply_pure,
    deutsch_fixed_point,
    kent_readout,
)
from nlbox.errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    ShapeError,
    ValidationError,
)
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
    KetVector,
    Unitary,
    ket,
    maximally_mixed,
    tensor,
    trace_distance,
    trace_norm,
)
from nlbox.rand import random_cptp_kraus, random_density, random_ket, random_unitary
from nlbox.tolerances import ATOL

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


def reference_fixed_point(u, rho_in_mat, d_ctc):
    """The loop state by the earlier solver, kept as a reference: build the
    loop superoperator column by column from basis matrices, diagonalise it
    with eig, and keep the eigenvalue-one part of I/d_ctc. Returns the state
    and the loop map."""
    d_sys = rho_in_mat.shape[0]

    def loop(sigma):
        joint = u @ np.kron(rho_in_mat, sigma) @ u.conj().T
        return np.einsum("iaib->ab", joint.reshape(d_sys, d_ctc, d_sys, d_ctc))

    basis = np.eye(d_ctc * d_ctc, dtype=complex)
    m = np.column_stack([loop(basis[:, k].reshape(d_ctc, d_ctc)).reshape(-1)
                         for k in range(d_ctc * d_ctc)])
    evals, evecs = np.linalg.eig(m)
    coeffs = np.linalg.solve(evecs, (np.eye(d_ctc) / d_ctc).reshape(-1))
    fixed = np.abs(evals - 1.0) < 1e-9
    star = (evecs[:, fixed] @ coeffs[fixed]).reshape(d_ctc, d_ctc)
    star = 0.5 * (star + star.conj().T)
    return star / np.trace(star).real, loop


def reference_output(u, rho_in_mat, star, d_ctc):
    d_sys = rho_in_mat.shape[0]
    joint = u @ np.kron(rho_in_mat, star) @ u.conj().T
    return np.einsum("aibi->ab", joint.reshape(d_sys, d_ctc, d_sys, d_ctc))


def assert_density(m):
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(m)[0] >= -1e-9


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
        out = cfg.apply(KET0.projector())
        assert trace_distance(out, KET0.projector()) < 1e-10

    def test_identity_apply_is_identity(self, rng):
        cfg = DeutschBoxConfig(Unitary(np.eye(4)), 2)
        rho = random_density(2, rng)
        assert trace_distance(cfg.apply(rho), rho) < 1e-10

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
        out_a = cfg.apply(rho_a)
        out_b = cfg.apply(rho_b)
        gap = 0.0
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
            mixed = DensityOperator(lam * rho_a.matrix + (1 - lam) * rho_b.matrix)
            out_mixed = cfg.apply(mixed)
            star_oracle = iterated_loop_oracle(u, mixed.matrix, 2, 2)
            joint = u @ np.kron(mixed.matrix, star_oracle) @ u.conj().T
            out_oracle = np.einsum("abcb->ac", joint.reshape(2, 2, 2, 2))
            assert np.max(np.abs(out_mixed.matrix - out_oracle)) < 1e-7
            combo = DensityOperator(lam * out_a.matrix + (1 - lam) * out_b.matrix)
            gap = max(gap, trace_distance(out_mixed, combo))
        assert gap > 1e-3

    def test_degenerate_fixed_space_takes_cesaro_mean(self):
        # The loop map keeps |0>, |1> and their coherence and sends |2> to
        # |0> with probability 0.8 and to |1> with 0.2. Every state on
        # span{|0>, |1>} is a fixed point; the iterates from I/3 settle on
        # diag(0.6, 0.4, 0), not on the orthogonal projection diag(0.5, 0.5, 0).
        e = np.eye(3)
        kraus = [np.diag([1.0, 1.0, 0.0]), np.sqrt(0.8) * np.outer(e[0], e[2]),
                 np.sqrt(0.2) * np.outer(e[1], e[2])]
        iso = np.vstack(kraus)  # column a of system input |0>: sum_s |s> (x) K_s|a>
        complement = np.linalg.svd(iso.conj().T)[2][3:].conj().T
        u = np.hstack([iso, complement]).astype(complex)
        rho = DensityOperator(np.diag([1.0, 0.0, 0.0]).astype(complex))
        star = deutsch_fixed_point(DeutschBoxConfig(Unitary(u), 3), rho)
        assert np.max(np.abs(star.matrix - np.diag([0.6, 0.4, 0.0]))) < 1e-12
        oracle = iterated_loop_oracle(u, rho.matrix, 3, 3)
        assert np.max(np.abs(star.matrix - oracle)) < 1e-12

    @settings(max_examples=60)
    @given(d_ctc=st.sampled_from([2, 4, 8]), rank=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_eig_reference(self, d_ctc, rank, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(2 * d_ctc, rng).matrix
        rho = random_density(2, rng, rank=rank)
        cfg = DeutschBoxConfig(Unitary(u), d_ctc)
        star = deutsch_fixed_point(cfg, rho)
        out = cfg.apply(rho)
        ref_star, loop = reference_fixed_point(u, rho.matrix, d_ctc)
        assert np.max(np.abs(star.matrix - ref_star)) <= 1e-10
        assert np.max(np.abs(out.matrix - reference_output(u, rho.matrix, ref_star, d_ctc))) <= 1e-10
        assert trace_norm(loop(star.matrix) - star.matrix) <= 1e-8
        assert_density(star.matrix)
        assert_density(out.matrix)

    def test_residual_above_tolerance_raises(self, monkeypatch):
        cfg = DeutschBoxConfig(Unitary(CNOT @ SWAP), 2)
        monkeypatch.setattr(boxes, "LOOP_RESIDUAL", -1.0)
        with pytest.raises(ConvergenceError) as exc:
            cfg.apply(KET_PLUS.projector())
        assert 0.0 <= exc.value.residual <= 1e-8

    def test_singular_projector_raises(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ConvergenceError) as exc:
            deutsch_fixed_point(DeutschBoxConfig(Unitary(SWAP), 2), KET0.projector())
        assert exc.value.residual == np.inf


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
            make_box(KentBoxConfig(brun_config)),
            make_box(LinearBoxConfig((np.eye(2, dtype=complex),))),
        ]
        p = local_prep(KET_PLUS.projector())
        for box in boxes:
            out = apply_box(box, p)  # DensityOperator construction validates
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-9

    def test_kent_box_excluded_remote_appears_mixed(self, brun_config):
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        box = make_box(KentBoxConfig(brun_config), policy=policy)
        p = remote_prep(KET0.projector(),
                        [(0.5, KET0.projector()), (0.5, KET1.projector())])
        out = apply_box(box, p)
        expected = tensor(maximally_mixed(2), KET0.projector())
        assert trace_distance(out, expected) < 1e-12

    def test_kent_box_member_follows_map(self, brun_config):
        box = make_box(KentBoxConfig(brun_config))
        p = local_prep(KET_MINUS.projector())
        assert trace_distance(apply_box(box, p), two_qubit_state(3)) < 1e-12

    def test_pure_input_off_domain(self, brun_config):
        # The Brun box is undefined there; the Kent box re-prepares what it
        # read out, with an untouched ancilla.
        p = local_prep(KET_I.projector())
        with pytest.raises(DomainError):
            apply_box(make_box(brun_config), p)
        out = apply_box(make_box(KentBoxConfig(brun_config)), p)
        assert trace_distance(out, tensor(KET_I.projector(), KET0.projector())) < 1e-12

    def test_kent_config_needs_a_brun_config(self):
        with pytest.raises(ConfigurationError):
            KentBoxConfig(None)

    def test_unknown_config_rejected_when_built(self):
        with pytest.raises(ConfigurationError, match="unknown box config"):
            make_box(object())

    def test_deutsch_linear_when_fixed_point_input_independent(self, rng):
        # U = I: the loop state is always maximally mixed, so the induced
        # channel is affine in the input.
        cfg = DeutschBoxConfig(Unitary(np.eye(4)), 2)
        for _ in range(5):
            a = random_density(2, rng)
            b = random_density(2, rng)
            lam = float(rng.uniform())
            mixed = DensityOperator(lam * a.matrix + (1 - lam) * b.matrix)
            lhs = cfg.apply(mixed)
            rhs = DensityOperator(lam * cfg.apply(a).matrix
                                  + (1 - lam) * cfg.apply(b).matrix)
            assert trace_distance(lhs, rhs) < 1e-9


def random_box(kind, policy, semantics, rng):
    """A box of the given kind on a random non-identical basis pair."""
    psi, phi = ([KetVector(col) for col in random_unitary(2, rng).matrix.T]
                for _ in range(2))
    brun = BrunBoxConfig(tuple(psi), tuple(phi))
    config = {
        "brun": lambda: brun,
        "kent": lambda: KentBoxConfig(brun),
        "deutsch": lambda: DeutschBoxConfig(random_unitary(4, rng), 2),
        "linear": lambda: LinearBoxConfig(np.array(random_cptp_kraus(4, rng))[:, :, ::2]),
    }[kind]()
    membership = MembershipPolicy(policy, box_event=BOX_EVENT,
                                  labels=frozenset({"local", "mixed"}))
    return make_box(config, semantics=semantics, policy=membership), brun.domain_states


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("policy", list(PolicyKind))
@pytest.mark.parametrize("kind", ["brun", "kent", "deutsch", "linear"])
@settings(max_examples=8)
@given(seed=st.integers(0, 2 ** 32 - 1), i=st.integers(0, 3))
def test_apply_box_outputs_are_valid_read_only(kind, policy, semantics, seed, i):
    rng = np.random.default_rng(seed)
    box, states = random_box(kind, policy, semantics, rng)
    state, partner = states[i].projector(), states[i ^ 1].projector()
    w = float(rng.uniform(0.1, 0.9))
    preps = [
        local_prep(state, label="local"),
        ensemble_prep([(w, state), (1 - w, states[(i + 2) % 4].projector())], label="mixed"),
        remote_prep(state, [(0.5, state), (0.5, partner)], label="remote"),
        local_prep(random_density(2, rng), label="noisy"),
    ]
    for p in preps:
        m = apply_box(box, p).matrix
        assert np.max(np.abs(m - m.conj().T)) <= ATOL
        assert abs(np.trace(m) - 1) <= ATOL
        assert np.linalg.eigvalsh(m)[0] >= -ATOL
        assert not m.flags.writeable


def _arrays(value):
    """Every array held in a box config, its kets, unitary or Kraus list."""
    if isinstance(value, np.ndarray):
        yield value
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)


@pytest.mark.parametrize("kind", ["brun", "kent", "deutsch", "linear"])
def test_box_pickles(kind):
    box, states = random_box(kind, PolicyKind.NAIVE_PURE, Semantics.DECOMPOSITION,
                             np.random.default_rng(3))
    copy = pickle.loads(pickle.dumps(box))
    arrays = list(_arrays(copy.config))
    assert arrays and not any(a.flags.writeable for a in arrays)
    for state in states:
        p = local_prep(state.projector())
        assert np.array_equal(apply_box(copy, p).matrix, apply_box(box, p).matrix)


class TestLinearBox:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValidationError):
            LinearBoxConfig((np.eye(2) * 0.5,))

    def test_ancilla_embedding(self):
        cfg = LinearBoxConfig(np.eye(4, dtype=complex)[None, :, ::2])
        out = cfg.apply(KET_PLUS.projector())
        assert trace_distance(out, tensor(KET_PLUS.projector(), KET0.projector())) < 1e-12
