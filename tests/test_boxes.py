import collections
import dataclasses
import pickle
import tracemalloc
from pathlib import Path
from unittest import mock

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
    deutsch_fixed_point,
)
from nlbox.errors import (
    CapacityError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    ShapeError,
    ValidationError,
)
from nlbox.preparations import (
    MembershipPolicy,
    PolicyKind,
    Provenance,
    ProvenanceTag,
    SpacetimeEvent,
    effective_density,
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
    _hermitian_basis,
    ket,
    maximally_mixed,
    tensor,
    trace_distance,
    trace_norm,
)
from nlbox.rand import random_cptp_kraus, random_density, random_ket, random_unitary
from nlbox.scenario import parse_scenario, run_scenario
from nlbox.tolerances import (ATOL, LOOP_FIXED_CUT, LOOP_RESIDUAL, MAX_LOOP_DIM, MAX_TENSOR_DIM,
                              PURITY_MIN)

KET_I = ket(1 / np.sqrt(2), 1j / np.sqrt(2))
SCENARIO_DIR = Path(boxes.__file__).resolve().parent / "scenarios"


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

    @pytest.mark.parametrize("cls", [BrunBoxConfig, KentBoxConfig], ids=["brun", "kent"])
    @pytest.mark.parametrize("psi,phi", [
        (None, None),
        ((KET0, "x"), HADAMARD_BASIS),
        ((KET0,), HADAMARD_BASIS),
        ((KET0, KET1, KET_PLUS), HADAMARD_BASIS),
        ([KET0, KET1], HADAMARD_BASIS),
        (COMPUTATIONAL_BASIS, (KET_PLUS, KET_MINUS.amplitudes)),
    ], ids=["none", "str_ket", "one_ket", "three_kets", "list", "array_ket"])
    def test_bases_are_pairs_of_kets(self, cls, psi, phi):
        with pytest.raises(ConfigurationError, match="basis must be a tuple of two KetVectors"):
            cls(psi, phi)

    @pytest.mark.parametrize("psi,phi", [
        ((KET0, KET_PLUS), HADAMARD_BASIS),
        (COMPUTATIONAL_BASIS, COMPUTATIONAL_BASIS),
        (COMPUTATIONAL_BASIS, (KET1, KET0)),
        ((ket(1, 0, 0), ket(0, 1, 0)), HADAMARD_BASIS),
    ], ids=["non_orthogonal", "identical", "reordered", "qutrit"])
    def test_kent_runs_the_brun_validation(self, psi, phi):
        with pytest.raises(ValidationError) as brun:
            BrunBoxConfig(psi, phi)
        with pytest.raises(ValidationError) as kent:
            KentBoxConfig(psi, phi)
        assert (type(kent.value), str(kent.value)) == (type(brun.value), str(brun.value))

    def test_kent_config_is_a_brun_config_that_pickles(self):
        kent = KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS)
        copy = pickle.loads(pickle.dumps(kent))
        assert type(copy) is KentBoxConfig and isinstance(copy, BrunBoxConfig)
        for a, b in zip(copy.domain_states, kent.domain_states):
            assert np.array_equal(a.amplitudes, b.amplitudes)
            assert not a.amplitudes.flags.writeable
        # The copy keeps Kent's own apply: a pure input off the domain passes.
        out = copy.apply(KET_I.projector())
        assert trace_distance(out, tensor(KET_I.projector(), KET0.projector())) < 1e-12

    def test_configs_hash_and_compare_their_kets_by_identity(self):
        a = BrunBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS)
        assert hash(a) == hash(BrunBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS))
        assert a == BrunBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS)
        assert a != KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS)
        assert a != BrunBoxConfig((ket(1, 0), KET1), HADAMARD_BASIS)


class TestBrunMap:
    def test_psi0(self, brun_config):
        out = brun_config.apply(KET0.projector())
        assert trace_distance(out, two_qubit_state(0)) < 1e-12

    def test_psi1(self, brun_config):
        out = brun_config.apply(KET1.projector())
        assert trace_distance(out, two_qubit_state(1)) < 1e-12

    def test_phi0(self, brun_config):
        out = brun_config.apply(KET_PLUS.projector())
        assert trace_distance(out, two_qubit_state(2)) < 1e-12

    def test_phi1(self, brun_config):
        out = brun_config.apply(KET_MINUS.projector())
        assert trace_distance(out, two_qubit_state(3)) < 1e-12

    def test_targets_shared_read_only(self, brun_config):
        out = brun_config.apply(KET0.projector())
        assert brun_config.apply(KET0.projector()) is out
        with pytest.raises(ValueError):
            out.matrix[0, 0] = 0.0

    def test_out_of_domain_strict(self, brun_config):
        # (|0> + i|1>)/sqrt(2) has fidelity 1/2 with every domain state.
        for state in brun_config.domain_states:
            assert KET_I.fidelity(state) < 1 - 1e-9
        with pytest.raises(DomainError):
            brun_config.apply(KET_I.projector())

    def test_reads_a_fresh_density_without_an_eigendecomposition(self, brun_config,
                                                                  monkeypatch):
        monkeypatch.setattr(np.linalg, "eigh", None)
        fresh = DensityOperator(KET_MINUS.projector().matrix)
        assert brun_config.apply(fresh) is brun_config.apply(KET_MINUS.projector())

    @pytest.mark.parametrize("cls", [BrunBoxConfig, KentBoxConfig], ids=["brun", "kent"])
    @pytest.mark.parametrize("rho", [maximally_mixed(3), ket(0, 0, 1).projector()],
                             ids=["mixed", "pure"])
    def test_input_that_is_not_one_qubit_is_a_shape_error(self, cls, rho):
        with pytest.raises(ShapeError, match="single qubit"):
            cls(COMPUTATIONAL_BASIS, HADAMARD_BASIS).apply(rho)

    @pytest.mark.parametrize("cls", [BrunBoxConfig, KentBoxConfig], ids=["brun", "kent"])
    @settings(max_examples=80)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["pure", "mixed", "domain"]))
    def test_overlap_test_decides_as_the_principal_ket(self, cls, seed, kind):
        rng = np.random.default_rng(seed)
        psi, phi = (tuple(KetVector(c) for c in random_unitary(2, rng).matrix.T)
                    for _ in range(2))
        cfg = cls(psi, phi)
        if kind == "pure":
            rho = random_ket(2, rng).projector()
        elif kind == "mixed":
            rho = random_density(2, rng)
        else:
            # A domain state, off by at most 1e-12 in its amplitudes and its mixing.
            state = cfg.domain_states[rng.integers(4)]
            amp = state.amplitudes + 1e-12 * rng.uniform() * random_ket(2, rng).amplitudes
            eps = 1e-12 * rng.uniform()
            rho = DensityOperator((1 - eps) * np.outer(amp, amp.conj()) / np.vdot(amp, amp).real
                                  + eps * random_density(2, rng).matrix)
        try:
            expected = principal_ket_apply(cfg, rho)
        except DomainError:
            if cls is BrunBoxConfig:
                with pytest.raises(DomainError):
                    cfg.apply(rho)
                return
            expected = tensor(rho, KET0.projector())
        assert np.array_equal(cfg.apply(rho).matrix, expected.matrix)


def principal_ket_apply(cfg, rho):
    """The Brun map as it once decided a pure input: by the fidelity of the
    density's top eigenvector with each domain state."""
    if rho.purity() < PURITY_MIN:
        return tensor(rho, KET0.projector())
    top = KetVector(np.linalg.eigh(rho.matrix)[1][:, -1])
    for i, state in enumerate(cfg.domain_states):
        if top.fidelity(state) >= PURITY_MIN:
            return two_qubit_state(i)
    raise DomainError("off the domain")


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


def svd_count_fixed_point(cfg, rho_in):
    """The loop state as the solver found it while the values-only SVD of R - I
    counted the fixed directions f for every loop: f = 1 took the bordered
    solve, f > 1 the full SVD projector. Returns f and the state's matrix;
    f = 0, a singular solve and a residual above LOOP_RESIDUAL raise. R - I is
    the solver's own (see test_loop_matrix_matches_the_dense_basis_change)."""
    d_ctc = cfg.ctc_dim
    n = d_ctc * d_ctc
    a = boxes._loop_minus_identity(cfg, rho_in)
    basis = _hermitian_basis(d_ctc)
    n_fixed = np.count_nonzero(np.linalg.svd(a, compute_uv=False) <= LOOP_FIXED_CUT)
    if n_fixed == 0:
        raise ConvergenceError("no fixed direction")
    if n_fixed == 1:
        border = np.zeros((n + 1, n + 1))
        border[:n, :n] = a
        border[:d_ctc, n] = border[n, :d_ctc] = 1.0
        h = np.linalg.solve(border, np.eye(n + 1)[n])[:n]
    else:
        w, _, vt = np.linalg.svd(a)
        l_t, f = w[:, n - n_fixed:].T, vt[n - n_fixed:].T
        h = f @ np.linalg.solve(l_t @ f, l_t[:, :d_ctc].sum(axis=1) / d_ctc)
    h = h / h[:d_ctc].sum()
    if not trace_norm((a @ h @ basis).reshape(d_ctc, d_ctc)) <= LOOP_RESIDUAL:
        raise ConvergenceError("residual above LOOP_RESIDUAL")
    return n_fixed, (h @ basis).reshape(d_ctc, d_ctc)


@st.composite
def loops(draw, d_sys=st.sampled_from([2, 3]), d_ctc=st.integers(2, 8)):
    """(U, rho_in, d_ctc): a random loop, or one of the degenerate
    families whose fixed space has more than one direction or nearly does."""
    family = draw(st.sampled_from(["random", "unitary_on_loop", "identity", "repeated_blocks",
                                   "permutation", "near_identity"]))
    d_sys, d_ctc = draw(d_sys), draw(d_ctc)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dim = d_sys * d_ctc
    if family == "random":
        u = random_unitary(dim, rng).matrix
    elif family == "unitary_on_loop":
        u = np.kron(np.eye(d_sys), random_unitary(d_ctc, rng).matrix)
    elif family == "identity":
        u = np.eye(dim, dtype=complex)
    elif family == "repeated_blocks":  # kron(I_b, W) for the least b of 2, 3 and dim dividing dim
        blocks = next(b for b in (2, 3, dim) if dim % b == 0)
        u = np.kron(np.eye(blocks), random_unitary(dim // blocks, rng).matrix)
    elif family == "permutation":
        u = np.eye(dim, dtype=complex)[rng.permutation(dim)]
    else:  # exp(i eps H) for a random Hermitian H
        eps = draw(st.sampled_from([1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9]))
        w, v = np.linalg.eigh(random_density(dim, rng).matrix - np.eye(dim) / dim)
        u = (v * np.exp(1j * eps * dim * w)) @ v.conj().T
    return u, random_density(d_sys, rng), d_ctc


def reference_output(u, rho_in_mat, star, d_ctc):
    d_sys = rho_in_mat.shape[0]
    joint = u @ np.kron(rho_in_mat, star) @ u.conj().T
    return np.einsum("aibi->ab", joint.reshape(d_sys, d_ctc, d_sys, d_ctc))


def assert_density(m):
    assert np.max(np.abs(m - m.conj().T)) <= 1e-12
    assert abs(np.trace(m) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(m)[0] >= -1e-9


def cesaro_loop():
    """A loop whose fixed space is two-dimensional, and its input. The loop
    map keeps |0>, |1> and their coherence and sends |2> to |0> with
    probability 0.8 and to |1> with 0.2. Every state on span{|0>, |1>} is a
    fixed point; the iterates from I/3 settle on diag(0.6, 0.4, 0), not on
    the orthogonal projection diag(0.5, 0.5, 0)."""
    e = np.eye(3)
    kraus = [np.diag([1.0, 1.0, 0.0]), np.sqrt(0.8) * np.outer(e[0], e[2]),
             np.sqrt(0.2) * np.outer(e[1], e[2])]
    iso = np.vstack(kraus)  # column a of system input |0>: sum_s |s> (x) K_s|a>
    complement = np.linalg.svd(iso.conj().T)[2][3:].conj().T
    u = np.hstack([iso, complement]).astype(complex)
    return u, DensityOperator(np.diag([1.0, 0.0, 0.0]).astype(complex))


def spy_on_solvers(monkeypatch):
    """Record each np.linalg.svd call as ("svd", compute_uv) and each
    np.linalg.solve call as ("solve", shape of its matrix)."""
    calls, svd, solve = [], np.linalg.svd, np.linalg.solve

    def svd_spy(a, *args, **kwargs):
        calls.append(("svd", kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    def solve_spy(a, b):
        calls.append(("solve", np.shape(a)))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    return calls


def grid_hermitian_span(d):
    """The (d^2, d, d) matrices G_g of `boxes._loop_entries`, g = x d + y: E_xx, then
    E_xy + E_yx for x < y and i(E_xy - E_yx) for x > y."""
    span = np.zeros((d, d, d, d), dtype=complex)
    for x in range(d):
        for y in range(d):
            if x <= y:
                span[x, y, x, y] = span[x, y, y, x] = 1.0
            else:
                span[x, y, x, y], span[x, y, y, x] = 1j, -1j
    return span.reshape(d * d, d, d)


class TestDeutsch:
    @pytest.mark.parametrize("unitary,ctc_dim,error", [
        (np.eye(4), 2, ConfigurationError),
        (Unitary(np.eye(4)), 2.0, ValidationError),
        (Unitary(np.eye(4)), "2", ValidationError),
        (Unitary(np.eye(4)), True, ValidationError),
        (Unitary(np.eye(4)), 0, ValidationError),
    ], ids=["raw_array_unitary", "float_ctc_dim", "string_ctc_dim", "bool_ctc_dim", "zero_ctc_dim"])
    def test_config_rejects_bad_fields(self, unitary, ctc_dim, error):
        # Typed errors when the config is built, not an AttributeError or a
        # TypeError inside the fixed-point solve.
        with pytest.raises(error):
            DeutschBoxConfig(unitary, ctc_dim)

    def test_config_rejects_a_loop_above_the_cap(self):
        with mock.patch.object(boxes, "_hermitian_basis", wraps=_hermitian_basis) as basis:
            with pytest.raises(CapacityError, match="loop dimension cap"):
                DeutschBoxConfig(Unitary(np.eye(MAX_LOOP_DIM + 1)), MAX_LOOP_DIM + 1)
        assert not basis.called

    @pytest.mark.parametrize("d_ctc", [8, MAX_LOOP_DIM])
    def test_config_rejects_a_loop_tensor_above_the_cap(self, d_ctc):
        # T holds (d_sys d_ctc^2)^2 floats; one past the cap is refused before
        # any basis or plan is built.
        d_sys = MAX_TENSOR_DIM // d_ctc**2 + 1
        with mock.patch.object(boxes, "_hermitian_basis", wraps=_hermitian_basis) as basis, \
                mock.patch.object(boxes, "_loop_plan", wraps=boxes._loop_plan) as plan:
            with pytest.raises(CapacityError, match="loop tensor cap"):
                DeutschBoxConfig(Unitary(np.eye(d_sys * d_ctc)), d_ctc)
        assert not basis.called and not plan.called

    def test_loop_at_the_cap_solves(self, rng):
        cfg = DeutschBoxConfig(Unitary(random_unitary(2 * MAX_LOOP_DIM, rng).matrix), MAX_LOOP_DIM)
        assert_density(deutsch_fixed_point(cfg, random_density(2, rng)).matrix)

    @settings(max_examples=150)
    @given(loop=loops(d_sys=st.integers(1, 3), d_ctc=st.integers(1, 8)))
    def test_loop_matrix_matches_the_dense_basis_change(self, loop):
        # The solver's R - I, contracted from the config's loop tensor, against
        # Re(conj(B) X B^T) - I, the two dense products with the Hermitian
        # basis, on the loop-map entries X of the input itself.
        u, rho, d_ctc = loop
        d_sys, n = rho.dim, d_ctc * d_ctc
        t = u.reshape(d_sys, d_ctc, d_sys, d_ctc)
        k = np.einsum("scxa,xy->casy", t, rho.matrix).reshape(n, -1)
        m = (k @ t.conj().transpose(0, 2, 1, 3).reshape(-1, n)).reshape(d_ctc, d_ctc, d_ctc, d_ctc)
        basis = _hermitian_basis(d_ctc)
        dense = (basis.conj() @ m.transpose(0, 2, 1, 3).reshape(n, n) @ basis.T).real - np.eye(n)
        cfg = DeutschBoxConfig(Unitary(u), d_ctc)
        assert np.max(np.abs(boxes._loop_minus_identity(cfg, rho) - dense)) <= 1e-15

    @pytest.mark.parametrize("d_sys,d_ctc", [(2, 2), (3, 2), (4, 3), (6, 2), (9, 2), (16, 1)])
    def test_loop_tensor_matches_the_dense_loop_map_on_larger_systems(self, rng, d_sys, d_ctc):
        # Row g of T against Re(conj(B) M_g B^T), M_g the loop map's entries on
        # G_g contracted densely with the whole unitary; then the solver's R - I
        # against the dense product with the system's Hermitian basis.
        n = d_ctc * d_ctc
        u = random_unitary(d_sys * d_ctc, rng).matrix
        cfg = DeutschBoxConfig(Unitary(u), d_ctc)
        t = u.reshape(d_sys, d_ctc, d_sys, d_ctc)
        span = grid_hermitian_span(d_sys)
        m = np.einsum("scxa,gxy,sdyb->gcdab", t, span, t.conj()).reshape(-1, n, n)
        basis = _hermitian_basis(d_ctc)
        dense = (basis.conj() @ m @ basis.T).real.reshape(d_sys**2, -1)
        assert np.max(np.abs(cfg._loop_tensor - dense)) <= 1e-15
        sys_basis = _hermitian_basis(d_sys).reshape(-1, d_sys, d_sys)
        m = np.einsum("scxa,qxy,sdyb->qcdab", t, sys_basis, t.conj()).reshape(-1, n, n)
        dense = (basis.conj() @ m @ basis.T).real.reshape(d_sys**2, -1)
        for _ in range(3):
            rho = random_density(d_sys, rng)
            x = (sys_basis.reshape(d_sys**2, -1).conj() @ rho.matrix.ravel()).real
            r = (x @ dense).reshape(n, n) - np.eye(n)
            assert np.max(np.abs(boxes._loop_minus_identity(cfg, rho) - r)) <= 1e-15

    @pytest.mark.parametrize("d_ctc", [1, 2, 4, 8, MAX_LOOP_DIM])
    def test_loop_tensor_build_peaks_near_the_tensor_size(self, monkeypatch, rng, d_ctc):
        # The largest config the cap accepts at each loop dimension, under a
        # cap of 2**8 so that T is 512 KiB. Every array of the build is O(T),
        # so its traced peak is within 8 T's bytes plus the copy np.take makes
        # of the cached loop plan's indices, whatever d_sys; at MAX_TENSOR_DIM
        # (T 128 MiB) that is under 1.1 GiB. No dense system basis is built.
        # The per-dimension caches, which every config reads, are built first.
        monkeypatch.setattr(boxes, "MAX_TENSOR_DIM", 2**8)
        d_sys = 2**8 // d_ctc**2
        u = random_unitary(d_sys * d_ctc, rng)
        idx, _ = boxes._loop_plan(d_ctc)
        boxes._below_diagonal(d_sys)
        with mock.patch.object(boxes, "_hermitian_basis", wraps=_hermitian_basis) as basis:
            tracemalloc.start()
            try:
                cfg = DeutschBoxConfig(u, d_ctc)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert_density(deutsch_fixed_point(cfg, random_density(d_sys, rng)).matrix)
        assert cfg._loop_tensor.nbytes == 2**16 * 8
        assert peak <= 8 * cfg._loop_tensor.nbytes + idx.nbytes
        assert all(call.args == (d_ctc,) for call in basis.call_args_list)
        with pytest.raises(CapacityError, match="loop tensor cap"):
            DeutschBoxConfig(Unitary(np.eye((d_sys + 1) * d_ctc)), d_ctc)

    @pytest.mark.parametrize("d_ctc", [1, 2, 5, 8])
    def test_loop_plan_is_built_once_and_read_only(self, d_ctc):
        plan = boxes._loop_plan(d_ctc)
        assert boxes._loop_plan(d_ctc) is plan
        for array in plan:
            assert array.shape == (d_ctc**4, 4)
            assert not array.flags.writeable

    @pytest.mark.parametrize("d_sys", [1, 2, 3, 5])
    def test_input_coordinates_rebuild_the_input(self, rng, d_sys):
        # A solve reads the input's coordinates off its entries through a
        # cached, read-only mask; on the G_g they sum back to the input exactly.
        mask = boxes._below_diagonal(d_sys)
        assert boxes._below_diagonal(d_sys) is mask and not mask.flags.writeable
        span = grid_hermitian_span(d_sys)
        for _ in range(20):
            rho = random_density(d_sys, rng)
            x = np.where(mask, rho.matrix.imag, rho.matrix.real).ravel()
            assert np.array_equal(np.einsum("g,gxy->xy", x, span), rho.matrix)

    def test_loop_tensor_is_built_once_per_config(self, rng):
        # Eight preparations through one box: the plan's gather runs once, when
        # the config is built, and every solve reads R - I from that one tensor.
        with mock.patch.object(boxes, "_loop_plan", wraps=boxes._loop_plan) as plan, \
                mock.patch.object(boxes, "_loop_minus_identity",
                                  wraps=boxes._loop_minus_identity) as solve:
            cfg = DeutschBoxConfig(random_unitary(16, rng), 8)
            tensor_t = cfg._loop_tensor
            assert plan.call_count == 1
            box = make_box(cfg, semantics=Semantics.STATE)
            for _ in range(4):
                apply_box(box, local_prep(random_ket(2, rng).projector()))
                apply_box(box, local_prep(random_density(2, rng)))
        assert solve.call_count == 8
        assert plan.call_count == 1 and cfg._loop_tensor is tensor_t
        assert tensor_t.shape == (4, 8**4) and not tensor_t.flags.writeable

    def test_unpickled_config_rebuilds_its_loop_tensor(self, rng):
        cfg = DeutschBoxConfig(random_unitary(8, rng), 4)
        assert cfg.__reduce__() == (DeutschBoxConfig, (cfg.unitary, 4))
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy._loop_tensor is not cfg._loop_tensor
        assert not copy._loop_tensor.flags.writeable
        assert copy._loop_tensor.tobytes() == cfg._loop_tensor.tobytes()

    @pytest.mark.parametrize("stem,census", [
        ("signaling_deutsch", {"certified": 3, "uncertified": 1, "svd_values": 1, "svd_full": 1}),
        ("prep_problem_deutsch", {"certified": 7, "uncertified": 1, "svd_values": 1,
                                  "svd_full": 1}),
    ])
    def test_bundled_path_census(self, monkeypatch, stem, census):
        # Each solve of a bundled Deutsch scenario is certified f = 1 or falls
        # back to the values-only SVD; every fallback here counts f > 1.
        seen = collections.Counter()
        certify, svd = boxes._one_fixed_direction, np.linalg.svd

        def certify_spy(border, dc):
            seen["certified" if (one := certify(border, dc)) else "uncertified"] += 1
            return one

        def svd_spy(a, *args, **kwargs):
            seen["svd_full" if kwargs.get("compute_uv", True) else "svd_values"] += 1
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(boxes, "_one_fixed_direction", certify_spy)
        monkeypatch.setattr(np.linalg, "svd", svd_spy)
        run_scenario(parse_scenario(SCENARIO_DIR / f"{stem}.scn"))
        assert dict(seen) == census

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
        u, rho = cesaro_loop()
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

    @settings(max_examples=60)
    @given(d_sys=st.sampled_from([2, 3]), d_ctc=st.sampled_from([2, 3, 4]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_reference_and_is_exactly_hermitian(self, d_sys, d_ctc, seed):
        rng = np.random.default_rng(seed)
        u = random_unitary(d_sys * d_ctc, rng).matrix
        rho = random_density(d_sys, rng)
        star = deutsch_fixed_point(DeutschBoxConfig(Unitary(u), d_ctc), rho)
        assert np.max(np.abs(star.matrix - reference_fixed_point(u, rho.matrix, d_ctc)[0])) <= 1e-10
        assert np.array_equal(star.matrix, star.matrix.conj().T)

    def test_solves_in_real_coordinates(self, monkeypatch):
        seen = []
        for name in ("cholesky", "solve", "svd"):
            def spy(a, *args, _name=name, _solver=getattr(np.linalg, name), **kwargs):
                seen.append((_name, np.asarray(a).dtype))
                return _solver(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, spy)
        deutsch_fixed_point(DeutschBoxConfig(Unitary(CNOT @ SWAP), 2), KET_PLUS.projector())
        assert seen == [("cholesky", np.float64), ("solve", np.float64)]
        seen.clear()
        # The identity loop fixes every direction, so the SVD decides.
        deutsch_fixed_point(DeutschBoxConfig(Unitary(np.eye(4)), 2), KET_PLUS.projector())
        assert seen == [("cholesky", np.float64), ("svd", np.float64), ("svd", np.float64),
                        ("solve", np.float64)]

    def test_residual_above_tolerance_raises(self, monkeypatch):
        cfg = DeutschBoxConfig(Unitary(CNOT @ SWAP), 2)
        monkeypatch.setattr(boxes, "LOOP_RESIDUAL", -1.0)
        with pytest.raises(ConvergenceError) as exc:
            cfg.apply(KET_PLUS.projector())
        assert 0.0 <= exc.value.residual <= 1e-8

    @staticmethod
    def seed5_dc8_loop():
        rng = np.random.default_rng(5)
        return DeutschBoxConfig(random_unitary(16, rng), 8), random_density(2, rng)

    @staticmethod
    def spy_on_eigvalsh(monkeypatch):
        """Record the shape of each np.linalg.eigvalsh call's matrix."""
        calls, eigvalsh = [], np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return calls

    def test_bound_certifies_the_residual_without_eigenvalues(self, monkeypatch):
        # sqrt(dc) ||(R - I) h||_2 <= LOOP_RESIDUAL decides; the one eigvalsh
        # is the loop state's own validation.
        cfg, rho = self.seed5_dc8_loop()
        calls = self.spy_on_eigvalsh(monkeypatch)
        deutsch_fixed_point(cfg, rho)
        assert calls == [(8, 8)]

    def test_exact_residual_decides_when_the_bound_fails(self, monkeypatch):
        cfg, rho = self.seed5_dc8_loop()
        star = deutsch_fixed_point(cfg, rho).matrix
        # The residual matrix the solver forms, read from its exact path.
        seen = []

        def trace_norm_spy(mat):
            seen.append(mat)
            return trace_norm(mat)

        monkeypatch.setattr(boxes, "trace_norm", trace_norm_spy)
        monkeypatch.setattr(boxes, "LOOP_RESIDUAL", -1.0)
        with pytest.raises(ConvergenceError) as exc:
            deutsch_fixed_point(cfg, rho)
        exact = exc.value.residual
        assert exact == trace_norm(seen[0])
        bound = np.sqrt(8) * np.linalg.norm(seen[0])
        assert 0.0 < exact < 0.99 * bound
        # Between the two, only the exact trace norm accepts the same state.
        monkeypatch.setattr(boxes, "LOOP_RESIDUAL", 0.5 * (exact + bound))
        calls = self.spy_on_eigvalsh(monkeypatch)
        again = deutsch_fixed_point(cfg, rho).matrix
        assert calls == [(8, 8), (8, 8)] and len(seen) == 2
        assert again.tobytes() == star.tobytes()

    def test_unique_fixed_point_takes_one_bordered_solve(self, monkeypatch):
        rng = np.random.default_rng(5)
        cfg = DeutschBoxConfig(random_unitary(16, rng), 8)
        rho = random_density(2, rng)
        calls = spy_on_solvers(monkeypatch)
        deutsch_fixed_point(cfg, rho)
        assert calls == [("solve", (65, 65))]

    @pytest.mark.parametrize("loop", ["identity", "unitary_on_loop", "cesaro"])
    def test_degenerate_fixed_space_takes_full_svd(self, monkeypatch, loop):
        rng = np.random.default_rng(11)
        if loop == "cesaro":
            u, rho = cesaro_loop()
            cfg = DeutschBoxConfig(Unitary(u), 3)
        else:
            v = np.eye(4) if loop == "identity" else random_unitary(4, rng).matrix
            cfg, rho = DeutschBoxConfig(Unitary(np.kron(np.eye(2), v)), 4), random_density(2, rng)
        calls = spy_on_solvers(monkeypatch)
        deutsch_fixed_point(cfg, rho)
        assert [c for c in calls if c[0] == "svd"] == [("svd", False), ("svd", True)]

    @settings(max_examples=30)
    @given(d_ctc=st.sampled_from([2, 4, 8]), seed=st.integers(0, 2**32 - 1))
    def test_unitary_on_loop_alone_keeps_it_maximally_mixed(self, d_ctc, seed):
        # U = I_s (x) V: every state commuting with V is a fixed point, a
        # fixed space of dimension d_ctc, and the Cesaro mean from I/d_ctc
        # stays at I/d_ctc, so the system passes through untouched.
        rng = np.random.default_rng(seed)
        u = np.kron(np.eye(2), random_unitary(d_ctc, rng).matrix)
        cfg = DeutschBoxConfig(Unitary(u), d_ctc)
        rho = random_density(2, rng)
        star = deutsch_fixed_point(cfg, rho)
        assert np.max(np.abs(star.matrix - np.eye(d_ctc) / d_ctc)) <= 1e-12
        assert np.max(np.abs(cfg.apply(rho).matrix - rho.matrix)) <= 1e-10

    @settings(max_examples=150)
    @given(loop=loops())
    def test_path_matches_the_svd_count(self, loop):
        # Without an SVD the count must be 1 and the state the bordered
        # solve's, bit for bit; with one, the outcome is the SVD count's.
        u, rho, d_ctc = loop
        cfg = DeutschBoxConfig(Unitary(u), d_ctc)
        try:
            expected = svd_count_fixed_point(cfg, rho)
        except (ConvergenceError, np.linalg.LinAlgError):
            expected = None
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            try:
                star = deutsch_fixed_point(cfg, rho).matrix
            except ConvergenceError:
                star = None
        if not svd.called:
            assert expected[0] == 1
        assert (star is None) == (expected is None)
        if star is not None:
            assert np.array_equal(star, expected[1])

    def test_no_fixed_singular_value_raises(self, monkeypatch):
        monkeypatch.setattr(boxes, "LOOP_FIXED_CUT", -1.0)
        with pytest.raises(ConvergenceError, match="smallest singular value") as exc:
            deutsch_fixed_point(DeutschBoxConfig(Unitary(CNOT @ SWAP), 2), KET_PLUS.projector())
        assert exc.value.residual == np.inf

    def test_singular_projector_raises(self, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        with pytest.raises(ConvergenceError) as exc:
            deutsch_fixed_point(DeutschBoxConfig(Unitary(SWAP), 2), KET0.projector())
        assert exc.value.residual == np.inf


class TestKentExcluded:
    """What a Kent box shows an excluded preparation: its map on the readout."""

    kent = KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS)

    def test_local_record_in_cone(self):
        p = local_prep(KET_PLUS.projector(), record=BOX_EVENT)
        out = self.kent.apply_excluded(p, BOX_EVENT)
        assert trace_distance(out, two_qubit_state(2)) < 1e-12  # KET_PLUS is phi0

    def test_remote_record_outside_cone_appears_mixed(self):
        p = remote_prep(KET0.projector(),
                        [(0.5, KET0.projector()), (0.5, KET1.projector())],
                        record=FAR_EVENT)
        out = self.kent.apply_excluded(p, BOX_EVENT)
        assert trace_distance(out, tensor(maximally_mixed(2), KET0.projector())) < 1e-12

    def test_remote_record_inside_cone_reveals_member(self):
        p = remote_prep(KET0.projector(),
                        [(0.5, KET0.projector()), (0.5, KET1.projector())],
                        record=SpacetimeEvent(0.0, 0.0))
        out = self.kent.apply_excluded(p, BOX_EVENT)
        assert trace_distance(out, two_qubit_state(0)) < 1e-12


class TestDeutschExcluded:
    """What a Deutsch box shows an excluded preparation: the loop held at the
    fixed point of the unconditioned state, acting on the effective density."""

    def test_untouched_system_keeps_the_heralded_state(self, rng):
        # U = I (x) V: the old rule, the loop on the unconditioned state, gave I/2.
        cfg = DeutschBoxConfig(Unitary(np.kron(np.eye(2), random_unitary(3, rng).matrix)), 3)
        p = remote_prep(KET_PLUS.projector(), [(0.5, KET0.projector()), (0.5, KET1.projector())])
        assert trace_distance(cfg.apply_excluded(p, BOX_EVENT), KET_PLUS.projector()) < 1e-12

    def test_local_preparation_shows_the_loop_on_its_own_density(self, rng):
        cfg = DeutschBoxConfig(random_unitary(4, rng), 2)
        rho = random_density(2, rng)
        out = cfg.apply_excluded(local_prep(rho), BOX_EVENT)
        assert np.max(np.abs(out.matrix - cfg.apply(rho).matrix)) <= 1e-12

    def test_loop_held_fixed_is_linear(self, rng):
        # Why excluded preparations cannot signal: one star, one channel.
        cfg = DeutschBoxConfig(random_unitary(6, rng), 3)
        star = deutsch_fixed_point(cfg, maximally_mixed(2))
        a, b = random_density(2, rng), random_density(2, rng)
        mixed = DensityOperator(0.3 * a.matrix + 0.7 * b.matrix)
        expected = (0.3 * cfg.loop_channel(star, a).matrix
                    + 0.7 * cfg.loop_channel(star, b).matrix)
        assert np.max(np.abs(cfg.loop_channel(star, mixed).matrix - expected)) <= 1e-12


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
            make_box(KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS)),
            make_box(LinearBoxConfig((np.eye(2, dtype=complex),))),
        ]
        p = local_prep(KET_PLUS.projector())
        for box in boxes:
            out = apply_box(box, p)  # DensityOperator construction validates
            assert abs(np.trace(out.matrix).real - 1.0) < 1e-9

    def test_kent_box_excluded_remote_appears_mixed(self, brun_config):
        policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
        box = make_box(KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS), policy=policy)
        p = remote_prep(KET0.projector(),
                        [(0.5, KET0.projector()), (0.5, KET1.projector())])
        out = apply_box(box, p)
        expected = tensor(maximally_mixed(2), KET0.projector())
        assert trace_distance(out, expected) < 1e-12

    def test_kent_box_member_follows_map(self, brun_config):
        box = make_box(KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS))
        p = local_prep(KET_MINUS.projector())
        assert trace_distance(apply_box(box, p), two_qubit_state(3)) < 1e-12

    def test_pure_input_off_domain(self, brun_config):
        # The Brun box is undefined there; the Kent box re-prepares what it
        # read out, with an untouched ancilla.
        p = local_prep(KET_I.projector())
        with pytest.raises(DomainError):
            apply_box(make_box(brun_config), p)
        out = apply_box(make_box(KentBoxConfig(COMPUTATIONAL_BASIS, HADAMARD_BASIS)), p)
        assert trace_distance(out, tensor(KET_I.projector(), KET0.projector())) < 1e-12

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
        "kent": lambda: KentBoxConfig(brun.psi_basis, brun.phi_basis),
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


@pytest.mark.parametrize("semantics", list(Semantics))
@pytest.mark.parametrize("policy", list(PolicyKind))
@pytest.mark.parametrize("square", [True, False], ids=["2to2", "2to4"])
@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), record=st.sampled_from([BOX_EVENT, FAR_EVENT]),
       admitted=st.sets(st.sampled_from(["local", "mixed", "remote"]), min_size=1))
def test_linear_box_acts_on_the_effective_density(square, policy, semantics, seed, record,
                                                   admitted):
    # A linear box ignores membership, so a local and a remote-steered
    # preparation of one density give the same output.
    rng = np.random.default_rng(seed)
    kraus = np.array(random_cptp_kraus(2 if square else 4, rng))
    cfg = LinearBoxConfig(kraus if square else kraus[:, :, ::2])
    membership = MembershipPolicy(policy, box_event=BOX_EVENT, labels=admitted)
    box = make_box(cfg, semantics=semantics, policy=membership)
    state, other = random_ket(2, rng).projector(), random_density(2, rng)
    w = float(rng.uniform(0.1, 0.9))
    local = local_prep(state, label="local", record=record)
    preps = [
        local,
        ensemble_prep([(w, state), (1 - w, other)], label="mixed", record=record),
        remote_prep(state, [(w, state), (1 - w, other)], label="remote", record=record),
    ]
    for p in preps:
        out = apply_box(box, p).matrix
        assert np.max(np.abs(out - cfg.apply(effective_density(p)).matrix)) <= 1e-12
    assert np.max(np.abs(apply_box(box, preps[2]).matrix - apply_box(box, local).matrix)) <= 1e-12


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


# Each enum field: a builder from the field's value, its reader, and one member.
ENUM_FIELDS = {
    "semantics": (lambda v: make_box(LinearBoxConfig((np.eye(2, dtype=complex),)), semantics=v),
                  lambda box: box.semantics, Semantics.DECOMPOSITION),
    "policy_kind": (MembershipPolicy, lambda policy: policy.kind, PolicyKind.NAIVE_PURE),
    "provenance_tag": (lambda v: Provenance(v, (BOX_EVENT,)), lambda prov: prov.tag,
                       ProvenanceTag.LOCAL_DETERMINISTIC),
}


@pytest.mark.parametrize("build, read, member", ENUM_FIELDS.values(), ids=ENUM_FIELDS.keys())
def test_enum_field_string_is_coerced_when_built(build, read, member):
    assert read(build(member.value)) is member
    with pytest.raises(ConfigurationError):
        build("banana")


class TestLinearBox:
    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValidationError):
            LinearBoxConfig((np.eye(2) * 0.5,))

    def test_ancilla_embedding(self):
        cfg = LinearBoxConfig(np.eye(4, dtype=complex)[None, :, ::2])
        out = cfg.apply(KET_PLUS.projector())
        assert trace_distance(out, tensor(KET_PLUS.projector(), KET0.projector())) < 1e-12
