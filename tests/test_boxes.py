import collections
import dataclasses
import importlib.util
import pickle
import sys
import tracemalloc
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    BOX_EVENT,
    CNOT,
    FAR_EVENT,
    SWAP,
    ensemble_prep,
    local_prep,
    make_box,
    reduced_matrix,
    remote_prep,
)
from test_derived_densities import densities

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
EPS = np.finfo(float).eps
SCENARIO_DIR = Path(boxes.__file__).resolve().parent / "scenarios"
WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


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
        sigma = reduced_matrix(joint, (d_sys, d_ctc), 1)
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
        return reduced_matrix(joint, (d_sys, d_ctc), 1)

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
    """The one-SVD reference, the solver's path for every loop it does not
    certify: the values of the SVD of R - I count the fixed directions f and its
    vectors give the projector F (L^T F)^-1 L^T of I/d_ctc for every f >= 1.
    Returns f and the state's matrix, or None for the state when f = 0, the
    solve is singular or the residual exceeds LOOP_RESIDUAL. R - I is the
    solver's own (see test_loop_matrix_matches_the_dense_basis_change)."""
    n = cfg.ctc_dim ** 2
    a = boxes._loop_minus_identity(cfg, rho_in)
    w, svals, vt = np.linalg.svd(a)
    n_fixed = int(np.count_nonzero(svals <= LOOP_FIXED_CUT))
    if n_fixed == 0:
        return 0, None
    l_t, f = w[:, n - n_fixed:].T, vt[n - n_fixed:].T
    try:
        h = f @ np.linalg.solve(l_t @ f, l_t[:, :cfg.ctc_dim].sum(axis=1) / cfg.ctc_dim)
    except np.linalg.LinAlgError:
        return n_fixed, None
    return n_fixed, consistent_state(a, h, cfg.ctc_dim)


def bordered_fixed_point(cfg, rho_in):
    """The state of the bordered solve [[R - I, t], [t^T, 0]] [h; 0] = [0; 1], t
    the trace row: the solver's certified path, and the one every loop whose SVD
    counted f = 1 took before all uncertified loops went through one SVD. None
    when the solve is singular or the residual exceeds LOOP_RESIDUAL."""
    d_ctc = cfg.ctc_dim
    n = d_ctc * d_ctc
    a = boxes._loop_minus_identity(cfg, rho_in)
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = a
    border[:d_ctc, n] = border[n, :d_ctc] = 1.0
    try:
        h = np.linalg.solve(border, np.eye(n + 1)[n])[:n]
    except np.linalg.LinAlgError:
        return None
    return consistent_state(a, h, d_ctc)


def consistent_state(a, h, d_ctc):
    """The matrix of the loop state with coordinates h scaled to trace 1, or None
    when the trace norm of its residual (R - I) h exceeds LOOP_RESIDUAL."""
    h = h / h[:d_ctc].sum()
    basis = _hermitian_basis(d_ctc)
    if not trace_norm((a @ h @ basis).reshape(d_ctc, d_ctc)) <= LOOP_RESIDUAL:
        return None
    return (h @ basis).reshape(d_ctc, d_ctc)


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
    return reduced_matrix(joint, (d_sys, d_ctc), 0)


def isometry_kraus(k, d_out, d_in, rng):
    """k random d_out x d_in Kraus operators: the row blocks of a random isometry,
    the reduced QR factor of a complex Gaussian (k d_out, d_in) matrix."""
    z = rng.normal(size=(k * d_out, d_in)) + 1j * rng.normal(size=(k * d_out, d_in))
    return np.linalg.qr(z)[0].reshape(k, d_out, d_in)


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
    """Record, in call order, the linear algebra `boxes` does: each loop
    certification as ("certified" or "uncertified", shape, dtype) of the bordered
    matrix, and each np.linalg cholesky, svd or solve call as (name, shape, dtype)
    of its matrix, an SVD without vectors as "svd_values". `boxes` reads numpy
    through a copy of its namespace, so calls from other modules are not recorded."""
    calls, certify = [], boxes._one_fixed_direction

    def certify_spy(border, dc):
        one = certify(border, dc)
        calls.append(("certified" if one else "uncertified", border.shape, border.dtype))
        return one

    def spy(name):
        def call(a, *args, **kwargs):
            label = "svd_values" if name == "svd" and not kwargs.get("compute_uv", True) else name
            calls.append((label, np.shape(a), np.asarray(a).dtype))
            return getattr(np.linalg, name)(a, *args, **kwargs)
        return call

    linalg = {**vars(np.linalg), **{name: spy(name) for name in ("cholesky", "svd", "solve")}}
    spied = {**vars(np), "linalg": types.SimpleNamespace(**linalg)}
    monkeypatch.setattr(boxes, "np", types.SimpleNamespace(**spied))
    monkeypatch.setattr(boxes, "_one_fixed_direction", certify_spy)
    return calls


def same_state(a, b):
    """Whether two loop-state matrices, None for a raised solve, are equal bit for bit."""
    return a is None and b is None or a is not None and b is not None and np.array_equal(a, b)


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
        ("signaling_deutsch", {"certified": 3, "uncertified": 1, "svd": 1}),
        ("prep_problem_deutsch", {"certified": 7, "uncertified": 1, "svd": 1}),
    ])
    def test_bundled_path_census(self, monkeypatch, stem, census):
        # Each solve of a bundled Deutsch scenario is certified f = 1 or takes
        # one SVD; every such fallback here counts f > 1.
        calls = spy_on_solvers(monkeypatch)
        run_scenario(parse_scenario(SCENARIO_DIR / f"{stem}.scn"))
        paths = ("certified", "uncertified", "svd", "svd_values")
        assert collections.Counter(name for name, *_ in calls if name in paths) == census

    def test_benchmark_loop_traffic_census(self, monkeypatch, tmp_path):
        # One mix block of the benchmark's loop workload at its seed, 20 ops of 8
        # solves each. Every solve is certified but one: the CNOT.SWAP op's loop,
        # whose one SVD counts f = 2 (its projector solve is 2 x 2). A solver
        # change states here what it does to the benchmark's traffic.
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks it up
        spec.loader.exec_module(workloads)
        ops = workloads.build("loop_tomography", 7919, 20, tmp_path)
        calls = spy_on_solvers(monkeypatch)
        for op in ops:
            assert op.check(op.run())
        census = collections.Counter((name, shape) for name, shape, _ in calls
                                     if name != "cholesky")
        assert census == {("certified", (5, 5)): 47, ("solve", (5, 5)): 47,
                          ("certified", (17, 17)): 64, ("solve", (17, 17)): 64,
                          ("certified", (65, 65)): 48, ("solve", (65, 65)): 48,
                          ("uncertified", (5, 5)): 1, ("svd", (4, 4)): 1, ("solve", (2, 2)): 1}
        assert [op.kind for op in ops].count("loop2.cnot_swap") == 1

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
            out_oracle = reduced_matrix(joint, (2, 2), 0)
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
        calls = spy_on_solvers(monkeypatch)
        deutsch_fixed_point(DeutschBoxConfig(Unitary(CNOT @ SWAP), 2), KET_PLUS.projector())
        assert [name for name, *_ in calls] == ["cholesky", "certified", "solve"]
        # The identity loop fixes every direction, so its one SVD decides.
        deutsch_fixed_point(DeutschBoxConfig(Unitary(np.eye(4)), 2), KET_PLUS.projector())
        assert [name for name, *_ in calls[3:]] == ["cholesky", "uncertified", "svd", "solve"]
        assert all(dtype == np.float64 for *_, dtype in calls)

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
        assert [call[:2] for call in calls] == [("cholesky", (65, 65)), ("certified", (65, 65)),
                                                ("solve", (65, 65))]

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
        assert [name for name, *_ in calls if name != "cholesky"] == ["uncertified", "svd", "solve"]

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
        # A certified solve makes no SVD: the one-SVD reference counts f = 1, and
        # the outcome is the bordered solve's, bit for bit. Any other solve makes
        # one SVD, with vectors, and its outcome is the reference's, bit for bit.
        # Either way it raises exactly where the earlier solver did, which took
        # the bordered solve for every f = 1 count, and its state lies within
        # 1e-11 of that solver's.
        u, rho, d_ctc = loop
        cfg = DeutschBoxConfig(Unitary(u), d_ctc)
        n_fixed, expected = svd_count_fixed_point(cfg, rho)
        earlier = bordered_fixed_point(cfg, rho) if n_fixed == 1 else expected
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = spy_on_solvers(monkeypatch)
            try:
                star = deutsch_fixed_point(cfg, rho).matrix
            except ConvergenceError:
                star = None
        svds = [name for name, *_ in calls if name.startswith("svd")]
        if svds:
            assert svds == ["svd"] and same_state(star, expected)
        else:
            assert n_fixed == 1 and same_state(star, earlier)
        assert (star is None) == (earlier is None)
        if star is not None:
            assert np.max(np.abs(star - earlier)) <= 1e-11

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
        with pytest.raises(ValidationError, match="Kraus operators are not trace preserving"):
            LinearBoxConfig((np.eye(2) * 0.5,))
        # Each entry of sum_k K_k^dag K_k may miss the identity's by ATOL.
        LinearBoxConfig((np.eye(2) * np.sqrt(1 + 0.9 * ATOL),))
        with pytest.raises(ValidationError, match="Kraus operators are not trace preserving"):
            LinearBoxConfig((np.eye(2) * np.sqrt(1 + 1.1 * ATOL),))

    def test_ancilla_embedding(self):
        cfg = LinearBoxConfig(np.eye(4, dtype=complex)[None, :, ::2])
        out = cfg.apply(KET_PLUS.projector())
        assert trace_distance(out, tensor(KET_PLUS.projector(), KET0.projector())) < 1e-12

    def test_config_rejects_a_superop_above_the_cap(self):
        # S holds (d_out d_in)^2 complex entries; one past the cap is refused
        # after the trace check and before any array of S's build exists, so
        # the refusal's traced peak is within eight complex copies of the Kraus
        # set, not S's 285 MB.
        for kraus in (np.eye(65)[None], np.eye(MAX_TENSOR_DIM // 2 + 1)[None, :, :2]):
            tracemalloc.start()
            try:
                with pytest.raises(CapacityError, match="superoperator cap"):
                    LinearBoxConfig(kraus)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 8 * 16 * kraus.size

    @pytest.mark.parametrize("k,d_out,d_in", [(1, 16, 16), (3, 16, 16), (1, 32, 8), (4, 8, 32),
                                              (2, 128, 2), (8, 256, 1)])
    def test_superop_build_peaks_at_the_superop_size(self, monkeypatch, rng, k, d_out, d_in):
        # The largest configs a cap of 2**8 accepts, S 1 MiB at each shape: the
        # build's traced peak is S itself plus a few copies of the Kraus set.
        monkeypatch.setattr(boxes, "MAX_TENSOR_DIM", 2**8)
        kraus = isometry_kraus(k, d_out, d_in, rng)
        tracemalloc.start()
        try:
            cfg = LinearBoxConfig(kraus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cfg._superop.shape == (d_out**2, d_in**2)
        assert cfg._superop.nbytes == 2**16 * 16
        assert peak <= cfg._superop.nbytes + 4 * 16 * kraus.size + 2**14
        rho = random_density(d_in, rng)
        kraus_sum = (kraus @ rho.matrix @ kraus.conj().transpose(0, 2, 1)).sum(axis=0)
        assert np.max(np.abs(cfg.apply(rho).matrix - kraus_sum)) <= 4 * k * d_in**2 * EPS
        with pytest.raises(CapacityError, match="superoperator cap"):
            LinearBoxConfig(isometry_kraus(k, d_out + 1, d_in, rng))

    def test_superop_is_built_once_per_config(self, rng):
        # A d = 4 config applied d^2 + 2 = 18 times, as a witness op applies
        # its channel: the constructor runs once, every apply reads the same
        # read-only S (4 KiB), and no apply runs a three-operand einsum.
        with mock.patch.object(LinearBoxConfig, "__post_init__", autospec=True,
                               side_effect=LinearBoxConfig.__post_init__) as build:
            cfg = LinearBoxConfig(random_cptp_kraus(4, rng))
        s = cfg._superop
        assert build.call_count == 1
        assert s.shape == (16, 16) and s.nbytes == 4096 and not s.flags.writeable
        box = make_box(cfg, semantics=Semantics.STATE)
        with mock.patch.object(boxes.np, "einsum", wraps=np.einsum) as einsum:
            for _ in range(9):
                cfg.apply(random_ket(4, rng).projector())
                apply_box(box, local_prep(random_density(4, rng)))
        assert not [call for call in einsum.call_args_list if len(call.args) > 3]
        assert cfg._superop is s

    def test_unpickled_and_replaced_configs_rebuild_their_superop(self, rng):
        cfg = LinearBoxConfig(random_cptp_kraus(3, rng))
        reduced = cfg.__reduce__()
        assert reduced[0] is LinearBoxConfig and len(reduced[1]) == 1
        assert reduced[1][0] is cfg.kraus
        assert "_superop" not in repr(cfg)
        for copy in (pickle.loads(pickle.dumps(cfg)), dataclasses.replace(cfg)):
            assert copy._superop is not cfg._superop
            assert not copy._superop.flags.writeable
            assert copy._superop.tobytes() == cfg._superop.tobytes()

    @settings(max_examples=200)
    @given(data=st.data(), d_out=st.integers(1, 4), k=st.integers(1, 4))
    @example(data=None, d_out=4, k=1).via("the two-qubit embedding, 4 x 2")
    def test_superop_agrees_with_the_kraus_sum(self, data, d_out, k):
        # Each output entry sums k d_in^2 products of entries of modulus at
        # most 1, so S vec(rho) and the Kraus sum each lie within a few
        # k d_in^2 ulps of the exact value; their distance, 4 k d_in^2 ulps.
        if data is None:
            rho, kraus = KET_PLUS.projector(), np.eye(4)[None, :, ::2]
        else:
            rho = data.draw(densities())
            assume(k * d_out >= rho.dim)
            seed = data.draw(st.integers(0, 2**32 - 1))
            kraus = isometry_kraus(k, d_out, rho.dim, np.random.default_rng(seed))
        k, d_in = len(kraus), rho.dim
        expected = np.einsum("kab,bc,kdc->ad", kraus, rho.matrix, kraus.conj())
        try:
            out = LinearBoxConfig(kraus).apply(rho)
        except ValidationError:
            assert np.linalg.eigvalsh(expected)[0] < -ATOL + 1e-12
            return
        assert np.max(np.abs(out.matrix - expected)) <= 4 * k * d_in**2 * EPS
