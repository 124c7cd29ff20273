import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlbox.boxes import LinearBoxConfig
from nlbox.errors import CapacityError, ShapeError, ValidationError
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
    maximally_mixed,
    partial_trace,
    tensor,
    trace_distance,
)
from nlbox.rand import random_cptp_kraus, random_density, random_ket, random_unitary


def singlet_density():
    amp = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return KetVector(amp).projector()


class TestConstructors:
    def test_ket_rejects_bad_norm(self):
        with pytest.raises(ValidationError):
            KetVector(np.array([0.9, 0.0], dtype=complex))

    def test_ket_rejects_empty(self):
        with pytest.raises(ShapeError):
            KetVector(np.array([], dtype=complex))

    def test_density_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            DensityOperator(m)

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValidationError):
            DensityOperator(np.eye(2, dtype=complex))

    def test_density_rejects_negative_eigenvalue(self):
        m = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValidationError):
            DensityOperator(m)

    def test_povm_rejects_incomplete(self):
        e = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            Povm((e,))

    def test_povm_rejects_negative_effect(self):
        e1 = np.diag([1.5, 1.0]).astype(complex)
        e2 = np.diag([-0.5, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            Povm((e1, e2))

    @pytest.mark.parametrize("wrap", [tuple, list, np.array], ids=["tuple", "list", "ndarray"])
    def test_povm_accepts_any_sequence(self, wrap):
        povm = Povm(wrap([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]))
        assert povm.effects.shape == (2, 2, 2)
        assert povm.effects.dtype == complex
        assert not povm.effects.flags.writeable
        assert np.array_equal(povm.effects, computational_povm(2).effects)

    def test_povm_rejects_single_matrix(self):
        with pytest.raises(ShapeError):
            Povm(np.eye(2))

    def test_povm_rejects_mixed_sizes(self):
        with pytest.raises(ShapeError):
            Povm((np.eye(2), np.zeros((3, 3))))
        with pytest.raises(ShapeError):
            basis_povm((KET0, ket(0, 0, 1)))

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            Unitary(np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("make", [
        lambda x: KetVector(np.array([x, 0.0])),
        lambda x: DensityOperator(np.diag([x, 0.0])),
        lambda x: Unitary(np.diag([x, 1.0])),
        lambda x: Povm((np.diag([x, 0.0]), np.diag([0.0, 1.0]))),
        lambda x: LinearBoxConfig((np.diag([x, 1.0]),)),
    ], ids=["ket", "density", "unitary", "povm", "kraus"])
    def test_rejects_non_finite_entry(self, make, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            make(bad)


class TestTensor:
    def test_basis_kets(self):
        out = tensor(KET0, KET1)
        assert np.allclose(out.amplitudes, [0, 1, 0, 0])

    def test_identity_densities(self):
        out = tensor(maximally_mixed(2), maximally_mixed(2))
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_plus_plus_uniform(self):
        # Oracle: direct 4-entry Kronecker product of (1,1)/sqrt(2) with itself.
        expected = np.full(4, 0.5, dtype=complex)
        out = tensor(KET_PLUS, KET_PLUS)
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    def test_capacity_error(self):
        big = maximally_mixed(70)
        with pytest.raises(CapacityError):
            tensor(big, big)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ShapeError):
            tensor(KET0, maximally_mixed(2))


class TestPartialTrace:
    def test_product_state(self):
        rho = tensor(KET0.projector(), KET1.projector())
        out = partial_trace(rho, (2, 2), [1])
        assert trace_distance(out, KET1.projector()) < 1e-12

    def test_singlet_marginal(self):
        out = partial_trace(singlet_density(), (2, 2), [1])
        assert trace_distance(out, maximally_mixed(2)) < 1e-12

    def test_random_2x3_marginal_valid(self, rng):
        # Oracle: eigenvalues of the reduced operator stay nonnegative and
        # sum to one.
        for _ in range(20):
            rho = random_density(6, rng)
            out = partial_trace(rho, (2, 3), [0])
            eigs = np.linalg.eigvalsh(out.matrix)
            assert eigs.min() >= -1e-9
            assert abs(eigs.sum() - 1.0) < 1e-9

    def test_inconsistent_dims(self):
        with pytest.raises(ShapeError):
            partial_trace(maximally_mixed(4), (2, 3), [0])

    def test_roundtrip_property(self, rng):
        for _ in range(25):
            a = random_density(2, rng)
            b = random_density(3, rng)
            back = partial_trace(tensor(a, b), (2, 3), [0])
            assert trace_distance(back, a) < 1e-9


def reference_born(rho, povm):
    """The per-effect Born rule that born_probabilities' one einsum replaced."""
    return np.array([float(np.trace(e @ rho.matrix).real) for e in povm.effects])


def random_povm(dim, k, rng):
    """A k-outcome POVM of any rank: row blocks of a random isometry."""
    v = random_unitary(dim * k, rng).matrix[:, :dim]
    return Povm(tuple(v[i::k].conj().T @ v[i::k] for i in range(k)))


class TestBorn:
    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4), k=st.integers(1, 6))
    def test_matches_per_effect_reference(self, seed, dim, k):
        rng = np.random.default_rng(seed)
        rho, povm = random_density(dim, rng), random_povm(dim, k, rng)
        probs = born_probabilities(rho, povm)
        assert probs.shape == (k,)
        assert np.max(np.abs(probs - reference_born(rho, povm))) <= 1e-12

    def test_plus_in_computational(self):
        probs = born_probabilities(KET_PLUS.projector(), computational_povm(2))
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_zero_in_computational(self):
        probs = born_probabilities(KET0.projector(), computational_povm(2))
        assert np.allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_zero_in_hadamard(self):
        # Oracle: |<+|0>|^2 = |<-|0>|^2 = 1/2 by direct inner product.
        probs = born_probabilities(KET0.projector(), basis_povm(HADAMARD_BASIS))
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            born_probabilities(maximally_mixed(4), computational_povm(2))

    def test_computational_povm_shared_read_only(self):
        povm = computational_povm(4)
        assert computational_povm(4) is povm
        with pytest.raises(ValueError):
            povm.effects[0][0, 0] = 0.0

    def test_distribution_property(self, rng):
        for dim in (2, 3, 4):
            for _ in range(10):
                rho = random_density(dim, rng)
                probs = born_probabilities(rho, computational_povm(dim))
                assert probs.min() >= 0.0
                assert abs(probs.sum() - 1.0) < 1e-9


class TestTraceDistance:
    def test_orthogonal(self):
        assert abs(trace_distance(KET0.projector(), KET1.projector()) - 1.0) < 1e-12

    def test_self(self, rng):
        rho = random_density(3, rng)
        assert trace_distance(rho, rho) == 0.0

    def test_zero_vs_plus(self):
        # Oracle: eigenvalues of the 2x2 difference are +-1/sqrt(2).
        d = trace_distance(KET0.projector(), KET_PLUS.projector())
        assert abs(d - 0.7071067811865476) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            trace_distance(maximally_mixed(2), maximally_mixed(4))

    def test_triangle_inequality(self, rng):
        for _ in range(30):
            a = random_density(3, rng)
            b = random_density(3, rng)
            c = random_density(3, rng)
            assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-8

    def test_symmetry(self, rng):
        a = random_density(4, rng)
        b = random_density(4, rng)
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12


def test_projector_is_kept_and_read_only(rng):
    k = random_ket(3, rng)
    rho = k.projector()
    assert k.projector() is rho
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


# Each validated type with the name of its one array field.
PICKLED = {
    "ket": (lambda rng: random_ket(3, rng), "amplitudes"),
    "density": (lambda rng: random_density(3, rng), "matrix"),
    "povm": (lambda rng: basis_povm(tuple(KetVector(c) for c in random_unitary(3, rng).matrix.T)),
             "effects"),
    "unitary": (lambda rng: random_unitary(3, rng), "matrix"),
    "channel": (lambda rng: LinearBoxConfig(np.array(random_cptp_kraus(4, rng))[:, :, ::2]),
                "kraus"),
}


@pytest.mark.parametrize("make, name", PICKLED.values(), ids=PICKLED.keys())
def test_unpickled_value_is_equal_and_read_only(rng, make, name):
    value = make(rng)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert np.array_equal(getattr(copy, name), getattr(value, name))
    assert not getattr(copy, name).flags.writeable


def test_principal_ket_recovers_pure_state(rng):
    for _ in range(10):
        k = random_ket(3, rng)
        assert k.fidelity(k.projector().principal_ket()) > 1 - 1e-12
