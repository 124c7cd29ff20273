import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import reduced_matrix, skewed_plus
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
    _hermitian_basis,
    basis_povm,
    born_probabilities,
    computational_povm,
    ket,
    maximally_mixed,
    tensor,
    trace_distance,
)
from nlbox.rand import random_cptp_kraus, random_density, random_ket, random_unitary
from nlbox.tolerances import ATOL, BORN_CLAMP


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

    def test_basis_povm_takes_any_iterable_of_kets(self):
        povm = basis_povm(k for k in HADAMARD_BASIS)
        assert np.array_equal(povm.effects, basis_povm(HADAMARD_BASIS).effects)

    def test_povm_rejects_mixed_sizes(self):
        with pytest.raises(ShapeError):
            Povm((np.eye(2), np.zeros((3, 3))))
        with pytest.raises(ShapeError):
            basis_povm((KET0, ket(0, 0, 1)))

    def test_unitary_rejects_non_unitary(self):
        with pytest.raises(ValidationError):
            Unitary(np.array([[1, 1], [0, 1]], dtype=complex))

    @pytest.mark.parametrize("make", [
        lambda: DensityOperator(np.zeros((0, 0))),
        lambda: Unitary(np.zeros((0, 0))),
        lambda: Povm(np.zeros((1, 0, 0))),
        lambda: LinearBoxConfig(np.zeros((1, 0, 0))),
    ], ids=["density", "unitary", "povm", "kraus"])
    def test_rejects_empty_matrix(self, make):
        with pytest.raises(ShapeError):
            make()

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
    def test_basis_projectors(self):
        out = tensor(KET0.projector(), KET1.projector())
        assert np.allclose(out.matrix, ket(0, 1, 0, 0).projector().matrix)

    def test_plus_plus_uniform(self):
        # Oracle: |++><++| has every one of its 16 entries equal to 1/4.
        out = tensor(KET_PLUS.projector(), KET_PLUS.projector())
        assert np.allclose(out.matrix, np.full((4, 4), 0.25), atol=1e-12)

    def test_identity_densities(self):
        out = tensor(maximally_mixed(2), maximally_mixed(2))
        assert np.allclose(out.matrix, np.eye(4) / 4)

    def test_capacity_error(self):
        big = maximally_mixed(70)
        with pytest.raises(CapacityError):
            tensor(big, big)

    @pytest.mark.parametrize("da", [1, 2, 3, 4])
    @pytest.mark.parametrize("db", [1, 2, 3, 4])
    def test_matches_np_kron_bit_for_bit(self, da, db):
        # tensor broadcasts one elementwise multiply; np.kron does the same
        # multiply, so the products agree in every bit, not only to rounding.
        rng = np.random.default_rng(100 * da + db)
        for _ in range(5):
            ra, rb = random_density(da, rng), random_density(db, rng)
            out = tensor(ra, rb).matrix
            assert out.tobytes() == np.kron(ra.matrix, rb.matrix).tobytes()
            assert out.shape == (da * db, da * db) and not out.flags.writeable

    def test_capacity_checked_before_any_product(self):
        # 64 * 65 exceeds the cap of 4096. Each operand's array is swapped for
        # one that has the right shape but fails when indexed, so reaching
        # the product would raise AssertionError, not CapacityError.
        class Unreadable:
            def __init__(self, shape):
                self.shape, self.size = shape, shape[0]

            def __getitem__(self, key):
                raise AssertionError("tensor built a product past the cap")

        a, b = maximally_mixed(64), maximally_mixed(65)
        for op in (a, b):
            object.__setattr__(op, "matrix", Unreadable(op.matrix.shape))
        with pytest.raises(CapacityError, match="4160"):
            tensor(a, b)

    def test_mixed_kinds_rejected(self):
        with pytest.raises(ShapeError):
            tensor(KET0, maximally_mixed(2))

    def test_kets_rejected(self):
        with pytest.raises(ShapeError, match="two density operators"):
            tensor(KET0, KET1)

    def test_kets_past_the_cap_rejected_by_kind(self):
        # The operand kinds are checked before the cap: 64 * 65 kets are a
        # ShapeError, not a CapacityError.
        with pytest.raises(ShapeError, match="two density operators"):
            tensor(ket(*np.eye(64)[0]), ket(*np.eye(65)[0]))

    def test_roundtrip_property(self, rng):
        for _ in range(25):
            a = random_density(2, rng)
            b = random_density(3, rng)
            back = DensityOperator(reduced_matrix(tensor(a, b).matrix, (2, 3), 0))
            assert trace_distance(back, a) < 1e-9


def test_singlet_marginal_bits_are_pinned():
    # The shared marginal every remote preparation averages to; its
    # rounding reaches the reports, so its bits must not move.
    from nlbox.protocols import SINGLET_MARGINAL

    assert SINGLET_MARGINAL.matrix.diagonal().tolist() == [0.4999999999999999 + 0j] * 2
    assert SINGLET_MARGINAL.matrix[0, 1] == 0


def test_singlet_marginal_is_maximally_mixed_on_either_side():
    from nlbox.protocols import SINGLET, SINGLET_MARGINAL

    assert trace_distance(SINGLET_MARGINAL, maximally_mixed(2)) < 1e-12
    for keep in (0, 1):
        oracle = DensityOperator(reduced_matrix(SINGLET.matrix, (2, 2), keep))
        assert trace_distance(SINGLET_MARGINAL, oracle) < 1e-12


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


# The classes of Born rows born_pairs() draws: three that return, two that raise.
BORN_ROWS = ("positive", "zero_effect", "orthogonal", "clamped", "below_clamp", "off_sum")


def clamping_povm(c, w, rng):
    """A two-outcome POVM in the basis of the unitary w whose first effect has
    eigenvalue -c on w's first column, within the POVM's positivity tolerance."""
    a = rng.uniform(0.0, 1.0, size=len(w) - 1)
    return Povm(tuple(w @ np.diag(lam) @ w.conj().T
                      for lam in (np.r_[-c, a], np.r_[1.0 + c, 1.0 - a])))


@st.composite
def born_pairs(draw):
    """(rho, povm, row) at d = 1-4, validated, whose Born row is of class row:
    "positive", every value > 0; "zero_effect", an exact 0 from a zero effect
    of either sign (+0.0 or -0.0 entries); "orthogonal", exact zeros from effects outside the
    support of rho; "clamped", a value in (-BORN_CLAMP, 0); "below_clamp", a
    value below -BORN_CLAMP; "off_sum", positive values summing to about
    1 +- 1.2-1.9 ATOL, a state and a POVM each off by up to 0.95 ATOL."""
    dim = draw(st.integers(1, 4))
    row = draw(st.sampled_from(BORN_ROWS if dim > 1 else BORN_ROWS[:1] + BORN_ROWS[3:]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    k = draw(st.integers(1, 5))
    if row in ("clamped", "below_clamp"):
        c = draw(st.floats(0.01, 0.99) if row == "clamped" else st.floats(1.01, 400.0)) * BORN_CLAMP
        w = random_unitary(dim, rng).matrix
        return KetVector(w[:, 0]).projector(), clamping_povm(c, w, rng), row
    if row == "orthogonal":
        r = draw(st.integers(1, dim - 1))
        m = np.zeros((dim, dim), dtype=complex)
        m[:r, :r] = random_density(r, rng).matrix
        effects = np.zeros((k + 1, dim, dim), dtype=complex)
        effects[:k, :r, :r] = random_povm(r, k, rng).effects
        effects[k, r:, r:] = np.eye(dim - r)
        return DensityOperator(m), Povm(effects), row
    rho, povm = random_density(dim, rng), random_povm(dim, k, rng)
    if row == "zero_effect":
        zero = np.zeros((1, dim, dim)) * draw(st.sampled_from([1.0, -1.0]))
        at = draw(st.integers(0, k))
        return rho, Povm(np.concatenate([povm.effects[:at], zero, povm.effects[at:]])), row
    if row == "off_sum":
        s = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.6, 0.95)) * ATOL
        return DensityOperator(rho.matrix * (1 + s)), Povm(povm.effects * (1 + s)), row
    return rho, povm, row


class TestBornBits:
    """The Born rule's output bits are np.maximum over the one einsum; its
    checks read Python floats, which must not touch those bits."""

    @staticmethod
    def expected(rho, povm):
        return np.maximum(np.einsum("kij,ji->k", povm.effects, rho.matrix).real, 0.0)

    @staticmethod
    def expected_error(rho, povm):
        """The message of the Born rule's checks on this pair, as they read
        when every row took np.maximum's copy, or None if they pass."""
        values = np.einsum("kij,ji->k", povm.effects, rho.matrix).real.tolist()
        if min(values) < -BORN_CLAMP:
            return f"Born probability {min(values)} below clamp threshold"
        if not abs(sum(p for p in values if p > 0.0) - 1.0) <= ATOL:
            return "Born probabilities do not sum to 1"
        return None

    @settings(max_examples=300)
    @given(pair=born_pairs())
    def test_every_row_class_keeps_its_bits_and_errors(self, pair):
        # A strictly positive row is returned as the einsum's real part, any
        # other as np.maximum's copy: both carry the clamped einsum's bytes.
        # (The einsum's sums start at +0.0, so its real part holds no -0.0.)
        rho, povm, row = pair
        raw = np.einsum("kij,ji->k", povm.effects, rho.matrix).real
        message = self.expected_error(rho, povm)
        if row in ("below_clamp", "off_sum"):
            assert message is not None
            with pytest.raises(ValidationError) as exc:
                born_probabilities(rho, povm)
            assert str(exc.value) == message
            return
        assert message is None
        assert {"positive": raw.min() > 0.0, "zero_effect": (raw == 0.0).any(),
                "orthogonal": (raw == 0.0).any(),
                "clamped": -BORN_CLAMP < raw.min() < 0.0}[row]
        probs = born_probabilities(rho, povm)
        assert probs.dtype == np.float64 and probs.shape == raw.shape
        assert probs.tobytes() == self.expected(rho, povm).tobytes()
        assert probs.flags.owndata is (row != "positive")

    @staticmethod
    def clamp_povm(c):
        """A qubit POVM whose first effect has eigenvalue -c on |0>, within
        the POVM's own positivity tolerance: on |0><0| it reads -c."""
        return Povm((np.diag([-c, 0.5]), np.diag([1.0 + c, 0.5])))

    @settings(max_examples=80)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 8), k=st.integers(1, 10))
    def test_matches_the_clamped_einsum_bit_for_bit(self, seed, dim, k):
        rng = np.random.default_rng(seed)
        rho, povm = random_density(dim, rng), random_povm(dim, k, rng)
        assert born_probabilities(rho, povm).tobytes() == self.expected(rho, povm).tobytes()

    @pytest.mark.parametrize("c", [0.0, BORN_CLAMP * (1 - 1e-3), BORN_CLAMP / 2, 1e-300],
                             ids=["zero", "just_above_the_clamp", "half_the_clamp", "tiny"])
    def test_clamped_values_keep_their_bits(self, c):
        rho = KET0.projector()
        probs = born_probabilities(rho, self.clamp_povm(c))
        assert probs.tobytes() == self.expected(rho, self.clamp_povm(c)).tobytes()
        assert probs[0] == 0.0 and not np.signbit(probs[0])

    def test_negative_zero_entries_keep_their_bits(self):
        # -0.0 in an effect and in the density. The output carries no sign bit:
        # np.maximum(-0.0, 0.0) is +0.0, where Python's max(-0.0, 0.0) is -0.0.
        povm = Povm((np.diag([-0.0, 1.0]), np.diag([1.0, -0.0])))
        rho = DensityOperator(np.diag([1.0, -0.0]))
        probs = born_probabilities(rho, povm)
        assert probs.tobytes() == self.expected(rho, povm).tobytes()
        assert not np.signbit(probs).any()

    def test_below_the_clamp_is_an_error_naming_the_value(self):
        c = BORN_CLAMP * (1 + 1e-3)
        raw = np.einsum("kij,ji->k", self.clamp_povm(c).effects, KET0.projector().matrix).real
        with pytest.raises(ValidationError) as exc:
            born_probabilities(KET0.projector(), self.clamp_povm(c))
        assert str(exc.value) == f"Born probability {raw.min()} below clamp threshold"


def reference_freeze(arr, name):
    """_freeze's checks as they read before they reduced with logical_and."""
    try:
        arr = np.array(arr, dtype=complex)
    except ValueError as exc:
        raise ShapeError(f"{name} is not a rectangular array ({exc})") from exc
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has a non-finite entry")
    return arr


def reference_density_checks(matrix):
    """DensityOperator's checks as they read before they reduced with ufuncs
    and summed the trace from a list; after the Hermitian check, they read the
    Hermitian part (M + M^dag) / 2."""
    m = reference_freeze(matrix, "matrix")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ShapeError("density matrix must be square")
    herm_gap = float(np.abs(m - m.conj().T).max())
    if not herm_gap <= ATOL:
        raise ValidationError(f"density matrix not Hermitian: max |M - M^dag| = {herm_gap}")
    m = 0.5 * (m + m.conj().T)
    tr = complex(m.trace())
    if not abs(tr - 1.0) <= ATOL:
        raise ValidationError(f"density matrix trace {tr} deviates from 1 beyond {ATOL}")
    min_eig = float(np.linalg.eigvalsh(m)[0])
    if not min_eig >= -ATOL:
        raise ValidationError(f"density matrix has eigenvalue {min_eig} < -{ATOL}")


def reference_povm_checks(effects):
    """Povm's checks as they read before they reduced with ufuncs; after the
    Hermitian check, they read each effect's Hermitian part."""
    e = reference_freeze(effects, "effects")
    if e.ndim != 3 or e.size == 0 or e.shape[1] != e.shape[2]:
        raise ShapeError("POVM effects must be one or more square matrices of one size")
    if not float(np.abs(e - e.conj().transpose(0, 2, 1)).max()) <= ATOL:
        raise ValidationError("POVM effect not Hermitian")
    e = 0.5 * (e + e.conj().transpose(0, 2, 1))
    if not float(np.linalg.eigvalsh(e)[:, 0].min()) >= -ATOL:
        raise ValidationError("POVM effect not positive semidefinite")
    if not float(np.abs(e.sum(axis=0) - np.eye(e.shape[1])).max()) <= ATOL:
        raise ValidationError("POVM effects do not sum to the identity")


def outcome(check, arr):
    """None if check(arr) accepts, else the type and message of its error;
    any warning is an error here, as it is in the whole suite."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            check(arr)
        except Exception as exc:  # any type: the type is what is compared
            return type(exc), str(exc)
    return None


def assert_same_outcome(got, want):
    """got == want, except that a trace message may differ in the last digits
    of its trace: the trace is now summed in another order (see CHANGES.md)."""
    prefix = "density matrix trace "
    if got and want and got[0] is want[0] and got[1].startswith(prefix) \
            and want[1].startswith(prefix):
        trace = [complex(msg[len(prefix):].split(" ")[0]) for msg in (got[1], want[1])]
        assert abs(trace[0] - trace[1]) <= 8 * np.finfo(float).eps
        assert got[1].split(" ", 4)[4] == want[1].split(" ", 4)[4]
    else:
        assert got == want


# What the property puts at a threshold: each gap at ATOL * (1 -+ 1e-3), or
# a non-finite entry; "skewed" is the eigenvalue edge with an anti-Hermitian
# part of max |M - M^dag| = 0.5 * offset, which moves the Hermitian part's.
EDGES = ["none", "hermitian", "trace", "eigenvalue", "skewed", "nan", "inf", "-inf"]


def put_non_finite(arr, edge, rng):
    index = tuple(rng.integers(0, n) for n in arr.shape)
    value = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[edge]
    arr[index] = complex(value, 0.0) if rng.random() < 0.5 else complex(0.0, value)


def put_hermitian_gap(mat, gap):
    """Make max |M - M^dag| equal gap, off the diagonal if there is one."""
    if mat.shape[0] == 1:
        mat[0, 0] += 0.5j * gap
    else:
        mat[0, -1] += gap


def anti_hermitian(dim, gap, rng):
    """A random complex matrix S with max |S - S^dag| = gap."""
    s = rng.normal(size=(dim, dim, 2)) @ np.array([1, 1j])
    return s * (gap / np.abs(s - s.conj().T).max())


def density_at_edge(dim, edge, offset, sign, rng):
    """A random density with one edge put at offset (the trace moved by
    sign * offset), or with no edge."""
    m = random_density(dim, rng).matrix.copy()
    if edge == "skewed":
        return density_at_edge(dim, "eigenvalue", offset, sign, rng) \
            + anti_hermitian(dim, 0.5 * offset, rng)
    if edge == "eigenvalue" and dim > 1:
        # Eigenvalues -offset and a positive rest summing to 1 + offset.
        lam = np.concatenate([[-offset], rng.dirichlet(np.ones(dim - 1)) * (1 + offset)])
        v = random_unitary(dim, rng).matrix
        m = (v * lam) @ v.conj().T
        m = 0.5 * (m + m.conj().T)
    elif edge in ("trace", "eigenvalue"):
        m[0, 0] += sign * offset
    elif edge == "hermitian":
        put_hermitian_gap(m, offset)
    elif edge != "none":
        put_non_finite(m, edge, rng)
    return m


def povm_at_edge(dim, k, edge, offset, sign, rng):
    """The effects of a random k-outcome POVM with one edge put at offset
    (the sum moved off the identity by sign * offset), or with no edge."""
    e = random_povm(dim, k, rng).effects.copy()
    if edge == "skewed":
        e = povm_at_edge(dim, k, "eigenvalue", offset, sign, rng)
        e[0] += (skew := anti_hermitian(dim, 0.5 * offset, rng))
        e[-1] -= skew
        return e
    if edge == "eigenvalue" and k > 1:
        # Move weight along the first effect's lowest eigenvector to the
        # second effect, so the first reads -offset and the sum is kept.
        w, v = np.linalg.eigh(e[0])
        shift = (w[0] + offset) * np.outer(v[:, 0], v[:, 0].conj())
        e[0] -= shift
        e[1] += shift
        e = 0.5 * (e + e.conj().transpose(0, 2, 1))
    elif edge in ("trace", "eigenvalue"):
        e[0, 0, 0] += sign * offset
    elif edge == "hermitian":
        put_hermitian_gap(e[rng.integers(0, k)], offset)
    elif edge != "none":
        put_non_finite(e, edge, rng)
    return e


def edge_args(draw):
    """The drawn edge, offset ATOL * (1 -+ 1e-3), sign and generator."""
    return (draw(st.sampled_from(EDGES)), ATOL * (1 + draw(st.sampled_from([-1e-3, 1e-3]))),
            draw(st.sampled_from([-1.0, 1.0])),
            np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))))


class TestChecksMatchTheirReference:
    """The validated constructors reduce with ufuncs and read the trace from
    a list; every accept, reject, error type and message is the reference's."""

    @settings(max_examples=400)
    @given(data=st.data(), dim=st.integers(1, 8))
    def test_density_operator(self, data, dim):
        m = density_at_edge(dim, *edge_args(data.draw))
        assert_same_outcome(outcome(DensityOperator, m), outcome(reference_density_checks, m))

    @settings(max_examples=400)
    @given(data=st.data(), dim=st.integers(1, 8), k=st.integers(1, 4))
    def test_povm(self, data, dim, k):
        e = povm_at_edge(dim, k, *edge_args(data.draw))
        assert outcome(Povm, e) == outcome(reference_povm_checks, e)

    @pytest.mark.parametrize("edge,message", [
        ("hermitian", "density matrix not Hermitian"), ("trace", "density matrix trace"),
        ("eigenvalue", "density matrix has eigenvalue"),
        ("hermitian", "POVM effect not Hermitian"), ("trace", "do not sum to the identity"),
        ("eigenvalue", "not positive semidefinite"),
    ], ids=["density_hermitian", "density_trace", "density_eigenvalue",
            "povm_hermitian", "povm_sum", "povm_eigenvalue"])
    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_edges_sit_at_their_thresholds(self, edge, message, dim):
        # Below ATOL the check passes; above it, that check is the one that fails.
        for scale, fails in ((1 - 1e-3, False), (1 + 1e-3, True)):
            for sign in (-1.0, 1.0):
                rng = np.random.default_rng(dim)
                if message.startswith("density"):
                    got = outcome(DensityOperator, density_at_edge(dim, edge, ATOL * scale,
                                                                   sign, rng))
                else:
                    got = outcome(Povm, povm_at_edge(dim, 3, edge, ATOL * scale, sign, rng))
                if fails:
                    assert got is not None and message in got[1]
                else:
                    assert got is None


@st.composite
def skewed_near_the_edge(draw, povm):
    """A density, or the two effects of a POVM, of dim 1-4: a Hermitian matrix whose
    lowest eigenvalue is -0.5 to -1.5 ATOL (a density of dim 1 has only 1), moved by
    an anti-Hermitian part with max |M - M^dag| up to ATOL (the second effect by
    its opposite, so the effects still sum to the identity)."""
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    low = -draw(st.floats(0.5, 1.5)) * ATOL
    skew = anti_hermitian(dim, draw(st.floats(0.0, 1.0)) * ATOL, rng)
    rest = rng.uniform(size=dim - 1) if povm else rng.dirichlet(np.ones(dim - 1)) * (1 - low)
    lam = np.concatenate([[low], rest]) if povm or dim > 1 else np.ones(1)
    v = random_unitary(dim, rng).matrix
    m = (v * lam) @ v.conj().T
    return np.array([m + skew, np.eye(dim) - m - skew]) if povm else m + skew


def skewed_plus_effects():
    """J/4 on 4 levels, moved as skewed_plus, and I minus it: its Hermitian part
    has eigenvalue -1.485e-9, while each effect's lower triangle is PSD."""
    return np.array([skewed_plus(), np.eye(4) - skewed_plus()])


def assert_one_verdict(build, m):
    """build(M) and build(M^dag) raise the same error or store equal arrays that
    are exactly Hermitian."""
    adjoint = np.swapaxes(m, -1, -2).conj()
    assert outcome(build, m) == outcome(build, adjoint)
    if outcome(build, m) is None:
        stored = [getattr(build(x), "effects" if build is Povm else "matrix") for x in (m, adjoint)]
        assert np.array_equal(stored[0], stored[1])
        assert np.array_equal(stored[0], np.swapaxes(stored[0], -1, -2).conj())


class TestMatrixAndAdjointGetOneVerdict:
    @settings(max_examples=300)
    @given(m=skewed_near_the_edge(povm=False))
    @example(m=skewed_plus())
    def test_density_operator(self, m):
        assert_one_verdict(DensityOperator, m)

    @settings(max_examples=300)
    @given(e=skewed_near_the_edge(povm=True))
    @example(e=skewed_plus_effects())
    def test_povm(self, e):
        assert_one_verdict(Povm, e)

    def test_skewed_plus_effects_are_rejected(self):
        for e in (skewed_plus_effects(), skewed_plus_effects().conj().transpose(0, 2, 1)):
            with pytest.raises(ValidationError, match="not positive semidefinite"):
                Povm(e)
        h = 0.5 * (skewed_plus_effects()[0] + skewed_plus_effects()[0].conj().T)
        assert np.linalg.eigvalsh(h)[0] == pytest.approx(-1.485e-9, rel=1e-6)


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


@pytest.mark.parametrize("make, name", PICKLED.values(), ids=PICKLED.keys())
def test_values_compare_and_hash_by_identity(rng, make, name):
    # Equal arrays do not make equal values: == is identity, as hashing is.
    value = make(rng)
    twin = type(value)(getattr(value, name))
    assert value == value and value != twin
    assert hash(value) == hash(value)
    assert len({value, twin, value}) == 2


class TestKeptSpectralValues:
    """A density keeps its purity once computed; an unpickled copy is built
    fresh and computes its own."""

    @settings(max_examples=60)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(2, 4), pure=st.booleans())
    def test_kept_values_equal_a_fresh_computation(self, seed, dim, pure):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng, rank=1 if pure else None)
        purity = rho.purity()
        assert rho.purity() is purity
        fresh = pickle.loads(pickle.dumps(rho))
        assert fresh.purity() == purity
        assert repr(fresh) == repr(rho)  # the kept field stays out of repr


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_hermitian_basis_is_orthonormal_shared_and_read_only(n):
    basis = _hermitian_basis(n)
    assert _hermitian_basis(n) is basis
    assert basis.shape == (n * n, n * n)
    h = basis.reshape(n * n, n, n)
    assert np.array_equal(h, h.conj().transpose(0, 2, 1))
    # Tr(H_j H_k) = delta_jk.
    assert np.allclose(np.einsum("jab,kba->jk", h, h), np.eye(n * n), rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        basis[0, 0] = 0.0
