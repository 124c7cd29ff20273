"""Dense finite-dimensional states, measurements, and channels.

Everything here is a small complex numpy array wrapped in a frozen dataclass that
validates its invariants on construction and compares by identity. Operations are pure
functions. A density or POVM stores the Hermitian part of its input; a ket's projector
and a density's purity are kept once computed. A projector, tensor product, box channel,
mix or steering herald carries a bound on its negative part, as does a basis, computational
or HJW POVM on each effect's; any other density or POVM computes its eigenvalues.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields
from functools import cache

import numpy as np

from .errors import CapacityError, ShapeError, ValidationError, check_instance
from .tolerances import ATOL, BORN_CLAMP, MAX_TENSOR_DIM, NEG_ROUND


def _freeze(obj, name, arr):
    """Store arr on obj as a read-only complex array of finite entries."""
    try:
        arr = np.array(arr, dtype=complex)
    except ValueError as exc:  # a ragged sequence, such as effects of mixed sizes
        raise ShapeError(f"{name} is not a rectangular array ({exc})") from exc
    if not np.logical_and.reduce(np.isfinite(arr), axis=None):
        raise ValidationError(f"{name} has a non-finite entry")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


class _Validated:
    """A value that unpickles through its validating constructor, called on
    its init fields, so an unpickled value is checked and its arrays read-only."""

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)


@dataclass(frozen=True, eq=False)
class KetVector(_Validated):
    """A normalized pure state: complex amplitudes of unit norm."""

    amplitudes: np.ndarray
    _projector: DensityOperator | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        amp = _freeze(self, "amplitudes", self.amplitudes)
        if amp.ndim != 1 or amp.size < 1:
            raise ShapeError("ket amplitudes must be a nonempty 1-D vector")
        norm2 = float(np.vdot(amp, amp).real)
        if not abs(norm2 - 1.0) <= ATOL:
            raise ValidationError(f"ket squared norm {norm2} deviates from 1 beyond {ATOL}")

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "KetVector") -> complex:
        """Inner product <self|other>."""
        check_instance(other, KetVector, "overlap's other")
        if self.dim != other.dim:
            raise ShapeError(f"ket dims differ: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "KetVector") -> float:
        """|<self|other>|^2."""
        return abs(self.overlap(other)) ** 2

    def projector(self) -> "DensityOperator":
        """|k><k|, built and validated on the first call, then shared."""
        if self._projector is None:
            rho = DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), _neg=0.0)
            object.__setattr__(self, "_projector", rho)
        return self._projector


@dataclass(frozen=True, eq=False)
class DensityOperator(_Validated):
    """Trace-one positive-semidefinite Hermitian matrix.

    `matrix` is the Hermitian part H = (M + M^dag) / 2 of the M given; `_bound` >= Tr H_-;
    checked, (d - 1) max(0, -lambda_min). A projector, `tensor`, a box channel, a mix or a
    steering herald passes as `_neg` a bound from its inputs' and skips eigvalsh if
    _neg + NEG_ROUND d <= ATOL / 2.
    """

    matrix: np.ndarray
    _purity: float | None = field(default=None, init=False, repr=False)
    _neg: InitVar[float] = field(default=float("inf"), kw_only=True)  # not copied by replace()

    def __post_init__(self, _neg):
        m = _freeze(self, "matrix", self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ShapeError("density matrix must be square")
        if not (gap := float(np.maximum.reduce(np.abs(m - (adj := m.conj().T)), axis=None))) <= ATOL:
            raise ValidationError(f"density matrix not Hermitian: max |M - M^dag| = {gap}")
        if gap:  # at a gap of 0, M is its own Hermitian part, bit for bit
            object.__setattr__(self, "matrix", m := 0.5 * (m + adj))
            m.setflags(write=False)
        if not abs((tr := complex(sum(m.diagonal().tolist()))) - 1.0) <= ATOL:
            raise ValidationError(f"density matrix trace {tr} deviates from 1 beyond {ATOL}")
        if not (bound := _neg + NEG_ROUND * m.shape[0]) <= ATOL / 2:
            min_eig = float(np.linalg.eigvalsh(m)[0])
            if not min_eig >= -ATOL:
                raise ValidationError(f"density matrix has eigenvalue {min_eig} < -{ATOL}")
            bound = (m.shape[0] - 1) * max(0.0, -min_eig)
        object.__setattr__(self, "_bound", bound)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """Tr(rho^2), real; kept once computed."""
        if self._purity is None:
            object.__setattr__(self, "_purity", float((self.matrix @ self.matrix).trace().real))
        return self._purity


@dataclass(frozen=True, eq=False)
class Povm(_Validated):
    """A finite measurement: PSD effects summing to the identity.

    `effects` is one read-only (k, d, d) array of Hermitian parts; the constructor
    takes any sequence of k square matrices of one size, or such an array. `_bound` >=
    Tr E_- for every effect E; checked, d max(0, -lambda_min) over all effects.
    `basis_povm`, `computational_povm` and `hjw_assemblage` pass as `_neg` a bound
    from their factors and skip eigvalsh if _neg + NEG_ROUND d <= ATOL / 2.
    """

    effects: np.ndarray
    _neg: InitVar[float] = field(default=float("inf"), kw_only=True)  # not copied by replace()

    def __post_init__(self, _neg):
        e = _freeze(self, "effects", self.effects)
        if e.ndim != 3 or e.size == 0 or e.shape[1] != e.shape[2]:
            raise ShapeError("POVM effects must be one or more square matrices of one size")
        adj = e.conj().transpose(0, 2, 1)
        if not (gap := float(np.maximum.reduce(np.abs(e - adj), axis=None))) <= ATOL:
            raise ValidationError("POVM effect not Hermitian")
        if gap:
            object.__setattr__(self, "effects", e := 0.5 * (e + adj))
            e.setflags(write=False)
        if not (bound := _neg + NEG_ROUND * e.shape[1]) <= ATOL / 2:
            if not (min_eig := float(np.minimum.reduce(np.linalg.eigvalsh(e)[:, 0]))) >= -ATOL:
                raise ValidationError("POVM effect not positive semidefinite")
            bound = e.shape[1] * max(0.0, -min_eig)
        if not float(np.maximum.reduce(np.abs(np.add.reduce(e) - np.eye(e.shape[1])),
                                       axis=None)) <= ATOL:
            raise ValidationError("POVM effects do not sum to the identity")
        object.__setattr__(self, "_bound", bound)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]


@dataclass(frozen=True, eq=False)
class Unitary(_Validated):
    matrix: np.ndarray

    def __post_init__(self):
        m = _freeze(self, "matrix", self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ShapeError("unitary must be square")
        gap = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if not gap <= ATOL:
            raise ValidationError(f"matrix is not unitary: max |U^dag U - I| = {gap}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tensor(a: DensityOperator, b: DensityOperator) -> DensityOperator:
    """Kronecker product of two density operators.

    A broadcast product of the two matrices, reshaped: the same elementwise
    multiply that np.kron does, so the same bits, without its dispatch. Its
    negative part's trace is Tr a_+ Tr b_- + Tr a_- Tr b_+, so at most the bound.
    """
    if not (isinstance(a, DensityOperator) and isinstance(b, DensityOperator)):
        raise ShapeError("tensor expects two density operators")
    n = a.dim * b.dim
    if n > MAX_TENSOR_DIM:
        raise CapacityError(f"tensor dimension {n} exceeds the cap {MAX_TENSOR_DIM}")
    return DensityOperator((a.matrix[:, None, :, None] * b.matrix[None, :, None, :]).reshape(n, n),
                           _neg=a._bound + b._bound + 2 * a._bound * b._bound)


def born_probabilities(rho: DensityOperator, m: Povm) -> np.ndarray:
    """Outcome distribution Tr(E_k rho), tiny negatives clamped to zero; a row of
    strictly positive values needs no clamp and is the einsum's real part itself."""
    check_instance(rho, DensityOperator, "born_probabilities' rho")
    check_instance(m, Povm, "born_probabilities' measurement")
    if rho.dim != m.dim:
        raise ShapeError(f"state dim {rho.dim} vs POVM dim {m.dim}")
    probs = np.einsum("kij,ji->k", m.effects, rho.matrix).real
    # The checks read Python floats. A row of positives sums them all, the same floats in the
    # same order as its positive-only sum; a row with a 0, a -0.0 or a negative takes np.maximum's bits.
    values = probs.tolist()
    low = min(values)
    if low < -BORN_CLAMP:
        raise ValidationError(f"Born probability {low} below clamp threshold")
    if not abs((sum(values) if low > 0.0 else sum(p for p in values if p > 0.0)) - 1.0) <= ATOL:
        raise ValidationError("Born probabilities do not sum to 1")
    return probs if low > 0.0 else np.maximum(probs, 0.0)


@cache
def _hermitian_basis(n: int) -> np.ndarray:
    """The orthonormal Hermitian basis of n x n matrices as a read-only (n * n, n * n)
    array B, built once per n. Row k is the flattened H_k: the diagonal units, then
    for i < j, (E_ij + E_ji)/sqrt(2) and i(E_ji - E_ij)/sqrt(2). h @ B has coordinates h."""
    b = np.zeros((n * n, n, n), dtype=complex)
    b[range(n), range(n), range(n)] = 1.0
    iu, ju = np.triu_indices(n, 1)
    k = np.arange(n, n * n, 2)
    b[k, iu, ju] = b[k, ju, iu] = 1.0 / np.sqrt(2.0)
    b[k + 1, iu, ju], b[k + 1, ju, iu] = -1j / np.sqrt(2.0), 1j / np.sqrt(2.0)
    b = b.reshape(n * n, n * n)
    b.setflags(write=False)
    return b


@cache
def _traceless_basis(d: int) -> np.ndarray:
    """An orthonormal basis of the traceless Hermitian d x d matrices as a read-only
    (d*d - 1, d, d) array, built once per d: d - 1 diagonal directions orthogonal
    to I, then the off-diagonal elements of the coordinate basis."""
    h = np.zeros((d * d - 1, d * d))
    h[: d - 1, :d] = np.linalg.qr(np.ones((d, 1)), mode="complete")[0][:, 1:].T
    h[d - 1:, d:] = np.eye(d * d - d)
    t = (h @ _hermitian_basis(d)).reshape(-1, d, d)
    t.setflags(write=False)
    return t


def trace_distance(a: DensityOperator, b: DensityOperator) -> float:
    """(1/2) ||a - b||_1 via the eigenvalues of the difference."""
    check_instance(a, DensityOperator, "trace_distance's a")
    check_instance(b, DensityOperator, "trace_distance's b")
    if a.dim != b.dim:
        raise ShapeError(f"dims differ: {a.dim} vs {b.dim}")
    return 0.5 * trace_norm(a.matrix - b.matrix)


def trace_norm(mat: np.ndarray) -> float:
    """||M||_1 for a Hermitian matrix."""
    return float(np.abs(np.linalg.eigvalsh(mat)).sum())


# Common single-qubit states and bases.

def ket(*amplitudes) -> KetVector:
    return KetVector(np.array(amplitudes, dtype=complex))


KET0 = ket(1, 0)
KET1 = ket(0, 1)
KET_PLUS = ket(1 / np.sqrt(2), 1 / np.sqrt(2))
KET_MINUS = ket(1 / np.sqrt(2), -1 / np.sqrt(2))

COMPUTATIONAL_BASIS = (KET0, KET1)
HADAMARD_BASIS = (KET_PLUS, KET_MINUS)

# |0><0|, the ancilla that the two-qubit boxes append to a one-qubit state.
QUBIT0 = KET0.projector()


def maximally_mixed(dim: int) -> DensityOperator:
    return DensityOperator(np.eye(dim) / dim)


def basis_povm(kets) -> Povm:
    """Projective measurement onto an orthonormal set of kets, any iterable of them."""
    kets = tuple(kets)
    for k in kets:
        check_instance(k, KetVector, "basis_povm's ket")
    if len({k.dim for k in kets}) != 1:
        raise ShapeError("basis kets must share one dimension")
    v = np.array([k.amplitudes for k in kets])
    return Povm(v[:, :, None] * v[:, None, :].conj(), _neg=0.0)  # each effect a ket's projector


@cache
def computational_povm(dim: int) -> Povm:
    """Projective measurement in the computational basis, built once per
    dimension; a Povm's effects are read-only, so callers share it."""
    eye = np.eye(dim)
    return Povm(eye[:, :, None] * eye[:, None, :], _neg=0.0)
