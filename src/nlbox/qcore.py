"""Dense finite-dimensional states, measurements, and channels.

Everything here is a small complex numpy array wrapped in a frozen
dataclass that validates its invariants on construction and compares by
identity. Operations are pure functions. A ket's projector and a density's
purity are kept once computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cache

import numpy as np

from .errors import CapacityError, ShapeError, ValidationError
from .tolerances import ATOL, BORN_CLAMP, MAX_TENSOR_DIM


def _freeze(obj, name, arr):
    """Store arr on obj as a read-only complex array of finite entries."""
    try:
        arr = np.array(arr, dtype=complex)
    except ValueError as exc:  # a ragged sequence, such as effects of mixed sizes
        raise ShapeError(f"{name} is not a rectangular array ({exc})") from exc
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} has a non-finite entry")
    arr.setflags(write=False)
    object.__setattr__(obj, name, arr)
    return arr


class _Validated:
    """A value that unpickles through its validating constructor, called on
    its one init field, so an unpickled array is checked and read-only."""

    def __reduce__(self):
        return type(self), (getattr(self, fields(self)[0].name),)


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
        if self.dim != other.dim:
            raise ShapeError(f"ket dims differ: {self.dim} vs {other.dim}")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "KetVector") -> float:
        """|<self|other>|^2."""
        return abs(self.overlap(other)) ** 2

    def projector(self) -> "DensityOperator":
        """|k><k|, built and validated on the first call, then shared."""
        if self._projector is None:
            rho = DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))
            object.__setattr__(self, "_projector", rho)
        return self._projector


@dataclass(frozen=True, eq=False)
class DensityOperator(_Validated):
    """Trace-one positive-semidefinite Hermitian matrix."""

    matrix: np.ndarray
    _purity: float | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        m = _freeze(self, "matrix", self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ShapeError("density matrix must be square")
        herm_gap = float(np.abs(m - m.conj().T).max())
        if not herm_gap <= ATOL:
            raise ValidationError(f"density matrix not Hermitian: max |M - M^dag| = {herm_gap}")
        tr = complex(np.trace(m))
        if not abs(tr - 1.0) <= ATOL:
            raise ValidationError(f"density matrix trace {tr} deviates from 1 beyond {ATOL}")
        min_eig = float(np.linalg.eigvalsh(m)[0])
        if not min_eig >= -ATOL:
            raise ValidationError(f"density matrix has eigenvalue {min_eig} < -{ATOL}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        """Tr(rho^2), real; kept once computed."""
        if self._purity is None:
            object.__setattr__(self, "_purity", float(np.trace(self.matrix @ self.matrix).real))
        return self._purity


@dataclass(frozen=True, eq=False)
class Povm(_Validated):
    """A finite measurement: PSD effects summing to the identity.

    `effects` is one read-only (k, d, d) array; the constructor takes any
    sequence of k square matrices of one size, or such an array.
    """

    effects: np.ndarray

    def __post_init__(self):
        e = _freeze(self, "effects", self.effects)
        if e.ndim != 3 or e.size == 0 or e.shape[1] != e.shape[2]:
            raise ShapeError("POVM effects must be one or more square matrices of one size")
        if not float(np.abs(e - e.conj().transpose(0, 2, 1)).max()) <= ATOL:
            raise ValidationError("POVM effect not Hermitian")
        if not float(np.linalg.eigvalsh(e)[:, 0].min()) >= -ATOL:
            raise ValidationError("POVM effect not positive semidefinite")
        if not float(np.abs(e.sum(axis=0) - np.eye(e.shape[1])).max()) <= ATOL:
            raise ValidationError("POVM effects do not sum to the identity")

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
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeError("unitary must be square")
        gap = float(np.abs(m.conj().T @ m - np.eye(m.shape[0])).max())
        if not gap <= ATOL:
            raise ValidationError(f"matrix is not unitary: max |U^dag U - I| = {gap}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def tensor(a, b):
    """Kronecker product of two kets or two density operators."""
    if isinstance(a, KetVector) and isinstance(b, KetVector):
        if a.dim * b.dim > MAX_TENSOR_DIM:
            raise CapacityError(
                f"tensor dimension {a.dim * b.dim} exceeds the cap {MAX_TENSOR_DIM}")
        return KetVector(np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityOperator) and isinstance(b, DensityOperator):
        if a.dim * b.dim > MAX_TENSOR_DIM:
            raise CapacityError(
                f"tensor dimension {a.dim * b.dim} exceeds the cap {MAX_TENSOR_DIM}")
        return DensityOperator(np.kron(a.matrix, b.matrix))
    raise ShapeError("tensor expects two kets or two density operators")


def partial_trace(rho: DensityOperator, dims, keep) -> DensityOperator:
    """Trace out all factors not listed in `keep`.

    `dims` are the factor dimensions (their product must equal rho.dim);
    `keep` is an iterable of factor indices to retain, in ascending order.
    """
    dims = tuple(int(d) for d in dims)
    if int(np.prod(dims)) != rho.dim:
        raise ShapeError(f"factor dims {dims} do not multiply to {rho.dim}")
    n = len(dims)
    keep = sorted(set(int(k) for k in keep))
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ShapeError(f"keep indices {keep} out of range for {n} factors")
    reduced = _partial_trace_raw(rho.matrix, dims, keep)
    return DensityOperator(reduced)


def _partial_trace_raw(mat: np.ndarray, dims, keep) -> np.ndarray:
    n = len(dims)
    t = mat.reshape(dims + tuple(dims))
    row = list(range(n))
    col = list(range(n, 2 * n))
    for i in range(n):
        if i not in keep:
            col[i] = row[i]
    out = [row[i] for i in keep] + [col[i] for i in keep]
    reduced = np.einsum(t, row + col, out)
    dk = int(np.prod([dims[i] for i in keep]))
    return reduced.reshape(dk, dk)


def born_probabilities(rho: DensityOperator, m: Povm) -> np.ndarray:
    """Outcome distribution Tr(E_k rho), tiny negatives clamped to zero."""
    if rho.dim != m.dim:
        raise ShapeError(f"state dim {rho.dim} vs POVM dim {m.dim}")
    probs = np.einsum("kij,ji->k", m.effects, rho.matrix).real
    if probs.min() < -BORN_CLAMP:
        raise ValidationError(f"Born probability {probs.min()} below clamp threshold")
    probs = np.maximum(probs, 0.0)
    if not abs(float(probs.sum()) - 1.0) <= ATOL:
        raise ValidationError("Born probabilities do not sum to 1")
    return probs


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
    """Projective measurement onto an orthonormal set of kets."""
    if len({k.dim for k in kets}) != 1:
        raise ShapeError("basis kets must share one dimension")
    v = np.array([k.amplitudes for k in kets])
    return Povm(v[:, :, None] * v[:, None, :].conj())


@cache
def computational_povm(dim: int) -> Povm:
    """Projective measurement in the computational basis, built once per
    dimension; a Povm's effects are read-only, so callers share it."""
    eye = np.eye(dim)
    return Povm(eye[:, :, None] * eye[:, None, :])
