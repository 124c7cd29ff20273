"""Deciding whether a table of statistics admits a linear explanation.

Rows of a stats table are keyed by preparation label, not by density:
two distinct preparations may share an input density while demanding
different outputs, which is exactly what no linear map can reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import NonlinearBox, apply_box
from .errors import MisuseError, RankError, ShapeError, ValidationError
from .preparations import Preparation, classify_membership, linearly_equivalent
from .qcore import trace_distance
from .tolerances import ATOL, COMPLETENESS_CUT, CONSTRAINT_NULL_CUT, DTOL


@dataclass(frozen=True)
class StatsTable:
    """Observed p(k|P,M) over labeled preparations and measurements.

    preparations: tuple of (label, input DensityOperator)
    measurements: tuple of (label, Povm on the output space)
    probabilities: dict (prep label, meas label) -> tuple of outcome probs
    sample_counts: optional dict with the same keys; presence marks the
        table as empirical frequencies rather than exact probabilities.
    """

    preparations: tuple
    measurements: tuple
    probabilities: dict
    sample_counts: dict | None = None

    def __post_init__(self):
        plabels = [l for l, _ in self.preparations]
        mlabels = [l for l, _ in self.measurements]
        if len(set(plabels)) != len(plabels) or len(set(mlabels)) != len(mlabels):
            raise ValidationError("duplicate preparation or measurement labels")
        din = {rho.dim for _, rho in self.preparations}
        if len(din) != 1:
            raise ShapeError("all input densities must share one dimension")
        dout = {m.dim for _, m in self.measurements}
        if len(dout) != 1:
            raise ShapeError("all measurements must share one output dimension")
        meas = dict(self.measurements)
        for (pl, ml), row in self.probabilities.items():
            if pl not in dict(self.preparations) or ml not in meas:
                raise ValidationError(f"probability row references unknown labels ({pl}, {ml})")
            row = tuple(float(x) for x in row)
            if len(row) != meas[ml].n_outcomes:
                raise ShapeError(f"row ({pl}, {ml}) has wrong outcome count")
            if any(not x >= -ATOL for x in row) or not abs(sum(row) - 1.0) <= ATOL:
                raise ValidationError(f"row ({pl}, {ml}) is not a probability distribution")

    @property
    def input_dim(self) -> int:
        return self.preparations[0][1].dim

    @property
    def output_dim(self) -> int:
        return self.measurements[0][1].dim

    def is_sampled(self) -> bool:
        return self.sample_counts is not None


def _coords(stack: np.ndarray) -> np.ndarray:
    """Real coordinates of Hermitian matrices (..., n, n) in the orthonormal
    Hilbert-Schmidt basis: the n diagonal entries, then for each i < j in
    row-major order sqrt(2) Re m[i, j] and -sqrt(2) Im m[i, j]."""
    n = stack.shape[-1]
    iu, ju = np.triu_indices(n, 1)
    upper = np.sqrt(2.0) * stack[..., iu, ju]
    off = np.stack([upper.real, -upper.imag], axis=-1).reshape(*stack.shape[:-2], -1)
    return np.concatenate([np.diagonal(stack, axis1=-2, axis2=-1).real, off], axis=-1)


def _from_coords(h: np.ndarray, n: int) -> np.ndarray:
    """Inverse of _coords: the Hermitian n x n matrices with coordinates h."""
    iu, ju = np.triu_indices(n, 1)
    off = h[..., n:].reshape(*h.shape[:-1], -1, 2)
    upper = (off[..., 0] - 1j * off[..., 1]) / np.sqrt(2.0)
    m = np.zeros((*h.shape[:-1], n, n), dtype=complex)
    m[..., np.arange(n), np.arange(n)] = h[..., :n]
    m[..., iu, ju] = upper
    m[..., ju, iu] = upper.conj()
    return m


@dataclass(frozen=True)
class LinearFit:
    """A trace-preserving linear map fitted to a stats table.

    choi is the (unnormalized) Choi matrix on out (x) in; residual is the
    worst absolute probability deviation; choi_min_eig reports how far the
    fit is from complete positivity (negative means not CP).
    """

    choi: np.ndarray
    input_dim: int
    output_dim: int
    residual: float
    choi_min_eig: float

    def apply_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Action of the fitted map on an input matrix (may not be PSD)."""
        din, dout = self.input_dim, self.output_dim
        c = self.choi.reshape(dout, din, dout, din)
        return np.einsum("aibj,ij->ab", c, rho)


def _check_tomographic_completeness(table: StatsTable):
    din = table.input_dim
    rows = np.stack([rho.matrix.reshape(-1) for _, rho in table.preparations])
    svals = np.linalg.svd(rows, compute_uv=False)
    rank = int(np.sum(svals > COMPLETENESS_CUT))
    if rank < din * din:
        raise RankError(
            f"input densities span only {rank} of the {din * din} required "
            "dimensions; the table is tomographically incomplete")


def fit_linear_map(table: StatsTable) -> LinearFit:
    """Least-squares trace-preserving linear map explaining the table.

    Trace preservation is imposed as hard linear constraints; complete
    positivity is only reported via the Choi minimum eigenvalue.
    """
    _check_tomographic_completeness(table)
    din, dout = table.input_dim, table.output_dim
    n = din * dout
    meas = dict(table.measurements)
    preps = dict(table.preparations)

    # One design row per (cell, outcome): the coordinates of kron(E, rho^T).
    cells = sorted(table.probabilities.items())
    effects = np.concatenate([meas[ml].effects for (_, ml), _ in cells])
    rhos = np.repeat(np.array([preps[pl].matrix for (pl, _), _ in cells]),
                     [meas[ml].n_outcomes for (_, ml), _ in cells], axis=0)
    y = np.array([p for _, probs in cells for p in probs], dtype=float)
    a = _coords(np.einsum("rab,rji->raibj", effects, rhos).reshape(-1, n, n))

    in_basis = _from_coords(np.eye(din * din), din)
    c = _coords(np.kron(np.eye(dout), in_basis))
    b_vec = np.trace(in_basis, axis1=-2, axis2=-1).real

    h0, *_ = np.linalg.lstsq(c, b_vec, rcond=None)
    # Nullspace of the trace-preservation constraints via SVD.
    _, svals, vt = np.linalg.svd(c, full_matrices=True)
    null_mask = np.ones(n * n, dtype=bool)
    null_mask[: len(svals)] = svals <= CONSTRAINT_NULL_CUT
    nullspace = vt[null_mask].T

    an = a @ nullspace
    z, *_ = np.linalg.lstsq(an, y - a @ h0, rcond=None)
    h = h0 + nullspace @ z

    choi = _from_coords(h, n)
    return LinearFit(choi=choi, input_dim=din, output_dim=dout,
                     residual=float(np.max(np.abs(a @ h - y))),
                     choi_min_eig=float(np.linalg.eigvalsh(choi)[0]))


def sample_table(table: StatsTable, n: int, rng: np.random.Generator) -> StatsTable:
    """Replace exact probabilities with multinomial frequencies at n shots
    per (preparation, measurement) cell."""
    probs = {}
    counts = {}
    for key, row in sorted(table.probabilities.items()):
        p = np.clip(np.array(row, dtype=float), 0.0, None)
        p = p / p.sum()
        freq = rng.multinomial(n, p) / n
        probs[key] = tuple(float(x) for x in freq)
        counts[key] = n
    return StatsTable(preparations=table.preparations,
                      measurements=table.measurements,
                      probabilities=probs, sample_counts=counts)


def sampled_tolerance(table: StatsTable) -> float:
    """Three-sigma binomial tolerance for an empirical table."""
    if not table.is_sampled():
        raise MisuseError("table carries no sample counts")
    worst = 0.0
    for key, probs in table.probabilities.items():
        n = table.sample_counts.get(key)
        if not n:
            continue
        for p in probs:
            worst = max(worst, 3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n))
    return worst


def linearity_verdict(table: StatsTable, tol: float | None = None):
    """(fit, tol, verdict) for the table. The default tol is the sampled
    tolerance for an empirical table and DTOL for an exact one."""
    if tol is None:
        tol = sampled_tolerance(table) if table.is_sampled() else DTOL
    fit = fit_linear_map(table)
    return fit, tol, fit.residual <= tol and fit.choi_min_eig >= -tol


def is_linear_explainable(table: StatsTable, tol: float | None = None) -> bool:
    """True iff a trace-preserving linear map fits the table within tol and
    its Choi matrix is positive within tol."""
    return linearity_verdict(table, tol)[2]


def affinity_violation(box: NonlinearBox, p1: Preparation, p2: Preparation) -> float:
    """Output trace distance for two linearly equivalent member preparations.

    Zero for every linear box; strictly positive values witness that
    mixing fails to distribute over the box's evolution.
    """
    if not linearly_equivalent(p1, p2):
        raise MisuseError("affinity violation requires linearly equivalent preparations")
    if not (classify_membership(p1, box.membership)
            and classify_membership(p2, box.membership)):
        raise MisuseError("affinity violation requires both preparations to be members")
    return trace_distance(apply_box(box, p1), apply_box(box, p2))
