"""Deciding whether a table of statistics admits a linear explanation.

Rows of a stats table are keyed by preparation label, not by density:
two distinct preparations may share an input density while demanding
different outputs, which is exactly what no linear map can reproduce.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import NonlinearBox, apply_box
from .errors import (MisuseError, RankError, ShapeError, ValidationError, check_instance,
                     check_integer, check_tol, finite_float)
from .preparations import Preparation, classify_membership, linearly_equivalent
from .qcore import (DensityOperator, Povm, _hermitian_basis, _traceless_basis, _Validated,
                    trace_distance)
from .tolerances import ATOL, COMPLETENESS_CUT, DTOL


@dataclass(frozen=True)
class StatsTable(_Validated):
    """Observed p(k|P,M) over labeled preparations and measurements.

    preparations: tuple of (label string, input DensityOperator)
    measurements: tuple of (label string, Povm on the output space)
    probabilities: dict (prep label, meas label) -> tuple of outcome probs,
        one row for every pair, so the fit's design is a Kronecker product
        (see fit_linear_map), stored as tuples of floats; a key that is not a
        label pair, a missing row, or an entry that is not a finite real number
        (a bool is not) is a ValidationError
    sample_counts: optional dict, row key -> integer shot count >= 1; presence
        marks the table as empirical frequencies, not exact probabilities.

    A table copies what it checked (tuples of the label pairs, new dicts of
    the float rows and int counts), so later edits to the caller's lists and
    dicts change nothing. It also keeps the rows as one read-only
    (preparation x outcome) float block, in table order, for the fit.
    """

    preparations: tuple
    measurements: tuple
    probabilities: dict
    sample_counts: dict | None = None
    _block: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for what, cells in (("probabilities", self.probabilities),
                            ("sample_counts", self.sample_counts or {})):
            if not isinstance(cells, dict):
                raise ValidationError(f"{what} must be a dict keyed by label pairs")
        sides = []
        for what, kind, mixed in (
                ("preparations", DensityOperator, "all input densities must share one dimension"),
                ("measurements", Povm, "all measurements must share one output dimension")):
            pairs = getattr(self, what)
            if not (isinstance(pairs, (tuple, list)) and all(
                    isinstance(e, (tuple, list)) and len(e) == 2 and isinstance(e[0], str)
                    for e in pairs)):
                raise ValidationError(f"{what} must be a tuple of (string label, value) pairs")
            object.__setattr__(self, what, pairs := tuple(map(tuple, pairs)))
            sides.append(side := dict(pairs))
            if len(side) != len(pairs):
                raise ValidationError("duplicate preparation or measurement labels")
            for label, value in pairs:
                if not isinstance(value, kind):
                    raise ValidationError(f"{what[:-1]} {label!r} is not a {kind.__name__}")
            if len({value.dim for _, value in pairs}) != 1:
                raise ShapeError(mixed)
        preps, meas = sides
        outcomes = {label: m.n_outcomes for label, m in meas.items()}
        rows = {}
        for cell, row in self.probabilities.items():
            if not (isinstance(cell, tuple) and len(cell) == 2):
                raise ValidationError(f"probability key {cell!r} is not a (preparation, "
                                      "measurement) label pair")
            try:
                row = tuple(row)
            except TypeError:
                raise ValidationError(f"row {cell} is not a sequence of probabilities") from None
            pl, ml = cell
            floats = tuple([float(x) for x in row if isinstance(x, float)])  # nan, inf fail below
            rows[cell] = row = floats if len(floats) == len(row) else tuple(map(finite_float, row))
            if pl not in preps or ml not in outcomes:
                raise ValidationError(f"probability row references unknown labels ({pl}, {ml})")
            if len(row) != outcomes[ml]:
                raise ShapeError(f"row ({pl}, {ml}) has wrong outcome count")
            if not min(row) >= -ATOL or not abs(sum(row) - 1.0) <= ATOL:  # a nan fails the sum
                raise ValidationError(f"row ({pl}, {ml}) is not a probability distribution")
        object.__setattr__(self, "probabilities", rows)
        block = []
        for pl in preps:
            for ml in meas:
                row = rows.get((pl, ml))
                if row is None:
                    raise ValidationError(f"no probability row for {(pl, ml)}; a table needs "
                                          "one for every preparation x measurement")
                block += row
        block = np.array(block, dtype=float).reshape(len(preps), -1)
        block.setflags(write=False)
        object.__setattr__(self, "_block", block)  # derived once from the checked rows
        if self.sample_counts is not None and not self.sample_counts:
            raise ValidationError("sample_counts is empty")
        counts = None if self.sample_counts is None else {}
        for cell, n in (self.sample_counts or {}).items():
            if cell not in rows:
                raise ValidationError(f"sample count for {cell} has no probability row")
            counts[cell] = n = check_integer(n, f"sample count for {cell}", least=1)
            if math.isnan(finite_float(n)):
                raise ValidationError(f"sample count for {cell} exceeds the float range")
        object.__setattr__(self, "sample_counts", counts)

    @property
    def input_dim(self) -> int:
        return self.preparations[0][1].dim

    @property
    def output_dim(self) -> int:
        return self.measurements[0][1].dim

    def is_sampled(self) -> bool:
        return self.sample_counts is not None


@dataclass(frozen=True, eq=False)
class LinearFit:
    """A trace-preserving linear map fitted to a stats table.

    choi is the (unnormalized) Choi matrix on out (x) in; residual is the
    worst absolute probability deviation; choi_min_eig reports how far the
    fit is from complete positivity (negative means not CP). Fits compare
    and hash by identity, as they hold an array.
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


def fit_linear_map(table: StatsTable) -> LinearFit:
    """Least-squares trace-preserving linear map explaining the table.

    Every Choi matrix I/d_out + sum_ak z_ak T_a (x) B_k is trace preserving;
    complete positivity is only reported via the Choi minimum eigenvalue.

    The fit predicts y0_r + (E Z X^T)_rp for effect r on preparation p, with
    X_pk = Tr(B_k rho_p^T) and E_ra = Tr(T_a E_r). A full table makes the
    design matrix X (x) E, and pinv(X (x) E) = pinv(X) (x) pinv(E), so its
    minimum-norm solution is Z = pinv(E) (Y - y0) pinv(X)^T: two small solves.
    X is factored once by its thin SVD U S V^T: the singular values above
    COMPLETENESS_CUT give its rank, and a complete X has full column rank,
    so pinv(X) = V S^-1 U^T. E may be rank deficient (an incomplete
    measurement set), so pinv(E) comes from lstsq, whose rcond cut drops its
    small singular values. The Choi matrix is then two matmuls and a
    transpose of the bases.
    """
    check_instance(table, StatsTable, "fit_linear_map's table")
    din, dout = table.input_dim, table.output_dim
    n = din * dout
    out_basis = _traceless_basis(dout)
    in_basis = _hermitian_basis(din)

    # Real coordinates Tr(B_k rho^T) of every input; their Gram matrix is Tr(rho_p rho_q).
    x = np.einsum("kij,pij->pk", in_basis.reshape(-1, din, din),
                  np.array([rho.matrix for _, rho in table.preparations])).real
    u, s, vt = np.linalg.svd(x, full_matrices=False)
    rank = np.count_nonzero(s > COMPLETENESS_CUT)
    if rank < din * din:
        raise RankError(
            f"input densities span only {rank} of the {din * din} required "
            "dimensions; the table is tomographically incomplete")

    effects = np.concatenate([m.effects for _, m in table.measurements])
    e = np.einsum("aij,rji->ra", out_basis, effects).real
    y0 = np.trace(effects, axis1=-2, axis2=-1).real / dout
    y = table._block.T - y0[:, None]

    w, *_ = np.linalg.lstsq(e, y, rcond=None)
    z = (w @ u / s) @ vt
    choi = np.eye(n) / dout + (out_basis.reshape(-1, dout * dout).T @ (z @ in_basis)).reshape(
        dout, dout, din, din).transpose(0, 2, 1, 3).reshape(n, n)
    choi.setflags(write=False)
    return LinearFit(choi=choi, input_dim=din, output_dim=dout,
                     residual=float(np.max(np.abs(e @ z @ x.T - y))),
                     choi_min_eig=float(np.linalg.eigvalsh(choi)[0]))


def sample_table(table: StatsTable, n: int, rng: np.random.Generator) -> StatsTable:
    """Replace exact probabilities with multinomial frequencies at n shots
    per (preparation, measurement) cell; ConfigurationError unless n is an
    integer of at least 1."""
    check_instance(table, StatsTable, "sample_table's table")
    n = check_integer(n, "n (shots per cell, at least 1 shot)", least=1)
    probs = {}
    for key, row in sorted(table.probabilities.items()):
        p = np.clip(np.array(row, dtype=float), 0.0, None)
        p = p / p.sum()
        freq = rng.multinomial(n, p) / n
        probs[key] = tuple(float(x) for x in freq)
    return StatsTable(preparations=table.preparations,
                      measurements=table.measurements,
                      probabilities=probs, sample_counts=dict.fromkeys(probs, n))


def sampled_tolerance(table: StatsTable) -> float:
    """Three-sigma binomial tolerance for an empirical table, never below
    DTOL: a table whose cells all read 0 or 1 has sigma 0, but its fit still
    rounds, so it is judged no more strictly than an exact table."""
    check_instance(table, StatsTable, "sampled_tolerance's table")
    if not table.is_sampled():
        raise MisuseError("table carries no sample counts")
    return max(DTOL, *(3.0 * math.sqrt(max(p * (1.0 - p), 0.0) / n)
                       for key, n in table.sample_counts.items()
                       for p in table.probabilities[key]))


def linearity_verdict(table: StatsTable, tol: float | None = None):
    """(fit, tol, verdict) for the table. The default tol is the sampled
    tolerance for an empirical table and DTOL for an exact one; an explicit
    tol that is not a finite non-negative real number is a ConfigurationError."""
    check_instance(table, StatsTable, "linearity_verdict's table")
    if tol is None:
        tol = sampled_tolerance(table) if table.is_sampled() else DTOL
    else:
        tol = check_tol(tol)
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
    check_instance(box, NonlinearBox, "affinity_violation's box")
    if not linearly_equivalent(p1, p2):
        raise MisuseError("affinity violation requires linearly equivalent preparations")
    if not (classify_membership(p1, box.membership)
            and classify_membership(p2, box.membership)):
        raise MisuseError("affinity violation requires both preparations to be members")
    return trace_distance(apply_box(box, p1), apply_box(box, p2))
