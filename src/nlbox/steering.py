"""Remote preparation via steering.

Every finite decomposition of a marginal density matrix sigma_B is heralded
by a measurement on the distant half of one shared state, a purification of
sigma_B on its rank space (Hughston, Jozsa & Wootters): the measurement, not
the state, picks the decomposition. This module constructs such assemblages
and evaluates the heralded states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionError, MisuseError, ShapeError, ValidationError
from .preparations import _normalize_ensemble
from .qcore import DensityOperator, KetVector, Povm, trace_norm
from .tolerances import DTOL, PHASE_CUT, RANK_CUT, ZERO_PROB

# Decompositions beyond this many members are rejected.
MAX_MEMBERS = 16


@dataclass(frozen=True)
class EnsembleDecomposition:
    """A target decomposition sigma_B = sum_i p_i rho_i."""

    sigma_b: DensityOperator
    members: tuple

    def __post_init__(self):
        if not isinstance(self.sigma_b, DensityOperator):
            raise DecompositionError("sigma_B must be a DensityOperator")
        members = _normalize_ensemble(self.members, "decomposition")
        if members[0][1].dim != self.sigma_b.dim:
            raise ShapeError("member dimension differs from sigma_B")
        avg = sum(w * s.matrix for w, s in members)
        gap = 0.5 * trace_norm(avg - self.sigma_b.matrix)
        if not gap <= DTOL:
            raise DecompositionError(
                f"members average {gap} away from sigma_B (tolerance {DTOL})")
        object.__setattr__(self, "members", members)


@dataclass(frozen=True)
class SteeringAssemblage:
    """A bipartite state, a measurement on A, and what each outcome heralds on B.

    The constructor is where nlbox conditions a bipartite state: it
    conditions on every effect at once and keeps the result. `outcomes[i]`
    is outcome i's (probability, heralded DensityOperator), or None when
    its probability is below ZERO_PROB and it heralds no state; `heralded`
    lists the outcomes that do, in order. The effects of a validated Povm
    sum to the identity, so the heralded set averages to the B marginal by
    construction and is not checked again.
    """

    state_ab: DensityOperator
    dim_a: int
    dim_b: int
    povm_a: Povm
    outcomes: tuple = field(init=False, repr=False)
    heralded: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.state_ab, DensityOperator):
            raise ValidationError("state_ab must be a DensityOperator")
        if not isinstance(self.povm_a, Povm):
            raise ValidationError("povm_a must be a Povm")
        if self.dim_a * self.dim_b != self.state_ab.dim:
            raise ShapeError("dim_a * dim_b must equal the bipartite dimension")
        if self.povm_a.dim != self.dim_a:
            raise ShapeError("POVM acts on A, dimensions differ")
        t = self.state_ab.matrix.reshape(self.dim_a, self.dim_b, self.dim_a, self.dim_b)
        blocks = np.einsum("kxa,ajxc->kjc", self.povm_a.effects, t)
        probs = np.einsum("kjj->k", blocks).real
        heralds = probs >= ZERO_PROB
        conds = blocks / np.where(heralds, probs, 1.0)[:, None, None]
        conds = 0.5 * (conds + conds.conj().transpose(0, 2, 1))
        outcomes = tuple((float(p), DensityOperator(c)) if h else None
                         for p, h, c in zip(probs, heralds, conds))
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "heralded", tuple(o for o in outcomes if o is not None))

    @property
    def n_outcomes(self) -> int:
        return self.povm_a.n_outcomes


def _rank_space(m: np.ndarray):
    """The eigenpairs of the Hermitian matrix m with eigenvalues above RANK_CUT,
    eigenvalues descending and eigenvectors as columns, each column's first
    amplitude above PHASE_CUT made real positive."""
    lams, vecs = np.linalg.eigh(m)
    keep = lams > RANK_CUT
    lams, vecs = lams[keep][::-1], vecs[:, keep][:, ::-1]
    first = vecs[np.argmax(np.abs(vecs) > PHASE_CUT, axis=0), np.arange(lams.size)]
    return lams, vecs * (np.abs(first) / first)


def hjw_assemblage(d: EnsembleDecomposition) -> SteeringAssemblage:
    """Build a bipartite state and measurement on A realizing a decomposition.

    Member i's eigenpairs (mu_j, u_j) above RANK_CUT give the rows
    sqrt(p_i mu_j) <u_j| of a factor F_i. The shared state purifies the
    average sum_i F_i^dag F_i on its rank space as sum_k sqrt(lambda_k)
    |k>|v_k>, so A is the rank space of sigma_B whatever the decomposition.
    Each v_k has its first amplitude above PHASE_CUT real positive, so the
    decompositions of a sigma_B with distinct eigenvalues share one state;
    within a degenerate eigenspace eigh's basis, and so A's, is set by
    rounding. Member i's effect is a^T a*, with a = F_i V / sqrt(lambda): a
    Gram matrix, so positive, and of the member's rank. The effects sum to
    the identity because the average is built from the same factors.
    """
    if len(d.members) > MAX_MEMBERS:
        raise DecompositionError(f"decompositions are capped at {MAX_MEMBERS} members")
    factors = []
    for p_i, state in d.members:
        mus, us = _rank_space(state.matrix)
        factors.append(np.sqrt(p_i * mus)[:, None] * us.conj().T)
    lams, vecs = _rank_space(sum(f.conj().T @ f for f in factors))
    psi = (np.sqrt(lams)[:, None] * vecs.T).reshape(-1)
    effects = [a.T @ a.conj() for a in (f @ vecs / np.sqrt(lams) for f in factors)]
    return assemblage_from(KetVector(psi / np.linalg.norm(psi)).projector(), len(lams),
                           d.sigma_b.dim, Povm(effects))


def steer(assemblage: SteeringAssemblage, outcome: int):
    """The (probability, heralded DensityOperator) that the assemblage's
    constructor computed for one outcome of the A measurement.

    MisuseError for an outcome that is not an index of the measurement, or
    whose probability is zero so that no conditional state exists.
    """
    if (isinstance(outcome, bool) or not isinstance(outcome, (int, np.integer))
            or not 0 <= outcome < assemblage.n_outcomes):
        raise MisuseError(f"outcome {outcome!r} out of range")
    result = assemblage.outcomes[outcome]
    if result is None:
        raise MisuseError(f"outcome {outcome} has zero probability; conditional undefined")
    return result


def assemblage_from(state_ab: DensityOperator, dim_a: int, dim_b: int,
                    povm_a: Povm) -> SteeringAssemblage:
    """The assemblage of an explicit state and measurement on A; its
    constructor computes what each outcome heralds, and outcomes with
    probability below ZERO_PROB are left out of the heralded set."""
    return SteeringAssemblage(state_ab, dim_a, dim_b, povm_a)
