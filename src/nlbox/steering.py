"""Remote preparation via steering.

For any finite decomposition of a marginal density matrix there is a
bipartite state and a measurement on the distant half that heralds exactly
that decomposition. This module constructs such assemblages and evaluates
the heralded states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionError, MisuseError, ShapeError, ValidationError
from .preparations import _normalize_ensemble
from .qcore import (
    DensityOperator,
    KetVector,
    Povm,
    _partial_trace_raw,
    _phase_fix,
    trace_norm,
)
from .tolerances import DTOL, EIG_TIE_DIGITS, RANK_CUT, ZERO_PROB

# Decompositions beyond this many members are rejected.
MAX_MEMBERS = 16


@dataclass(frozen=True)
class EnsembleDecomposition:
    """A target decomposition sigma_B = sum_i p_i rho_i."""

    sigma_b: DensityOperator
    members: tuple

    def __post_init__(self):
        members = _normalize_ensemble(self.members, "decomposition")
        if members[0][1].dim != self.sigma_b.dim:
            raise ShapeError("member dimension differs from sigma_B")
        avg = sum(w * s.matrix for w, s in members)
        gap = 0.5 * trace_norm(avg - self.sigma_b.matrix)
        if not gap <= DTOL:
            raise DecompositionError(
                f"members average {gap} away from sigma_B (tolerance {DTOL})")
        object.__setattr__(self, "members", members)

    @property
    def n_members(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class SteeringAssemblage:
    """A bipartite state plus a measurement on A heralding a decomposition."""

    state_ab: DensityOperator
    dim_a: int
    dim_b: int
    povm_a: Povm
    heralded: tuple

    def __post_init__(self):
        if self.dim_a * self.dim_b != self.state_ab.dim:
            raise ShapeError("dim_a * dim_b must equal the bipartite dimension")
        if self.povm_a.dim != self.dim_a:
            raise ShapeError("POVM acts on A, dimensions differ")
        marginal = _partial_trace_raw(self.state_ab.matrix, (self.dim_a, self.dim_b), [1])
        avg = sum(w * s.matrix for w, s in self.heralded)
        gap = 0.5 * trace_norm(avg - marginal)
        if not gap <= DTOL:
            raise ValidationError(
                f"heralded ensemble averages {gap} away from the B marginal")
        object.__setattr__(self, "heralded", tuple(self.heralded))

    @property
    def n_outcomes(self) -> int:
        return self.povm_a.n_outcomes


def _sorted_eig(sigma: DensityOperator):
    """Eigendecomposition with eigenvalues descending, phase-fixed vectors,
    and lexicographic tie-breaking within degenerate eigenvalues."""
    evals, evecs = np.linalg.eigh(sigma.matrix)
    vecs = [_phase_fix(v) for v in evecs.T]

    def key(k):
        parts = (-float(evals[k]),) + tuple(x for a in vecs[k] for x in (a.real, a.imag))
        return tuple(round(x, EIG_TIE_DIGITS) for x in parts)

    order = sorted(range(len(evals)), key=key)
    return evals[order], np.column_stack([vecs[k] for k in order])


def _rank_space(sigma: DensityOperator):
    """(eigenvalues above RANK_CUT, their eigenvectors as columns, the
    canonical purification's amplitudes), in _sorted_eig order."""
    lams, vecs = _sorted_eig(sigma)
    keep = lams > RANK_CUT
    lams, vecs = lams[keep], vecs[:, keep]
    amps = (np.sqrt(lams)[:, None] * vecs.T).reshape(-1)
    return lams, vecs, amps / np.linalg.norm(amps)


def purify(sigma_b: DensityOperator) -> KetVector:
    """Canonical purification on A (x) B with dim(A) = rank(sigma_B).

    Eigenvalues descending, each eigenvector's first nonzero amplitude made
    real positive, ties broken lexicographically. Canonical only for
    bit-identical input: within a degenerate eigenspace the basis is set by
    rounding, so equal densities built differently can purify in different
    bases of A.
    """
    return KetVector(_rank_space(sigma_b)[2])


def _hjw_povm_vectors(lams, basis_vecs, weights, members):
    """Measurement vectors a_i on the rank space of the average state, one
    row per member vector phi_i (the rows of `members`).

    Each effect |a_i><a_i| heralds sqrt(p_i)|phi_i> from the canonical
    purification; the a_i resolve the identity automatically because the
    members average to the purified state's marginal.
    """
    return np.sqrt(weights)[:, None] * (members.conj() @ basis_vecs) / np.sqrt(lams)


def hjw_assemblage(d: EnsembleDecomposition) -> SteeringAssemblage:
    """Build a bipartite state and measurement on A realizing a decomposition.

    Each member is purified into an auxiliary factor C^m, m the largest
    member rank, and that factor is absorbed into A; for an all-pure
    decomposition m = 1 and A is the rank space of sigma_B.
    """
    if d.n_members > MAX_MEMBERS:
        raise DecompositionError(f"decompositions are capped at {MAX_MEMBERS} members")
    dim_b = d.sigma_b.dim
    purs = [_rank_space(state)[2] for _, state in d.members]
    m = max(len(chi) for chi in purs) // dim_b
    padded = np.array([np.pad(chi, (0, m * dim_b - len(chi))) for chi in purs])
    weights = np.array([w for w, _ in d.members])
    sigma_prime = DensityOperator(np.einsum("i,ia,ib->ab", weights, padded, padded.conj()))

    # The purification lives on C^r (x) (C^m (x) C^dim_b).
    lams, vecs, psi = _rank_space(sigma_prime)
    a = _hjw_povm_vectors(lams, vecs, weights, padded)
    r = len(lams)
    effects = np.einsum("ia,ib,xy->iaxby", a, a.conj(), np.eye(m)).reshape(-1, r * m, r * m)
    return SteeringAssemblage(KetVector(psi).projector(), r * m, dim_b, Povm(effects),
                              d.members)


def _condition(state_ab: DensityOperator, dim_a: int, dim_b: int, effects: np.ndarray):
    """For each effect of a (k, dim_a, dim_a) stack on A, (probability,
    heralded DensityOperator), or None when the effect has zero probability
    and no conditional state."""
    t = state_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
    blocks = np.einsum("kxa,ajxc->kjc", effects, t)
    probs = np.einsum("kjj->k", blocks).real
    heralds = probs >= ZERO_PROB
    conds = blocks / np.where(heralds, probs, 1.0)[:, None, None]
    conds = 0.5 * (conds + conds.conj().transpose(0, 2, 1))
    return [(float(p), DensityOperator(c)) if h else None
            for p, h, c in zip(probs, heralds, conds)]


def steer(assemblage: SteeringAssemblage, outcome: int):
    """Condition B on an outcome of the A measurement.

    Returns (probability, heralded DensityOperator).
    """
    if not 0 <= outcome < assemblage.n_outcomes:
        raise MisuseError(f"outcome {outcome} out of range")
    result = _condition(assemblage.state_ab, assemblage.dim_a, assemblage.dim_b,
                        assemblage.povm_a.effects[outcome:outcome + 1])[0]
    if result is None:
        raise MisuseError(f"outcome {outcome} has zero probability; conditional undefined")
    return result


def assemblage_from(state_ab: DensityOperator, dim_a: int, dim_b: int,
                    povm_a: Povm) -> SteeringAssemblage:
    """Wrap an explicit state and measurement, computing the heralded set.

    Zero-probability outcomes contribute nothing to the marginal and are
    left out of the heralded set.
    """
    conditioned = _condition(state_ab, dim_a, dim_b, povm_a.effects)
    heralded = tuple(c for c in conditioned if c is not None)
    return SteeringAssemblage(state_ab, dim_a, dim_b, povm_a, heralded)
