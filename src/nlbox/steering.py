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
from .qcore import (
    DensityOperator,
    KetVector,
    Povm,
    _partial_trace_raw,
    _phase_fix,
)
from .tolerances import ATOL, DTOL, PURITY_MIN, RANK_CUT, ZERO_PROB

# Decompositions beyond this many members are rejected.
MAX_MEMBERS = 16


@dataclass(frozen=True)
class EnsembleDecomposition:
    """A target decomposition sigma_B = sum_i p_i rho_i."""

    sigma_b: DensityOperator
    members: tuple

    def __post_init__(self):
        members = tuple((float(w), state) for w, state in self.members)
        if not members:
            raise DecompositionError("decomposition needs at least one member")
        total = 0.0
        for w, state in members:
            if not w > 0:
                raise DecompositionError(f"member weight {w} must be positive")
            if state.dim != self.sigma_b.dim:
                raise ShapeError("member dimension differs from sigma_B")
            total += w
        if not abs(total - 1.0) <= ATOL:
            raise DecompositionError(f"member weights sum to {total}, not 1")
        avg = sum(w * s.matrix for w, s in members)
        gap = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(avg - self.sigma_b.matrix))))
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
        marginal = DensityOperator(
            _partial_trace_raw(self.state_ab.matrix, (self.dim_a, self.dim_b), [1]))
        avg = sum(w * s.matrix for w, s in self.heralded)
        gap = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(avg - marginal.matrix))))
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
    cols = [(float(evals[k]), _phase_fix(evecs[:, k])) for k in range(len(evals))]

    def key(item):
        lam, v = item
        lex = tuple(x for a in v for x in (round(a.real, 12), round(a.imag, 12)))
        return (-round(lam, 12),) + lex

    cols.sort(key=key)
    lams = np.array([c[0] for c in cols])
    vecs = np.column_stack([c[1] for c in cols])
    return lams, vecs


def purify(sigma_b: DensityOperator) -> KetVector:
    """Canonical purification on A (x) B with dim(A) = rank(sigma_B).

    Deterministic: eigenvalues descending, each eigenvector's first nonzero
    amplitude made real positive, ties broken lexicographically.
    """
    lams, vecs = _sorted_eig(sigma_b)
    keep = lams > RANK_CUT
    lams = lams[keep]
    vecs = vecs[:, keep]
    amps = (np.sqrt(lams)[:, None] * vecs.T).reshape(-1)
    amps = amps / np.linalg.norm(amps)
    return KetVector(amps)


def _pure_member_vectors(d: EnsembleDecomposition):
    """Unit vectors of an all-pure decomposition, in member order."""
    vecs = []
    for _, state in d.members:
        if state.purity() < PURITY_MIN:
            return None
        vecs.append(state.principal_ket().amplitudes)
    return vecs


def _hjw_povm_vectors(lams, basis_vecs, members):
    """Measurement vectors a_i on the rank space of the average state.

    Each effect |a_i><a_i| heralds sqrt(p_i)|phi_i> from the canonical
    purification; the a_i resolve the identity automatically because the
    members average to the purified state's marginal.
    """
    r = len(lams)
    out = []
    for p_i, phi in members:
        a = np.array([np.sqrt(p_i) * np.vdot(phi, basis_vecs[:, k]) / np.sqrt(lams[k])
                      for k in range(r)])
        out.append(a)
    return out


def hjw_assemblage(d: EnsembleDecomposition) -> SteeringAssemblage:
    """Build a bipartite state and measurement on A realizing a decomposition.

    All-pure decompositions use the rank space of sigma_B directly; mixed
    members are purified into an auxiliary factor that is absorbed into A.
    """
    if d.n_members > MAX_MEMBERS:
        raise DecompositionError(f"decompositions are capped at {MAX_MEMBERS} members")
    dim_b = d.sigma_b.dim
    pure_vecs = _pure_member_vectors(d)

    if pure_vecs is not None:
        lams, vecs = _sorted_eig(d.sigma_b)
        keep = lams > RANK_CUT
        lams, vecs = lams[keep], vecs[:, keep]
        dim_a = len(lams)
        psi = purify(d.sigma_b)
        a_vecs = _hjw_povm_vectors(lams, vecs, list(zip([w for w, _ in d.members], pure_vecs)))
        effects = tuple(np.outer(a, a.conj()) for a in a_vecs)
        state_ab = psi.projector()
        povm = Povm(effects)
        heralded = d.members
        return SteeringAssemblage(state_ab, dim_a, dim_b, povm, heralded)

    # General path: purify each member into an auxiliary factor of fixed size.
    ranks = []
    member_purs = []
    for _, state in d.members:
        chi = purify(state)
        ranks.append(chi.dim // dim_b)
        member_purs.append(chi)
    m = max(ranks)
    padded = []
    for chi in member_purs:
        block = chi.amplitudes.reshape(-1, dim_b)
        full = np.zeros((m, dim_b), dtype=complex)
        full[: block.shape[0], :] = block
        padded.append(full.reshape(-1))
    sigma_prime = DensityOperator(
        sum(w * np.outer(v, v.conj()) for (w, _), v in zip(d.members, padded)))

    lams, vecs = _sorted_eig(sigma_prime)
    keep = lams > RANK_CUT
    lams, vecs = lams[keep], vecs[:, keep]
    r = len(lams)
    psi = purify(sigma_prime)  # lives on C^r (x) (C^m (x) C^dim_b)
    a_vecs = _hjw_povm_vectors(lams, vecs, list(zip([w for w, _ in d.members], padded)))
    dim_a = r * m
    effects = tuple(np.kron(np.outer(a, a.conj()), np.eye(m)) for a in a_vecs)
    state_ab = psi.projector()
    povm = Povm(effects)
    return SteeringAssemblage(state_ab, dim_a, dim_b, povm, d.members)


def _condition(state_ab: DensityOperator, dim_a: int, dim_b: int, effect: np.ndarray):
    """(probability, heralded DensityOperator) for one effect on A, or
    None when the effect has zero probability and no conditional state."""
    weighted = np.kron(effect, np.eye(dim_b)) @ state_ab.matrix
    prob = float(np.trace(weighted).real)
    if prob < ZERO_PROB:
        return None
    cond = _partial_trace_raw(weighted, (dim_a, dim_b), [1]) / prob
    cond = 0.5 * (cond + cond.conj().T)
    return prob, DensityOperator(cond)


def steer(assemblage: SteeringAssemblage, outcome: int):
    """Condition B on an outcome of the A measurement.

    Returns (probability, heralded DensityOperator).
    """
    if not 0 <= outcome < assemblage.n_outcomes:
        raise MisuseError(f"outcome {outcome} out of range")
    result = _condition(assemblage.state_ab, assemblage.dim_a, assemblage.dim_b,
                        assemblage.povm_a.effects[outcome])
    if result is None:
        raise MisuseError(f"outcome {outcome} has zero probability; conditional undefined")
    return result


def assemblage_from(state_ab: DensityOperator, dim_a: int, dim_b: int,
                    povm_a: Povm) -> SteeringAssemblage:
    """Wrap an explicit state and measurement, computing the heralded set.

    Zero-probability outcomes contribute nothing to the marginal and are
    left out of the heralded set.
    """
    conditioned = (_condition(state_ab, dim_a, dim_b, e) for e in povm_a.effects)
    heralded = tuple(c for c in conditioned if c is not None)
    return SteeringAssemblage(state_ab, dim_a, dim_b, povm_a, heralded)
