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

from .errors import DecompositionError, MisuseError, ShapeError, check_instance
from .preparations import _normalize_ensemble
from .qcore import DensityOperator, KetVector, Povm, trace_norm
from .tolerances import ATOL, DTOL, NEG_ROUND, PHASE_CUT, RANK_CUT, ZERO_PROB

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

    A's dimension is the POVM's, and B's is the state's divided by it.

    The constructor is where nlbox conditions a bipartite state: it
    conditions on every effect at once and keeps the result. `outcomes[i]`
    is outcome i's (probability, heralded DensityOperator), or None when
    its probability is below ZERO_PROB and it heralds no state; `heralded`
    lists the outcomes that do, in order. The effects of a validated Povm
    sum to the identity, so the heralded set averages to the B marginal by
    construction and is not checked again.

    Each herald carries a bound on its negative part, so that eigvalsh runs only on
    a herald whose bound passes ATOL / 2 (a rare outcome's, say). Write rho and E
    for the stored state and an effect, e and f for their `_bound`s, n for the
    number of outcomes and d for the state's dimension. Outcome k's block is
    B = Tr_A[(E (x) I) rho]. With rho = rho_+ - rho_- and E = E_+ - E_-, B is
    at least -Tr_A[(E_+ (x) I) rho_-] - Tr_A[(E_- (x) I) rho_+], so
        Tr B_- <= ||E_+|| Tr rho_- + Tr E_- ||Tr_B rho_+|| <= N e + f T,
    where the effects sum to I + D with max |D_xy| <= ATOL, so that
    E_k <= I + D + sum_{j != k} (E_j)_- and ||E|| <= N = 1 + d_A ATOL + (n - 1) f,
    and T = 1 + ATOL + 2 e >= Tr|rho| >= Tr rho_+. The einsum sums d_A^2 complex
    products per entry, with an error of at most (d_A^2 + 2) 1.01 eps times the
    sum of the terms' moduli; the trace norm of that error is at most the sum of
    its entries' moduli, so at most (d_A^2 + 2) 1.01 eps N d T <= NEG_ROUND d_A^2 d N T.
    The herald is the Hermitian part of B / p, which passes (N e + f T +
    NEG_ROUND d_A^2 d N T) / p as `_neg`; its own NEG_ROUND d_B covers the rounding
    of the division and the Hermitian part.
    """

    state_ab: DensityOperator
    povm_a: Povm
    outcomes: tuple = field(init=False, repr=False)
    heralded: tuple = field(init=False, repr=False)

    def __post_init__(self):
        check_instance(self.state_ab, DensityOperator, "state_ab")
        check_instance(self.povm_a, Povm, "povm_a")
        dim_a = self.povm_a.dim
        dim_b, rest = divmod(self.state_ab.dim, dim_a)
        if rest:
            raise ShapeError(f"POVM dimension {dim_a} on A does not divide the "
                             f"bipartite dimension {self.state_ab.dim}")
        t = self.state_ab.matrix.reshape(dim_a, dim_b, dim_a, dim_b)
        blocks = np.einsum("kxa,ajxc->kjc", self.povm_a.effects, t)
        probs = np.einsum("kjj->k", blocks).real
        heralds = probs >= ZERO_PROB
        conds = blocks / np.where(heralds, probs, 1.0)[:, None, None]
        conds = 0.5 * (conds + conds.conj().transpose(0, 2, 1))  # 1/p may scale skew past ATOL
        e, f = self.state_ab._bound, self.povm_a._bound
        norm = 1 + dim_a * ATOL + (self.n_outcomes - 1) * f
        total = 1 + ATOL + 2 * e
        neg = norm * e + f * total + NEG_ROUND * dim_a ** 2 * self.state_ab.dim * norm * total
        outcomes = tuple((p, DensityOperator(c, _neg=neg / p)) if h else None
                         for p, h, c in zip(probs.tolist(), heralds, conds))
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "heralded", tuple(o for o in outcomes if o is not None))

    @property
    def dim_a(self) -> int:
        return self.povm_a.dim

    @property
    def dim_b(self) -> int:
        return self.state_ab.dim // self.dim_a

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
    The product's rounding is the effect's only negative part. a is r_i x r,
    with r_i the member's rank and r = rank sigma_B, so each entry of a^T a*
    sums r_i products with an error of at most (r_i + 2) 1.01 eps |a_j| |a_l|
    (columns a_j), and the error's trace norm is at most the sum of those,
    (r_i + 2) 1.01 eps (sum_j |a_j|)^2 <= NEG_ROUND r_i r ||a||_F^2: the
    largest of these over the members is the bound the POVM is given.
    """
    if len(d.members) > MAX_MEMBERS:
        raise DecompositionError(f"decompositions are capped at {MAX_MEMBERS} members")
    factors = []
    for p_i, state in d.members:
        mus, us = _rank_space(state.matrix)
        factors.append(np.sqrt(p_i * mus)[:, None] * us.conj().T)
    lams, vecs = _rank_space(sum(f.conj().T @ f for f in factors))
    psi = (np.sqrt(lams)[:, None] * vecs.T).reshape(-1)
    roots = [f @ vecs / np.sqrt(lams) for f in factors]
    neg = NEG_ROUND * max(a.size * float(np.vdot(a, a).real) for a in roots)
    return assemblage_from(KetVector(psi / np.linalg.norm(psi)).projector(),
                           Povm([a.T @ a.conj() for a in roots], _neg=neg))


def steer(assemblage: SteeringAssemblage, outcome: int):
    """The (probability, heralded DensityOperator) that the assemblage's
    constructor computed for one outcome of the A measurement.

    MisuseError for an outcome that is not an index of the measurement, or
    whose probability is zero so that no conditional state exists, and a
    ValidationError for an assemblage that is not a SteeringAssemblage.
    """
    check_instance(assemblage, SteeringAssemblage, "steer's assemblage")
    if (isinstance(outcome, bool) or not isinstance(outcome, (int, np.integer))
            or not 0 <= outcome < assemblage.n_outcomes):
        raise MisuseError(f"outcome {outcome!r} out of range")
    result = assemblage.outcomes[outcome]
    if result is None:
        raise MisuseError(f"outcome {outcome} has zero probability; conditional undefined")
    return result


def assemblage_from(state_ab: DensityOperator, povm_a: Povm) -> SteeringAssemblage:
    """The assemblage of an explicit state and measurement on A; its
    constructor computes what each outcome heralds, and outcomes with
    probability below ZERO_PROB are left out of the heralded set."""
    return SteeringAssemblage(state_ab, povm_a)
