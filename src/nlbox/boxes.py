"""The nonlinear boxes and their application rules.

Each box maps preparations to output density operators. A box config is
plain data whose `apply(rho)` is its map on a density; a Kent config holds
the Brun config it emulates. A membership policy decides which
preparations exhibit the nonlinear evolution; a semantics policy decides
whether a member box acts on the effective density or on each ensemble
member separately. Linear quantum mechanics holds for everything the
policy excludes. A pure input off the domain of a Brun box is always a
DomainError.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigurationError,
    ConvergenceError,
    DomainError,
    ShapeError,
    ValidationError,
)
from .preparations import (
    MembershipPolicy,
    Preparation,
    SpacetimeEvent,
    _mix,
    classify_membership,
    effective_density,
    in_past_light_cone,
    unconditioned_density,
)
from .qcore import (
    QUBIT0,
    DensityOperator,
    KetVector,
    Unitary,
    _freeze,
    _partial_trace_raw,
    _Validated,
    born_probabilities,
    computational_povm,
    tensor,
    trace_norm,
)
from .tolerances import ATOL, LOOP_FIXED_CUT, LOOP_RESIDUAL, OVERLAP_CUT, PURITY_MIN


class Semantics(str, Enum):
    STATE = "state"
    DECOMPOSITION = "decomposition"


@dataclass(frozen=True)
class BrunBoxConfig:
    """The basis-discriminating map on two non-identical orthonormal bases.

    The four domain states psi0, psi1, phi0, phi1 are sent to the four
    two-qubit computational basis states; the second input qubit |0> is
    supplied internally. The map is undefined on other pure states.
    """

    psi_basis: tuple
    phi_basis: tuple

    def __post_init__(self):
        for name, (b0, b1) in (("psi", self.psi_basis), ("phi", self.phi_basis)):
            if b0.dim != 2 or b1.dim != 2:
                raise ShapeError(f"{name} basis must be single-qubit kets")
            if not abs(b0.overlap(b1)) <= ATOL:
                raise ValidationError(f"{name} basis is not orthogonal")
        overlaps = [abs(p.overlap(q)) for p in self.psi_basis for q in self.phi_basis]
        if all(o < OVERLAP_CUT or o > 1 - OVERLAP_CUT for o in overlaps):
            raise ValidationError("psi and phi bases must be non-identical "
                                  "(some cross overlap strictly between 0 and 1)")

    @property
    def domain_states(self) -> tuple:
        return (self.psi_basis[0], self.psi_basis[1],
                self.phi_basis[0], self.phi_basis[1])

    def apply(self, rho: DensityOperator) -> DensityOperator:
        """Pure states follow the map (a DomainError off its domain); mixed
        states, on which the map is undefined, pass through with an
        untouched ancilla."""
        if rho.purity() >= PURITY_MIN:
            return brun_apply_pure(self, rho.principal_ket())
        return tensor(rho, QUBIT0)


# The map's four targets, the two-qubit computational basis states, built
# once; their arrays are read-only, so every output can share them.
_TWO_QUBIT_BASIS_STATES = tuple(DensityOperator(np.diag(row).astype(complex))
                                for row in np.eye(4))


def brun_apply_pure(config: BrunBoxConfig, input_ket: KetVector) -> DensityOperator:
    """Apply the basis-discriminating map to a pure one-qubit input.

    Domain inputs map to the corresponding two-qubit computational state;
    anything else is a domain error.
    """
    if input_ket.dim != 2:
        raise ShapeError("box input must be a single qubit")
    for i, state in enumerate(config.domain_states):
        if input_ket.fidelity(state) >= PURITY_MIN:
            return _TWO_QUBIT_BASIS_STATES[i]
    raise DomainError("input is not one of the four domain states, "
                      "off which the map is undefined")


@dataclass(frozen=True)
class DeutschBoxConfig:
    """A consistency-condition box: the state entering the loop equals the
    state exiting it, solved as a density-operator fixed point."""

    unitary: Unitary
    ctc_dim: int

    def __post_init__(self):
        if self.ctc_dim < 1:
            raise ValidationError("ctc_dim must be positive")
        if self.unitary.dim % self.ctc_dim != 0:
            raise ShapeError("unitary dim must be system_dim * ctc_dim")

    @property
    def system_dim(self) -> int:
        return self.unitary.dim // self.ctc_dim

    def apply(self, rho_in: DensityOperator) -> DensityOperator:
        """System output once the loop state is consistent."""
        star = deutsch_fixed_point(self, rho_in)
        dc = self.ctc_dim
        t = self.unitary.matrix.reshape(rho_in.dim, dc, rho_in.dim, dc)
        out = np.einsum("scxa,xy,ab,tcyb->st", t, rho_in.matrix, star.matrix, t.conj())
        return DensityOperator(0.5 * (out + out.conj().T))


def deutsch_fixed_point(config: DeutschBoxConfig, rho_in: DensityOperator) -> DensityOperator:
    """The canonical loop state: the Cesaro-mean limit of the loop map's
    iterates started from the maximally mixed state.

    That limit is the projection of I/dc onto ker(M - I) along ran(M - I),
    R (L^dag R)^-1 L^dag, where M is the loop superoperator
    sigma -> Tr_S[U (rho_in (x) sigma) U^dag] and the columns of R and L are
    the right and left singular vectors of M - I for singular values at most
    LOOP_FIXED_CUT. Raises ConvergenceError when L^dag R is singular or the
    result misses the consistency condition by more than LOOP_RESIDUAL.
    """
    if rho_in.dim != config.system_dim:
        raise ShapeError(f"input dim {rho_in.dim} != system dim {config.system_dim}")
    dc = config.ctc_dim
    t = config.unitary.matrix.reshape(rho_in.dim, dc, rho_in.dim, dc)
    m = np.einsum("scxa,xy,sdyb->cdab", t, rho_in.matrix, t.conj()).reshape(dc * dc, dc * dc)
    try:
        w, svals, vh = np.linalg.svd(m - np.eye(dc * dc))
        fixed = svals <= LOOP_FIXED_CUT
        l_dag, r = w[:, fixed].conj().T, vh[fixed].conj().T
        coeffs = np.linalg.solve(l_dag @ r, l_dag @ (np.eye(dc) / dc).reshape(-1))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"no loop fixed-point projector: {exc}", residual=np.inf) from exc
    sigma = (r @ coeffs).reshape(dc, dc)
    sigma = 0.5 * (sigma + sigma.conj().T)
    sigma = sigma / np.trace(sigma).real
    residual = trace_norm((m @ sigma.reshape(-1)).reshape(dc, dc) - sigma)
    if not residual <= LOOP_RESIDUAL:
        raise ConvergenceError(f"fixed-point residual {residual} exceeds {LOOP_RESIDUAL}",
                               residual=residual)
    return DensityOperator(sigma)


@dataclass(frozen=True)
class KentBoxConfig:
    """A readout box emulating a basis-discriminating map: it emits the
    density matrix knowable from classical data in its past light cone,
    then re-prepares."""

    brun: BrunBoxConfig

    def __post_init__(self):
        if not isinstance(self.brun, BrunBoxConfig):
            raise ConfigurationError("a Kent box needs a BrunBoxConfig to emulate")

    def apply(self, readout: DensityOperator) -> DensityOperator:
        """The Brun map on the readout, except that a pure readout off its
        domain passes through with an untouched ancilla, as a mixed one does."""
        try:
            return self.brun.apply(readout)
        except DomainError:
            return tensor(readout, QUBIT0)


@dataclass(frozen=True)
class LinearBoxConfig(_Validated):
    """An ordinary CPTP channel in box clothing, for control experiments.

    Kraus operators may be rectangular, d_out x d_in: 4 x 2 operators send
    one qubit to two, so the output space matches the two-qubit boxes.
    """

    kraus: np.ndarray  # read-only (n, d_out, d_in); any sequence of matrices is accepted

    def __post_init__(self):
        mats = _freeze(self, "kraus", self.kraus)
        if mats.ndim != 3 or mats.size == 0:
            raise ShapeError("channel needs one or more Kraus matrices of one shape")
        total = np.einsum("kai,kaj->ij", mats.conj(), mats)
        if not float(np.max(np.abs(total - np.eye(mats.shape[2])))) <= ATOL:
            raise ValidationError("Kraus operators are not trace preserving")

    def apply(self, rho: DensityOperator) -> DensityOperator:
        if rho.dim != self.kraus.shape[2]:
            raise ShapeError("channel input dimension mismatch")
        out = np.einsum("kab,bc,kdc->ad", self.kraus, rho.matrix, self.kraus.conj())
        return DensityOperator(0.5 * (out + out.conj().T))


@dataclass(frozen=True)
class NonlinearBox:
    """A bounded spacetime region applying a state map under a semantics
    and membership policy; linear quantum mechanics holds outside it."""

    config: BrunBoxConfig | DeutschBoxConfig | KentBoxConfig | LinearBoxConfig
    box_event: SpacetimeEvent
    semantics: Semantics
    membership: MembershipPolicy

    def __post_init__(self):
        if not isinstance(self.config, (BrunBoxConfig, DeutschBoxConfig,
                                        KentBoxConfig, LinearBoxConfig)):
            raise ConfigurationError(f"unknown box config {type(self.config).__name__}")


def kent_readout(p: Preparation, box_event: SpacetimeEvent) -> DensityOperator:
    """What a readout box learns about a preparation.

    If every provenance record lies in the box's past light cone the
    realized identity is knowable and the readout is the effective
    density (the realized member, for singleton ensembles). Otherwise the
    readout is the unconditioned mixture: heralded states prepared from
    outside the light cone appear mixed.
    """
    knowable = all(in_past_light_cone(e, box_event) for e in p.provenance.records)
    return effective_density(p) if knowable else unconditioned_density(p)


def apply_box(box: NonlinearBox, p: Preparation) -> DensityOperator:
    """Send a preparation through a box.

    Non-members see only linear physics: the box acts on the density the
    policy leaves visible (identity-with-ancilla for the
    basis-discriminating map, the plain channel otherwise). Members evolve
    under the box map, either on the effective density (state semantics)
    or member by member (decomposition semantics).
    """
    member = classify_membership(p, box.membership)
    cfg = box.config

    if not member:
        if isinstance(cfg, KentBoxConfig):
            return cfg.apply(kent_readout(p, box.box_event))
        # Excluded heralded preparations present their unconditioned
        # mixture: the heralding record is exactly the information the
        # policy says is not available to the box.
        rho = unconditioned_density(p)
        if isinstance(cfg, BrunBoxConfig):
            return tensor(rho, QUBIT0)
        return cfg.apply(rho)

    if box.semantics is Semantics.DECOMPOSITION:
        return _mix([(w, cfg.apply(state)) for w, state in p.ensemble])
    return cfg.apply(effective_density(p))


def box_output_qubit_distribution(out: DensityOperator) -> np.ndarray:
    """Computational-basis distribution of the first output qubit."""
    if out.dim == 2:
        reduced = out
    elif out.dim == 4:
        reduced = DensityOperator(_partial_trace_raw(out.matrix, (2, 2), [0]))
    else:
        raise ShapeError(f"unexpected box output dimension {out.dim}")
    return born_probabilities(reduced, computational_povm(2))
