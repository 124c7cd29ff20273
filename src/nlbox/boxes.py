"""The nonlinear boxes and their application rules.

Each box maps preparations to output density operators. A box config is
plain data whose `apply(rho)` is its map on a density; a Kent config is a
Brun config whose `apply` lets a pure readout off the domain pass. A
membership policy decides which preparations exhibit the nonlinear
evolution; a semantics policy decides whether a member box acts on the
effective density or on each ensemble member separately, and each config's
`apply_excluded(p, box_event)` decides what a preparation the policy
excludes shows. A pure input off a plain Brun box's domain is a DomainError.
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
    check_integer,
)
from .preparations import (
    MembershipPolicy,
    PolicyKind,
    Preparation,
    SpacetimeEvent,
    _enum_member,
    _mix,
    classify_membership,
    effective_density,
    in_past_light_cone,
)
from .qcore import (
    QUBIT0,
    DensityOperator,
    KetVector,
    Unitary,
    _freeze,
    _hermitian_basis,
    _Validated,
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
        for name, basis in (("psi", self.psi_basis), ("phi", self.phi_basis)):
            if not (isinstance(basis, tuple) and len(basis) == 2
                    and all(isinstance(k, KetVector) for k in basis)):
                raise ConfigurationError(f"{name} basis must be a tuple of two KetVectors")
            b0, b1 = basis
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
        """The map on a one-qubit density (a ShapeError otherwise): a pure input
        goes to the target of the first domain state s with <s|rho|s> >= PURITY_MIN
        (a DomainError if none), and a mixed one, on which the map is undefined,
        passes through with an untouched ancilla."""
        if rho.dim != 2:
            raise ShapeError("box input must be a single qubit")
        if rho.purity() < PURITY_MIN:
            return tensor(rho, QUBIT0)
        for state, target in zip(self.domain_states, _TWO_QUBIT_BASIS_STATES):
            if np.vdot(state.amplitudes, rho.matrix.dot(state.amplitudes)).real >= PURITY_MIN:
                return target
        raise DomainError("input is not one of the four domain states, "
                          "off which the map is undefined")

    def apply_excluded(self, p: Preparation, box_event: SpacetimeEvent) -> DensityOperator:
        """An excluded preparation's unconditioned state with an untouched
        ancilla: the heralding record is exactly the information the policy
        says is not available to the box."""
        return tensor(p.unconditioned, QUBIT0)


# The map's four targets, the two-qubit computational basis states, built
# once; their arrays are read-only, so every output can share them.
_TWO_QUBIT_BASIS_STATES = tuple(DensityOperator(np.diag(row).astype(complex))
                                for row in np.eye(4))


@dataclass(frozen=True)
class DeutschBoxConfig:
    """A consistency-condition box: the state entering the loop equals the
    state exiting it, solved as a density-operator fixed point."""

    unitary: Unitary
    ctc_dim: int

    def __post_init__(self):
        if not isinstance(self.unitary, Unitary):
            raise ConfigurationError("a Deutsch box needs a Unitary")
        check_integer(self.ctc_dim, "ctc_dim", least=1)
        if self.unitary.dim % self.ctc_dim != 0:
            raise ShapeError("unitary dim must be system_dim * ctc_dim")

    @property
    def system_dim(self) -> int:
        return self.unitary.dim // self.ctc_dim

    def apply(self, rho_in: DensityOperator) -> DensityOperator:
        """System output once the loop state is consistent."""
        star = deutsch_fixed_point(self, rho_in)
        u, n, ds = self.unitary.matrix, self.unitary.dim, rho_in.dim
        joint = (rho_in.matrix[:, None, :, None] * star.matrix[None, :, None, :]).reshape(n, n)
        # Tr_C[U X U^dag][s, t] = sum over (c, j) of (U X)[(s, c), j] conj(U)[(t, c), j].
        out = (u @ joint).reshape(ds, -1) @ u.conj().reshape(ds, -1).T
        return DensityOperator(0.5 * (out + out.conj().T))

    def apply_excluded(self, p: Preparation, box_event: SpacetimeEvent) -> DensityOperator:
        """The loop acting on an excluded preparation's unconditioned state."""
        return self.apply(p.unconditioned)


def deutsch_fixed_point(config: DeutschBoxConfig, rho_in: DensityOperator) -> DensityOperator:
    """The canonical loop state: the Cesaro-mean limit of the loop map's
    iterates started from the maximally mixed state.

    The loop superoperator M: sigma -> Tr_S[U (rho_in (x) sigma) U^dag] preserves
    Hermiticity, so it is solved in real coordinates, as its real matrix R in the
    Hermitian basis of `qcore`. The limit projects the coordinates of I/dc onto
    ker(R - I) along ran(R - I), F (L^T F)^-1 L^T, where the columns of F and L
    are the right and left singular vectors of R - I for its f singular values at
    most LOOP_FIXED_CUT. Only f > 1 needs those vectors (a full SVD). For f = 1, L
    is the trace row t, as t^T (R - I) = 0, and [[R - I, t], [t^T, 0]] [h; 0] =
    [0; 1] gives the fixed point h of trace 1. Raises ConvergenceError when f = 0,
    a solve is singular, or h misses consistency by more than LOOP_RESIDUAL.
    """
    if rho_in.dim != config.system_dim:
        raise ShapeError(f"input dim {rho_in.dim} != system dim {config.system_dim}")
    dc = config.ctc_dim
    n = dc * dc
    t = config.unitary.matrix.reshape(rho_in.dim, dc, rho_in.dim, dc)
    # M[(c, d), (a, b)] = sum_sy k[(c, a), (s, y)] conj(t[s, d, y, b]).
    k = np.einsum("scxa,xy->casy", t, rho_in.matrix).reshape(n, -1)
    m = (k @ t.conj().transpose(0, 2, 1, 3).reshape(-1, n)).reshape(dc, dc, dc, dc)
    basis = _hermitian_basis(dc)
    a = (basis.conj() @ m.transpose(0, 2, 1, 3).reshape(n, n) @ basis.T).real - np.eye(n)
    try:
        svals = np.linalg.svd(a, compute_uv=False)
        n_fixed = np.count_nonzero(svals <= LOOP_FIXED_CUT)
        if n_fixed == 0:
            raise ConvergenceError(f"no loop fixed point: smallest singular value of R - I "
                                   f"{svals[-1]} exceeds {LOOP_FIXED_CUT}", residual=np.inf)
        if n_fixed == 1:
            border = np.zeros((n + 1, n + 1))
            border[:n, :n] = a
            border[:dc, n] = border[n, :dc] = 1.0
            h = np.linalg.solve(border, np.eye(n + 1)[n])[:n]
        else:
            w, _, vt = np.linalg.svd(a)
            l_t, f = w[:, n - n_fixed:].T, vt[n - n_fixed:].T
            # L^T times (1/dc, ..., 1/dc, 0, ..., 0), the coordinates of I/dc.
            h = f @ np.linalg.solve(l_t @ f, l_t[:, :dc].sum(axis=1) / dc)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"no loop fixed-point projector: {exc}", residual=np.inf) from exc
    h = h / h[:dc].sum()
    residual = trace_norm((a @ h @ basis).reshape(dc, dc))
    if not residual <= LOOP_RESIDUAL:
        raise ConvergenceError(f"fixed-point residual {residual} exceeds {LOOP_RESIDUAL}",
                               residual=residual)
    return DensityOperator((h @ basis).reshape(dc, dc))


@dataclass(frozen=True)
class KentBoxConfig(BrunBoxConfig):
    """A readout box emulating a basis-discriminating map: it emits the
    density matrix knowable from classical data in its past light cone,
    then re-prepares."""

    def apply(self, readout: DensityOperator) -> DensityOperator:
        """The Brun map on the readout, except that a pure readout off its
        domain passes through with an untouched ancilla, as a mixed one does."""
        try:
            return super().apply(readout)
        except DomainError:
            return tensor(readout, QUBIT0)

    def apply_excluded(self, p: Preparation, box_event: SpacetimeEvent) -> DensityOperator:
        """The map on what the box's past light cone knows of an excluded
        preparation: its effective density (the realized member, for one-member
        ensembles) if every provenance record lies in the cone, else the
        unconditioned state, the marginal a heralded state was steered from."""
        knowable = all(in_past_light_cone(e, box_event) for e in p.provenance.records)
        return self.apply(effective_density(p) if knowable else p.unconditioned)


@dataclass(frozen=True, eq=False)
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

    def apply_excluded(self, p: Preparation, box_event: SpacetimeEvent) -> DensityOperator:
        """The channel on the effective density: a linear box ignores membership."""
        return self.apply(effective_density(p))


@dataclass(frozen=True)
class NonlinearBox:
    """A bounded spacetime region applying a state map under a semantics
    and membership policy; linear quantum mechanics holds outside it."""

    config: BrunBoxConfig | DeutschBoxConfig | LinearBoxConfig  # a KentBoxConfig is a Brun one
    box_event: SpacetimeEvent
    semantics: Semantics
    membership: MembershipPolicy

    def __post_init__(self):
        object.__setattr__(self, "semantics", _enum_member(Semantics, self.semantics))
        if not isinstance(self.config, (BrunBoxConfig, DeutschBoxConfig, LinearBoxConfig)):
            raise ConfigurationError(f"unknown box config {type(self.config).__name__}")
        if not isinstance(self.box_event, SpacetimeEvent):
            raise ConfigurationError(f"a box's event must be a SpacetimeEvent, got {self.box_event!r}")
        if not isinstance(self.membership, MembershipPolicy):
            raise ConfigurationError("a box's membership must be a MembershipPolicy")
        if (self.membership.kind is PolicyKind.KENT_LIGHT_CONE
                and self.membership.box_event != self.box_event):
            raise ConfigurationError("a kent_light_cone policy reads the box's own event "
                                     f"{self.box_event}, not {self.membership.box_event}")


def apply_box(box: NonlinearBox, p: Preparation) -> DensityOperator:
    """Send a preparation through a box.

    Non-members show what their config's `apply_excluded` decides. Members
    evolve under the box map, either on the effective density (state
    semantics) or member by member (decomposition semantics).
    """
    if not classify_membership(p, box.membership):
        return box.config.apply_excluded(p, box.box_event)
    if box.semantics is Semantics.DECOMPOSITION:
        return _mix([(w, box.config.apply(state)) for w, state in p.ensemble])
    return box.config.apply(effective_density(p))

