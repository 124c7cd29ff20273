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

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache

import numpy as np

from .errors import (
    CapacityError,
    ConfigurationError,
    ConvergenceError,
    DomainError,
    ShapeError,
    ValidationError,
    check_instance,
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
from .tolerances import (ATOL, LOOP_FIXED_CUT, LOOP_GAP, LOOP_RESIDUAL, MAX_LOOP_DIM,
                         MAX_TENSOR_DIM, OVERLAP_CUT, PURITY_MIN)


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
class DeutschBoxConfig(_Validated):
    """A consistency-condition box: the state entering the loop equals the
    state exiting it, solved as a density-operator fixed point. `_loop_tensor`,
    T, holds the loop map's real matrix R, linear in the input, on each G_g of
    `_loop_entries`: ds^2 dc^4 floats, so ds dc^2 is capped at MAX_TENSOR_DIM.
    Each array of T's build is O(T), the largest its gather, 4 T."""

    unitary: Unitary
    ctc_dim: int
    _loop_tensor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.unitary, Unitary):
            raise ConfigurationError("a Deutsch box needs a Unitary")
        check_integer(self.ctc_dim, "ctc_dim", least=1)
        if self.ctc_dim > MAX_LOOP_DIM:
            raise CapacityError(f"ctc_dim {self.ctc_dim} exceeds the loop dimension cap "
                                f"{MAX_LOOP_DIM}")
        if self.unitary.dim % self.ctc_dim != 0:
            raise ShapeError("unitary dim must be system_dim * ctc_dim")
        if self.unitary.dim * self.ctc_dim > MAX_TENSOR_DIM:
            raise CapacityError(f"system dim times ctc_dim**2, {self.unitary.dim * self.ctc_dim},"
                                f" exceeds the loop tensor cap {MAX_TENSOR_DIM}")
        # Row g of T is R.flat on G_g (see `_loop_entries`), gathered from the loop map's entries.
        idx, w = _loop_plan(self.ctc_dim)
        m = _loop_entries(self.unitary.matrix, self.system_dim, self.ctc_dim)
        r = np.einsum("qij,ij->qi", m.take(idx, axis=1), w)
        r.setflags(write=False)
        object.__setattr__(self, "_loop_tensor", r)

    @property
    def system_dim(self) -> int:
        return self.unitary.dim // self.ctc_dim

    def apply(self, rho_in: DensityOperator) -> DensityOperator:
        """System output once the loop state is consistent with rho_in."""
        return self.loop_channel(deutsch_fixed_point(self, rho_in), rho_in)

    def loop_channel(self, star: DensityOperator, rho: DensityOperator) -> DensityOperator:
        """Tr_C[U (rho (x) star) U^dag]: the linear channel on rho of the loop held at star."""
        u, n, ds = self.unitary.matrix, self.unitary.dim, rho.dim
        joint = (rho.matrix[:, None, :, None] * star.matrix[None, :, None, :]).reshape(n, n)
        # Tr_C[U X U^dag][s, t] = sum over (c, j) of (U X)[(s, c), j] conj(U)[(t, c), j].
        return DensityOperator((u @ joint).reshape(ds, -1) @ u.conj().reshape(ds, -1).T,
                               _neg=rho._bound + star._bound + 2 * rho._bound * star._bound)

    def apply_excluded(self, p: Preparation, box_event: SpacetimeEvent) -> DensityOperator:
        """The loop held consistent with the unconditioned state, acting on the
        effective density: the heralding record may not steer the loop state,
        yet the system the box receives keeps its correlations."""
        return self.loop_channel(deutsch_fixed_point(self, p.unconditioned), effective_density(p))


def deutsch_fixed_point(config: DeutschBoxConfig, rho_in: DensityOperator) -> DensityOperator:
    """The canonical loop state: the Cesaro-mean limit of the loop map's
    iterates started from the maximally mixed state.

    The loop superoperator M: sigma -> Tr_S[U (rho_in (x) sigma) U^dag] preserves
    Hermiticity, so it is solved in real coordinates, as its real matrix R in the
    Hermitian basis of `qcore`; R is linear in rho_in, so R - I is read from the
    config's loop tensor (see `_loop_minus_identity`). The limit projects I/dc's
    coordinates onto ker(R - I) along ran(R - I), F (L^T F)^-1 L^T, the columns of
    F and L the right and left singular vectors of R - I for its f singular values
    at most LOOP_FIXED_CUT. For f = 1, L is the trace row t, as t^T (R - I) = 0, and
    the bordered matrix B = [[R - I, t], [t^T, 0]] gives the fixed point h of
    trace 1 from B [h; 0] = [0; 1]. The generic loop, f = 1, is certified
    without an SVD (see `_one_fixed_direction`); any other loop (I (x) V, the
    identity, a loop that only nearly has a second fixed direction) falls back
    to the values-only SVD of R - I, whose count decides: f = 1 takes the same
    bordered solve, f > 1 the full SVD projector. Raises ConvergenceError when
    f = 0, a solve is singular, or h misses consistency by more than LOOP_RESIDUAL.

    Consistency is the trace norm of the residual matrix M(sigma) - sigma, whose
    coordinates are (R - I) h. The basis is orthonormal, so sqrt(dc) ||(R - I) h||_2
    bounds that norm, and a bound within LOOP_RESIDUAL accepts h with no
    eigenvalues. Only when the bound fails is the exact trace norm computed; it
    then decides, and it is the residual a ConvergenceError carries.
    """
    if rho_in.dim != config.system_dim:
        raise ShapeError(f"input dim {rho_in.dim} != system dim {config.system_dim}")
    dc = config.ctc_dim
    n = dc * dc
    a = _loop_minus_identity(config, rho_in)
    basis = _hermitian_basis(dc)
    border = np.zeros((n + 1, n + 1))
    border[:n, :n] = a
    border[:dc, n] = border[n, :dc] = 1.0
    try:
        n_fixed = 1
        if not _one_fixed_direction(border, dc):
            svals = np.linalg.svd(a, compute_uv=False)
            n_fixed = np.count_nonzero(svals <= LOOP_FIXED_CUT)
            if n_fixed == 0:
                raise ConvergenceError(f"no loop fixed point: smallest singular value of R - I "
                                       f"{svals[-1]} exceeds {LOOP_FIXED_CUT}", residual=np.inf)
        if n_fixed == 1:
            rhs = np.zeros(n + 1)
            rhs[n] = 1.0
            h = np.linalg.solve(border, rhs)[:n]
        else:
            w, _, vt = np.linalg.svd(a)
            l_t, f = w[:, n - n_fixed:].T, vt[n - n_fixed:].T
            # L^T times (1/dc, ..., 1/dc, 0, ..., 0), the coordinates of I/dc.
            h = f @ np.linalg.solve(l_t @ f, l_t[:, :dc].sum(axis=1) / dc)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"no loop fixed-point projector: {exc}", residual=np.inf) from exc
    h = h / h[:dc].sum()
    r = a @ h
    # ||r @ basis||_1 <= sqrt(dc) ||r @ basis||_F = sqrt(dc) ||r||_2, as the basis is orthonormal.
    if not math.sqrt(dc * float(r @ r)) <= LOOP_RESIDUAL:
        residual = trace_norm((r @ basis).reshape(dc, dc))
        if not residual <= LOOP_RESIDUAL:
            raise ConvergenceError(f"fixed-point residual {residual} exceeds {LOOP_RESIDUAL}",
                                   residual=residual)
    return DensityOperator((h @ basis).reshape(dc, dc))


def _loop_minus_identity(config: DeutschBoxConfig, rho_in: DensityOperator) -> np.ndarray:
    """R - I as a new array: x @ T - I, for x the input's coordinates on the G_g of
    `_loop_entries`: the real part of each entry on or above the diagonal, the imaginary below."""
    h = rho_in.matrix
    x = np.where(_below_diagonal(len(h)), h.imag, h.real).ravel()
    a = (x @ config._loop_tensor).reshape(config.ctc_dim ** 2, -1)
    a.flat[:: a.shape[0] + 1] -= 1.0
    return a


def _loop_entries(u: np.ndarray, ds: int, dc: int) -> np.ndarray:
    """The loop map's entries M_g[(c, d), (a, b)], held at [g, (c, a), (d, b)] of a (ds^2,
    2 dc^4) float array, on the system matrices G_g, g = x ds + y: E_xx, E_xy + E_yx for
    x < y, i(E_xy - E_yx) for x > y. Their span with real coefficients is the Hermitian
    matrices, and M on E_xy is p[x, y] = sum_s t[s, c, x, a] conj(t[s, d, y, b]), for t the
    unitary split as (s, c, x, a); every array held at once is O(T)."""
    n, below = dc * dc, _below_diagonal(ds)
    a = u.reshape(ds, dc, ds, dc).transpose(2, 1, 3, 0).reshape(ds, n, ds)  # a[x, (c, a), s]
    m = a[:, None] @ a.conj().transpose(0, 2, 1)  # p[x, y]
    mt = m.transpose(1, 0, 2, 3)
    up, lo = mt[below], m[below]  # p[x, y] and p[y, x] for each x < y
    mt[below] = up + lo
    m[below] = (lo - up) * 1j
    return m.view(float).reshape(ds * ds, -1)


@cache
def _below_diagonal(d: int) -> np.ndarray:
    """A read-only d x d mask of the entries below the diagonal, built once per d."""
    mask = np.tri(d, k=-1, dtype=bool)
    mask.setflags(write=False)
    return mask


@cache
def _loop_plan(dc: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (dc^4, 4) arrays idx and w, built once per dc, such that
    R.flat[p] = sum_q w[p, q] m.flat[idx[p, q]] for m the float view of the loop
    map's entries M[(c, d), (a, b)] held at [(c, a), (d, b)].

    A row of B has at most two nonzeros (a diagonal unit's single one is padded
    with a zero), so R[k, l] sums four terms Re(conj(B[k, i]) B[l, j] M[i, j]).
    Each coefficient is real or purely imaginary: a real w reads Re M[i, j] with
    weight w, an imaginary i w' reads Im M[i, j] with weight -w'."""
    basis = _hermitian_basis(dc)
    n = dc * dc
    rows, cols = np.nonzero(basis)
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)  # 0 or 1 within its row
    col = np.zeros((n, 2), dtype=np.intp)
    val = np.zeros((n, 2), dtype=complex)
    col[rows, slot], val[rows, slot] = cols, basis[rows, cols]
    hi, lo = np.divmod(col, dc)
    # Term [k, l, s, t] reads M[(c, d), (a, b)] for (c, d) = col[k, s], (a, b) = col[l, t].
    flat = (hi * dc**3 + lo * dc)[:, None, :, None] + (hi * dc**2 + lo)[None, :, None, :]
    coef = val.conj()[:, None, :, None] * val[None, :, None, :]
    idx = (2 * flat + (coef.imag != 0)).reshape(n * n, 4)
    w = (coef.real - coef.imag).reshape(n * n, 4)  # one of the two parts is zero
    idx.setflags(write=False)
    w.setflags(write=False)
    return idx, w


def _one_fixed_direction(border: np.ndarray, dc: int) -> bool:
    """Whether R - I, the top-left block of border = [[R - I, t], [t^T, 0]], has
    exactly one singular value at most LOOP_FIXED_CUT, so that the SVD count
    would read 1. False means "not certified", not "not one".

    (i) sigma_n(R - I) <= ||t^T (R - I)|| / ||t||, and ||t|| = sqrt(dc); the bound
    is asked to lie 1e3 below the cut, far beyond the rounding of either side.
    (ii) A Cholesky factor of B^T B - LOOP_GAP^2 I shows sigma_min(B) > LOOP_GAP,
    and R - I is B without one row and one column, so by interlacing
    sigma_{n-1}(R - I) >= sigma_min(B) > LOOP_GAP, far above the cut."""
    n = border.shape[0] - 1
    gram = border.T @ border
    # Column n of B^T B above its corner is t^T (R - I), as B[n, n] = 0.
    col = gram[:n, n]
    if not np.sqrt(col @ col / dc) <= LOOP_FIXED_CUT / 1e3:
        return False
    gram.flat[:: n + 2] -= LOOP_GAP * LOOP_GAP
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        return False
    return True


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
        return DensityOperator(out, _neg=rho._bound)  # CPTP: no growth

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
    check_instance(box, NonlinearBox, "apply_box's box")
    check_instance(p, Preparation, "apply_box's p")
    if not classify_membership(p, box.membership):
        return box.config.apply_excluded(p, box.box_event)
    if box.semantics is Semantics.DECOMPOSITION:
        return _mix([(w, box.config.apply(state)) for w, state in p.ensemble])
    return box.config.apply(effective_density(p))

