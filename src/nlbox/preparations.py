"""Preparation procedures and their classification.

A preparation is more than a density operator: it carries an ensemble
decomposition, a provenance tag, and the spacetime locations where
classical records of the realized ensemble member exist. Membership
policies decide which preparations exhibit a box's nonlinear evolution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (ConfigurationError, DecompositionError, ShapeError, ValidationError,
                     check_instance, finite_float)
from .qcore import DensityOperator, trace_distance
from .tolerances import ATOL, DTOL, PURITY_MIN


@dataclass(frozen=True)
class SpacetimeEvent:
    """A point in 1+1 Minkowski spacetime with c = 1; coordinates are finite reals, kept as floats."""

    t: float
    x: float

    def __post_init__(self):
        t, x = finite_float(self.t), finite_float(self.x)
        if math.isnan(t) or math.isnan(x):
            raise ValidationError(f"spacetime coordinates must be finite reals, got {self!r}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "x", x)


def _enum_member(enum, value):
    """enum(value), or a ConfigurationError if value names no member."""
    try:
        return enum(value)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from None


class ProvenanceTag(str, Enum):
    LOCAL_DETERMINISTIC = "local_deterministic"
    LOCAL_ENSEMBLE = "local_ensemble"
    REMOTE_STEERED = "remote_steered"


@dataclass(frozen=True)
class Provenance:
    """How a preparation came about, and where its classical records live."""

    tag: ProvenanceTag
    records: tuple

    def __post_init__(self):
        object.__setattr__(self, "tag", _enum_member(ProvenanceTag, self.tag))
        records = tuple(self.records) if isinstance(self.records, (tuple, list)) else ()
        if len(records) < 1:
            raise ValidationError(f"{self.tag.value} provenance requires a tuple of >= 1 events")
        for e in records:
            if not isinstance(e, SpacetimeEvent):
                raise ValidationError("provenance records must be SpacetimeEvent values")
        object.__setattr__(self, "records", records)


def _normalize_ensemble(ensemble, what):
    """The members as (float weight, DensityOperator) pairs; DecompositionError
    unless the ensemble is a tuple or list of one or more such pairs, with
    positive finite real weights (a bool is not) summing to 1."""
    if not isinstance(ensemble, (tuple, list)):
        raise DecompositionError(f"{what} must be a tuple or list of (weight, state) pairs")
    members = []
    total = 0.0
    dim = None
    for member in ensemble:
        if not (isinstance(member, (tuple, list)) and len(member) == 2):
            raise DecompositionError(f"{what} members must be (weight, state) pairs, got {member!r}")
        w, state = finite_float(member[0]), member[1]
        if not w > 0:  # a nan fails
            raise DecompositionError(f"{what} weights must be positive finite reals, got {member[0]!r}")
        if not isinstance(state, DensityOperator):
            raise DecompositionError(f"{what} members must be DensityOperator values")
        if dim is None:
            dim = state.dim
        elif state.dim != dim:
            raise ShapeError(f"{what} members have mixed dimensions")
        total += w
        members.append((w, state))
    if not members:
        raise DecompositionError(f"{what} must have at least one member")
    if not abs(total - 1.0) <= ATOL:
        raise DecompositionError(f"{what} weights sum to {total}, not 1")
    return tuple(members)


def _mix(ensemble) -> DensityOperator:
    """Weighted average of validated members; a lone weight-1 member is returned as it is."""
    if len(ensemble) == 1 and ensemble[0][0] == 1.0:
        return ensemble[0][1]
    return DensityOperator(sum(w * state.matrix for w, state in ensemble),
                           _neg=sum(w * state._bound for w, state in ensemble))


@dataclass(frozen=True)
class Preparation:
    """An operational preparation procedure.

    `ensemble` is the realized (possibly post-selected) decomposition the
    procedure delivers. `unconditioned` is the density an observer without
    the heralding record assigns: for a remotely steered preparation, the
    receiver's marginal of the shared state. It defaults to the realized
    mixture.
    """

    ensemble: tuple
    provenance: Provenance
    label: str
    unconditioned: DensityOperator | None = None
    _mixture: DensityOperator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.label, str):
            raise ValidationError(f"a preparation's label must be a string, got {self.label!r}")
        members = _normalize_ensemble(self.ensemble, "ensemble")
        object.__setattr__(self, "ensemble", members)
        object.__setattr__(self, "_mixture", _mix(members))  # checked once, then shared
        if self.unconditioned is None:
            object.__setattr__(self, "unconditioned", self._mixture)
        elif not isinstance(self.unconditioned, DensityOperator):
            raise ValidationError("the unconditioned state must be a DensityOperator")
        elif self.unconditioned.dim != self.dim:
            raise ShapeError("unconditioned state dimension mismatch")

    @property
    def dim(self) -> int:
        return self.ensemble[0][1].dim


def effective_density(p: Preparation) -> DensityOperator:
    """The weighted average of the ensemble: the linear-theory state."""
    return p._mixture


def linearly_equivalent(p1: Preparation, p2: Preparation) -> bool:
    """True iff the two preparations give identical statistics under every
    linear transformation and measurement, i.e. equal effective densities."""
    check_instance(p1, Preparation, "linearly_equivalent's p1")
    check_instance(p2, Preparation, "linearly_equivalent's p2")
    if p1.dim != p2.dim:
        raise ShapeError(f"preparation dims differ: {p1.dim} vs {p2.dim}")
    return trace_distance(effective_density(p1), effective_density(p2)) <= DTOL


def in_past_light_cone(e: SpacetimeEvent, box: SpacetimeEvent) -> bool:
    """True iff e lies in (or on) the past light cone of the box event."""
    return box.t - e.t >= abs(box.x - e.x)


class PolicyKind(str, Enum):
    NAIVE_PURE = "naive_pure"
    KENT_LIGHT_CONE = "kent_light_cone"
    DETERMINISTIC_EXPERIMENTER = "deterministic_experimenter"
    EXPLICIT_LIST = "explicit_list"


@dataclass(frozen=True)
class MembershipPolicy:
    """The rule deciding which preparations exhibit the nonlinear evolution.

    An explicit_list naming one outcome of a heralded pair but not its partner
    reads the heralding record, so a nonlinear box may signal through it; a
    linear box acts on the effective density either way and never does."""

    kind: PolicyKind
    box_event: SpacetimeEvent | None = None
    labels: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "kind", _enum_member(PolicyKind, self.kind))
        if self.kind is PolicyKind.KENT_LIGHT_CONE and self.box_event is None:
            raise ConfigurationError("kent_light_cone policy requires a box event")
        if not (self.box_event is None or isinstance(self.box_event, SpacetimeEvent)):
            raise ConfigurationError(f"a policy's box event must be a SpacetimeEvent, "
                                     f"got {self.box_event!r}")
        labels = self.labels
        if not (isinstance(labels, (set, frozenset, tuple, list))
                and all(isinstance(label, str) for label in labels)):
            raise ConfigurationError(f"labels must be a set of strings, got {labels!r}")
        if self.kind is PolicyKind.EXPLICIT_LIST and not labels:
            raise ConfigurationError("explicit_list policy requires a label set")
        object.__setattr__(self, "labels", frozenset(labels))


def classify_membership(p: Preparation, policy: MembershipPolicy) -> bool:
    """Decide whether a preparation belongs to the verifying set."""
    check_instance(p, Preparation, "classify_membership's p")
    check_instance(policy, MembershipPolicy, "classify_membership's policy")
    if policy.kind is PolicyKind.NAIVE_PURE:
        return all(state.purity() >= PURITY_MIN for _, state in p.ensemble)
    if policy.kind is PolicyKind.KENT_LIGHT_CONE:
        return all(in_past_light_cone(e, policy.box_event) for e in p.provenance.records)
    if policy.kind is PolicyKind.DETERMINISTIC_EXPERIMENTER:
        return (p.provenance.tag is ProvenanceTag.LOCAL_DETERMINISTIC
                and len(p.ensemble) == 1)
    return p.label in policy.labels  # the one kind left, EXPLICIT_LIST
