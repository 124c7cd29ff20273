"""Executable experiments: map verification, the remote-preparation
signaling test, the preparation-class split, and the key-distribution
intercept attack."""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .boxes import (
    BrunBoxConfig,
    KentBoxConfig,
    NonlinearBox,
    apply_box,
    box_output_qubit_distribution,
)
from .errors import ConfigurationError
from .preparations import (
    Preparation,
    Provenance,
    ProvenanceTag,
    SpacetimeEvent,
    classify_membership,
    linearly_equivalent,
)
from .qcore import (
    COMPUTATIONAL_BASIS,
    HADAMARD_BASIS,
    KetVector,
    basis_povm,
    born_probabilities,
    computational_povm,
    trace_distance,
)
from .steering import assemblage_from
from .tolerances import PURITY_MIN

# Default spacetime layout: the sender's record is spacelike separated
# from the box at (1, 0).
DEFAULT_ALICE_EVENT = SpacetimeEvent(0.0, 10.0)

_STATE_NAMES = ("psi0", "psi1", "phi0", "phi1")

EVE_STRATEGIES = ("identify", "fixed_basis")

# Bits the BB84 attack samples per batch. About 35 bytes of temporaries per
# bit, so memory stays near 2 MiB whatever n_bits a scenario asks for.
_BB84_BATCH = 1 << 16


# The sender's and receiver's shared singlet, built and validated once.
SINGLET = KetVector(np.array([0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0], dtype=complex)).projector()


def _brun(box: NonlinearBox) -> BrunBoxConfig | None:
    """The basis-discriminating map a box applies or emulates, if any."""
    cfg = box.config
    cfg = cfg.brun if isinstance(cfg, KentBoxConfig) else cfg
    return cfg if isinstance(cfg, BrunBoxConfig) else None


def _domain_states(box: NonlinearBox):
    brun = _brun(box)
    if brun is None:
        raise ConfigurationError("box carries no discrimination bases")
    return brun.domain_states


def _local_prep(state: KetVector, label: str, record: SpacetimeEvent) -> Preparation:
    return Preparation(
        ensemble=((1.0, state.projector()),),
        provenance=Provenance(ProvenanceTag.LOCAL_DETERMINISTIC, (record,)),
        label=label,
    )


@dataclass(frozen=True)
class VerificationReport:
    table: dict  # input label -> list of 4 outcome probabilities
    identified: bool
    tol: float


def run_verification(box: NonlinearBox, tol: float = 1e-6) -> VerificationReport:
    """Check whether the four verifying preparations reveal the map.

    Each domain state is prepared locally and deterministically, sent
    through the box, and both output qubits are measured in the
    computational basis; the map is identified iff every input lands on
    its target outcome with probability >= 1 - tol. A box without a
    basis-discriminating map has no domain states: ConfigurationError.
    """
    povm = computational_povm(4)
    table = {}
    identified = True
    for i, (name, state) in enumerate(zip(_STATE_NAMES, _domain_states(box))):
        prep = _local_prep(state, f"verify_{name}", box.box_event)
        probs = born_probabilities(apply_box(box, prep), povm)
        table[name] = [float(x) for x in probs]
        if probs[i] < 1.0 - tol:
            identified = False
    return VerificationReport(table=table, identified=identified, tol=tol)


@dataclass(frozen=True)
class SignalingReport:
    distributions: dict  # setting label -> list, receiver outcome distribution
    signaling_metric: float
    semantics: str
    policy: str


def _resolve_setting(box: NonlinearBox, setting):
    if isinstance(setting, str):
        brun = _brun(box)
        if setting == "psi":
            return setting, (brun.psi_basis if brun else COMPUTATIONAL_BASIS)
        if setting == "phi":
            return setting, (brun.phi_basis if brun else HADAMARD_BASIS)
        raise ConfigurationError(f"unknown setting name {setting!r}")
    b0, b1 = setting
    return None, (b0, b1)


def run_signaling_test(box: NonlinearBox, settings,
                       alice_event: SpacetimeEvent = DEFAULT_ALICE_EVENT) -> SignalingReport:
    """Can the receiver tell which basis the distant sender measured?

    For each setting the sender measures her half of a singlet, remotely
    preparing the receiver's qubit; the receiver pushes each heralded
    preparation through the box and reads the first output qubit. The
    metric is the worst total-variation distance between his outcome
    distributions across setting pairs.
    """
    if not settings:
        raise ConfigurationError("signaling test needs at least one setting")
    distributions = {}
    for idx, setting in enumerate(settings):
        name, (b0, b1) = _resolve_setting(box, setting)
        name = name or f"setting{idx}"
        assemblage = assemblage_from(SINGLET, 2, 2, basis_povm((b0, b1)))
        q = np.zeros(2)
        for i in range(assemblage.n_outcomes):
            p_i, heralded = assemblage.heralded[i]
            prep = Preparation(
                ensemble=((1.0, heralded),),
                provenance=Provenance(ProvenanceTag.REMOTE_STEERED, (alice_event,)),
                label=f"remote_{name}_{i}",
                unconditioned=tuple(assemblage.heralded),
            )
            out = apply_box(box, prep)
            q += p_i * box_output_qubit_distribution(out)
        distributions[name] = [float(x) for x in q]

    labels = list(distributions)
    metric = 0.0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            a = np.array(distributions[labels[i]])
            b = np.array(distributions[labels[j]])
            metric = max(metric, 0.5 * float(np.sum(np.abs(a - b))))
    return SignalingReport(
        distributions=distributions,
        signaling_metric=metric,
        semantics=box.semantics.value,
        policy=box.membership.kind.value,
    )


@dataclass(frozen=True)
class ClassSplitReport:
    entries: list  # one dict per domain state
    hazard: bool   # True when the policy fails to exclude remote preparations


def run_preparation_problem_demo(box: NonlinearBox,
                                 alice_event: SpacetimeEvent = DEFAULT_ALICE_EVENT) -> ClassSplitReport:
    """Exhibit linearly equivalent preparation pairs the box tells apart.

    For each domain state, a local deterministic preparation and a remote
    heralded one share the same pure state, yet the box output differs;
    if the membership policy fails to exclude the remote preparations the
    demo reports a signaling hazard instead of a split.
    """
    states = _domain_states(box)
    partners = (1, 0, 3, 2)  # the basis partner of each domain state
    pairs = []
    for i, (name, state) in enumerate(zip(_STATE_NAMES, states)):
        local = _local_prep(state, f"local_{name}", box.box_event)
        partner = states[partners[i]]
        remote = Preparation(
            ensemble=((1.0, state.projector()),),
            provenance=Provenance(ProvenanceTag.REMOTE_STEERED, (alice_event,)),
            label=f"remote_{name}",
            unconditioned=((0.5, state.projector()), (0.5, partner.projector())),
        )
        pairs.append((name, local, remote))

    hazard = any(classify_membership(remote, box.membership) for _, _, remote in pairs)
    entries = []
    for name, local, remote in pairs:
        entry = {
            "state": name,
            "linearly_equivalent": linearly_equivalent(local, remote),
            "local_member": classify_membership(local, box.membership),
            "remote_member": classify_membership(remote, box.membership),
        }
        if not hazard:
            entry["output_distance"] = trace_distance(
                apply_box(box, local), apply_box(box, remote))
        entries.append(entry)
    return ClassSplitReport(entries=entries, hazard=hazard)


@dataclass(frozen=True)
class AttackReport:
    n_bits: int
    eve_bit_accuracy: float
    eve_basis_accuracy: float
    induced_qber: float
    sifted_key_fraction: float
    strategy: str
    seed: int


def _require_bb84_bases(box: NonlinearBox):
    brun = _brun(box)
    if brun is None:
        raise ConfigurationError("attack requires a basis-discriminating box")
    psi, phi = brun.psi_basis, brun.phi_basis
    ok = (psi[0].fidelity(COMPUTATIONAL_BASIS[0]) >= PURITY_MIN
          and psi[1].fidelity(COMPUTATIONAL_BASIS[1]) >= PURITY_MIN
          and phi[0].fidelity(HADAMARD_BASIS[0]) >= PURITY_MIN
          and phi[1].fidelity(HADAMARD_BASIS[1]) >= PURITY_MIN)
    if not ok:
        raise ConfigurationError(
            "attack requires psi = computational and phi = hadamard bases")
    return psi, phi


def _nonnegative_int(value, name: str) -> int:
    try:
        n = operator.index(value)
    except TypeError:
        raise ConfigurationError(
            f"{name} must be a non-negative integer, got {value!r}") from None
    if n < 0:
        raise ConfigurationError(f"{name} must be a non-negative integer, got {n}")
    return n


def _inverse_cdf(dist: np.ndarray, rows: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Outcome of each draw from row `rows[i]` of the distribution table
    `dist`, given one uniform `u[i]` in [0, 1).

    The outcome is the number of cumulative probabilities at or below u.
    Each row's cumulative sums are divided by their last entry, so a row
    summing to slightly less than 1 still ends at exactly 1 and a
    zero-probability outcome, whose cumulative value equals its
    predecessor's, is never returned.
    """
    cdf = np.cumsum(dist, axis=1, dtype=float)
    cdf /= cdf[:, -1:]
    out = np.zeros(u.shape, dtype=np.int8)
    for column in cdf[:, :-1].T:
        out += column[rows] <= u
    return out


def run_bb84_attack(box: NonlinearBox, n_bits: int, seed: int,
                    eve_strategy: str = "identify") -> AttackReport:
    """Intercept-resend with a basis-discriminating box in the middle.

    The sender emits random basis/bit states; the eavesdropper routes each
    through the box (whose two output qubits name basis and bit),
    re-prepares, and forwards; the receiver measures in a random basis.
    With `eve_strategy="fixed_basis"` the eavesdropper re-prepares in the
    computational basis regardless of what she identified.

    Bits are sampled as arrays from the seeded generator, in batches of
    up to `_BB84_BATCH` bits: per batch, the sender's bases, the sender's
    bits and the receiver's bases as one `integers(2, size=(3, n))` draw,
    then one uniform per bit for the eavesdropper's outcome and one for
    the receiver's, each mapped to an outcome by inverting the cumulative
    distribution that the bit's (basis, bit) or (resent state, receiver
    basis) selects. Raises ConfigurationError for a negative or
    non-integer `n_bits` or `seed`.
    """
    if eve_strategy not in EVE_STRATEGIES:
        raise ConfigurationError(f"unknown eavesdropper strategy {eve_strategy!r}")
    n_bits = _nonnegative_int(n_bits, "n_bits")
    seed = _nonnegative_int(seed, "seed")
    if n_bits == 0:
        return AttackReport(0, 0.0, 0.0, 0.0, 0.0, eve_strategy, seed)
    psi, phi = _require_bb84_bases(box)
    bases = (psi, phi)
    rng = np.random.default_rng(seed)
    povm4 = computational_povm(4)
    meas = (basis_povm(psi), basis_povm(phi))

    # Row 2*basis + bit: the box's outcome distribution on Alice's state.
    eve_dist = []
    for a_basis in range(2):
        for a_bit in range(2):
            prep = _local_prep(bases[a_basis][a_bit],
                               f"alice_{a_basis}{a_bit}", box.box_event)
            eve_dist.append(born_probabilities(apply_box(box, prep), povm4))

    # Row 2*(resent state index) + receiver basis: the receiver's distribution.
    def resent_state(e_basis, e_bit):
        if eve_strategy == "identify":
            return bases[e_basis][e_bit]
        return COMPUTATIONAL_BASIS[e_bit]

    bob_dist = []
    for e_basis in range(2):
        for e_bit in range(2):
            for b_basis in range(2):
                rho = resent_state(e_basis, e_bit).projector()
                bob_dist.append(born_probabilities(rho, meas[b_basis]))

    eve_dist, bob_dist = np.array(eve_dist), np.array(bob_dist)
    # Python ints, so the report holds plain floats (the CSV form is repr).
    eve_bit_hits = eve_basis_hits = sifted = errors = 0
    for start in range(0, n_bits, _BB84_BATCH):
        n = min(_BB84_BATCH, n_bits - start)
        a_basis, a_bit, b_basis = rng.integers(2, size=(3, n), dtype=np.int8)
        u_eve, u_bob = rng.random((2, n))
        eve_idx = _inverse_cdf(eve_dist, 2 * a_basis + a_bit, u_eve)
        b_bit = _inverse_cdf(bob_dist, 2 * eve_idx + b_basis, u_bob)
        sifted_mask = b_basis == a_basis
        eve_basis_hits += int(np.count_nonzero((eve_idx >> 1) == a_basis))
        eve_bit_hits += int(np.count_nonzero((eve_idx & 1) == a_bit))
        sifted += int(np.count_nonzero(sifted_mask))
        errors += int(np.count_nonzero(sifted_mask & (b_bit != a_bit)))
    return AttackReport(
        n_bits=n_bits,
        eve_bit_accuracy=eve_bit_hits / n_bits,
        eve_basis_accuracy=eve_basis_hits / n_bits,
        induced_qber=(errors / sifted) if sifted else 0.0,
        sifted_key_fraction=sifted / n_bits,
        strategy=eve_strategy,
        seed=seed,
    )
