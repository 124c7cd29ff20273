"""Executable experiments: map verification, the remote-preparation
signaling test, the preparation-class split, and the key-distribution
intercept attack."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .boxes import BrunBoxConfig, NonlinearBox, apply_box
from .errors import (CapacityError, ConfigurationError, ShapeError, ValidationError,
                     check_integer, check_tol)
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
    partial_trace,
    trace_distance,
)
from .steering import assemblage_from
from .tolerances import ATOL, PURITY_MIN

# Default spacetime layout: the sender's record is spacelike separated
# from the box at (1, 0).
DEFAULT_ALICE_EVENT = SpacetimeEvent(0.0, 10.0)

_STATE_NAMES = ("psi0", "psi1", "phi0", "phi1")

EVE_STRATEGIES = ("identify", "fixed_basis")


def check_eve_strategy(strategy) -> str:
    """strategy if it is one of EVE_STRATEGIES, else a ConfigurationError."""
    if strategy not in EVE_STRATEGIES:
        raise ConfigurationError(f"unknown eve_strategy {strategy!r}, not one of {EVE_STRATEGIES}")
    return strategy


# The most bits one BB84 attack may ask for: 10-20 s at 0.1-0.19 us per bit.
MAX_BB84_BITS = 10 ** 8

# Bits the BB84 attack samples per batch. About 35 bytes of temporaries per
# bit, so memory stays near 2 MiB whatever n_bits a scenario asks for.
_BB84_BATCH = 1 << 16


# The sender's and receiver's shared singlet, built and validated once, and
# the receiver's half of it: the state assigned without the heralding record.
SINGLET = KetVector(np.array([0, 1 / np.sqrt(2), -1 / np.sqrt(2), 0], dtype=complex)).projector()
SINGLET_MARGINAL = partial_trace(SINGLET, (2, 2), [1])


def _domain_states(box: NonlinearBox):
    """psi0, psi1, phi0, phi1 of the map a Brun or Kent box applies or emulates."""
    if not isinstance(box.config, BrunBoxConfig):
        raise ConfigurationError("box carries no discrimination bases")
    return box.config.domain_states


def _local_preps(box: NonlinearBox, labels) -> list:
    """Each domain state prepared locally and deterministically at the box's
    event, one label each."""
    provenance = Provenance(ProvenanceTag.LOCAL_DETERMINISTIC, (box.box_event,))
    return [Preparation(ensemble=((1.0, state.projector()),), provenance=provenance, label=label)
            for state, label in zip(_domain_states(box), labels)]


def _domain_table(box: NonlinearBox, labels) -> np.ndarray:
    """Row k: the box's two-qubit computational-basis outcome distribution
    on domain state k, prepared locally under labels[k]."""
    povm4 = computational_povm(4)
    return np.array([born_probabilities(apply_box(box, prep), povm4)
                     for prep in _local_preps(box, labels)])


def _steered(basis, alice_event: SpacetimeEvent, labels):
    """(probability, Preparation) for each outcome of the sender measuring
    her half of the singlet in `basis` at `alice_event`, one label each.

    The singlet heralds the state orthogonal to the sender's outcome.
    """
    provenance = Provenance(ProvenanceTag.REMOTE_STEERED, (alice_event,))
    assemblage = assemblage_from(SINGLET, 2, 2, basis_povm(basis))
    return [(p_i, Preparation(ensemble=((1.0, heralded),), provenance=provenance,
                              label=label, unconditioned=SINGLET_MARGINAL))
            for (p_i, heralded), label in zip(assemblage.heralded, labels)]


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
    basis-discriminating map has no domain states, and a tol that is not a
    finite non-negative real number is meaningless: ConfigurationError for both.
    """
    tol = check_tol(tol)
    probs = _domain_table(box, [f"verify_{name}" for name in _STATE_NAMES])
    table = {name: [float(x) for x in row] for name, row in zip(_STATE_NAMES, probs)}
    identified = bool((probs.diagonal() >= 1.0 - tol).all())
    return VerificationReport(table=table, identified=identified, tol=tol)


@dataclass(frozen=True)
class SignalingReport:
    distributions: dict  # setting label -> list, receiver outcome distribution
    signaling_metric: float
    semantics: str
    policy: str


def _resolve_setting(box: NonlinearBox, setting):
    """(name or None, basis) for "psi", "phi" or a pair of qubit kets."""
    brun = box.config if isinstance(box.config, BrunBoxConfig) else None
    named = {"psi": brun.psi_basis if brun else COMPUTATIONAL_BASIS,
             "phi": brun.phi_basis if brun else HADAMARD_BASIS}
    if isinstance(setting, str) and setting in named:
        return setting, named[setting]
    if not (isinstance(setting, (tuple, list)) and len(setting) == 2
            and all(isinstance(k, KetVector) and k.dim == 2 for k in setting)):
        raise ConfigurationError(f"a setting is 'psi', 'phi' or two qubit kets, got {setting!r}")
    return None, tuple(setting)


def run_signaling_test(box: NonlinearBox, settings,
                       alice_event: SpacetimeEvent = DEFAULT_ALICE_EVENT) -> SignalingReport:
    """Can the receiver tell which basis the distant sender measured?

    For each setting the sender measures her half of a singlet, remotely
    preparing the receiver's qubit; the receiver pushes each heralded
    preparation through the box and reads the first output qubit. The
    metric is the worst total-variation distance between his outcome
    distributions across setting pairs.
    """
    if not (isinstance(settings, (tuple, list)) and settings):
        raise ConfigurationError(f"signaling test needs a tuple or list of one or more "
                                 f"settings, got {settings!r}")
    distributions = {}
    for idx, setting in enumerate(settings):
        name, basis = _resolve_setting(box, setting)
        name = name or f"setting{idx}"
        q = np.zeros(2)
        for p_i, prep in _steered(basis, alice_event, (f"remote_{name}_0", f"remote_{name}_1")):
            out = apply_box(box, prep)
            if out.dim not in (2, 4):
                raise ShapeError(f"unexpected box output dimension {out.dim}")
            # The first qubit's outcomes: a two-qubit output's summed over the second.
            probs = born_probabilities(out, computational_povm(out.dim))
            q += p_i * probs.reshape(2, -1).sum(axis=1)
        distributions[name] = [float(x) for x in q]

    metric = max((0.5 * float(np.sum(np.abs(np.subtract(a, b))))
                  for a, b in combinations(distributions.values(), 2)), default=0.0)
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
    remotes = []
    for k in (0, 2):  # measured in reverse order, a basis heralds its own states in order
        labels = [f"remote_{name}" for name in _STATE_NAMES[k:k + 2]]
        remotes += [prep for _, prep in _steered((states[k + 1], states[k]), alice_event, labels)]
    pairs = list(zip(_STATE_NAMES, _local_preps(box, [f"local_{n}" for n in _STATE_NAMES]),
                     remotes))

    entries = [{"state": name,
                "linearly_equivalent": linearly_equivalent(local, remote),
                "local_member": classify_membership(local, box.membership),
                "remote_member": classify_membership(remote, box.membership)}
               for name, local, remote in pairs]
    hazard = any(entry["remote_member"] for entry in entries)
    if not hazard:
        for entry, (_, local, remote) in zip(entries, pairs):
            entry["output_distance"] = trace_distance(
                apply_box(box, local), apply_box(box, remote))
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
    """The domain states of a box whose bases are the computational and Hadamard ones."""
    states = _domain_states(box)
    if not all(s.fidelity(b) >= PURITY_MIN
               for s, b in zip(states, COMPUTATIONAL_BASIS + HADAMARD_BASIS)):
        raise ConfigurationError("attack requires psi = computational and phi = hadamard bases")
    return states


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

    The receiver's table holds |<b|r>|^2 for each resent ket r and
    receiver basis ket b, from one product of the kets.
    Bits are sampled as arrays from the seeded generator, in batches of
    up to `_BB84_BATCH` bits: per batch, the sender's bases, the sender's
    bits and the receiver's bases as one `integers(2, size=(3, n))` draw,
    then one uniform per bit for the eavesdropper's outcome and one for
    the receiver's, each mapped to an outcome by inverting the cumulative
    distribution that the bit's (basis, bit) or (resent state, receiver
    basis) selects. Raises ConfigurationError for a negative, boolean or
    non-integer `n_bits` or `seed`, and CapacityError above MAX_BB84_BITS bits.
    """
    check_eve_strategy(eve_strategy)
    n_bits = check_integer(n_bits, "n_bits")
    seed = check_integer(seed, "seed")
    if n_bits > MAX_BB84_BITS:
        raise CapacityError(f"n_bits must be at most {MAX_BB84_BITS}")
    states = _require_bb84_bases(box)
    if n_bits == 0:
        return AttackReport(0, 0.0, 0.0, 0.0, 0.0, eve_strategy, seed)
    rng = np.random.default_rng(seed)

    # Row 2*basis + bit: the box's outcome distribution on Alice's state.
    eve_dist = _domain_table(box, [f"alice_{k >> 1}{k & 1}" for k in range(4)])
    # Row 2*(resent state index) + receiver basis, column receiver bit: |<b|r>|^2.
    resent = states if eve_strategy == "identify" else COMPUTATIONAL_BASIS * 2
    kets, resent = (np.array([s.amplitudes for s in group]) for group in (states, resent))
    bob_dist = (abs(resent.conj() @ kets.T) ** 2).reshape(8, 2)
    if not (abs(bob_dist.sum(axis=1) - 1.0) <= ATOL).all():
        raise ValidationError("Born probabilities do not sum to 1")

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
