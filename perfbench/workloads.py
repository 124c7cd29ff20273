"""The four benchmark workloads.

A workload turns a seeded generator into a list of ops. Everything random
is drawn here, at set-up, with numpy and ``nlbox.rand``; an op only calls
nlbox's public API on the inputs it was given. Each op has a check, run
after the op and outside its timing, that compares the outputs with what
the physics says they must be.

Kinds within a workload come in shuffled blocks with fixed proportions, so
every block has the stated share of each kind. The proportions put the
median and the 90th percentile each inside one cluster of kinds (see
README.md), so neither jumps between clusters from run to run.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import nlbox
import nlbox.rand
from nlbox.qcore import computational_povm

BOX_EVENT = nlbox.SpacetimeEvent(1.0, 0.0)

_S = 1 / math.sqrt(2)
# The six Pauli eigenstates, and the X, Y, Z measurements as effect pairs.
PAULI_KETS = {
    "z0": np.array([1, 0], dtype=complex), "z1": np.array([0, 1], dtype=complex),
    "x0": np.array([_S, _S], dtype=complex), "x1": np.array([_S, -_S], dtype=complex),
    "y0": np.array([_S, 1j * _S]), "y1": np.array([_S, -1j * _S]),
}
PAULI_EFFECTS = tuple(
    (axis, tuple(np.outer(PAULI_KETS[f"{axis.lower()}{b}"],
                          PAULI_KETS[f"{axis.lower()}{b}"].conj()) for b in (0, 1)))
    for axis in ("X", "Y", "Z"))
# Two local-ensemble mixtures sent next to the eigenstates.
LOOP_MIXTURES = (("mix_z", ((0.5, "z0"), (0.5, "z1"))),
                 ("mix_xy", ((0.3, "x0"), (0.7, "y0"))))

SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


@dataclass(frozen=True)
class Op:
    kind: str
    run: Callable[[], Any]          # the timed calls into nlbox
    check: Callable[[Any], bool]    # untimed: True iff the output is right


def _blocks(rng, n, block):
    """n kinds drawn from shuffled copies of `block`."""
    out = []
    while len(out) < n:
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out[:n]


def _policy(kind):
    if kind == "kent_light_cone":
        return nlbox.MembershipPolicy(nlbox.PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
    return nlbox.MembershipPolicy(nlbox.PolicyKind(kind))


def _local_prep(label, members, tag=nlbox.ProvenanceTag.LOCAL_DETERMINISTIC):
    return nlbox.Preparation(
        ensemble=tuple((w, nlbox.DensityOperator(np.outer(k, k.conj()))) for w, k in members),
        provenance=nlbox.Provenance(tag, (BOX_EVENT,)),
        label=label)


def _trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


# -- bb84_intercept ----------------------------------------------------------

def _bb84_op(n_bits, seed, policy, strategy):
    def run():
        box = nlbox.NonlinearBox(
            config=nlbox.BrunBoxConfig(nlbox.COMPUTATIONAL_BASIS, nlbox.HADAMARD_BASIS),
            box_event=BOX_EVENT, semantics=nlbox.Semantics.DECOMPOSITION,
            membership=_policy(policy))
        return nlbox.run_bb84_attack(box, n_bits, seed, strategy)

    def check(rep):
        if strategy == "identify":
            return rep.eve_bit_accuracy == 1.0 and rep.induced_qber == 0.0
        # Resending in the computational basis corrupts half the sifted
        # Hadamard bits: QBER 1/4, within 5 sigma of the sifted count.
        sifted = rep.sifted_key_fraction * n_bits
        return sifted > 0 and abs(rep.induced_qber - 0.25) <= 5 * math.sqrt(0.1875 / sifted)

    return Op(f"bits{n_bits}", run, check)


# One block: each policy with each strategy three times at 1000 bits and
# twice at 5000 bits, so 60% of ops have 1000 bits and every run has the
# same share of each pairing.
BB84_BLOCK = [(n_bits, policy, strategy)
              for n_bits, times in ((1000, 3), (5000, 2)) for _ in range(times)
              for policy in ("naive_pure", "kent_light_cone")
              for strategy in ("identify", "fixed_basis")]


def bb84_intercept(rng, n, workdir):
    kinds = _blocks(rng, n, BB84_BLOCK)
    seeds = rng.integers(0, 2**31, size=n)
    return [_bb84_op(n_bits, int(seed), policy, strategy)
            for (n_bits, policy, strategy), seed in zip(kinds, seeds)]


# -- steering_protocols ------------------------------------------------------

def _pairs(mat):
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.atleast_2d(mat)]


def _random_basis(rng):
    """The columns of a random 2x2 unitary, as two kets in scenario form."""
    u = nlbox.rand.random_unitary(2, rng).matrix
    return [_pairs(u[:, 0])[0], _pairs(u[:, 1])[0]]


def _scenario_doc(rng, kind, proto, policy, semantics):
    box = {"kind": kind, "box_event": [1.0, 0.0], "semantics": semantics,
           "membership": {"kind": policy}}
    if kind == "linear":
        box["kraus"] = [_pairs(k) for k in nlbox.rand.random_cptp_kraus(2, rng)]
    else:
        box["psi_basis"] = _random_basis(rng)
        box["phi_basis"] = _random_basis(rng)
    return {"schema": "nlbox-scenario/1", "box": box, "protocol": {"name": proto}}


def _scenario_op(path, out_path, fmt, doc):
    proto = doc["protocol"]["name"]
    # Only naive membership lets remote preparations into a nonlinear box.
    signals = doc["box"]["membership"]["kind"] == "naive_pure" and doc["box"]["kind"] != "linear"

    def run():
        report = nlbox.run_scenario(nlbox.parse_scenario(path))
        text = nlbox.emit_table(report, fmt)
        nlbox.scenario.write_report(report, out_path, fmt)
        return report, text

    def check(result):
        report, text = result
        p = report.payload
        written = out_path.read_text(encoding="utf-8")
        # Each op writes a new file: truncating an old one would make the
        # file system write it to disk at once.
        out_path.unlink()
        if written != text:
            return False
        if fmt == "json" and json.loads(text)["payload"] != json.loads(json.dumps(p)):
            return False
        if proto == "verification":
            return p["identified"] is True
        if proto == "signaling":
            m = p["signaling_metric"]
            return abs(m - 1.0) <= 1e-9 if signals else m <= 1e-9
        if signals:
            return p["hazard"] is True
        return p["hazard"] is False and all(e["output_distance"] > 0 for e in p["entries"])

    return Op(f"scn.{doc['box']['kind']}.{proto}", run, check)


def _hjw_members(rng, dim, n, mixed):
    """n random members on C^dim; the first is a rank-2 mixed state if `mixed`."""
    weights = rng.dirichlet(np.ones(n))
    members = []
    for i, w in enumerate(weights):
        if mixed and i == 0:
            m = nlbox.rand.random_density(dim, rng, rank=2).matrix
        else:
            m = nlbox.rand.random_ket(dim, rng).projector().matrix
        members.append((float(w), np.array(m)))
    return members


def _hjw_op(members):
    def run():
        states = [(w, nlbox.DensityOperator(m)) for w, m in members]
        sigma = nlbox.DensityOperator(sum(w * m for w, m in members))
        asm = nlbox.hjw_assemblage(nlbox.EnsembleDecomposition(sigma, tuple(states)))
        return [nlbox.steer(asm, i) for i in range(len(members))]

    def check(steered):
        return all(abs(p - w) <= 1e-8 and _trace_distance(rho.matrix, m) <= 1e-8
                   for (w, m), (p, rho) in zip(members, steered))

    return Op("hjw", run, check)


_POLICIES = ("naive_pure", "kent_light_cone", "deterministic_experimenter")
# One block: every scenario configuration once (42), then 14 HJW roundtrips,
# so scenario ops are three quarters of the mix.
STEERING_BLOCK = (
    [("scn", kind, proto, policy, sem)
     for kind in ("brun", "kent") for proto in ("verification", "signaling", "prep_problem")
     for policy in _POLICIES for sem in ("state", "decomposition")]
    + [("scn", "linear", "signaling", policy, sem)
       for policy in _POLICIES for sem in ("state", "decomposition")]
    + [("hjw", dim, n, False) for dim in (2, 3) for n in (1, 2, 3, 4)]
    + [("hjw", dim, n, True) for dim in (2, 3) for n in (2, 3, 4)])


def steering_protocols(rng, n, workdir):
    scn_dir, out_dir = workdir / "scn", workdir / "out"
    scn_dir.mkdir()
    out_dir.mkdir()
    ops = []
    for i, (what, *params) in enumerate(_blocks(rng, n, STEERING_BLOCK)):
        if what == "hjw":
            ops.append(_hjw_op(_hjw_members(rng, *params)))
            continue
        doc = _scenario_doc(rng, *params)
        fmt = ("json", "csv")[i % 2]
        path = scn_dir / f"{i:05d}.scn"
        path.write_text(json.dumps(doc), encoding="utf-8")
        ops.append(_scenario_op(path, out_dir / f"{i:05d}.report.{fmt}", fmt, doc))
    return ops


# -- loop_tomography ---------------------------------------------------------

def _loop_op(kind, u, dc, expect):
    def run():
        box = nlbox.NonlinearBox(
            config=nlbox.DeutschBoxConfig(nlbox.Unitary(u), ctc_dim=dc),
            box_event=BOX_EVENT, semantics=nlbox.Semantics.STATE,
            membership=_policy("naive_pure"))
        povms = tuple((axis, nlbox.Povm(effects)) for axis, effects in PAULI_EFFECTS)
        preps = [_local_prep(label, ((1.0, k),)) for label, k in PAULI_KETS.items()]
        preps += [_local_prep(label, tuple((w, PAULI_KETS[s]) for w, s in members),
                              nlbox.ProvenanceTag.LOCAL_ENSEMBLE)
                  for label, members in LOOP_MIXTURES]
        probs = {}
        for prep in preps:
            out = nlbox.apply_box(box, prep)
            for axis, povm in povms:
                probs[prep.label, axis] = tuple(nlbox.born_probabilities(out, povm))
        table = nlbox.StatsTable(
            preparations=tuple((p.label, nlbox.effective_density(p)) for p in preps),
            measurements=povms, probabilities=probs)
        return nlbox.is_linear_explainable(table)

    def check(linear):
        return linear is expect if expect is not None else isinstance(linear, bool)

    return Op(kind, run, check)


# SWAP makes the box the identity map (linear); CNOT.SWAP makes it
# nonlinear. They stand in for two of the six loop-2 ops in a block.
LOOP_BLOCK = ["swap", "cnot_swap"] + ["loop2"] * 4 + ["loop4"] * 8 + ["loop8"] * 6


def loop_tomography(rng, n, workdir):
    ops = []
    for kind in _blocks(rng, n, LOOP_BLOCK):
        if kind == "swap":
            ops.append(_loop_op("loop2.swap", SWAP, 2, True))
        elif kind == "cnot_swap":
            ops.append(_loop_op("loop2.cnot_swap", CNOT @ SWAP, 2, False))
        else:
            dc = int(kind[4:])
            u = nlbox.rand.random_unitary(2 * dc, rng).matrix
            ops.append(_loop_op(kind, u, dc, None))
    return ops


# -- channel_witness ---------------------------------------------------------

def _channel_op(d, kraus, kets, bases):
    def run():
        channel = nlbox.LinearBoxConfig(kraus)
        preps = tuple((f"in{i}", nlbox.DensityOperator(np.outer(k, k.conj())))
                      for i, k in enumerate(kets))
        povms = (("comp", computational_povm(d)),) + tuple(
            (f"rand{b}", nlbox.Povm(tuple(np.outer(v[:, j], v[:, j].conj()) for j in range(d))))
            for b, v in enumerate(bases))
        probs = {}
        for label, rho in preps:
            out = channel.apply(rho)
            for ml, povm in povms:
                probs[label, ml] = tuple(nlbox.born_probabilities(out, povm))
        table = nlbox.StatsTable(preparations=preps, measurements=povms, probabilities=probs)
        return nlbox.is_linear_explainable(table, tol=1e-9)

    return Op(f"d{d}", run, lambda linear: linear is True)


CHANNEL_BLOCK = [2] * 4 + [3] * 4 + [4] * 2


def channel_witness(rng, n, workdir):
    # The computational basis and d random bases make the output side
    # tomographically complete. With fewer bases the least-squares fit is
    # not unique, and the minimum-norm fit it returns for an exact CPTP
    # table can have a Choi eigenvalue near -0.4, so the witness would
    # call a real channel nonlinear.
    ops = []
    for d in _blocks(rng, n, CHANNEL_BLOCK):
        kraus = nlbox.rand.random_cptp_kraus(d, rng)
        kets = [nlbox.rand.random_ket(d, rng).amplitudes for _ in range(d * d + 2)]
        bases = [nlbox.rand.random_unitary(d, rng).matrix for _ in range(d)]
        ops.append(_channel_op(d, kraus, kets, bases))
    return ops


# name -> (generator, mix block); a run of whole blocks has the stated mix.
WORKLOADS = {
    "bb84_intercept": (bb84_intercept, BB84_BLOCK),
    "steering_protocols": (steering_protocols, STEERING_BLOCK),
    "loop_tomography": (loop_tomography, LOOP_BLOCK),
    "channel_witness": (channel_witness, CHANNEL_BLOCK),
}


def block_ops(name):
    """Ops in one mix block of workload `name`."""
    return len(WORKLOADS[name][1])


def build(name, seed, n, workdir: Path):
    """n ops of workload `name` drawn from `seed`; files go under workdir."""
    index = list(WORKLOADS).index(name)
    rng = np.random.default_rng([seed, index])
    return WORKLOADS[name][0](rng, n, workdir)
