"""End-to-end acceptance checks.

Each test prints one pass/fail line so the whole gate can be read off a
`pytest -v -s tests/test_acceptance.py` run.
"""

import time

import numpy as np
import pytest

from conftest import BOX_EVENT, ensemble_prep, make_box
from nlbox.boxes import (
    DeutschBoxConfig,
    LinearBoxConfig,
    Semantics,
    deutsch_fixed_point,
)
from nlbox.preparations import MembershipPolicy, PolicyKind
from nlbox.protocols import (
    run_bb84_attack,
    run_preparation_problem_demo,
    run_signaling_test,
    run_verification,
)
from nlbox.qcore import (
    KET0,
    KET1,
    KET_MINUS,
    KET_PLUS,
    DensityOperator,
    Unitary,
    maximally_mixed,
    trace_distance,
)
from nlbox.rand import random_cptp_kraus, random_density, random_ket
from nlbox.scenario import parse_scenario, run_scenario
from nlbox.steering import EnsembleDecomposition, hjw_assemblage, steer
from nlbox.witness import fit_linear_map, is_linear_explainable, sample_table

from test_boxes import CNOT, SWAP, iterated_loop_oracle
from test_scenario_cli import BUNDLED
from test_witness import brun_matched_table, channel_table


def report(n, label, ok):
    print(f"criterion {n:2d} [{'PASS' if ok else 'FAIL'}] {label}")
    assert ok


def test_criterion_01_map_verification(brun_config):
    start = time.perf_counter()
    rep = run_verification(make_box(brun_config))
    elapsed = time.perf_counter() - start
    ok = rep.identified and elapsed < 1.0
    for i, name in enumerate(("psi0", "psi1", "phi0", "phi1")):
        ok = ok and abs(rep.table[name][i] - 1.0) < 1e-12
    report(1, "four verifying transitions are certain", ok)


def test_criterion_02_signaling_reductio(brun_config):
    box = make_box(brun_config, semantics=Semantics.DECOMPOSITION)
    rep = run_signaling_test(box, ("psi", "phi"))
    report(2, "naive membership signals with certainty",
           abs(rep.signaling_metric - 1.0) < 1e-12)


def test_criterion_03_no_signaling_under_exclusion(brun_config):
    ok = True
    policies = (
        MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT),
        MembershipPolicy(PolicyKind.DETERMINISTIC_EXPERIMENTER),
    )
    for policy in policies:
        for sem in (Semantics.DECOMPOSITION, Semantics.STATE):
            box = make_box(brun_config, semantics=sem, policy=policy)
            ok = ok and run_signaling_test(box, ("psi", "phi")).signaling_metric < 1e-9
    rng = np.random.default_rng(2024)
    all_policies = policies + (MembershipPolicy(PolicyKind.NAIVE_PURE),)
    for i in range(50):
        kraus = tuple(random_cptp_kraus(2, rng))
        policy = all_policies[i % len(all_policies)]
        box = make_box(LinearBoxConfig(kraus), policy=policy)
        ok = ok and run_signaling_test(box, ("psi", "phi")).signaling_metric < 1e-9
    report(3, "exclusion policies and linear boxes never signal", ok)


def test_criterion_04_preparation_class_split(brun_config):
    policy = MembershipPolicy(PolicyKind.KENT_LIGHT_CONE, box_event=BOX_EVENT)
    rep = run_preparation_problem_demo(make_box(brun_config, policy=policy))
    ok = not rep.hazard and len(rep.entries) == 4
    for e in rep.entries:
        ok = ok and e["linearly_equivalent"]
        ok = ok and e["output_distance"] > 0.4 - 1e-9
    report(4, "equal densities split into distinct preparation classes", ok)


def test_criterion_05_affinity_witness(brun_config):
    from nlbox.witness import affinity_violation
    p1 = ensemble_prep([(0.5, KET0.projector()), (0.5, KET1.projector())], "comp")
    p2 = ensemble_prep([(0.5, KET_PLUS.projector()), (0.5, KET_MINUS.projector())], "had")
    v_dec = affinity_violation(make_box(brun_config, semantics=Semantics.DECOMPOSITION),
                               p1, p2)
    v_state = affinity_violation(make_box(brun_config, semantics=Semantics.STATE),
                                 p1, p2)
    report(5, "mixture semantics decides the affinity violation",
           abs(v_dec - 1.0) < 1e-12 and v_state < 1e-12)


def test_criterion_06_steering_roundtrip():
    rng = np.random.default_rng(777)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        dim = int(rng.choice((2, 3)))
        n = int(rng.integers(1, 5))
        kets = [random_ket(dim, rng) for _ in range(n)]
        w = rng.dirichlet(np.ones(n))
        sigma = DensityOperator(
            sum(wi * k.projector().matrix for wi, k in zip(w, kets)))
        d = EnsembleDecomposition(
            sigma, tuple((float(wi), k.projector()) for wi, k in zip(w, kets)))
        asm = hjw_assemblage(d)
        avg = np.zeros((dim, dim), dtype=complex)
        for i in range(n):
            p, rho = steer(asm, i)
            ok = ok and abs(p - w[i]) < 1e-8
            ok = ok and trace_distance(rho, kets[i].projector()) < 1e-8
            avg += p * rho.matrix
        gap = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(avg - sigma.matrix))))
        ok = ok and gap < 1e-8
    elapsed = time.perf_counter() - start
    report(6, "200 remote-preparation roundtrips are exact",
           ok and elapsed < 30.0)


def test_criterion_07_fixed_points_and_nonlinearity():
    rng = np.random.default_rng(99)
    ok = True
    swap_cfg = DeutschBoxConfig(Unitary(SWAP), 2)
    for _ in range(50):
        rho = random_density(2, rng)
        ok = ok and trace_distance(deutsch_fixed_point(swap_cfg, rho), rho) < 1e-8
    cnot_cfg = DeutschBoxConfig(Unitary(CNOT), 2)
    star = deutsch_fixed_point(cnot_cfg, KET1.projector())
    ok = ok and trace_distance(star, maximally_mixed(2)) < 1e-8

    u = CNOT @ SWAP
    cfg = DeutschBoxConfig(Unitary(u), 2)
    rho_a, rho_b = KET_PLUS.projector(), KET_MINUS.projector()
    mixed = DensityOperator(0.5 * (rho_a.matrix + rho_b.matrix))
    out_mixed = cfg.apply(mixed)
    combo = DensityOperator(0.5 * (cfg.apply(rho_a).matrix
                                   + cfg.apply(rho_b).matrix))
    gap = trace_distance(out_mixed, combo)
    star_oracle = iterated_loop_oracle(u, mixed.matrix, 2, 2)
    joint = u @ np.kron(mixed.matrix, star_oracle) @ u.conj().T
    out_oracle = np.einsum("abcb->ac", joint.reshape(2, 2, 2, 2))
    ok = ok and np.max(np.abs(out_mixed.matrix - out_oracle)) < 1e-7
    ok = ok and gap > 1e-3
    report(7, "loop circuit fixed points and nonlinearity gap", ok)


def test_criterion_08_witness_calibration():
    rng = np.random.default_rng(4242)
    ok = True
    for _ in range(50):
        kraus = random_cptp_kraus(2, rng)
        ok = ok and fit_linear_map(channel_table(kraus)).residual < 1e-9
    ok = ok and fit_linear_map(brun_matched_table()).residual >= 0.49

    identity_table = channel_table([np.eye(2, dtype=complex)])
    false_positives = 0
    for seed in range(100):
        sampled = sample_table(identity_table, 10000, np.random.default_rng(seed))
        if not is_linear_explainable(sampled):
            false_positives += 1
    ok = ok and false_positives <= 1
    report(8, "linearity witness calibrated exactly and under sampling", ok)


def test_criterion_09_key_distribution_attack(brun_config):
    exact = run_bb84_attack(make_box(brun_config), 10000, seed=5)
    ablation = run_bb84_attack(make_box(brun_config), 10000, seed=5,
                               eve_strategy="fixed_basis")
    sifted = ablation.sifted_key_fraction * 10000
    sigma = np.sqrt(0.25 * 0.75 / sifted)
    ok = (exact.eve_bit_accuracy == 1.0
          and exact.induced_qber == 0.0
          and abs(ablation.induced_qber - 0.25) <= 3 * sigma)
    report(9, "intercept attack is perfect; blind ablation shows errors", ok)


def test_criterion_10_determinism():
    ok = True
    for path in BUNDLED:
        a = run_scenario(parse_scenario(path)).to_json()
        b = run_scenario(parse_scenario(path)).to_json()
        ok = ok and a == b
    report(10, "bundled scenario reports are byte-identical on rerun", ok)
