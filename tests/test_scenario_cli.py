import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CNOT, SWAP
from nlbox import boxes, cli, qcore, scenario
from nlbox.cli import main
from nlbox.errors import CapacityError, NlboxError, ScenarioParseError, ValidationError
from nlbox.preparations import SpacetimeEvent
from nlbox.protocols import DEFAULT_ALICE_EVENT
from nlbox.qcore import born_probabilities, computational_povm
from nlbox.scenario import (
    MAX_BB84_BITS,
    PROTOCOLS,
    REPORT_SCHEMA,
    emit_table,
    parse_scenario,
    parse_stats,
    run_scenario,
)
from nlbox.rand import random_cptp_kraus, random_ket, random_unitary
from nlbox.tolerances import ATOL, COMPLETENESS_CUT, MAX_LOOP_DIM, MAX_TENSOR_DIM

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "nlbox" / "scenarios"
BUNDLED = sorted(SCENARIO_DIR.glob("*.scn"))
# The bundled scenarios' reports, byte for byte, named
# <stem>.<default|seed7>.<fmt>; rewrite them only when a report is meant to change.
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def write_scenario(tmp_path, doc, name="case.scn"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


MINIMAL = {
    "schema": "nlbox-scenario/1",
    "box": {"kind": "brun", "box_event": [1.0, 0.0]},
    "protocol": {"name": "verification"},
}


class TestParsing:
    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_bundled_scenarios_parse(self, path):
        config = parse_scenario(path)
        assert config.protocol in ("verification", "signaling", "prep_problem", "bb84")

    def test_minimal_scenario(self, tmp_path):
        config = parse_scenario(write_scenario(tmp_path, MINIMAL))
        assert config.protocol == "verification"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text("{ not json")
        with pytest.raises(ScenarioParseError):
            parse_scenario(path)

    def test_document_must_be_an_object(self, tmp_path):
        with pytest.raises(ScenarioParseError, match="scenario must be a JSON object$"):
            parse_scenario(write_scenario(tmp_path, 5))

    def test_unnormalized_basis_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["box"] = {
            "kind": "brun",
            "psi_basis": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        with pytest.raises(ValidationError):
            parse_scenario(write_scenario(tmp_path, doc))

    def test_unknown_protocol_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["protocol"] = {"name": "teleportation"}
        with pytest.raises(ValidationError):
            parse_scenario(write_scenario(tmp_path, doc))

    def test_unknown_box_kind_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["box"] = {"kind": "oracle"}
        with pytest.raises(ValidationError):
            parse_scenario(write_scenario(tmp_path, doc))

    def test_unknown_schema_rejected(self, tmp_path):
        doc = dict(MINIMAL)
        doc["schema"] = "nlbox-scenario/99"
        with pytest.raises(ValidationError):
            parse_scenario(write_scenario(tmp_path, doc))


def identity_json(d):
    return [[[float(i == j), 0.0] for j in range(d)] for i in range(d)]


IDENTITY_4 = identity_json(4)
NAN_IDENTITY_2 = [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
NAN_IDENTITY_4 = [[[math.nan, 0.0]] + IDENTITY_4[0][1:]] + IDENTITY_4[1:]
HUGE = 10 ** 400  # an exact JSON integer that no float can hold

# Malformed scenarios: (id, bundled scenario, path of the replaced field,
# new value, exit code); an empty path replaces the whole document. Each must
# fail in parse_scenario, before any run: exit 2 is a ScenarioParseError, 3 a
# ValidationError.
MALFORMED = [
    ("document_not_object", "verification", (), [MINIMAL], 2),
    ("n_bits_fraction", "bb84_attack", ("protocol", "n_bits"), 2.7, 3),
    ("n_bits_bool", "bb84_attack", ("protocol", "n_bits"), True, 3),
    ("seed_fraction", "bb84_attack", ("protocol", "seed"), 3.9, 3),
    ("eve_strategy_unknown", "bb84_attack", ("protocol", "eve_strategy"), "bribe", 3),
    ("n_bits_above_cap", "bb84_attack", ("protocol", "n_bits"), MAX_BB84_BITS + 1, 3),
    ("n_bits_huge_int", "bb84_ablation", ("protocol", "n_bits"), HUGE, 3),
    ("settings_not_list", "signaling_naive", ("protocol", "settings"), 5, 3),
    ("setting_unknown", "signaling_naive", ("protocol", "settings"), ["psi", "chi"], 3),
    ("alice_event_short", "signaling_naive", ("protocol", "alice_event"), [0.0], 3),
    ("alice_event_not_number", "prep_problem", ("protocol", "alice_event"), ["x", 0], 3),
    ("tol_not_number", "verification", ("protocol", "tol"), "x", 3),
    ("tol_negative", "verification", ("protocol", "tol"), -1, 3),
    ("protocol_name_not_string", "verification", ("protocol", "name"), ["bb84"], 3),
    ("semantics_unknown", "verification", ("box", "semantics"), "bogus", 3),
    ("box_event_not_number", "verification", ("box", "box_event"), ["x", 0], 3),
    ("policy_unknown", "verification", ("box", "membership"), {"kind": "oracle"}, 3),
    ("basis_unknown", "verification", ("box", "psi_basis"), "diagonal", 3),
    ("box_not_object", "verification", ("box",), 5, 3),
    ("deutsch_without_unitary", "verification", ("box",), {"kind": "deutsch"}, 3),
    ("linear_without_kraus", "verification", ("box",), {"kind": "linear"}, 3),
    ("ctc_dim_not_number", "verification", ("box",),
     {"kind": "deutsch", "unitary": IDENTITY_4, "ctc_dim": "x"}, 3),
    ("ctc_dim_above_cap", "verification", ("box",),
     {"kind": "deutsch", "unitary": identity_json(MAX_LOOP_DIM + 1), "ctc_dim": MAX_LOOP_DIM + 1},
     3),
    ("loop_tensor_above_cap", "verification", ("box",),
     {"kind": "deutsch", "ctc_dim": MAX_LOOP_DIM,
      "unitary": identity_json((MAX_TENSOR_DIM // MAX_LOOP_DIM**2 + 1) * MAX_LOOP_DIM)}, 3),
    ("superop_above_cap", "verification", ("box",),
     {"kind": "linear", "kraus": [identity_json(65)]}, 3),
    ("kraus_nan", "verification", ("box",), {"kind": "linear", "kraus": [NAN_IDENTITY_2]}, 3),
    ("psi_basis_nan", "verification", ("box", "psi_basis"), NAN_IDENTITY_2, 3),
    ("unitary_nan", "verification", ("box",),
     {"kind": "deutsch", "unitary": NAN_IDENTITY_4, "ctc_dim": 2}, 3),
    ("tol_huge_int", "verification", ("protocol", "tol"), HUGE, 3),
    ("box_event_huge_int", "verification", ("box", "box_event"), [HUGE, 0.0], 3),
    ("box_event_bool", "verification", ("box", "box_event"), [True, False], 3),
    ("labels_string", "verification", ("box", "membership"),
     {"kind": "explicit_list", "labels": "verify_psi0"}, 3),
    ("psi_basis_bool", "verification", ("box", "psi_basis"),
     [[[True, 0.0], [False, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], 3),
    ("psi_basis_numeric_string", "verification", ("box", "psi_basis"),
     [[["1", "0"], ["0", "0"]], [["0", 0.0], ["1e0", 0.0]]], 3),
    ("unitary_numeric_string", "verification", ("box",),
     {"kind": "deutsch", "unitary": [[[str(x), y] for x, y in row] for row in IDENTITY_4],
      "ctc_dim": 2}, 3),
]


def gap_in_the_grid(doc):
    """Add a Hadamard measurement with rows for every input but iplus. The
    inputs stay tomographically complete; only one (prep, meas) row is missing."""
    plus = [[[0.5, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.5, 0.0]]]
    minus = [[[0.5, 0.0], [-0.5, 0.0]], [[-0.5, 0.0], [0.5, 0.0]]]
    doc["measurements"].append({"label": "had", "effects": [plus, minus]})
    doc["probabilities"].update(
        {"zero|had": [0.5, 0.5], "one|had": [0.5, 0.5], "plus|had": [1.0, 0.0]})


# Malformed stats tables for `nlbox witness`: (id, path of the replaced
# field in stats_doc(), new value, exit code); an empty path means the value
# edits the document in place.
MALFORMED_STATS = [
    ("probability_not_number", ("probabilities", "zero|comp"), [1.0, "x"], 2),
    ("key_without_bar", ("probabilities",), {"zero": [1.0, 0.0]}, 2),
    ("probabilities_not_object", ("probabilities",), [[1.0, 0.0]], 2),
    ("density_entry_not_number", ("preparations", 0, "density", 0, 0), ["x", 0.0], 2),
    ("density_entry_bool", ("preparations", 0, "density", 0, 0), [True, False], 2),
    ("probability_bool", ("probabilities", "zero|comp"), [True, False], 2),
    ("probability_numeric_string", ("probabilities", "zero|comp"), ["1.0", "0"], 2),
    ("sample_count_fraction", ("sample_counts",), {"zero|comp": 100.7}, 3),
    ("sample_count_bool", ("sample_counts",), {"zero|comp": True}, 3),
    ("sample_count_negative", ("sample_counts",), {"zero|comp": -1}, 3),
    ("sample_counts_empty", ("sample_counts",), {}, 3),
    ("sample_count_zero", ("sample_counts",), {"zero|comp": 0}, 3),
    ("sample_count_unknown_cell", ("sample_counts",), {"nope|Q": 100}, 3),
    ("sample_count_huge_int", ("sample_counts",),
     {f"{p}|comp": HUGE for p in ("zero", "one", "plus", "iplus")}, 3),
    ("probability_nan", ("probabilities", "zero|comp"), [1.0, math.nan], 3),
    ("probability_huge_int", ("probabilities", "zero|comp"), [HUGE, 0.0], 2),
    ("probabilities_empty", ("probabilities",), {}, 3),
    ("probability_row_missing", (), gap_in_the_grid, 3),
    ("preparation_label_list", ("preparations", 0, "label"), ["zero"], 3),
]


def mutated_scenario(tmp_path, stem, where, value):
    if not where:
        return write_scenario(tmp_path, value)
    doc = json.loads((SCENARIO_DIR / f"{stem}.scn").read_text())
    node = doc
    for key in where[:-1]:
        node = node[key]
    node[where[-1]] = value
    return write_scenario(tmp_path, doc)


class TestMalformedCorpus:
    @pytest.mark.parametrize("stem,where,value,code", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_exit_code_without_report(self, tmp_path, capsys, stem, where, value, code):
        path = mutated_scenario(tmp_path, stem, where, value)
        error, prefix = {2: (ScenarioParseError, "parse error"),
                         3: (ValidationError, "validation error")}[code]
        with pytest.raises(error):
            parse_scenario(path)
        out = tmp_path / "r.json"
        assert main(["run", str(path), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith(f"{prefix}: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("n_bits", 500.0), ("n_bits", "500"), ("seed", 7.0), ("seed", " 7 "),
    ])
    def test_integral_values_still_accepted(self, tmp_path, key, value):
        exact = {"n_bits": 500, "seed": 7}
        a = run_scenario(parse_scenario(
            mutated_scenario(tmp_path, "bb84_attack", ("protocol", key), exact[key])))
        b = run_scenario(parse_scenario(
            mutated_scenario(tmp_path, "bb84_attack", ("protocol", key), value)))
        assert a.payload == b.payload

    def test_n_bits_cap(self, tmp_path):
        at_cap = mutated_scenario(tmp_path, "bb84_attack", ("protocol", "n_bits"), MAX_BB84_BITS)
        payload = run_scenario(parse_scenario(at_cap)).payload
        assert payload["n_bits"] == MAX_BB84_BITS
        assert payload["eve_bit_accuracy"] == payload["eve_basis_accuracy"] == 1.0
        assert payload["induced_qber"] == 0.0
        above = mutated_scenario(tmp_path, "bb84_attack", ("protocol", "n_bits"),
                                 MAX_BB84_BITS + 1)
        with pytest.raises(CapacityError, match="n_bits"):
            parse_scenario(above)

    @pytest.mark.parametrize("where,value,code", [case[1:] for case in MALFORMED_STATS],
                             ids=[case[0] for case in MALFORMED_STATS])
    def test_stats_exit_code(self, tmp_path, capsys, where, value, code):
        doc = stats_doc()
        if where:
            node = doc
            for key in where[:-1]:
                node = node[key]
            node[where[-1]] = value
        else:
            value(doc)
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc))
        assert main(["witness", str(path)]) == code
        captured = capsys.readouterr()
        prefix = {2: "parse error: ", 3: "validation error: "}[code]
        assert captured.err.startswith(f"{prefix}{path}: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_integral_sample_counts_accepted(self, tmp_path):
        doc = stats_doc()
        doc["sample_counts"] = {"zero|comp": 100.0, "one|comp": "100", "plus|comp": 100}
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc))
        counts = parse_stats(path).sample_counts
        assert counts == {("zero", "comp"): 100, ("one", "comp"): 100, ("plus", "comp"): 100}
        assert all(type(n) is int for n in counts.values())

    def test_integral_ctc_dim_accepted(self, tmp_path):
        box = {"kind": "deutsch", "unitary": IDENTITY_4, "ctc_dim": 2.0}
        config = parse_scenario(mutated_scenario(tmp_path, "verification", ("box",), box))
        assert config.box.config.ctc_dim == 2


class TestRunning:
    def test_verification_report(self):
        config = parse_scenario(SCENARIO_DIR / "verification.scn")
        report = run_scenario(config)
        assert report.schema == REPORT_SCHEMA
        assert report.payload["identified"] is True

    def test_signaling_reports(self):
        naive = run_scenario(parse_scenario(SCENARIO_DIR / "signaling_naive.scn"))
        kent = run_scenario(parse_scenario(SCENARIO_DIR / "signaling_kent.scn"))
        assert abs(naive.payload["signaling_metric"] - 1.0) < 1e-12
        assert kent.payload["signaling_metric"] < 1e-9

    def test_prep_problem_report(self):
        report = run_scenario(parse_scenario(SCENARIO_DIR / "prep_problem.scn"))
        assert report.payload["hazard"] is False
        assert all(e["output_distance"] > 0.4 for e in report.payload["entries"])

    def test_bb84_reports(self):
        attack = run_scenario(parse_scenario(SCENARIO_DIR / "bb84_attack.scn"))
        ablation = run_scenario(parse_scenario(SCENARIO_DIR / "bb84_ablation.scn"))
        assert attack.payload["induced_qber"] == 0.0
        assert abs(ablation.payload["induced_qber"] - 0.25) < 0.05

    @pytest.mark.parametrize("stem", ["signaling_kent", "prep_problem"])
    def test_alice_event_defaults(self, tmp_path, stem):
        # Alice's event is optional; every bundled scenario names the default.
        doc = json.loads((SCENARIO_DIR / f"{stem}.scn").read_text())
        assert doc["protocol"].pop("alice_event") == [0.0, 10.0]
        config = parse_scenario(write_scenario(tmp_path, doc))
        alice_event = PROTOCOLS[config.protocol].parse(config.params)["alice_event"]
        assert alice_event == DEFAULT_ALICE_EVENT == SpacetimeEvent(0.0, 10.0)
        bundled = run_scenario(parse_scenario(SCENARIO_DIR / f"{stem}.scn"))
        assert run_scenario(config).payload == bundled.payload

    def test_seed_override(self):
        config = parse_scenario(SCENARIO_DIR / "bb84_attack.scn")
        a = run_scenario(config, seed=99)
        b = run_scenario(config, seed=99)
        c = run_scenario(config, seed=100)
        assert a.to_json() == b.to_json()
        assert a.payload["seed"] == 99
        assert c.payload["seed"] == 100

    def test_removed_keys_are_ignored(self, tmp_path):
        # A preparation list, `use_preparations` and `ancilla` never reached
        # a run; like any unknown key, they leave the payload as it was.
        identity_2 = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        box = {"kind": "linear", "kraus": [identity_2]}
        path = mutated_scenario(tmp_path, "signaling_naive", ("box",), box)
        before = run_scenario(parse_scenario(path)).payload
        doc = json.loads(path.read_text())
        doc["preparations"] = [5]
        doc["protocol"]["use_preparations"] = ["psi9"]
        doc["box"]["ancilla"] = False
        after = run_scenario(parse_scenario(write_scenario(tmp_path, doc))).payload
        assert after == before

    def test_light_cone_sits_at_the_box_event(self, tmp_path):
        # A `box_event` under `membership` is an unknown key like any other:
        # the light cone is the box's own, so it cannot be moved off the box.
        path = mutated_scenario(tmp_path, "signaling_kent", ("box", "membership"),
                                {"kind": "kent_light_cone", "box_event": [100, 0]})
        kent = run_scenario(parse_scenario(SCENARIO_DIR / "signaling_kent.scn")).payload
        assert run_scenario(parse_scenario(path)).payload == kent

    def test_square_kraus_with_ancilla_fails_at_run_time(self, tmp_path, capsys):
        # `ancilla` no longer widens a square channel: the 4 x 4 identity
        # meets a one-qubit input.
        box = {"kind": "linear", "kraus": [IDENTITY_4], "ancilla": True}
        path = mutated_scenario(tmp_path, "signaling_naive", ("box",), box)
        out = tmp_path / "r.json"
        assert main(["run", str(path), "--out", str(out)]) == 3
        assert "channel input dimension mismatch" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_reports_byte_identical(self, path):
        config = parse_scenario(path)
        assert run_scenario(config).to_json() == run_scenario(config).to_json()


class TestEmission:
    def test_verification_csv_shape(self):
        report = run_scenario(parse_scenario(SCENARIO_DIR / "verification.scn"))
        lines = emit_table(report, "csv").splitlines()
        assert lines[0] == "key,outcome,value"
        # 4 inputs x 4 outcomes plus the verdict row.
        assert len(lines) == 1 + 16 + 1

    def test_json_round_trip(self):
        report = run_scenario(parse_scenario(SCENARIO_DIR / "verification.scn"))
        doc = json.loads(report.to_json())
        assert doc["schema"] == REPORT_SCHEMA
        assert doc["payload"] == report.payload

    def test_bb84_csv_values_are_plain_numbers(self):
        report = run_scenario(parse_scenario(SCENARIO_DIR / "bb84_ablation.scn"))
        rows = dict(line.split(",", 2)[::2] for line in
                    emit_table(report, "csv").splitlines()[1:])
        for key in ("eve_bit_accuracy", "eve_basis_accuracy", "induced_qber",
                    "sifted_key_fraction", "n_bits", "seed"):
            float(rows[key])

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("seed", [None, 7], ids=["default", "seed7"])
    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_matches_golden_report(self, path, seed, fmt):
        tag = "default" if seed is None else f"seed{seed}"
        golden = (GOLDEN_DIR / f"{path.stem}.{tag}.{fmt}").read_bytes()
        report = run_scenario(parse_scenario(path), seed=seed)
        # A strict decode is exact, so this stays byte for byte, and a
        # mismatch is reported line by line.
        assert emit_table(report, fmt) == golden.decode("utf-8")

    def test_goldens_and_bundled_scenarios_match_one_to_one(self):
        # A golden without its scenario would never be compared, and a
        # scenario without its goldens would fail only when read.
        expected = {f"{path.stem}.{tag}.{fmt}" for path in BUNDLED
                    for tag in ("default", "seed7") for fmt in ("json", "csv")}
        assert {path.name for path in GOLDEN_DIR.iterdir()} == expected

    def test_csv_deterministic(self):
        config = parse_scenario(SCENARIO_DIR / "signaling_naive.scn")
        a = emit_table(run_scenario(config), "csv")
        b = emit_table(run_scenario(config), "csv")
        assert a == b


def containers(node):
    """Every list and dict in a JSON-like tree, the root included."""
    if isinstance(node, dict):
        yield node
        for value in node.values():
            yield from containers(value)
    elif isinstance(node, list):
        yield node
        for value in node:
            yield from containers(value)


class TestPayload:
    """A report's payload is a shallow dict of the runner's fresh report:
    equal to dataclasses.asdict of it, without the deep copy."""

    @pytest.mark.parametrize("seed", [None, 7], ids=["default", "seed7"])
    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_equals_asdict_of_the_runner_report(self, path, seed):
        config = parse_scenario(path)
        params = dict(config.params) if seed is None else {**config.params, "seed": seed}
        protocol = PROTOCOLS[config.protocol]
        expected = dataclasses.asdict(protocol.run(config.box, **protocol.parse(params)))
        assert run_scenario(config, seed=seed).payload == expected

    @pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
    def test_two_runs_share_no_list_or_dict(self, path):
        config = parse_scenario(path)
        first, second = run_scenario(config).payload, run_scenario(config).payload
        assert not {id(c) for c in containers(first)} & {id(c) for c in containers(second)}
        assert not {id(c) for c in containers(first)} & {id(c) for c in containers(config.raw)}

    @pytest.mark.parametrize("stem", ["signaling_kent", "prep_problem"])
    def test_runs_without_kron_or_asdict(self, monkeypatch, stem):
        # Both scenarios exclude the remote preparations, so every excluded
        # input goes through tensor; np.kron and asdict cost more than the
        # work they do there, and a later edit must not bring them back.
        def forbidden(*args, **kwargs):
            raise AssertionError("slow library call on the scenario path")

        tensors = []

        def counting_tensor(a, b):
            tensors.append(1)
            return qcore.tensor(a, b)

        monkeypatch.setattr(np, "kron", forbidden)
        monkeypatch.setattr(dataclasses, "asdict", forbidden)
        monkeypatch.setattr(scenario, "asdict", forbidden, raising=False)
        monkeypatch.setattr(boxes, "tensor", counting_tensor)
        report = run_scenario(parse_scenario(SCENARIO_DIR / f"{stem}.scn"))
        assert tensors
        assert emit_table(report) == (GOLDEN_DIR / f"{stem}.default.json").read_text("utf-8")


def density(m):
    """A complex matrix in the stats file's [re, im] form."""
    return [[[x.real, x.imag] for x in row] for row in np.asarray(m, complex)]


def stats_doc():
    effects = [density(np.diag([1.0, 0.0])), density(np.diag([0.0, 1.0]))]
    return {
        "preparations": [
            {"label": "zero", "density": density(np.diag([1.0, 0.0]))},
            {"label": "one", "density": density(np.diag([0.0, 1.0]))},
            {"label": "plus", "density": density(np.full((2, 2), 0.5))},
            {"label": "iplus", "density": density([[0.5, -0.5j], [0.5j, 0.5]])},
        ],
        "measurements": [{"label": "comp", "effects": effects}],
        "probabilities": {
            "zero|comp": [1.0, 0.0],
            "one|comp": [0.0, 1.0],
            "plus|comp": [0.5, 0.5],
            "iplus|comp": [0.5, 0.5],
        },
    }


def measured_doc(states, bases, kraus=(np.eye(2),)):
    """A stats document: each labelled input density sent through the
    channel with the given Kraus operators, then measured in each labelled
    orthonormal basis (the columns of a unitary)."""
    def output(rho):
        return sum(k @ rho @ k.conj().T for k in kraus)

    return {
        "preparations": [{"label": pl, "density": density(rho)} for pl, rho in states.items()],
        "measurements": [{"label": ml, "effects": [density(np.outer(v, v.conj())) for v in b.T]}
                         for ml, b in bases.items()],
        "probabilities": {f"{pl}|{ml}": [float((v.conj() @ output(rho) @ v).real) for v in b.T]
                          for pl, rho in states.items() for ml, b in bases.items()},
    }


def qubit_inputs():
    """|0>, |1>, |+> and |+i>: they span the four Hermitian directions."""
    r = math.sqrt(0.5)
    kets = {"zero": [1, 0], "one": [0, 1], "plus": [r, r], "iplus": [r, 1j * r]}
    return {label: np.outer(k, np.conj(k)) for label, k in kets.items()}


def reset_table():
    # Every input reset to |0>, measured in Z: each cell reads exactly 0 or 1.
    reset = (np.diag([1.0, 0.0]), np.array([[0.0, 1.0], [0.0, 0.0]]))
    return measured_doc(qubit_inputs(), {"z": np.eye(2)}, reset), True


def relabelled_density_table():
    # |0> again under a second label, with the other row: no map explains both.
    doc = stats_doc()
    doc["preparations"].append({"label": "zero_again", "density": density(np.diag([1.0, 0.0]))})
    doc["probabilities"]["zero_again|comp"] = [0.0, 1.0]
    return doc, False


def damped_z_only_table():
    # Amplitude damping at gamma = 1/2, Z effects only: the effects span 1 of
    # the 3 traceless directions, the inputs all 4.
    g = 0.5
    damping = (np.diag([1.0, math.sqrt(1 - g)]), np.array([[0.0, math.sqrt(g)], [0.0, 0.0]]))
    return measured_doc(qubit_inputs(), {"z": np.eye(2)}, damping), True


def qutrit_table():
    # |0>, |1>, |2> and the (|j> + |k>), (|j> + i|k>) pairs span all 9 input
    # directions. The identity channel is measured in the computational basis
    # and the three Fourier bases with phases w^(k j^2): four mutually
    # unbiased bases, whose effects span all 8 traceless directions.
    kets = {f"e{j}": np.eye(3)[j] for j in range(3)}
    for j, k in ((0, 1), (0, 2), (1, 2)):
        kets[f"p{j}{k}"] = (np.eye(3)[j] + np.eye(3)[k]) / math.sqrt(2)
        kets[f"i{j}{k}"] = (np.eye(3)[j] + 1j * np.eye(3)[k]) / math.sqrt(2)
    j = np.arange(3)
    fourier = np.exp(2j * np.pi * np.outer(j, j) / 3) / math.sqrt(3)
    bases = {"z": np.eye(3)} | {f"f{k}": np.exp(2j * np.pi * k * j ** 2 / 3)[:, None] * fourier
                                for k in range(3)}
    return measured_doc({label: np.outer(k, k.conj()) for label, k in kets.items()},
                        bases, (np.eye(3),)), True


def three_direction_table():
    # Without |+i>, the inputs span 3 of the 4 Hermitian directions.
    states = qubit_inputs()
    del states["iplus"]
    x_basis = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    return measured_doc(states, {"z": np.eye(2), "x": x_basis}), None


# Valid stats documents none of the parser's mutants reach the fit with, and
# the witness verdict each should print (None: exit 3, tomographically incomplete).
UNUSUAL_STATS = {
    "a_reset_0_1_cells": reset_table,
    "b_one_density_two_labels": relabelled_density_table,
    "c_z_effects_only": damped_z_only_table,
    "d_complete_qutrit": qutrit_table,
    "e_three_directions": three_direction_table,
}


# What a mutation writes into a document: one of the values that broke the
# parsers (non-finite and huge numbers, numeric strings, empty containers),
# or any JSON value, nested lists and objects included.
SPECIAL_VALUES = st.sampled_from(
    [HUGE, -HUGE, math.nan, math.inf, -math.inf, "1e400", "nan", "x", [], {}])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=12)


def node_paths(node, where=()):
    """The path of every node under a JSON document, the root excluded."""
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield where + (key,)
        yield from node_paths(child, where + (key,))


def mutated(doc, data):
    """A copy of doc with one to three mutations: a node replaced by a drawn
    value, a list or object emptied, or a key or list item dropped."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        paths = list(node_paths(doc))
        if not paths:
            break
        where = data.draw(st.sampled_from(paths))
        node = doc
        for key in where[:-1]:
            node = node[key]
        action = data.draw(st.sampled_from(["replace", "empty", "drop"]))
        if action == "drop":
            del node[where[-1]]
        elif action == "empty" and isinstance(node[where[-1]], (dict, list)):
            node[where[-1]].clear()
        else:
            node[where[-1]] = data.draw(SPECIAL_VALUES | JSON_VALUES)
    return doc


def input_spread(states):
    """The d^2-th singular value of the inputs' real coordinates: how far
    they are from spanning every Hermitian direction."""
    coords = np.array([np.concatenate([m.real.ravel(), m.imag.ravel()]) for m in states])
    d = len(states[0])
    return np.linalg.svd(coords, compute_uv=False)[d * d - 1]


def value_mutated_doc(data):
    """A valid stats document for a random channel on d = 2-4 levels, with
    its values, never its structure, mutated: d^2 random pure inputs, of
    which the last may be moved to within 10x of COMPLETENESS_CUT of the
    span of the others, and one may be repeated under a second label; the
    computational basis and 0 to d random bases (fewer than d leave the
    effects rank deficient); rows set to 0/1 cells, zeroed, scaled or
    reversed, then renormalized; shot counts on some cells or none."""
    d = data.draw(st.integers(2, 4), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1), label="seed"))
    kets = [random_ket(d, rng).amplitudes for _ in range(d * d + 1)]
    states = [np.outer(k, k.conj()) for k in kets[:-1]]
    if data.draw(st.booleans(), label="near_cut"):
        target = COMPLETENESS_CUT * 10 ** data.draw(st.floats(-1, 1), label="log10 spread")

        def moved(eps):
            return states[:-1] + [(1 - eps) * states[0] + eps * np.outer(kets[-1], kets[-1].conj())]

        states = moved(1e-6 * target / input_spread(moved(1e-6)))
        assert COMPLETENESS_CUT / 10 <= input_spread(states) <= 10 * COMPLETENESS_CUT
    labelled = {f"in{i}": rho for i, rho in enumerate(states)}
    if data.draw(st.booleans(), label="repeat"):
        labelled["again"] = states[data.draw(st.integers(0, len(states) - 1), label="repeated")]
    bases = {"z": np.eye(d)} | {f"r{b}": random_unitary(d, rng).matrix
                                for b in range(data.draw(st.integers(0, d), label="bases"))}
    doc = measured_doc(labelled, bases, random_cptp_kraus(d, rng))
    cells = sorted(doc["probabilities"])
    for _ in range(data.draw(st.integers(0, 6), label="mutations")):
        cell = data.draw(st.sampled_from(cells))
        row = np.array(doc["probabilities"][cell])
        k = data.draw(st.integers(0, d - 1))
        how = data.draw(st.sampled_from(["0/1", "zero", "scale", "reverse"]))
        if how == "0/1" or how == "zero" and row.sum() == row[k]:
            row = np.eye(d)[k]
        elif how == "zero":
            row[k] = 0.0
        elif how == "scale":
            row[k] *= data.draw(st.floats(0, 10))
        else:
            row = row[::-1]
        doc["probabilities"][cell] = (row / row.sum() if row.sum() else np.eye(d)[k]).tolist()
    if data.draw(st.booleans(), label="sampled"):
        doc["sample_counts"] = {cell: data.draw(st.integers(1, 10 ** 4)) for cell in
                                data.draw(st.lists(st.sampled_from(cells), min_size=1, max_size=4))}
    return doc


def spelled_out(doc):
    """The same scenario with its named bases written out as kets, so that
    a mutation can reach the amplitudes."""
    r = math.sqrt(0.5)
    doc = copy.deepcopy(doc)
    doc["box"]["psi_basis"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
    doc["box"]["phi_basis"] = [[[r, 0.0], [r, 0.0]], [[r, 0.0], [-r, 0.0]]]
    return doc


FUZZED_SCENARIOS = [json.loads(p.read_text()) for p in BUNDLED]
FUZZED_SCENARIOS += [spelled_out(doc) for doc in FUZZED_SCENARIOS]


class TestParserFuzz:
    """Mutated scenario and stats files: only NlboxError subclasses escape
    parsing and running, so the CLI maps every one to an exit code."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_scenario(self, tmp_path_factory, data):
        source = data.draw(st.sampled_from(FUZZED_SCENARIOS))
        path = tmp_path_factory.getbasetemp() / "fuzz.scn"
        path.write_text(json.dumps(mutated(source, data)))
        try:
            run_scenario(parse_scenario(path))
        except NlboxError:
            pass

    @settings(max_examples=300)
    @given(data=st.data())
    def test_stats(self, tmp_path_factory, data):
        path = tmp_path_factory.getbasetemp() / "fuzz_stats.json"
        path.write_text(json.dumps(mutated(stats_doc(), data)))
        assert main(["witness", str(path)]) in (0, 2, 3)

    @settings(max_examples=60)
    @given(data=st.data())
    def test_stats_values(self, tmp_path_factory, data):
        # Each valid table with unusual values reaches the fit once and exits
        # 0, 3 (too few input directions) or 4; any other exception escapes
        # main and fails the test.
        path = tmp_path_factory.getbasetemp() / "fuzz_values.json"
        path.write_text(json.dumps(value_mutated_doc(data)))
        calls, real = [], cli.linearity_verdict
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "linearity_verdict", lambda *args: calls.append(args) or real(*args))
            assert main(["witness", str(path)]) in (0, 3, 4)
        assert len(calls) == 1


class TestCli:
    def test_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["run", str(SCENARIO_DIR / "verification.scn"),
                     "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["payload"]["identified"] is True

    def test_csv_format(self, tmp_path):
        out = tmp_path / "rep.csv"
        code = main(["run", str(SCENARIO_DIR / "verification.scn"),
                     "--format", "csv", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("key,outcome,value")

    def test_forced_protocol_mismatch(self, tmp_path, capsys):
        code = main(["verify", str(SCENARIO_DIR / "bb84_attack.scn"),
                     "--out", str(tmp_path / "x.json")])
        assert code == 3

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.scn")]) == 2

    def test_malformed_file_exit_code(self, tmp_path):
        path = tmp_path / "broken.scn"
        path.write_text("{ not json")
        assert main(["run", str(path)]) == 2

    @pytest.mark.parametrize("command", ["run", "witness"])
    def test_non_utf8_file_exit_code(self, tmp_path, capsys, command):
        path = tmp_path / "broken.scn"
        path.write_bytes(b"\xff\xfe{}")
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("parse error: ")

    def test_invalid_physics_exit_code(self, tmp_path):
        doc = dict(MINIMAL)
        doc["box"] = {
            "kind": "brun",
            "psi_basis": [[[0.9, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        }
        assert main(["run", str(write_scenario(tmp_path, doc))]) == 3

    @pytest.mark.parametrize("key,value", [
        ("n_bits", -5), ("n_bits", "abc"), ("n_bits", None), ("n_bits", [10]),
        ("seed", -1), ("seed", "abc"),
    ])
    def test_bad_bb84_params_exit_code(self, tmp_path, key, value):
        doc = json.loads((SCENARIO_DIR / "bb84_attack.scn").read_text())
        doc["protocol"][key] = value
        path = write_scenario(tmp_path, doc)
        with pytest.raises(ValidationError, match=key):
            run_scenario(parse_scenario(path))
        assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 3
        assert not (tmp_path / "r.json").exists()

    def test_bad_seed_override_exit_code(self, tmp_path):
        assert main(["bb84", str(SCENARIO_DIR / "bb84_attack.scn"), "--seed", "-3",
                     "--out", str(tmp_path / "r.json")]) == 3

    def test_zero_bits_scenario(self, tmp_path):
        doc = json.loads((SCENARIO_DIR / "bb84_attack.scn").read_text())
        doc["protocol"]["n_bits"] = 0
        report = run_scenario(parse_scenario(write_scenario(tmp_path, doc)))
        assert report.payload["n_bits"] == 0
        assert report.payload["sifted_key_fraction"] == 0.0

    def test_convergence_error_exit_code(self, tmp_path, monkeypatch, capsys):
        unitary = [[[x.real, x.imag] for x in row] for row in CNOT @ SWAP]
        box = {"kind": "deutsch", "unitary": unitary, "ctc_dim": 2, "semantics": "state"}
        path = mutated_scenario(tmp_path, "signaling_naive", ("box",), box)
        assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 0
        monkeypatch.setattr(boxes, "LOOP_RESIDUAL", -1.0)
        assert main(["run", str(path), "--out", str(tmp_path / "s.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith("convergence error: ") and "(residual=" in err
        assert not (tmp_path / "s.json").exists()

    def test_out_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLBOX_OUT_DIR", str(tmp_path))
        code = main(["run", str(SCENARIO_DIR / "verification.scn")])
        assert code == 0
        assert (tmp_path / "verification.report.json").exists()

    def test_batch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLBOX_OUT_DIR", str(tmp_path))
        assert main(["batch", str(SCENARIO_DIR)]) == 0
        reports = sorted(p.name for p in tmp_path.glob("*.report.json"))
        assert len(reports) == len(BUNDLED)

    def test_batch_prints_in_sorted_order(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("NLBOX_OUT_DIR", str(tmp_path))
        assert main(["batch", str(SCENARIO_DIR)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(": ", 1)[0] for line in lines] == [str(p) for p in BUNDLED]

    def test_batch_rejects_out(self, tmp_path):
        out = tmp_path / "one.json"
        with pytest.raises(SystemExit) as exc:
            main(["batch", str(SCENARIO_DIR), "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "nlbox 0.1.0\n"

    @staticmethod
    def version_from_module(module):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        done = subprocess.run([sys.executable, "-m", module, "--version"],
                              capture_output=True, text=True, env=env, timeout=60)
        return done.returncode, done.stdout

    def test_runs_as_a_module(self):
        assert self.version_from_module("nlbox") == (0, "nlbox 0.1.0\n")

    def test_cli_module_runs_as_a_script(self):
        assert self.version_from_module("nlbox.cli") == (0, "nlbox 0.1.0\n")

    @pytest.mark.parametrize("command", ["run", "witness"])
    def test_deeply_nested_file_exit_code(self, tmp_path, capsys, command):
        # Written as text: json.dumps cannot build a document nested this deep.
        path = tmp_path / "deep.scn"
        path.write_text("[" * 200_000)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"parse error: {path}: ")

    def test_tol_override_reaches_the_report(self, tmp_path):
        out = tmp_path / "r.json"
        assert main(["verify", str(SCENARIO_DIR / "verification.scn"), "--tol", "0.5",
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["payload"]["tol"] == 0.5

    def test_tol_override_is_ignored_by_bb84(self, tmp_path):
        plain, tol = tmp_path / "plain.json", tmp_path / "tol.json"
        scenario = str(SCENARIO_DIR / "bb84_attack.scn")
        assert main(["bb84", scenario, "--out", str(plain)]) == 0
        assert main(["bb84", scenario, "--tol", "0.5", "--out", str(tol)]) == 0
        assert tol.read_bytes() == plain.read_bytes()

    def test_out_into_a_missing_directory_exit_code(self, tmp_path, capsys):
        out = tmp_path / "absent" / "r.json"
        assert main(["run", str(SCENARIO_DIR / "verification.scn"), "--out", str(out)]) == 5
        assert capsys.readouterr().err.startswith(f"i/o error: cannot write report to {out}: ")
        assert not out.parent.exists()

    @pytest.mark.parametrize("where,value", [
        (("box", "kind"), "oracle"),
        (("box", "semantics"), "bogus"),
        (("protocol", "tol"), -1),
    ], ids=["kind", "semantics", "tol"])
    def test_batch_names_the_invalid_file(self, tmp_path, monkeypatch, capsys, where, value):
        monkeypatch.setenv("NLBOX_OUT_DIR", str(tmp_path / "out"))
        (tmp_path / "out").mkdir()
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        (scenarios / "a_valid.scn").write_bytes((SCENARIO_DIR / "verification.scn").read_bytes())
        bad = mutated_scenario(tmp_path, "verification", where, value).rename(
            scenarios / "b_invalid.scn")
        assert main(["batch", str(scenarios)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {bad}: ")

    def test_batch_names_the_file_that_fails_at_run_time(self, tmp_path, monkeypatch, capsys):
        # The file parses; only the run finds that verification needs a
        # two-qubit output, which this Deutsch box does not give.
        monkeypatch.setenv("NLBOX_OUT_DIR", str(tmp_path / "out"))
        (tmp_path / "out").mkdir()
        scenarios = tmp_path / "scenarios"
        scenarios.mkdir()
        (scenarios / "a_valid.scn").write_bytes((SCENARIO_DIR / "verification.scn").read_bytes())
        bad = mutated_scenario(tmp_path, "signaling_deutsch", ("protocol",),
                               {"name": "verification"}).rename(scenarios / "b_deutsch.scn")
        assert main(["batch", str(scenarios)]) == 3
        assert capsys.readouterr().err == (
            f"validation error: {bad}: unexpected box output dimension 2, not two qubits\n")

    def test_run_names_the_file_that_fails_to_converge(self, tmp_path, monkeypatch, capsys):
        unitary = [[[x.real, x.imag] for x in row] for row in CNOT @ SWAP]
        box = {"kind": "deutsch", "unitary": unitary, "ctc_dim": 2, "semantics": "state"}
        path = mutated_scenario(tmp_path, "signaling_naive", ("box",), box)
        monkeypatch.setattr(boxes, "LOOP_RESIDUAL", -1.0)
        assert main(["run", str(path), "--out", str(tmp_path / "r.json")]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"convergence error: {path}: fixed-point residual ")
        residual = float(err.rsplit("(residual=", 1)[1].rstrip(")\n"))
        assert 0.0 <= residual <= 1e-8

    def test_batch_empty_directory(self, tmp_path):
        assert main(["batch", str(tmp_path)]) == 3

    def test_witness_subcommand(self, tmp_path, capsys):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(stats_doc()))
        assert main(["witness", str(path)]) == 0
        out = capsys.readouterr().out
        assert "linear_explainable=True" in out

    def test_witness_prints_plain_float_tol(self, tmp_path, capsys):
        doc = stats_doc()
        doc["sample_counts"] = {k: 100 for k in doc["probabilities"]}
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc))
        assert main(["witness", str(path)]) == 0
        fields = dict(kv.split("=", 1) for kv in capsys.readouterr().out.split())
        # Three binomial sigmas at p = 1/2 and 100 shots.
        assert fields["tol"] == repr(3 * 0.05)
        assert fields["linear_explainable"] == "True"

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_witness_rejects_bad_tol(self, tmp_path, capsys, tol):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(stats_doc()))
        assert main(["witness", str(path), "--tol", tol]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: tol must be")

    @pytest.mark.parametrize("flag,value", [("--format", "csv"), ("--out", "w.json")])
    def test_witness_rejects_report_flags(self, tmp_path, monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(stats_doc()))
        with pytest.raises(SystemExit) as exc:
            main(["witness", str(path), flag, value])
        assert exc.value.code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.json"]

    def test_witness_incomplete_table_names_the_file(self, tmp_path, capsys):
        doc = stats_doc()
        doc["preparations"] = doc["preparations"][:2]  # |0> and |1> span 2 of 4 dimensions
        doc["probabilities"] = {k: v for k, v in doc["probabilities"].items()
                                if k.split("|")[0] in ("zero", "one")}
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc))
        assert main(["witness", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: input densities span only 2 of the 4 ")
        assert captured.out == ""

    @pytest.mark.parametrize("case", sorted(UNUSUAL_STATS))
    def test_witness_fits_unusual_valid_tables(self, tmp_path, monkeypatch, capsys, case):
        doc, verdict = UNUSUAL_STATS[case]()
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc))
        calls, real = [], cli.linearity_verdict
        monkeypatch.setattr(cli, "linearity_verdict",
                            lambda *args: calls.append(args) or real(*args))
        assert main(["witness", str(path)]) == (3 if verdict is None else 0)
        captured = capsys.readouterr()
        if verdict is None:
            assert "tomographically incomplete" in captured.err
        else:
            assert captured.out.endswith(f"linear_explainable={verdict}\n")
        assert len(calls) == 1

    def test_witness_reads_the_hermitian_part(self, tmp_path, capsys):
        # A density and an effect with a 0.5 ATOL anti-Hermitian part print the
        # same line as the file with every matrix conjugate-transposed.
        x_basis, y_basis = (np.array([[1, 1], [s, -s]]) / math.sqrt(2) for s in (1, 1j))
        doc = measured_doc(qubit_inputs(), {"z": np.eye(2), "x": x_basis, "y": y_basis})
        skew = np.array([[0.0, 0.5 * ATOL], [-0.2j * ATOL, 0.0]])
        doc["preparations"][2]["density"] = density(qubit_inputs()["plus"] + skew)
        doc["measurements"][1]["effects"][0] = density(np.full((2, 2), 0.5) + skew)
        twin = copy.deepcopy(doc)
        for m in [p["density"] for p in twin["preparations"]] + [
                e for ms in twin["measurements"] for e in ms["effects"]]:
            m[:] = density((np.array(m) @ np.array([1, 1j])).conj().T)
        lines = []
        for name, d in (("skewed.json", doc), ("adjoint.json", twin)):
            (tmp_path / name).write_text(json.dumps(d))
            assert main(["witness", str(tmp_path / name)]) == 0
            lines.append(capsys.readouterr().out)
        assert lines[0] == lines[1]
        assert lines[0].endswith("linear_explainable=True\n")

    def test_witness_parse_stats(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(stats_doc()))
        table = parse_stats(path)
        assert table.input_dim == 2
        assert not table.is_sampled()
