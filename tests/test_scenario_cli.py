import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CNOT, SWAP
from nlbox import boxes
from nlbox.cli import main
from nlbox.errors import CapacityError, NlboxError, ScenarioParseError, ValidationError
from nlbox.qcore import born_probabilities, computational_povm
from nlbox.scenario import (
    MAX_BB84_BITS,
    REPORT_SCHEMA,
    emit_table,
    parse_scenario,
    parse_stats,
    run_scenario,
)

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


IDENTITY_4 = [[[float(i == j), 0.0] for j in range(4)] for i in range(4)]
NAN_IDENTITY_2 = [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
NAN_IDENTITY_4 = [[[math.nan, 0.0]] + IDENTITY_4[0][1:]] + IDENTITY_4[1:]
HUGE = 10 ** 400  # an exact JSON integer that no float can hold

# Malformed scenarios: (id, bundled scenario, path of the replaced field,
# new value, exit code). Each must fail in parse_scenario, before any run.
MALFORMED = [
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
    ("kraus_nan", "verification", ("box",), {"kind": "linear", "kraus": [NAN_IDENTITY_2]}, 3),
    ("psi_basis_nan", "verification", ("box", "psi_basis"), NAN_IDENTITY_2, 3),
    ("unitary_nan", "verification", ("box",),
     {"kind": "deutsch", "unitary": NAN_IDENTITY_4, "ctc_dim": 2}, 3),
    ("tol_huge_int", "verification", ("protocol", "tol"), HUGE, 3),
    ("box_event_huge_int", "verification", ("box", "box_event"), [HUGE, 0.0], 3),
    ("box_event_bool", "verification", ("box", "box_event"), [True, False], 3),
    ("labels_string", "verification", ("box", "membership"),
     {"kind": "explicit_list", "labels": "verify_psi0"}, 3),
]


# Malformed stats tables for `nlbox witness`: (id, path of the replaced
# field in stats_doc(), new value, exit code).
MALFORMED_STATS = [
    ("probability_not_number", ("probabilities", "zero|comp"), [1.0, "x"], 2),
    ("key_without_bar", ("probabilities",), {"zero": [1.0, 0.0]}, 2),
    ("probabilities_not_object", ("probabilities",), [[1.0, 0.0]], 2),
    ("density_entry_not_number", ("preparations", 0, "density", 0, 0), ["x", 0.0], 2),
    ("sample_count_fraction", ("sample_counts",), {"zero|comp": 100.7}, 3),
    ("sample_count_bool", ("sample_counts",), {"zero|comp": True}, 3),
    ("sample_count_negative", ("sample_counts",), {"zero|comp": -1}, 3),
    ("probability_nan", ("probabilities", "zero|comp"), [1.0, math.nan], 3),
    ("probability_huge_int", ("probabilities", "zero|comp"), [HUGE, 0.0], 2),
]


def mutated_scenario(tmp_path, stem, where, value):
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
        with pytest.raises(ValidationError):
            parse_scenario(path)
        out = tmp_path / "r.json"
        assert main(["run", str(path), "--out", str(out)]) == code
        assert capsys.readouterr().err.startswith("validation error: ")
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
        assert parse_scenario(at_cap).params["n_bits"] == MAX_BB84_BITS
        above = mutated_scenario(tmp_path, "bb84_attack", ("protocol", "n_bits"),
                                 MAX_BB84_BITS + 1)
        with pytest.raises(CapacityError, match="n_bits"):
            parse_scenario(above)

    @pytest.mark.parametrize("where,value,code", [case[1:] for case in MALFORMED_STATS],
                             ids=[case[0] for case in MALFORMED_STATS])
    def test_stats_exit_code(self, tmp_path, capsys, where, value, code):
        doc = stats_doc()
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(doc))
        assert main(["witness", str(path)]) == code
        captured = capsys.readouterr()
        prefix = {2: "parse error: ", 3: "validation error: "}[code]
        assert captured.err.startswith(prefix)
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
        assert emit_table(report, fmt).encode("utf-8") == golden

    def test_csv_deterministic(self):
        config = parse_scenario(SCENARIO_DIR / "signaling_naive.scn")
        a = emit_table(run_scenario(config), "csv")
        b = emit_table(run_scenario(config), "csv")
        assert a == b


def stats_doc():
    def density(m):
        return [[[x.real, x.imag] for x in row] for row in np.asarray(m, complex)]

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
    """A copy of doc with one to three nodes replaced by drawn values."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        where = data.draw(st.sampled_from(list(node_paths(doc))))
        node = doc
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = data.draw(SPECIAL_VALUES | JSON_VALUES)
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
        try:
            parse_stats(path)
        except NlboxError:
            pass


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

    @pytest.mark.parametrize("flag,value", [("--format", "csv"), ("--out", "w.json")])
    def test_witness_rejects_report_flags(self, tmp_path, monkeypatch, flag, value):
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(stats_doc()))
        with pytest.raises(SystemExit) as exc:
            main(["witness", str(path), flag, value])
        assert exc.value.code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["stats.json"]

    def test_witness_parse_stats(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text(json.dumps(stats_doc()))
        table = parse_stats(path)
        assert table.input_dim == 2
        assert not table.is_sampled()
