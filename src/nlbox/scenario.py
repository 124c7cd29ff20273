"""Scenario files: parsing, validation, execution, and report emission.

A scenario is a JSON document (conventionally *.scn) describing one box,
optional preparations, and one protocol with its parameters. Reports are
deterministic given (scenario, seed) and serialize byte-stably.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass

import numpy as np

from .boxes import (
    BrunBoxConfig,
    DeutschBoxConfig,
    KentBoxConfig,
    LinearBoxConfig,
    NonlinearBox,
    Semantics,
    kent_brun_emulation,
)
from .errors import (
    ConfigurationError,
    NlboxError,
    ScenarioParseError,
    ValidationError,
)
from .preparations import (
    MembershipPolicy,
    PolicyKind,
    Preparation,
    Provenance,
    ProvenanceTag,
    SpacetimeEvent,
)
from .protocols import (
    DEFAULT_ALICE_EVENT,
    run_bb84_attack,
    run_preparation_problem_demo,
    run_signaling_test,
    run_verification,
)
from .qcore import COMPUTATIONAL_BASIS, HADAMARD_BASIS, DensityOperator, KetVector, Unitary

SCENARIO_SCHEMA = "nlbox-scenario/1"
REPORT_SCHEMA = "nlbox-report/1"

_PROTOCOLS = ("verification", "signaling", "prep_problem", "bb84")


@dataclass(frozen=True)
class ScenarioConfig:
    box: NonlinearBox
    preparations: dict  # label -> Preparation
    protocol: str
    params: dict
    raw: dict


@dataclass(frozen=True)
class Report:
    schema: str
    protocol: str
    scenario: dict
    payload: dict

    def to_json(self) -> str:
        doc = {
            "schema": self.schema,
            "protocol": self.protocol,
            "scenario": self.scenario,
            "payload": self.payload,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _complex_from_pair(pair, where):
    if (not isinstance(pair, (list, tuple))) or len(pair) != 2:
        raise ValidationError(f"{where}: complex numbers are [re, im] pairs")
    return complex(float(pair[0]), float(pair[1]))


def _ket_from_json(node, where) -> KetVector:
    try:
        amps = [_complex_from_pair(a, where) for a in node]
        return KetVector(np.array(amps))
    except ValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: malformed ket ({exc})") from exc


def _basis_from_json(node, where):
    if isinstance(node, str):
        if node == "computational":
            return COMPUTATIONAL_BASIS
        if node == "hadamard":
            return HADAMARD_BASIS
        raise ValidationError(f"{where}: unknown basis name {node!r}")
    if not isinstance(node, list) or len(node) != 2:
        raise ValidationError(f"{where}: a basis is a name or two kets")
    return (_ket_from_json(node[0], where), _ket_from_json(node[1], where))


def _matrix_from_json(node, where) -> np.ndarray:
    try:
        return np.array([[_complex_from_pair(x, where) for x in row] for row in node])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: malformed matrix ({exc})") from exc


def _event_from_json(node, where) -> SpacetimeEvent:
    if not isinstance(node, (list, tuple)) or len(node) != 2:
        raise ValidationError(f"{where}: spacetime events are [t, x] pairs")
    return SpacetimeEvent(float(node[0]), float(node[1]))


def _policy_from_json(node, box_event, where) -> MembershipPolicy:
    if not isinstance(node, dict) or "kind" not in node:
        raise ValidationError(f"{where}: membership policy needs a 'kind'")
    try:
        kind = PolicyKind(node["kind"])
    except ValueError as exc:
        raise ValidationError(f"{where}: unknown policy kind {node['kind']!r}") from exc
    event = _event_from_json(node["box_event"], where) if "box_event" in node else box_event
    labels = frozenset(node.get("labels", ()))
    if kind is PolicyKind.KENT_LIGHT_CONE:
        return MembershipPolicy(kind, box_event=event)
    if kind is PolicyKind.EXPLICIT_LIST:
        return MembershipPolicy(kind, labels=labels)
    return MembershipPolicy(kind)


def _box_from_json(node) -> NonlinearBox:
    where = "box"
    if not isinstance(node, dict):
        raise ValidationError("scenario 'box' must be an object")
    kind = node.get("kind")
    box_event = _event_from_json(node.get("box_event", [1.0, 0.0]), where)
    semantics = Semantics(node.get("semantics", "decomposition"))
    policy = _policy_from_json(node.get("membership", {"kind": "naive_pure"}),
                               box_event, where)
    if kind in ("brun", "kent"):
        brun = BrunBoxConfig(
            psi_basis=_basis_from_json(node.get("psi_basis", "computational"), where),
            phi_basis=_basis_from_json(node.get("phi_basis", "hadamard"), where),
        )
        config = brun if kind == "brun" else kent_brun_emulation(brun)
    elif kind == "deutsch":
        u = Unitary(_matrix_from_json(node["unitary"], where))
        config = DeutschBoxConfig(unitary=u, ctc_dim=int(node.get("ctc_dim", 2)))
    elif kind == "linear":
        kraus = tuple(_matrix_from_json(k, where) for k in node["kraus"])
        config = LinearBoxConfig(kraus=kraus, ancilla=bool(node.get("ancilla", False)))
    else:
        raise ValidationError(f"box: unknown kind {kind!r}")
    return NonlinearBox(config=config, box_event=box_event,
                        semantics=semantics, membership=policy)


def _preparation_from_json(node, where) -> Preparation:
    def ensemble(items):
        out = []
        for item in items:
            rho = DensityOperator(_matrix_from_json(item["state"], where))
            out.append((float(item["weight"]), rho))
        return tuple(out)

    try:
        tag = ProvenanceTag(node["provenance"]["tag"])
        records = tuple(_event_from_json(e, where)
                        for e in node["provenance"]["records"])
        return Preparation(
            ensemble=ensemble(node["ensemble"]),
            provenance=Provenance(tag, records),
            label=node["label"],
            unconditioned=(ensemble(node["unconditioned"])
                           if "unconditioned" in node else None),
        )
    except KeyError as exc:
        raise ValidationError(f"{where}: missing preparation field {exc}") from exc


def parse_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario file.

    Raises ScenarioParseError for malformed text and ValidationError with
    the first violated constraint otherwise.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{path}: scenario must be a JSON object")
    if raw.get("schema", SCENARIO_SCHEMA) != SCENARIO_SCHEMA:
        raise ValidationError(f"{path}: unsupported schema {raw.get('schema')!r}")

    box = _box_from_json(raw.get("box", {}))
    preparations = {}
    for i, node in enumerate(raw.get("preparations", [])):
        prep = _preparation_from_json(node, f"preparations[{i}]")
        if prep.label in preparations:
            raise ValidationError(f"duplicate preparation label {prep.label!r}")
        preparations[prep.label] = prep

    proto = raw.get("protocol", {})
    if not isinstance(proto, dict) or "name" not in proto:
        raise ValidationError("scenario 'protocol' needs a 'name'")
    name = proto["name"]
    if name not in _PROTOCOLS:
        raise ValidationError(f"unknown protocol {name!r}; expected one of {_PROTOCOLS}")
    params = {k: v for k, v in proto.items() if k != "name"}
    for label in params.get("use_preparations", ()):
        if label not in preparations:
            raise ValidationError(f"protocol references undefined preparation label {label!r}")
    return ScenarioConfig(box=box, preparations=preparations,
                          protocol=name, params=params, raw=raw)


def parse_stats(path) -> "StatsTable":
    """Load a stats table from its JSON form.

    Keys of `probabilities`/`sample_counts` are "<prep>|<measurement>".
    """
    from .qcore import Povm
    from .witness import StatsTable

    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    try:
        preps = tuple(
            (node["label"], DensityOperator(_matrix_from_json(node["density"], "stats")))
            for node in raw["preparations"])
        meas = tuple(
            (node["label"], Povm(tuple(_matrix_from_json(e, "stats")
                                       for e in node["effects"])))
            for node in raw["measurements"])
        probs = {tuple(k.split("|", 1)): tuple(float(x) for x in v)
                 for k, v in raw["probabilities"].items()}
        counts = raw.get("sample_counts")
        if counts is not None:
            counts = {tuple(k.split("|", 1)): int(v) for k, v in counts.items()}
    except (KeyError, TypeError) as exc:
        raise ScenarioParseError(f"{path}: malformed stats table ({exc})") from exc
    return StatsTable(preparations=preps, measurements=meas,
                      probabilities=probs, sample_counts=counts)


def _int_param(params, key, default) -> int:
    value = params.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"protocol: {key} must be an integer, got {value!r}") from exc


def run_scenario(config: ScenarioConfig, seed: int | None = None,
                 tol: float | None = None) -> Report:
    """Dispatch a validated scenario to its protocol."""
    box = config.box
    params = dict(config.params)
    if seed is not None:
        params["seed"] = seed
    if tol is not None:
        params["tol"] = tol

    if config.protocol == "verification":
        rep = run_verification(box, tol=float(params.get("tol", 1e-6)))
    elif config.protocol == "signaling":
        alice = (_event_from_json(params["alice_event"], "protocol")
                 if "alice_event" in params else DEFAULT_ALICE_EVENT)
        rep = run_signaling_test(box, params.get("settings", ["psi", "phi"]),
                                 alice_event=alice)
    elif config.protocol == "prep_problem":
        alice = (_event_from_json(params["alice_event"], "protocol")
                 if "alice_event" in params else DEFAULT_ALICE_EVENT)
        rep = run_preparation_problem_demo(box, alice_event=alice)
    elif config.protocol == "bb84":
        rep = run_bb84_attack(
            box,
            n_bits=_int_param(params, "n_bits", 1000),
            seed=_int_param(params, "seed", 0),
            eve_strategy=params.get("eve_strategy", "identify"),
        )
    else:  # unreachable after parse validation
        raise ConfigurationError(f"unknown protocol {config.protocol!r}")
    return Report(schema=REPORT_SCHEMA, protocol=config.protocol,
                  scenario=config.raw, payload=rep.to_payload())


def _csv_rows(report: Report):
    p = report.payload
    if report.protocol == "verification":
        for label, probs in sorted(p["table"].items()):
            for k, prob in enumerate(probs):
                yield (label, format(k, "02b"), repr(prob))
        yield ("identified", "", repr(bool(p["identified"])))
    elif report.protocol == "signaling":
        for setting, probs in sorted(p["distributions"].items()):
            for k, prob in enumerate(probs):
                yield (setting, str(k), repr(prob))
        yield ("signaling_metric", "", repr(p["signaling_metric"]))
    elif report.protocol == "prep_problem":
        for e in p["entries"]:
            yield (e["state"], "linearly_equivalent", repr(e["linearly_equivalent"]))
            if "output_distance" in e:
                yield (e["state"], "output_distance", repr(e["output_distance"]))
        yield ("hazard", "", repr(bool(p["hazard"])))
    else:
        for key in sorted(p):
            yield (key, "", repr(p[key]))


def emit_table(report: Report, fmt: str = "json") -> str:
    """Render a report as a byte-stable JSON document or CSV table."""
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "outcome", "value"))
        for row in _csv_rows(report):
            writer.writerow(row)
        return buf.getvalue()
    raise ConfigurationError(f"unknown output format {fmt!r}")


def write_report(report: Report, path, fmt: str = "json") -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(emit_table(report, fmt))
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
