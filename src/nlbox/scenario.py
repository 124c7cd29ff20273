"""Scenario files: parsing, validation, execution, and report emission.

A scenario is a JSON document (conventionally *.scn) describing one box
and one protocol with its parameters. Reports are deterministic given
(scenario, seed) and serialize byte-stably.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .boxes import (
    BrunBoxConfig,
    DeutschBoxConfig,
    KentBoxConfig,
    LinearBoxConfig,
    NonlinearBox,
)
from .errors import (
    CapacityError,
    ConfigurationError,
    NlboxError,
    ScenarioParseError,
    ValidationError,
    check_instance,
    check_integer,
    check_tol,
)
from .preparations import MembershipPolicy, SpacetimeEvent
from .protocols import (
    DEFAULT_ALICE_EVENT,
    MAX_BB84_BITS,
    check_eve_strategy,
    run_bb84_attack,
    run_preparation_problem_demo,
    run_signaling_test,
    run_verification,
)
from .qcore import COMPUTATIONAL_BASIS, HADAMARD_BASIS, DensityOperator, KetVector, Povm, Unitary
from .witness import StatsTable

SCENARIO_SCHEMA = "nlbox-scenario/1"
REPORT_SCHEMA = "nlbox-report/1"


@dataclass(frozen=True)
class ScenarioConfig:
    box: NonlinearBox
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
        return json.dumps(vars(self), sort_keys=True, indent=2) + "\n"


def _number_from_json(value) -> float:
    """A JSON number as a float; a bool or a string fails like any non-number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _complex_from_pair(pair, where):
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValidationError(f"{where}: complex numbers are [re, im] pairs of numbers")
    return complex(_number_from_json(pair[0]), _number_from_json(pair[1]))


def _ket_from_json(node, where) -> KetVector:
    return KetVector(np.array([_complex_from_pair(a, where) for a in node]))


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
    return np.array([[_complex_from_pair(x, where) for x in row] for row in node])


def _event_from_json(node, where) -> SpacetimeEvent:
    if not isinstance(node, list) or len(node) != 2:
        raise ValidationError(f"{where}: spacetime events are [t, x] pairs of numbers")
    return SpacetimeEvent(*node)


def _int_from_json(value, where) -> int:
    """A non-negative int from an int, an integral float or an integer
    string; booleans and fractions are rejected, not truncated."""
    if ((isinstance(value, str) and value.strip().isdecimal())
            or (isinstance(value, float) and value.is_integer())):
        value = int(value)
    return check_integer(value, where)


def _policy_from_json(node, box_event, where) -> MembershipPolicy:
    if not isinstance(node, dict) or "kind" not in node:
        raise ValidationError(f"{where}: membership policy needs a 'kind'")
    labels = node.get("labels", [])
    if not isinstance(labels, list):
        raise ValidationError(f"{where}: membership labels must be a list of strings")
    return MembershipPolicy(node["kind"], box_event=box_event, labels=labels)


def _box_from_json(node) -> NonlinearBox:
    where = "box"
    if not isinstance(node, dict):
        raise ValidationError("scenario 'box' must be an object")
    kind = node.get("kind")
    box_event = _event_from_json(node.get("box_event", [1.0, 0.0]), where)
    policy = _policy_from_json(node.get("membership", {"kind": "naive_pure"}),
                               box_event, where)
    if kind in ("brun", "kent"):
        config = (BrunBoxConfig if kind == "brun" else KentBoxConfig)(
            psi_basis=_basis_from_json(node.get("psi_basis", "computational"), where),
            phi_basis=_basis_from_json(node.get("phi_basis", "hadamard"), where),
        )
    elif kind == "deutsch":
        u = Unitary(_matrix_from_json(node["unitary"], where))
        ctc_dim = _int_from_json(node.get("ctc_dim", 2), "box: ctc_dim")
        config = DeutschBoxConfig(unitary=u, ctc_dim=ctc_dim)
    elif kind == "linear":
        config = LinearBoxConfig(tuple(_matrix_from_json(k, where) for k in node["kraus"]))
    else:
        raise ValidationError(f"box: unknown kind {kind!r}")
    return NonlinearBox(config=config, box_event=box_event,
                        semantics=node.get("semantics", "decomposition"), membership=policy)


def _load_json(path):
    """The JSON document in a file; text that is not JSON or not UTF-8 (a
    ValueError), or that nests too deeply to decode, is a ScenarioParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (RecursionError, ValueError) as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc


def parse_scenario(path) -> ScenarioConfig:
    """Load and validate a scenario file, protocol params included.

    Raises ScenarioParseError for malformed text and ValidationError with
    the first violated constraint otherwise, a missing field or one of the
    wrong type included. Every error names the path.
    """
    raw = _load_json(path)
    if not isinstance(raw, dict):
        raise ScenarioParseError(f"{path}: scenario must be a JSON object")
    if raw.get("schema", SCENARIO_SCHEMA) != SCENARIO_SCHEMA:
        raise ValidationError(f"{path}: unsupported schema {raw.get('schema')!r}")

    try:
        return _scenario_from_json(raw)
    except NlboxError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except (LookupError, OverflowError, TypeError, ValueError) as exc:
        raise ValidationError(
            f"{path}: malformed scenario ({type(exc).__name__}: {exc})") from exc


def _scenario_from_json(raw) -> ScenarioConfig:
    box = _box_from_json(raw.get("box", {}))
    proto = raw.get("protocol", {})
    if not isinstance(proto, dict) or not isinstance(proto.get("name"), str):
        raise ValidationError("scenario 'protocol' needs a 'name'")
    name = proto["name"]
    if name not in PROTOCOLS:
        raise ValidationError(
            f"unknown protocol {name!r}; expected one of {tuple(PROTOCOLS)}")
    params = {k: v for k, v in proto.items() if k != "name"}
    PROTOCOLS[name].parse(params)
    return ScenarioConfig(box=box, protocol=name, params=params, raw=raw)


def _cells_from_json(node, value) -> dict:
    """{(prep, measurement): value(v)} from a {"<prep>|<measurement>": v} object."""
    cells = {}
    for k, v in node.items():
        pl, ml = k.split("|", 1)
        cells[pl, ml] = value(v)
    return cells


def parse_stats(path) -> StatsTable:
    """Load a stats table from its JSON form.

    Keys of `probabilities`/`sample_counts` are "<prep>|<measurement>".
    """
    raw = _load_json(path)
    try:
        preps = tuple(
            (node["label"], DensityOperator(_matrix_from_json(node["density"], "stats")))
            for node in raw["preparations"])
        meas = tuple(
            (node["label"], Povm(tuple(_matrix_from_json(e, "stats")
                                       for e in node["effects"])))
            for node in raw["measurements"])
        probs = _cells_from_json(raw["probabilities"], lambda v: tuple(map(_number_from_json, v)))
        counts = raw.get("sample_counts")
        if counts is not None:
            counts = _cells_from_json(
                counts, lambda v: _int_from_json(v, "stats: sample_counts"))
        return StatsTable(preparations=preps, measurements=meas,
                          probabilities=probs, sample_counts=counts)
    except NlboxError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except (AttributeError, LookupError, OverflowError, TypeError, ValueError) as exc:
        raise ScenarioParseError(f"{path}: malformed stats table ({exc})") from exc


def _alice_event(params) -> SpacetimeEvent:
    if "alice_event" not in params:
        return DEFAULT_ALICE_EVENT
    return _event_from_json(params["alice_event"], "protocol: alice_event")


def _verification_params(params) -> dict:
    return {"tol": check_tol(params.get("tol", 1e-6))}


def _signaling_params(params) -> dict:
    settings = params.get("settings", ["psi", "phi"])
    if not isinstance(settings, list) or not settings or any(
            s not in ("psi", "phi") for s in settings):
        raise ValidationError(
            f"protocol: settings must be a non-empty list of 'psi'/'phi', got {settings!r}")
    return {"settings": settings, "alice_event": _alice_event(params)}


def _prep_problem_params(params) -> dict:
    return {"alice_event": _alice_event(params)}


def _bb84_params(params) -> dict:
    strategy = check_eve_strategy(params.get("eve_strategy", "identify"))
    n_bits = _int_from_json(params.get("n_bits", 1000), "protocol: n_bits")
    if n_bits > MAX_BB84_BITS:
        raise CapacityError(f"protocol: n_bits must be at most {MAX_BB84_BITS}")
    return {"n_bits": n_bits,
            "seed": _int_from_json(params.get("seed", 0), "protocol: seed"),
            "eve_strategy": strategy}


def _verification_rows(p):
    for label, probs in sorted(p["table"].items()):
        for k, prob in enumerate(probs):
            yield (label, format(k, "02b"), repr(prob))
    yield ("identified", "", repr(bool(p["identified"])))


def _signaling_rows(p):
    for setting, probs in sorted(p["distributions"].items()):
        for k, prob in enumerate(probs):
            yield (setting, str(k), repr(prob))
    yield ("signaling_metric", "", repr(p["signaling_metric"]))


def _prep_problem_rows(p):
    for e in p["entries"]:
        yield (e["state"], "linearly_equivalent", repr(e["linearly_equivalent"]))
        if "output_distance" in e:
            yield (e["state"], "output_distance", repr(e["output_distance"]))
    yield ("hazard", "", repr(bool(p["hazard"])))


def _flat_rows(p):
    for key in sorted(p):
        yield (key, "", repr(p[key]))


@dataclass(frozen=True)
class Protocol:
    parse: Callable[[dict], dict]  # raw params -> runner kwargs; raises ValidationError
    run: Callable                  # (box, **kwargs) -> report dataclass
    rows: Callable                 # report payload -> CSV (key, outcome, value) rows
    command: str | None = None     # the CLI subcommand that runs only this protocol


# The only list of protocols. Runners are called through their module-global
# names at call time, not stored, so that rebinding those names (a tracer or
# a test patching module attributes) reaches every scenario run.
PROTOCOLS = {
    "verification": Protocol(_verification_params,
                             lambda box, **kw: run_verification(box, **kw),
                             _verification_rows, "verify"),
    "signaling": Protocol(_signaling_params,
                          lambda box, **kw: run_signaling_test(box, **kw),
                          _signaling_rows, "signaling"),
    "prep_problem": Protocol(_prep_problem_params,
                             lambda box, **kw: run_preparation_problem_demo(box, **kw),
                             _prep_problem_rows),
    "bb84": Protocol(_bb84_params,
                     lambda box, **kw: run_bb84_attack(box, **kw),
                     _flat_rows, "bb84"),
}


def run_scenario(config: ScenarioConfig, seed: int | None = None,
                 tol: float | None = None) -> Report:
    """Run a validated scenario through its protocol. `seed` and `tol`
    override its params, are validated like them, and are ignored by a
    protocol that does not take them."""
    params = dict(config.params)
    if seed is not None:
        params["seed"] = seed
    if tol is not None:
        params["tol"] = tol
    protocol = PROTOCOLS[config.protocol]
    rep = protocol.run(config.box, **protocol.parse(params))
    # The runner's report is fresh, flat and reachable from nowhere else, so
    # a shallow dict of its fields equals dataclasses.asdict without the deep copy.
    return Report(schema=REPORT_SCHEMA, protocol=config.protocol,
                  scenario=config.raw, payload=dict(vars(rep)))


def emit_table(report: Report, fmt: str = "json") -> str:
    """Render a report as a byte-stable JSON document or CSV table."""
    check_instance(report, Report, "emit_table's report")
    if fmt == "json":
        return report.to_json()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "outcome", "value"))
        writer.writerows(PROTOCOLS[report.protocol].rows(report.payload))
        return buf.getvalue()
    raise ConfigurationError(f"unknown output format {fmt!r}")


def write_report(report: Report, path, fmt: str = "json") -> None:
    """Write emit_table's text to path; a bad report or format leaves no file."""
    text = emit_table(report, fmt)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc
