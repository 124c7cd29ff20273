"""Command-line front end.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 convergence
error, 5 I/O error. The output directory may be overridden with the
NLBOX_OUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__
from .errors import (
    ConvergenceError,
    NlboxError,
    RankError,
    ScenarioParseError,
    ValidationError,
)
from .scenario import PROTOCOLS, parse_scenario, parse_stats, run_scenario, write_report
from .witness import linearity_verdict

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_CONVERGENCE = 4
EXIT_IO = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlbox",
        description="Scenario-driven nonlinear-box experiments")
    parser.add_argument("--version", action="version", version=f"nlbox {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out=True):
        p.add_argument("--format", choices=("csv", "json"), default="json")
        if with_out:
            p.add_argument("--out", type=Path, default=None, help="report file path")
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)

    commands = [protocol.command for protocol in PROTOCOLS.values() if protocol.command]
    for name in ("run", *commands):
        p = sub.add_parser(name)
        p.add_argument("scenario", type=Path)
        add_common(p)

    # The witness prints one verdict line and writes no report.
    p = sub.add_parser("witness")
    p.add_argument("stats", type=Path)
    p.add_argument("--tol", type=float, default=None)

    # One --out file would be overwritten by every report of the batch.
    p = sub.add_parser("batch")
    p.add_argument("directory", type=Path)
    add_common(p, with_out=False)
    p.set_defaults(out=None)
    return parser


def _out_path(args, default_name: str) -> Path:
    out = args.out
    if out is None:
        out = Path(default_name)
    override = os.environ.get("NLBOX_OUT_DIR")
    if override:
        out = Path(override) / out.name
    return out


def _run_one(path: Path, args) -> None:
    config = parse_scenario(path)
    if args.command not in ("run", "batch", PROTOCOLS[config.protocol].command):
        raise ValidationError(
            f"{path}: scenario protocol is {config.protocol!r}, which "
            f"'nlbox {args.command}' does not run")
    try:
        report = run_scenario(config, seed=args.seed, tol=args.tol)
    except NlboxError as exc:  # the scenario's fault: name it, keeping the type and residual
        exc.args = (f"{path}: {exc}",)
        raise
    ext = "csv" if args.format == "csv" else "json"
    out = _out_path(args, f"{path.stem}.report.{ext}")
    write_report(report, out, args.format)
    print(f"{path}: {config.protocol} report written to {out}")


def _run_witness(args) -> None:
    table = parse_stats(args.stats)
    try:
        fit, tol, verdict = linearity_verdict(table, args.tol)
    except RankError as exc:  # the file's fault; a bad --tol is not, and stays unnamed
        raise RankError(f"{args.stats}: {exc}") from exc
    print(f"residual={fit.residual!r} choi_min_eig={fit.choi_min_eig!r} "
          f"tol={tol!r} linear_explainable={verdict}")


def _run_batch(args) -> None:
    files = sorted(args.directory.glob("*.scn"))
    if not files:
        raise ValidationError(f"no *.scn files under {args.directory}")
    for path in files:
        _run_one(path, args)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "witness":
            _run_witness(args)
        elif args.command == "batch":
            _run_batch(args)
        else:
            _run_one(args.scenario, args)
    except (ScenarioParseError, FileNotFoundError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ConvergenceError as exc:
        print(f"convergence error: {exc} (residual={exc.residual})", file=sys.stderr)
        return EXIT_CONVERGENCE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NlboxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
