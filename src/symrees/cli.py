"""Command-line front end.

Subcommands construct a configuration, run the verification pipeline, print a
human-readable summary to stdout, and optionally write the full report as
JSON.  Exit codes: 0 condition verified, 1 condition not established,
2 invalid input or parameters, 3 a computation budget ran out, 4 a bug (an
internal consistency check failed, or any other unexpected exception).
"""

from __future__ import annotations

import argparse
import json
import sys
from math import lcm

from .configs import (
    Configuration,
    WitnessPair,
    fermat,
    grid_example,
    three_points,
    two_pencils,
)
from .errors import InputError, ResourceLimitError
from .fields import CyclotomicField, Field, FieldSpec, PrimeField, RationalField, json_int, make_field
from .ideals import INFINITE
from .parsing import parse_polynomial, parse_scalar
from .points import PointSet, ProjectivePoint, base_ring, symbolic_power_ideal, symbolic_power_membership
from .verifier import VERDICT_VERIFIED, verify

EXIT_VERIFIED = 0
EXIT_NOT_ESTABLISHED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

DEFAULT_TRIANGLE = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symrees",
        description="verify finite generation of symbolic Rees rings of planar point configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for the generic linear form draw")
    common.add_argument("--cap", type=int, default=None, help="budget for N' below the proved bound (exit 3)")
    common.add_argument("--char", type=int, default=0,
                        help="0 for characteristic zero, or a prime p for fast mode over F_p")
    common.add_argument("--json", action="store_true", help="needs --out, which writes the report by itself")
    common.add_argument("--out", type=str, default=None, help="write the JSON report to this path")

    p = sub.add_parser("verify-fermat", parents=[common],
                       help="the n-th roots grid plus the coordinate triangle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=str, default=None, help="mixing scalar for n >= 4 (default 2)")

    p = sub.add_parser("verify-grid", parents=[common],
                       help="two pencils of m and n lines from binomial forms")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify-three-points", parents=[common],
                       help="three non-collinear points (default: the coordinate triangle)")
    p.add_argument("--input", type=str, default=None, help="point-set JSON file")

    p = sub.add_parser("verify-custom", parents=[common], help="configuration from a JSON file")
    p.add_argument("--input", type=str, required=True)

    p = sub.add_parser("symbolic-power", parents=[common],
                       help="symbolic power membership / generators for a configuration")
    p.add_argument("--input", type=str, required=True, help="configuration JSON file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--poly", type=str, default=None, help="polynomial to test for membership")
    p.add_argument("--ideal", action="store_true", help="print generators of the full intersection")
    p.add_argument("--budget", type=int, default=64)

    p = sub.add_parser("show-config", parents=[common], help="print a configuration as JSON")
    p.add_argument("--input", type=str, required=True)

    return parser


def _point_from_strings(field, coords):
    return ProjectivePoint(field, [parse_scalar(c, field) for c in coords])


def load_configuration(obj, char: int = 0) -> Configuration:
    """Build a configuration from its JSON description.

    Malformed values surface here as ValueError, KeyError or TypeError; they
    are reported as InputError, and nowhere else are those three taken for
    bad input.
    """
    if not isinstance(obj, dict):
        raise InputError("a configuration must be a JSON object")
    try:
        return _build_configuration(obj, char)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(str(exc)) from exc


def _build_configuration(obj, char: int) -> Configuration:
    kind = obj.get("kind")
    if kind == "fermat":
        n = json_int(obj, "n")
        field = _json_field(obj, char, root_order=n)
        alpha = None
        if obj.get("alpha") is not None:
            probe = field if field is not None else CyclotomicField(n)
            alpha = parse_scalar(str(obj["alpha"]), probe)
        return fermat(n, alpha=alpha, field=field)
    if kind == "grid":
        m, n = json_int(obj, "m"), json_int(obj, "n")
        return grid_example(m, n, field=_json_field(obj, char, root_order=lcm(m, n)))
    if kind == "three-points":
        field = _json_field(obj, char) or RationalField()
        pts = [_point_from_strings(field, c) for c in obj["points"]]
        if len(pts) != 3:
            raise InputError("three-points needs exactly three points")
        return three_points(*pts)
    if kind == "two-pencils":
        field = _json_field(obj, char) or RationalField()
        ring = base_ring(field)
        a = _point_from_strings(field, obj["A"])
        b = _point_from_strings(field, obj["B"])
        f_factors = [parse_polynomial(t, ring) for t in obj["f_factors"]]
        g_factors = [parse_polynomial(t, ring) for t in obj["g_factors"]]
        return two_pencils(f_factors, g_factors, a, b)
    if kind == "custom":
        field = _json_field(obj, char) or RationalField()
        ring = base_ring(field)
        pts = PointSet([_point_from_strings(field, c) for c in obj["points"]],
                       obj.get("label", "custom"))
        w = obj["witnesses"]
        witnesses = WitnessPair(
            parse_polynomial(w["xi1"], ring), json_int(w, "r1"),
            parse_polynomial(w["xi2"], ring), json_int(w, "r2"),
        )
        cfg = Configuration(obj.get("label", "custom"), field, pts, witnesses, obj)
        return cfg
    raise InputError(f"unknown configuration kind {kind!r}")


def _json_field(obj, char: int, root_order: int | None = None) -> Field | None:
    """F_char when a characteristic is given (with the roots of unity of
    ``root_order``), else the object's own field, else None."""
    if char:
        return PrimeField(char, root_order=root_order)
    if "field" in obj:
        return make_field(FieldSpec.from_json(obj["field"]))
    return None


def _print_report(report, field):
    lines = []
    cfg = report.config or {}
    lines.append(f"configuration: {cfg.get('kind', '?')} {_params_of(cfg)} over {field!r}")
    for m in report.memberships:
        lines.append(f"witness {m['witness']} in symbolic power {m['r']}: {'yes' if m['member'] else 'NO'}")
    lines.append(f"method: {report.method}")
    if report.height is not None:
        lines.append(f"height of the witness pair ideal: {report.height}")
    if report.product_check is not None:
        pc = report.product_check
        lines.append(
            f"product check: {pc['d1']}*{pc['d2']} vs {pc['r1']}*{pc['r2']}*{pc['e']}"
            f" -> {'holds' if pc['holds'] else 'fails'}"
        )
    if report.lengths is not None:
        lhs = report.lengths["lhs"]
        lhs = "Infinite" if lhs == INFINITE else lhs
        lines.append(f"lengths: lhs = {lhs}, rhs = {report.lengths['rhs']} (u = {report.u}, seed {report.seed})")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"verdict: {report.verdict}")
    lines.append(f"elapsed: {report.timings_ms.get('total', 0)} ms")
    print("\n".join(lines))


def _params_of(cfg):
    keys = [k for k in ("n", "m", "alpha") if k in cfg]
    return " ".join(f"{k}={cfg[k]}" for k in keys)


def _write_json(report, path):
    payload = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(payload)


def _read_json(path):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # json.JSONDecodeError
            raise InputError(str(exc)) from exc


def _command_configuration(args) -> Configuration:
    """The configuration a subcommand names, always built by load_configuration."""
    if args.command == "verify-fermat":
        obj = {"kind": "fermat", "n": args.n, "alpha": args.alpha}
    elif args.command == "verify-grid":
        obj = {"kind": "grid", "m": args.m, "n": args.n}
    elif args.command == "verify-three-points":
        obj = _read_json(args.input) if args.input else {"points": DEFAULT_TRIANGLE}
        if isinstance(obj, dict) and obj.get("kind") is None:
            obj = {**obj, "kind": "three-points"}
    else:
        obj = _read_json(args.input)
    return load_configuration(obj, char=args.char)


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.json and not args.out:
            raise InputError("--json needs --out <path> for the report file")
        cfg = _command_configuration(args)
        if args.command == "show-config":
            print(json.dumps(_config_json(cfg), indent=2, sort_keys=True))
            return EXIT_VERIFIED
        if args.command == "symbolic-power":
            return _run_symbolic_power(cfg, args)
        report = verify(cfg, seed=args.seed, cap=args.cap)
        _print_report(report, cfg.field)
        if args.out:
            _write_json(report, args.out)
        return EXIT_VERIFIED if report.verdict == VERDICT_VERIFIED else EXIT_NOT_ESTABLISHED
    except Exception as exc:
        code = exit_code(exc)
        if code != EXIT_INTERNAL:
            print(f"error: {exc}", file=sys.stderr)
            return code
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        print(f"internal error, this is a bug in symrees: {type(exc).__name__}: {exc}"
              f" (at {tb.tb_frame.f_code.co_filename}:{tb.tb_lineno})", file=sys.stderr)
        return code


def exit_code(exc: Exception) -> int:
    """3 for a budget that ran out, 2 for bad input or an unreadable file,
    4 for an InvariantError or any other failure of the program itself."""
    if isinstance(exc, ResourceLimitError):
        return EXIT_RESOURCE
    return EXIT_INPUT_ERROR if isinstance(exc, (InputError, OSError)) else EXIT_INTERNAL


def _config_json(cfg: Configuration):
    field = cfg.field
    return {
        "label": cfg.label,
        "provenance": cfg.provenance,
        "field": field.spec.to_json(),
        "points": [[field.scalar_str(c) for c in p.coords] for p in cfg.points],
        "witnesses": {
            "xi1": str(cfg.witnesses.xi1),
            "r1": cfg.witnesses.r1,
            "xi2": str(cfg.witnesses.xi2),
            "r2": cfg.witnesses.r2,
        },
    }


def _run_symbolic_power(cfg: Configuration, args) -> int:
    ring = cfg.ring
    if args.poly is None and not args.ideal:
        raise InputError("symbolic-power needs --poly or --ideal")
    if args.poly is not None:
        f = parse_polynomial(args.poly, ring)
        member = symbolic_power_membership(f, cfg.points, args.r)
        print(f"{args.poly} in symbolic power {args.r}: {'yes' if member else 'no'}")
    if args.ideal:
        ideal = symbolic_power_ideal(cfg.points, args.r, ring, budget=args.budget)
        for g in ideal.groebner():
            print(str(g))
    return EXIT_VERIFIED


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
