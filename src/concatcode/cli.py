"""Batch command-line front end.

Commands: codes, map, orbit, threshold, jacobian, oracle, bound.  Output
is machine readable (JSON with sorted keys and 17-significant-digit
floats, or CSV), byte-identical across identical invocations.  Exit
codes: 0 success, 1 validation or acceptance failure, 2 usage, parse or
capability errors.  The environment variable CONCATCODE_SEED supplies
the default seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .channel import DiagonalChannel, parse_channel_literal
from .codingmap import diagonal_map
from .dynamics import (
    RaySpec,
    fixed_point_cross_check,
    general_bound_check,
    iterate,
    jacobian_fd,
    jacobian_fd_full,
    threshold,
)
from .oracle import max_oracle_deviation
from .stabilizer import (
    CapabilityError,
    StabilizerCode,
    builtin_names,
    get_code,
    load_code,
)

ORACLE_TOLERANCE = 1e-10


# -- deterministic serialization ------------------------------------------------


def _format_float(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite value {value} cannot be serialized")
    return format(value, ".17g")


def canonical_json(obj, indent: int = 0) -> str:
    """JSON with sorted keys and pinned float formatting."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            f'{pad}  "{key}": {canonical_json(obj[key], indent + 1)}'
            for key in sorted(obj)
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(f"{pad}  {canonical_json(v, indent + 1)}" for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def orbit_rows(record) -> tuple[list[str], list[list]]:
    """CSV header and rows for an orbit record."""
    diagonal = all(isinstance(l.channel, DiagonalChannel) for l in record.levels)
    if diagonal:
        header = ["k", "x", "y", "z", "dist_to_id"]
        rows = [
            [l.k, l.channel.x, l.channel.y, l.channel.z, l.distance]
            for l in record.levels
        ]
    else:
        sigmas = ("i", "x", "y", "z")
        header = ["k"] + [f"t_{a}{b}" for a in sigmas for b in sigmas] + ["dist_to_id"]
        rows = [
            [l.k, *[float(v) for v in l.channel.matrix.ravel()], l.distance]
            for l in record.levels
        ]
    return header, rows


def to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(
            ",".join(
                str(v) if isinstance(v, int) else _format_float(float(v)) for v in row
            )
        )
    return "\n".join(lines) + "\n"


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        Path(path).write_text(text if text.endswith("\n") else text + "\n")


def _resolve_code(token: str) -> StabilizerCode:
    if token in builtin_names():
        return get_code(token)
    if os.path.exists(token):
        return load_code(token)
    raise ValueError(f"{token!r} is neither a built-in code nor a readable file")


def _orbit_record_json(code_name: str, literal: str, record) -> dict:
    header, rows = orbit_rows(record)
    return {
        "code": code_name,
        "channel": literal,
        "converged": record.converged,
        "iterations_used": record.iterations_used,
        "columns": header,
        "levels": [list(r) for r in rows],
    }


# -- commands --------------------------------------------------------------------


def _cmd_codes(args) -> int:
    if args.action == "list":
        entries = []
        for name in builtin_names():
            code = get_code(name)
            d, w = code.distance_and_w()
            entries.append({"name": name, "n": code.n, "m": code.m, "d": d, "w": w})
        _write(canonical_json({"codes": entries}), args.output)
        return 0
    code = _resolve_code(args.code)
    report = code.validate()
    payload: dict = {
        "code": code.name or args.code,
        "passed": report.passed,
        "violations": list(report.violations),
    }
    if report.passed:
        payload["d"], payload["w"] = code.distance_and_w()
    _write(canonical_json(payload), args.output)
    return 0 if report.passed else 1


def _cmd_map(args) -> int:
    code = _resolve_code(args.code)
    payload: dict = {"code": code.name or args.code}
    if args.symbolic and args.format == "csv":
        raise ValueError("CSV output cannot carry the symbolic polynomial")
    channel = None if args.channel is None else parse_channel_literal(args.channel)
    if args.symbolic:
        if channel is not None and not isinstance(channel, DiagonalChannel):
            raise ValueError("--symbolic is only defined for the diagonal-reduced map")
        payload["n"] = code.n
        payload["components"] = diagonal_map(code).to_json_obj()
    if channel is not None:
        # an overflowing level ends the orbit, as recorded, not with a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            record = iterate(code, channel, k_max=args.levels, tol=args.tol)
        if args.format == "csv":
            header, rows = orbit_rows(record)
            _write(to_csv(header, rows), args.output)
            return 0
        payload.update(_orbit_record_json(payload["code"], args.channel, record))
    if not args.symbolic and args.channel is None:
        raise ValueError("map requires --symbolic and/or --channel")
    _write(canonical_json(payload), args.output)
    return 0


def _parse_ray(text: str) -> RaySpec:
    if text == "depol":
        return RaySpec.depolarizing_ray()
    if text == "deph":
        return RaySpec.dephasing_ray()
    if text.startswith("ray:"):
        parts = text[4:].split(",")
        if len(parts) != 3:
            raise ValueError("custom ray needs three components: ray:<dx>,<dy>,<dz>")
        return RaySpec.custom([float(v) for v in parts])
    raise ValueError(f"unknown ray {text!r}; use depol, deph or ray:<dx>,<dy>,<dz>")


def _cmd_threshold(args) -> int:
    code = _resolve_code(args.code)
    ray = _parse_ray(args.ray)
    value = threshold(code, ray, tol_eps=args.tol, tol_conv=args.tol_conv, k_max=args.k_max)
    cross = fixed_point_cross_check(code, ray)
    payload = {
        "code": code.name or args.code,
        "ray": {"family": ray.family, "direction": list(ray.direction)},
        "threshold": value,
        "tol": args.tol,
        "tol_conv": args.tol_conv,
        "k_max": args.k_max,
        "fixed_points": cross["fixed_points"] if cross else None,
        "threshold_from_fixed_point": cross["threshold_from_fixed_point"] if cross else None,
    }
    _write(canonical_json(payload), args.output)
    return 0


def _cmd_jacobian(args) -> int:
    code = _resolve_code(args.code)
    channel = parse_channel_literal(args.at)
    if not (args.full or isinstance(channel, DiagonalChannel)):
        raise ValueError("the 3x3 Jacobian needs a diagonal channel; use --full")
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if args.full:
                matrix = jacobian_fd_full(code, channel, h=args.h)
            else:
                matrix = jacobian_fd(code, channel, h=args.h)
    except OverflowError:
        matrix = None
    if matrix is None or not np.isfinite(matrix).all():
        raise ValueError(f"the Jacobian at {args.at} with step {args.h} leaves the float range")
    payload = {
        "code": code.name or args.code,
        "at": args.at,
        "h": args.h,
        "full": bool(args.full),
        "jacobian": [[float(v) for v in row] for row in matrix],
    }
    _write(canonical_json(payload), args.output)
    return 0


def _cmd_oracle(args) -> int:
    code = _resolve_code(args.code)
    deviation = max_oracle_deviation(code, trials=args.trials, seed=args.seed)
    passed = deviation <= ORACLE_TOLERANCE
    payload = {
        "code": code.name or args.code,
        "trials": args.trials,
        "seed": args.seed,
        "max_deviation": deviation,
        "tolerance": ORACLE_TOLERANCE,
        "passed": passed,
    }
    _write(canonical_json(payload), args.output)
    return 0 if passed else 1


def _cmd_bound(args) -> int:
    code = _resolve_code(args.code)
    bound = general_bound_check(code, seed=args.seed)
    payload = {
        "code": code.name or args.code,
        "c_n": bound.c_n,
        "c_m": bound.c_m,
        "c_m_source": bound.c_m_source,
        "c_m_grid": bound.c_m_grid,
        "bound": bound.value,
        "bounds_guaranteed": bound.bounds_guaranteed,
    }
    _write(canonical_json(payload), args.output)
    return 0


# -- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line on stderr, exit code 2
        self.exit(2, f"error: {message}\n")


def _checked(kind, valid: str, test):
    """An argparse type: `kind(text)`, rejected unless `test` holds."""

    def parse(text: str):
        if not test(value := kind(text)):
            raise argparse.ArgumentTypeError(f"must be {valid}, got {text}")
        return value

    parse.__name__ = kind.__name__
    return parse


_LEVELS = _checked(int, "at least 0", lambda v: v >= 0)
_AT_LEAST_ONE = _checked(int, "at least 1", lambda v: v >= 1)
_POSITIVE = _checked(float, "positive and finite", lambda v: 0 < v < math.inf)
_STOP_TOL = _checked(float, "finite and at least 0", lambda v: 0 <= v < math.inf)


def _build_parser(default_seed: int) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="concatcode",
        description="Effective single-qubit channels under concatenated stabilizer coding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--output", default=None, help="write to this path instead of stdout")

    p = sub.add_parser("codes", help="list built-in codes or validate a code spec")
    p.add_argument("action", choices=["list", "validate"])
    p.add_argument("code", nargs="?", help="built-in name or spec file (validate only)")
    add_common(p)

    p = sub.add_parser("map", help="symbolic diagonal polynomials and/or iterated channels")
    p.add_argument("code")
    p.add_argument("--symbolic", action="store_true", help="emit the exact polynomials")
    p.add_argument("--channel", default=None, help="channel literal to iterate")
    p.add_argument("--levels", type=_LEVELS, default=1, help="number of coding levels")
    p.add_argument("--tol", type=_STOP_TOL, default=0.0, help="stop early below this distance")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    add_common(p)

    p = sub.add_parser("orbit", help="iterate a channel and export the orbit")
    p.add_argument("code")
    p.add_argument("--channel", required=True)
    p.add_argument("--levels", type=_LEVELS, default=60)
    p.add_argument("--tol", type=_STOP_TOL, default=1e-9)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(symbolic=False)
    add_common(p)

    p = sub.add_parser("threshold", help="largest converging noise strength along a ray")
    p.add_argument("code")
    p.add_argument("--ray", required=True, help="depol, deph or ray:<dx>,<dy>,<dz>")
    p.add_argument("--tol", type=_POSITIVE, default=1e-6)
    p.add_argument("--tol-conv", dest="tol_conv", type=_POSITIVE, default=1e-9)
    p.add_argument("--k-max", dest="k_max", type=_AT_LEAST_ONE, default=60)
    add_common(p)

    p = sub.add_parser("jacobian", help="finite-difference Jacobian at a channel")
    p.add_argument("code")
    p.add_argument("--at", default="diag:1,1,1", help="channel literal")
    p.add_argument("--h", type=_POSITIVE, default=1e-5)
    p.add_argument("--full", action="store_true", help="16x16 Jacobian on Stokes space")
    add_common(p)

    p = sub.add_parser("oracle", help="dense-simulation cross-check of the algebraic map")
    p.add_argument("action", choices=["check"])
    p.add_argument("code")
    p.add_argument("--trials", type=_AT_LEAST_ONE, default=20)
    p.add_argument("--seed", type=int, default=default_seed)
    add_common(p)

    p = sub.add_parser("bound", help="arbitrary-channel convergence bound (c_N + c_M)^-1")
    p.add_argument("code")
    p.add_argument("--seed", type=int, default=default_seed)
    add_common(p)

    return parser


_HANDLERS = {
    "codes": _cmd_codes,
    "map": _cmd_map,
    "orbit": _cmd_map,
    "threshold": _cmd_threshold,
    "jacobian": _cmd_jacobian,
    "oracle": _cmd_oracle,
    "bound": _cmd_bound,
}


def main(argv=None) -> int:
    try:
        default_seed = int(os.environ.get("CONCATCODE_SEED", "0"))
    except ValueError:
        print("error: CONCATCODE_SEED must be an integer", file=sys.stderr)
        return 2
    parser = _build_parser(default_seed)
    args = parser.parse_args(argv)
    if args.command == "codes" and args.action == "validate" and args.code is None:
        parser.error("codes validate needs a code argument")
    try:
        return _HANDLERS[args.command](args)
    except (CapabilityError, ValueError, OSError) as exc:  # spec errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry_point() -> None:  # console script hook
    raise SystemExit(main())
