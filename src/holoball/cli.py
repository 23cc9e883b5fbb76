"""Command-line front end.

Subcommands: ``grad``, ``bound``, ``slice``, ``extremal``, ``diagnose``,
``fuzz``. Every subcommand is a thin adapter over the library: it parses
flags, runs exactly one library call, and prints that result's JSON
serialization to stdout in full round-trip precision.

Exit codes: 0 success (bound holds / form matches / no violations), 1 for a
mathematical finding (bound violated, no-match, campaign violations), 2 for
input, schema, or precondition errors and any other failure. Points and
vectors on the command line are semicolon-separated complex pairs,
``re,im;re,im;...``; a value may start with a minus sign, as in
``--point -0.3,0.1``, ``--point=-0.3,0.1`` or ``--theta -1e-3``. Map files
are JSON documents in the format of ``holomap``, ``-`` reading stdin.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys

import numpy as np

from .errors import InputError
from .extremal import (
    DEFAULT_DIAGNOSE_SAMPLES,
    DEFAULT_DIAGNOSE_TOL,
    ExtremalSpec,
    diagnose_equality_form,
    extremal_nonzero_case,
    extremal_zero_case,
)
from .geometry import disk_slice
from .harness import FuzzConfig, fuzz_campaign
from .holomap import emit_spec, parse_spec
from .schwarzpick import DEFAULT_BOUND_TOL, mod_grad, sp_bound

__all__ = ["run", "main"]


_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _attach_negative_values(argv: list[str]) -> list[str]:
    """Rewrite ``--point -0.3,0.1`` as ``--point=-0.3,0.1`` after any
    ``--flag``: argparse reads a separate value that starts with ``-`` as an
    option of its own, and no holoball flag starts with a digit or a dot."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and i + 1 < len(argv) and _NEGATIVE_VALUE.match(argv[i + 1]):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _parse_vector(text: str, flag: str) -> np.ndarray:
    try:
        parts = [chunk.split(",") for chunk in text.split(";")]
        if any(len(pair) != 2 for pair in parts):
            raise ValueError("each component needs exactly one comma")
        return np.array([complex(float(re), float(im)) for re, im in parts], dtype=np.complex128)
    except ValueError as e:
        raise InputError(f"{flag}: expected 're,im;re,im;...', got {text!r} ({e})") from e


def _load_map(path: str):
    if path == "-":
        doc = json.load(sys.stdin)
    else:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    return parse_spec(doc)


def _emit(obj: dict) -> None:
    print(json.dumps(obj))


def _cmd_grad(args) -> int:
    f = _load_map(args.map)
    result = mod_grad(f, _parse_vector(args.point, "--point"))
    _emit(result.to_dict())
    return 0


def _cmd_bound(args) -> int:
    f = _load_map(args.map)
    report = sp_bound(f, _parse_vector(args.point, "--point"), tol=args.tol)
    _emit(report.to_dict())
    return 0 if report.holds else 1


def _cmd_slice(args) -> int:
    ds = disk_slice(_parse_vector(args.p, "--p"), _parse_vector(args.q, "--q"))
    _emit(ds.to_dict())
    return 0


def _cmd_extremal(args) -> int:
    p = _parse_vector(args.p, "--p")
    u = _parse_vector(args.u, "--u")
    if args.case == "zero":
        if args.beta is None:
            raise InputError("--case zero requires --beta")
        f = extremal_zero_case(ExtremalSpec.zero(p, u, _parse_vector(args.beta, "--beta")))
    else:
        if args.a is None or args.theta is None:
            raise InputError("--case nonzero requires --a and --theta")
        f = extremal_nonzero_case(
            ExtremalSpec.nonzero(p, u, _parse_vector(args.a, "--a"), args.theta)
        )
    _emit(emit_spec(f))
    return 0


def _cmd_diagnose(args) -> int:
    f = _load_map(args.map)
    diag = diagnose_equality_form(
        f,
        _parse_vector(args.p, "--p"),
        _parse_vector(args.q, "--q"),
        samples=args.samples,
        tol=args.tol,
    )
    _emit(diag.to_dict())
    return 0 if diag.matches else 1


def _cmd_fuzz(args) -> int:
    # each flag's destination is the name of its config field
    cfg = FuzzConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(FuzzConfig)})
    report = fuzz_campaign(cfg, log_path=args.out)
    _emit(report.to_dict())
    return 1 if report.violations else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="holoball",
        description="Modulus-gradient Schwarz-Pick bounds for holomorphic ball maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("grad", help="modulus gradient of a map at a point")
    sp.add_argument("--map", required=True, help="map JSON file, or - for stdin")
    sp.add_argument("--point", required=True, help="evaluation point, re,im;re,im;...")
    sp.set_defaults(fn=_cmd_grad)

    sp = sub.add_parser("bound", help="check the bound at a point")
    sp.add_argument("--map", required=True)
    sp.add_argument("--point", required=True)
    sp.add_argument("--tol", type=float, default=DEFAULT_BOUND_TOL)
    sp.set_defaults(fn=_cmd_bound)

    sp = sub.add_parser("slice", help="disk slice of the ball through p and q")
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.set_defaults(fn=_cmd_slice)

    sp = sub.add_parser("extremal", help="construct an equality-case map")
    sp.add_argument("--case", required=True, choices=("zero", "nonzero"))
    sp.add_argument("--p", required=True)
    sp.add_argument("--u", required=True)
    sp.add_argument("--beta", help="unit target direction (zero case)")
    sp.add_argument("--a", help="target value f(p) (nonzero case)")
    sp.add_argument("--theta", type=float, help="rotation angle (nonzero case)")
    sp.set_defaults(fn=_cmd_extremal)

    sp = sub.add_parser("diagnose", help="fit the canonical equality form along a slice")
    sp.add_argument("--map", required=True)
    sp.add_argument("--p", required=True)
    sp.add_argument("--q", required=True)
    sp.add_argument("--samples", type=int, default=DEFAULT_DIAGNOSE_SAMPLES)
    sp.add_argument("--tol", type=float, default=DEFAULT_DIAGNOSE_TOL)
    sp.set_defaults(fn=_cmd_diagnose)

    sp = sub.add_parser("fuzz", help="run a randomized bound-checking campaign")
    # one flag per config field, named after it and typed by its default
    for fld in dataclasses.fields(FuzzConfig):
        name = "points" if fld.name == "points_per_trial" else fld.name
        kind = ({"action": "store_true"} if type(fld.default) is bool
                else {"type": type(fld.default), "metavar": name.upper()})
        sp.add_argument("--" + name.replace("_", "-"), dest=fld.name, default=fld.default,
                        help="0 disables the FD oracle" if name == "fd_dirs" else None, **kind)
    sp.add_argument("--out", help="JSONL log path")
    sp.set_defaults(fn=_cmd_fuzz)

    return parser


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _build_parser().parse_args(_attach_negative_values(argv))
    try:
        return args.fn(args)
    except Exception as e:
        # exit 1 belongs to a verdict alone: every failure, expected or not,
        # is reported on one line and exits 2
        print(f"error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
