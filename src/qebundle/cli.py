"""Command-line interface.

Subcommands
-----------
validate  check a spec JSON against the structural/existence hypotheses
solve     locate the boundary-defect root and write solution JSON
verify    certify a solution JSON, write the residual report JSON
profile   export profile CSV and SVG plots from a solution JSON

Exit codes: 0 ok, 2 invalid spec, 3 no defect root in the bracket,
4 certification failure, 1 internal error.

The numeric layers are the package's lazy modules (see qebundle), so
`validate`, which needs only `spec`, never imports numpy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import geometry
from . import output as io
from . import solver as sv
from . import verifier as vf
from .errors import NoSignChangeError, PositivityError, QEError
from .spec import BundleSpec, spec_from_dict, validate_spec

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_INVALID_SPEC = 2
EXIT_NO_ROOT = 3
EXIT_NOT_CERTIFIED = 4


def _load_spec(path):
    with open(path) as fh:
        return spec_from_dict(json.load(fh))


def _config_from_args(args) -> sv.SolverConfig:
    kwargs = {}
    if getattr(args, "bracket", None):
        lo, _, hi = args.bracket.partition(":")
        kwargs["bracket"] = (float(lo), float(hi))
    if getattr(args, "tol", None) is not None:
        kwargs["root_tol"] = args.tol
    if getattr(args, "scan_points", None) is not None:
        kwargs["scan_points"] = args.scan_points
    return sv.SolverConfig(**kwargs)


def _parse_root_signs(text, r):
    if text is None:
        return None
    signs = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok in ("+", "+1", "1"):
            signs.append(1)
        elif tok in ("-", "-1"):
            signs.append(-1)
        else:
            raise ValueError(f"root sign must be + or -, got {tok!r}")
    if len(signs) != r:
        raise ValueError(f"need {r} root signs, got {len(signs)}")
    return tuple(signs)


def cmd_validate(args) -> int:
    spec = _load_spec(args.spec)
    violations = validate_spec(spec)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    print(f"valid: r={spec.r}, m={spec.m}, left={spec.left.value}, right={spec.right.value}")
    return EXIT_OK


def cmd_solve(args) -> int:
    spec = _load_spec(args.spec)
    if args.m is not None:
        spec = BundleSpec(
            factors=spec.factors, m=float(args.m), left=spec.left, right=spec.right
        )
    violations = validate_spec(spec)
    if violations:
        for v in violations:
            print(f"violation: {v}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    config = _config_from_args(args)
    root_signs = _parse_root_signs(args.root_signs, spec.r)
    try:
        profile = sv.solve(spec, config, root_signs=root_signs)
    except NoSignChangeError as err:
        print(str(err), file=sys.stderr)
        return EXIT_NO_ROOT
    except PositivityError as err:
        print(f"positivity failure at the root: {err}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    doc = io.solution_to_dict(profile, spec, config)
    if args.output:
        io.dump_json(doc, args.output)
    else:
        sys.stdout.write(io.json_text(doc))
    p = profile.params
    print(
        f"root kappa0 = {p.kappa0!r}  E = {p.E!r}  s_* = {p.s_star!r}  "
        f"defect = {profile.defect_at_root:.3e}  roots found: {len(profile.roots)}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, profile, _ = io.solution_from_dict(io.load_json(args.solution))
    try:
        report = vf.verify(profile, spec, grid_size=args.grid, delta_frac=args.delta)
    except PositivityError as err:
        print(f"certification FAILED: {err}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    doc = io.report_to_dict(report)
    if args.output:
        io.dump_json(doc, args.output)
    for name, c in report.checks.items():
        flag = "pass" if c["passed"] else "FAIL"
        margin = "-" if c["margin"] is None else f"{c['margin']:.3e}"
        at = "" if c["worst_s"] is None else f"  at s={c['worst_s']:.6g}"
        print(
            f"{flag}  {name:28s} value={c['value']: .6e}  tol={c['tol']:.3e}  margin={margin}{at}",
            file=sys.stderr,
        )
    if not report.certified:
        print("certification FAILED", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    print("certified", file=sys.stderr)
    return EXIT_OK


def cmd_profile(args) -> int:
    spec, profile, _ = io.solution_from_dict(io.load_json(args.solution))
    params = profile.params
    try:
        mp = geometry.reconstruct_t(params, spec, grid_size=args.grid)
    except PositivityError as err:
        print(f"profile FAILED: {err}", file=sys.stderr)
        return EXIT_NOT_CERTIFIED
    if args.csv:
        io.write_csv(args.csv, params, spec, mp)
    if args.svg:
        io.write_svg(args.svg, params, spec, mp)
    print(f"t-length l = {mp.total_length_l!r}", file=sys.stderr)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qe parser, built once per process."""
    ap = argparse.ArgumentParser(
        prog="qe",
        description="Quasi-Einstein profiles on sphere bundles: solve, certify, export.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a spec JSON")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="solve the boundary-defect root-find")
    p.add_argument("spec")
    p.add_argument("--m", type=float, default=None, help="override the spec's m")
    p.add_argument("--bracket", default=None, help="kappa0 bracket lo:hi")
    p.add_argument("--tol", type=float, default=None, help="root tolerance on kappa0")
    p.add_argument("--scan-points", type=int, default=None, help="defect scan resolution")
    p.add_argument(
        "--root-signs",
        default=None,
        help=(
            "comma list of +/- choosing each factor's A-root (default all -); "
            "a list starting with - must be written --root-signs=-,+"
        ),
    )
    p.add_argument("-o", "--output", default=None, help="solution JSON path (default stdout)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="certify a solution JSON")
    p.add_argument("solution")
    p.add_argument("--grid", type=int, default=201, help="residual grid size")
    p.add_argument("--delta", type=float, default=1e-3, help="interior margin fraction")
    p.add_argument("-o", "--output", default=None, help="report JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("profile", help="export profile CSV/SVG")
    p.add_argument("solution")
    p.add_argument("--csv", default=None, help="CSV output path")
    p.add_argument("--svg", default=None, help="SVG output path")
    p.add_argument("--grid", type=int, default=513, help="profile grid size")
    p.set_defaults(func=cmd_profile)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID_SPEC
    except (OSError, QEError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
