"""Command-line interface.

Subcommands
-----------
validate  check a spec JSON against the structural/existence hypotheses
solve     locate the boundary-defect root and write solution JSON
verify    certify a solution JSON, write the residual report JSON
profile   export profile CSV and SVG plots from a solution JSON
reproduce run one of the built-in closed-form consistency cases

Exit codes: 0 ok, 2 invalid spec, 3 no defect root in the bracket,
4 certification failure, 1 internal error.
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import json
import math
import sys

from .errors import NoSignChangeError, PositivityError, QEError
from .spec import BundleSpec, EndpointType, FactorSpec, spec_from_dict, validate_spec


def _lazy(name):
    """Submodule `name` of this package, executed on its first attribute access.

    `validate` needs only `spec`, so it never imports numpy. The module
    is registered in sys.modules (and on the package) from the start,
    as an eager import would leave it, so code that walks sys.modules to
    wrap the layers' functions (perfbench/tracer.py) still finds it.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return module


cf = _lazy("closedform")
geometry = _lazy("geometry")
io = _lazy("output")
sv = _lazy("solver")
vf = _lazy("verifier")

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
        print(f"{flag}  {name:28s} value={c['value']: .6e}  tol={c['tol']:.3e}", file=sys.stderr)
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


# ---------------------------------------------------------------------------
# Reproduction cases: closed-form consistency checks with printed tables
# ---------------------------------------------------------------------------


def _case_no_blowdown_length():
    """s_* = 4 for every kappa0 when both ends collapse smoothly."""
    spec = BundleSpec(factors=(FactorSpec(1, 2, 1),), m=2.0)
    rows = []
    for kappa0 in (0.1, 1.0, 10.0, 100.0):
        s_star = cf.params_from_kappa0(kappa0, spec).s_star
        rows.append((f"kappa0={kappa0:<6g} s_*={s_star!r}", abs(s_star - 4.0), 1e-12))
    return rows


def _literal_interval_formula(kappa0, n1, nr):
    """The interval length exactly as printed in the source formula."""
    return (
        math.sqrt(kappa0 * (4.0 * (n1 + 1) + kappa0) + 4.0 * (nr + 1) ** 2)
        - kappa0
        + 2.0 * (nr + 1)
    )


def _case_hall_interval_formula():
    """Unified endpoint-quadratic s_* vs the literal closed formula."""
    rows = []
    for kappa0 in (0.5, 1.0, 2.0, 5.0):
        for n1 in (0, 1, 2):
            for nr in (0, 1, 2):
                E = cf.energy_from_kappa0(kappa0, n1)
                sigma = -cf.endpoint_quadratic_roots(E, nr).small
                s_quad = sigma - kappa0
                s_lit = _literal_interval_formula(kappa0, n1, nr)
                rel = abs(s_quad - s_lit) / abs(s_lit)
                rows.append(
                    (f"kappa0={kappa0:<4g} n1={n1} nr={nr} s_*={s_quad:.12g}", rel, 1e-12)
                )
    return rows


def _case_blowdown_consistency():
    """Blowdown forcing: A_1 = 1/(2 kappa0), |q_1| = 1, E round-trip."""
    rows = []
    # E = kappa0/2 (4(n+1) + kappa0) inverts back through the quadratic.
    for kappa0 in (0.5, 2.0, 5.0):
        for n_end in (0, 1, 2):
            E = cf.energy_from_kappa0(kappa0, n_end)
            k0_check = cf.endpoint_quadratic_roots(E, n_end).large
            rows.append(
                (
                    f"kappa0={kappa0:<4g} n_end={n_end} E-roundtrip={k0_check!r}",
                    abs(k0_check - kappa0) / kappa0,
                    1e-12,
                )
            )
    # The blowdown boundary conditions pin A_1 to 1/(2 kappa0).
    for kappa0 in (0.5, 2.0, 5.0):
        for n1 in (1, 2):
            spec = BundleSpec(
                factors=(FactorSpec(n1, n1 + 1, 1), FactorSpec(1, n1 + 2, 1)),
                m=2.0,
                left=EndpointType.BLOWDOWN,
            )
            A = cf.params_from_kappa0(kappa0, spec).A
            rows.append(
                (
                    f"kappa0={kappa0:<4g} n1={n1} A_1={A[0]!r}",
                    abs(A[0] - 1.0 / (2.0 * kappa0)),
                    1e-12,
                )
            )
    # |q_1| = 1 is forced: q_1 = 2 must be rejected by validation.
    bad = BundleSpec(
        factors=(FactorSpec(1, 2, 2), FactorSpec(1, 3, 1)),
        m=2.0,
        left=EndpointType.BLOWDOWN,
    )
    forced = any("|q| = 1" in v for v in validate_spec(bad))
    rows.append(("left blowdown with q_1=2 rejected", 0.0 if forced else 1.0, 0.5))
    # Worked endpoint example: kappa0 = 2, n1 = 0 gives E = 6 with roots (-6, 2).
    E = cf.energy_from_kappa0(2.0, 0)
    roots = cf.endpoint_quadratic_roots(6.0, 0)
    rows.append((f"kappa0=2 n1=0 -> E={E!r}", abs(E - 6.0), 1e-12))
    rows.append(
        (f"roots of E=6 quadratic = ({roots.small!r}, {roots.large!r})",
         max(abs(roots.small + 6.0), abs(roots.large - 2.0)), 1e-12),
    )
    return rows


_CASES = {
    "no-blowdown-length": _case_no_blowdown_length,
    "hall-interval-formula": _case_hall_interval_formula,
    "blowdown-consistency": _case_blowdown_consistency,
}


def cmd_reproduce(args) -> int:
    rows = _CASES[args.case]()
    all_ok = True
    for label, err, tol in rows:
        ok = err <= tol
        all_ok &= ok
        print(f"{'pass' if ok else 'FAIL'}  {label}  |err|={err:.3e} (tol {tol:g})")
    print(f"{args.case}: {sum(1 for l, e, t in rows if e <= t)}/{len(rows)} rows pass")
    return EXIT_OK if all_ok else EXIT_NOT_CERTIFIED


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

    p = sub.add_parser("reproduce", help="run a built-in consistency case")
    p.add_argument("case", choices=sorted(_CASES))
    p.set_defaults(func=cmd_reproduce)

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
