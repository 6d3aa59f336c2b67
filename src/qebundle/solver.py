"""Quadrature for alpha and the boundary-defect root-find over kappa0.

With beta_i, phi, V in closed form, the remaining unknown alpha solves
the first-order linear ODE

    alpha' + P(s) alpha = RHS(s),
    P = (log V)' + (m-1)/(s+kappa0),
    RHS = eps (s+kappa0)/2 + E/(s+kappa0),

whose integrating factor V (s+kappa0)^(m-1) gives

    alpha(s) = V^(-1) (s+kappa0)^(1-m)
               * int_0^s V(r) (r+kappa0)^(m-2) (E + eps (r+kappa0)^2 / 2) dr.

alpha(0) = 0 holds by construction; the one remaining boundary
condition alpha(s_*) = 0 becomes a scalar root-find in kappa0. The
defect is taken as the bare integral D(kappa0) = int_0^{s_*} ... dr
(no prefactor): it has the same zeros wherever the prefactor is finite
and positive, and stays well-defined at a right blowdown end where
V(s_*) = 0.

The solver scans a log-uniform kappa0 grid, records every sign change
of D, polishes each to a root, and returns the smallest root as the
primary profile. Positivity failures during the scan are recorded as
NaN rows, not fatal errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import closedform as cf
from .errors import NoSignChangeError, PositivityError
from .spec import BundleSpec, EndpointType, validate_spec


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs for quadrature and root-finding.

    bracket : (lo, hi) kappa0 search interval, 0 < lo < hi.
    scan_points : log-uniform samples of the defect across the bracket.
    root_tol : absolute tolerance on kappa0 in the bisection polish.
    quad_rel_tol : relative tolerance handed to adaptive quadrature
        (absolute tolerance is 0 so small integrals keep relative
        accuracy near the collapsing ends).
    max_subdivisions : adaptive quadrature subdivision limit.
    """

    bracket: tuple = (1e-3, 1e3)
    scan_points: int = 64
    root_tol: float = 1e-12
    quad_rel_tol: float = 1e-10
    max_subdivisions: int = 200

    def __post_init__(self):
        lo, hi = self.bracket
        if not (0.0 < lo < hi):
            raise ValueError(f"bracket must satisfy 0 < lo < hi, got {self.bracket}")
        if self.scan_points < 2:
            raise ValueError("scan_points must be at least 2")
        if min(self.root_tol, self.quad_rel_tol) <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be at least 1")


@dataclass(frozen=True)
class SolvedProfile:
    """Result of the defect root-find.

    params : parameters at the primary (smallest) root.
    defect_at_root : D(kappa0*) left over after bisection.
    bracket_used : the scanned (lo, hi).
    all_sign_changes : every (lo, hi) scan sub-interval where D changed
        sign, in ascending order.
    roots : the polished root inside each sign-change interval.
    """

    params: cf.SolutionParams
    defect_at_root: float
    bracket_used: tuple
    all_sign_changes: tuple
    roots: tuple


def alpha_integrand(r, params: cf.SolutionParams, spec: BundleSpec):
    """Integrand V(r) (r+kappa0)^(m-2) (E + eps (r+kappa0)^2/2).

    Positive for r + kappa0 < sqrt(2E), negative after; continuous on
    the closed interval (it vanishes at a blowdown end through the
    factor beta^n inside V).
    """
    x = np.asarray(r, dtype=float) + params.kappa0
    out = (
        cf.V(r, params, spec)
        * x ** (spec.m - 2.0)
        * (params.E + 0.5 * spec.epsilon * x * x)
    )
    return float(out) if np.ndim(r) == 0 else out


def _integral_break(params, spec, s):
    """Interior sign-change point of the integrand on (0, s), if any."""
    x0 = math.sqrt(2.0 * params.E / -spec.epsilon) - params.kappa0
    return [x0] if 0.0 < x0 < s else None


def _piece_integrals(params, spec, config, s):
    """Integrals of the alpha integrand over [0, s], split at its sign change.

    Each piece is single-signed, so the relative quadrature tolerance is
    meaningful even when their sum (the defect near a root) cancels to
    ~0, and the sum of their magnitudes is int_0^s |integrand| exactly.
    Returned in order from 0 to s.
    """
    ends = [0.0] + (_integral_break(params, spec, s) or []) + [s]
    return [
        quad(
            lambda r: alpha_integrand(r, params, spec),
            lo,
            hi,
            epsabs=0.0,
            epsrel=config.quad_rel_tol,
            limit=config.max_subdivisions,
        )[0]
        for lo, hi in zip(ends[:-1], ends[1:])
    ]


def alpha(s, params: cf.SolutionParams, spec: BundleSpec, config: SolverConfig = None):
    """alpha(s) from the integrating-factor formula, by adaptive quadrature.

    alpha(0) = 0 is returned exactly without quadrature. At s = s_*
    under a right blowdown V(s_*) = 0 makes the prefactor singular;
    there the one-sided limit is returned (Richardson extrapolation
    from s_* - delta*{1,2,4}), since alpha extends continuously.
    Accepts scalar or array s.
    """
    config = config or SolverConfig()
    if not np.ndim(s) == 0:
        return np.array([alpha(float(sk), params, spec, config) for sk in np.asarray(s)])
    s = float(s)
    if s == 0.0:
        return 0.0
    v = cf.V(s, params, spec)
    if v == 0.0:
        # Quadrature noise in the numerator is divided by V ~ tau^{n_r}
        # approaching a vanishing-V endpoint, so the extrapolation base
        # step backs off further than the collapse-end value: 1e-4 s_*
        # sits in the valley between that amplification and the
        # O(delta^3) extrapolation truncation.
        delta = BLOWDOWN_DELTA_FRAC * params.s_star
        y = [alpha(s - k * delta, params, spec, config) for k in (1, 2, 4)]
        return richardson(y[0], y[1], y[2])
    x = s + params.kappa0
    return sum(_piece_integrals(params, spec, config, s)) / (v * x ** (spec.m - 1.0))


def alpha_derivatives(s, params: cf.SolutionParams, spec: BundleSpec, config: SolverConfig = None):
    """(alpha, alpha', alpha'') at s from one evaluation of alpha.

    alpha' = RHS - P alpha comes from the first-order ODE, and
    differentiating it once gives alpha'' = RHS' - P' alpha - P alpha',
    with RHS' = eps/2 - E/(s+kappa0)^2 and
    P' = (log V)'' - (m-1)/(s+kappa0)^2. Needs all beta_i(s) > 0
    (interior points when a blowdown end exists); endpoint slopes are
    obtained by extrapolation, see boundary_slopes. Accepts scalar or
    array s.
    """
    config = config or SolverConfig()
    a = alpha(s, params, spec, config)
    x = np.asarray(s, dtype=float) + params.kappa0
    P = cf.logV_prime(s, params, spec) + (spec.m - 1.0) / x
    rhs = 0.5 * spec.epsilon * x + params.E / x
    ap = rhs - P * a
    rhs_p = 0.5 * spec.epsilon - params.E / (x * x)
    P_p = cf.logV_second(s, params, spec) - (spec.m - 1.0) / (x * x)
    app = rhs_p - P_p * a - P * ap
    if np.ndim(s) == 0:
        return float(a), float(ap), float(app)
    return a, ap, app


def richardson(y1, y2, y3):
    """Limit of y(delta) as delta -> 0 from samples at delta*{1,2,4}.

    Eliminates the O(delta) and O(delta^2) error terms:
    L = (8 y1 - 6 y2 + y3) / 3.
    """
    return (8.0 * y1 - 6.0 * y2 + y3) / 3.0


# Extrapolation base step (as a fraction of s_*) next to an endpoint
# where V vanishes; see the comment in alpha().
BLOWDOWN_DELTA_FRAC = 1e-4


def boundary_slopes(params, spec, config: SolverConfig = None, delta_frac: float = 1e-6):
    """Extrapolated alpha'(0+) and alpha'(s_*-).

    Slopes are estimated from difference quotients alpha(delta)/delta
    and alpha(s_* - delta)/delta at delta*{1,2,4} with Richardson
    extrapolation, valid across both endpoint types (at a blowdown the
    (log V)' alpha term keeps a finite limit, so the ODE form of
    alpha' is singular there while the quotient is not). At a right
    blowdown the base step is widened to BLOWDOWN_DELTA_FRAC against
    the 1/V noise amplification; the left end needs no such care since
    its quadrature error is local and vanishes with the step.
    """
    config = config or SolverConfig()
    d = delta_frac * params.s_star
    left = richardson(
        *[alpha(k * d, params, spec, config) / (k * d) for k in (1, 2, 4)]
    )
    if spec.right is EndpointType.BLOWDOWN:
        d = BLOWDOWN_DELTA_FRAC * params.s_star
    a_end = [alpha(params.s_star - k * d, params, spec, config) for k in (1, 2, 4)]
    a_star = richardson(*a_end)
    # alpha(s_*-delta) ~ alpha(s_*) - alpha'(s_*) delta; remove the
    # extrapolated endpoint value so a nonzero defect does not bias the
    # slope estimate.
    right = richardson(*[-(a_end[k] - a_star) / (2**k * d) for k in range(3)])
    return left, right


def boundary_defect(
    kappa0: float, spec: BundleSpec, config: SolverConfig = None, root_signs=None
):
    """D(kappa0) = int_0^{s_*} V (r+kappa0)^(m-2) (E + eps (r+kappa0)^2/2) dr.

    The zero set of D matches that of alpha(s_*) wherever the dropped
    prefactor is finite and positive.

    Raises
    ------
    PositivityError
        If some beta_i <= 0 on (0, s_*) for this kappa0 (the scan in
        ``solve`` records such points as NaN rather than aborting).
    """
    config = config or SolverConfig()
    params = cf.params_from_kappa0(kappa0, spec, root_signs=root_signs)
    ok, violation = cf.positivity_check(params, spec)
    if not ok:
        raise PositivityError(
            f"beta_{violation['factor']} = {violation['value']:.3e} <= 0 at "
            f"s = {violation['s']:.6g} (kappa0 = {kappa0:.6g})",
            s=violation["s"],
            factor=violation["factor"],
        )
    return sum(_piece_integrals(params, spec, config, params.s_star))


def defect_scale(params, spec, config: SolverConfig = None):
    """int_0^{s_*} |integrand| dr, the natural magnitude scale for D."""
    config = config or SolverConfig()
    return sum(abs(v) for v in _piece_integrals(params, spec, config, params.s_star))


def solve(
    spec: BundleSpec,
    config: SolverConfig = None,
    root_signs=None,
    kappa1: float = 1.0,
) -> SolvedProfile:
    """Locate kappa0 with alpha(s_*) = 0 by scan plus bisection.

    Scans ``config.scan_points`` log-uniform kappa0 values across the
    bracket, records every sign change of the defect, polishes each to
    ``config.root_tol``, and returns the profile assembled at the
    smallest root together with the full list.

    Raises
    ------
    ValueError
        If the spec fails validation (precondition).
    NoSignChangeError
        If the defect never changes sign; the error carries the scan
        table so the bracket can be widened with full information.
    PositivityError
        If the profile at the returned root violates beta_i > 0 or
        alpha > 0 on an interior grid.
    """
    config = config or SolverConfig()
    violations = validate_spec(spec)
    if violations:
        raise ValueError("invalid spec: " + "; ".join(violations))

    lo, hi = config.bracket
    grid = np.geomspace(lo, hi, config.scan_points)
    defects = np.full(grid.shape, np.nan)
    for k, kappa0 in enumerate(grid):
        try:
            defects[k] = boundary_defect(float(kappa0), spec, config, root_signs)
        except PositivityError:
            pass  # NaN row in the scan table

    sign_changes = []
    for k in range(len(grid) - 1):
        d0, d1 = defects[k], defects[k + 1]
        if np.isnan(d0) or np.isnan(d1):
            continue
        if d0 == 0.0:
            sign_changes.append((float(grid[k]), float(grid[k])))
        elif d0 * d1 < 0.0:
            sign_changes.append((float(grid[k]), float(grid[k + 1])))
    if len(grid) and defects[-1] == 0.0:
        sign_changes.append((float(grid[-1]), float(grid[-1])))

    if not sign_changes:
        table = "\n".join(
            f"  kappa0 = {g:12.6g}   defect = {d:.6e}" for g, d in zip(grid, defects)
        )
        raise NoSignChangeError(
            "boundary defect has no sign change over bracket "
            f"({lo:g}, {hi:g}) with {config.scan_points} scan points; "
            "widen the bracket or flip root_signs. Scan table:\n" + table,
            scan_table=list(zip(grid.tolist(), defects.tolist())),
        )

    roots = []
    for a, b in sign_changes:
        if a == b:
            roots.append(a)
            continue
        root = brentq(
            lambda k0: boundary_defect(k0, spec, config, root_signs),
            a,
            b,
            xtol=config.root_tol,
            rtol=4.0 * np.finfo(float).eps,
        )
        roots.append(float(root))

    primary = min(roots)
    params = cf.params_from_kappa0(primary, spec, kappa1=kappa1, root_signs=root_signs)
    defect_at_root = boundary_defect(primary, spec, config, root_signs)

    # Re-validate positivity at the solution: betas exactly, alpha on an
    # interior grid.
    ok, violation = cf.positivity_check(params, spec)
    if not ok:
        raise PositivityError(
            f"solved profile violates beta_{violation['factor']} > 0",
            s=violation["s"],
            factor=violation["factor"],
        )
    s_grid = np.linspace(0.0, params.s_star, 66)[1:-1]
    a_grid = alpha(s_grid, params, spec, config)
    if np.any(a_grid <= 0.0):
        bad = int(np.argmax(a_grid <= 0.0))
        raise PositivityError(
            f"solved profile has alpha({s_grid[bad]:.6g}) = {a_grid[bad]:.3e} <= 0",
            s=float(s_grid[bad]),
        )

    return SolvedProfile(
        params=params,
        defect_at_root=float(defect_at_root),
        bracket_used=(float(lo), float(hi)),
        all_sign_changes=tuple(sign_changes),
        roots=tuple(roots),
    )
