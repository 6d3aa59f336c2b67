"""The alpha table and the boundary-defect root-find over kappa0.

With beta_i, phi, V in closed form, the remaining unknown alpha solves
the first-order linear ODE

    alpha' + P(s) alpha = RHS(s),
    P = (log V)' + (m-1)/(s+kappa0),
    RHS = eps (s+kappa0)/2 + E/(s+kappa0),

whose integrating factor V (s+kappa0)^(m-1) gives

    alpha(s) = V^(-1) (s+kappa0)^(1-m)
               * int_0^s V(r) (r+kappa0)^(m-2) (E + eps (r+kappa0)^2 / 2) dr.

The integral is served from one composite Gauss-Legendre table per
call: 16-point panels on each single-signed side of the integrand's
sign change, their cumulative sums from 0 and from s_*, and one
partial panel from the nearest table edge to each query point. Under
a right blowdown alpha takes the integral from the s_* end past the
sign change (see alpha).

alpha(0) = 0 holds by construction; the one remaining boundary
condition alpha(s_*) = 0 becomes a scalar root-find in kappa0. The
defect is taken as the bare integral D(kappa0) = int_0^{s_*} ... dr
(no prefactor): it has the same zeros wherever the prefactor is finite
and positive, and stays well-defined at a right blowdown end where
V(s_*) = 0. The defect is the last entry of the same table, so the
scan, the root polish and alpha all use one integration rule. Adaptive
Gauss-Kronrod quadrature (_piece_integrals) is kept only as the
verifier's independent reference for the leftover defect and for alpha.

The solver scans a log-uniform kappa0 grid, records every sign change
of D, polishes each to a root, and returns the smallest root as the
primary profile. Scan points where positivity or the closed form fails
are recorded as NaN rows, not fatal errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

from . import closedform as cf
from .errors import NonPositiveKappa0Error, NoSignChangeError, PositivityError
from .spec import BundleSpec, EndpointType, validate_spec


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs for the defect scan and root polish.

    bracket : (lo, hi) kappa0 search interval, 0 < lo < hi < inf.
    scan_points : log-uniform samples of the defect across the bracket.
    root_tol : absolute tolerance on kappa0 in the Brent (brentq) polish.

    The defect and alpha both come from the fixed-order table (see
    alpha), which has no tolerance to set.
    """

    bracket: tuple = (1e-3, 1e3)
    scan_points: int = 64
    root_tol: float = 1e-12

    def __post_init__(self):
        lo, hi = self.bracket
        if not (0.0 < lo < hi < math.inf):
            raise ValueError(f"bracket must satisfy 0 < lo < hi < inf, got {self.bracket}")
        if self.scan_points < 2:
            raise ValueError("scan_points must be at least 2")
        if self.root_tol <= 0.0:
            raise ValueError("root_tol must be positive")


@dataclass(frozen=True)
class SolvedProfile:
    """Result of the defect root-find.

    params : parameters at the primary (smallest) root.
    defect_at_root : D(kappa0*) left over after the Brent polish.
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


# Adaptive quadrature settings of the verifier's reference integrals.
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 200


def _piece_integrals(params, spec, s, lo=0.0):
    """Adaptive-quadrature integrals of the alpha integrand over [lo, s], split at its sign change.

    The verifier's reference, independent of the Gauss-Legendre table.
    Each piece is single-signed, so the relative quadrature tolerance is
    meaningful even when their sum (the defect near a root) cancels to
    ~0, and the sum of their magnitudes is int_lo^s |integrand| exactly.
    Returned in order from lo to s.
    """
    ends = [lo] + [x0 for x0 in _integral_break(params, spec, s) or [] if x0 > lo] + [s]
    return [
        quad(
            lambda r: alpha_integrand(r, params, spec),
            lo,
            hi,
            epsabs=0.0,
            epsrel=QUAD_REL_TOL,
            limit=QUAD_LIMIT,
        )[0]
        for lo, hi in zip(ends[:-1], ends[1:])
    ]


# Fixed-order rule for alpha: 16-point Gauss-Legendre panels, 64 across
# [0, s_*], split evenly between the two single-signed sides of the
# integrand when it changes sign inside.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
ALPHA_PANELS = 64
# Intervals integrated per vectorised block: keeps each (block, 16)
# temporary of the integrand near 128 kB however many points are asked.
_GL_BLOCK = 1024


def _gauss_legendre(lo, hi, params, spec):
    """16-point Gauss-Legendre integrals of the alpha integrand, elementwise over [lo, hi]."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mid, half = (0.5 * (hi + lo)).ravel(), (0.5 * (hi - lo)).ravel()
    sums = np.empty(mid.size)
    for k in range(0, mid.size, _GL_BLOCK):
        r = mid[k : k + _GL_BLOCK, None] + half[k : k + _GL_BLOCK, None] * _GL_NODES
        sums[k : k + _GL_BLOCK] = np.sum(_GL_WEIGHTS * alpha_integrand(r, params, spec), axis=-1)
    return (half * sums).reshape(hi.shape)


def _alpha_table(params, spec):
    """Panel edges on [0, s_*], and the alpha integrand's integral from 0 to each and to s_*."""
    s_star = params.s_star
    brk = _integral_break(params, spec, s_star)
    if brk:
        half = ALPHA_PANELS // 2
        edges = np.concatenate(
            [np.linspace(0.0, brk[0], half + 1), np.linspace(brk[0], s_star, half + 1)[1:]]
        )
    else:
        edges = np.linspace(0.0, s_star, ALPHA_PANELS + 1)
    panels = _gauss_legendre(edges[:-1], edges[1:], params, spec)
    cum, tail = np.zeros(edges.shape), np.zeros(edges.shape)
    np.cumsum(panels, out=cum[1:])
    np.cumsum(panels[::-1], out=tail[-2::-1])
    return edges, cum, tail


def alpha(s, params: cf.SolutionParams, spec: BundleSpec):
    """alpha(s) from the integrating-factor formula, by a Gauss-Legendre table.

    Each call tabulates the integral at the panel edges of [0, s_*]
    (see _alpha_table) and answers every point from the table value at
    the nearest edge plus one 16-point panel from that edge. Under a
    right blowdown, past the integrand's sign change, the integral is
    taken from the s_* end, alpha = -int_s^{s_*} ... dr / (V x^(m-1)),
    so V ~ (s_* - s)^(n_r) never divides roundoff; this drops the
    defect D, about 0 at a root and recomputed by the verifier.
    alpha(0) = 0, and alpha(s_*) = 0 under a right blowdown, are
    returned exactly without quadrature. Accepts scalar or array s.
    """
    edges, cum, tail = _alpha_table(params, spec)
    s_arr = np.asarray(s, dtype=float)
    out = np.zeros(s_arr.shape)
    right_blowdown = spec.right is EndpointType.BLOWDOWN
    # At s_* under a right blowdown the tail formula reads 0/V(s_*) with
    # V(s_*) = 0 up to roundoff in beta_r: keyed on the endpoint type.
    inner = (s_arr != 0.0) & ~((s_arr == params.s_star) & right_blowdown)
    r = s_arr[inner]
    k = np.clip(np.searchsorted(edges, r, side="right") - 1, 0, len(edges) - 2)
    brk = _integral_break(params, spec, params.s_star)
    past = r >= (brk[0] if right_blowdown and brk else np.inf)
    lo, hi = np.where(past, r, edges[k]), np.where(past, edges[k + 1], r)
    part = _gauss_legendre(lo, hi, params, spec)
    integral = np.where(past, -(tail[k + 1] + part), cum[k] + part)
    out[inner] = integral / (cf.V(r, params, spec) * (r + params.kappa0) ** (spec.m - 1.0))
    return float(out) if np.ndim(s) == 0 else out


def alpha_derivatives(s, params: cf.SolutionParams, spec: BundleSpec):
    """(alpha, alpha', alpha'') at s from one evaluation of alpha.

    alpha' = RHS - P alpha comes from the first-order ODE, and
    differentiating it once gives alpha'' = RHS' - P' alpha - P alpha',
    with RHS' = eps/2 - E/(s+kappa0)^2 and
    P' = (log V)'' - (m-1)/(s+kappa0)^2. Needs all beta_i(s) > 0
    (interior points when a blowdown end exists); endpoint slopes are
    obtained by extrapolation, see boundary_slopes. Accepts scalar or
    array s.
    """
    a = alpha(s, params, spec)
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


# Extrapolation base step for the endpoint slopes, as a fraction of s_*.
SLOPE_DELTA_FRAC = 1e-6


def boundary_slopes(params, spec):
    """Extrapolated alpha'(0+) and alpha'(s_*-).

    Slopes are estimated from difference quotients alpha(delta)/delta
    and alpha(s_* - delta)/delta at delta*{1,2,4} with Richardson
    extrapolation, valid across both endpoint types (at a blowdown the
    (log V)' alpha term keeps a finite limit, so the ODE form of
    alpha' is singular there while the quotient is not). One step
    serves both ends: alpha takes each partial integral from the
    nearer blown-down end, so its error vanishes with the step there.
    """
    steps = np.array([1.0, 2.0, 4.0])
    d = SLOPE_DELTA_FRAC * params.s_star
    a_start, a_end = alpha(np.array([steps * d, params.s_star - steps * d]), params, spec)
    left = richardson(*(a_start / (steps * d)))
    a_star = richardson(*a_end)
    # alpha(s_*-delta) ~ alpha(s_*) - alpha'(s_*) delta; remove the
    # extrapolated endpoint value so a nonzero defect does not bias the
    # slope estimate at a collapse end.
    right = richardson(*(-(a_end - a_star) / (steps * d)))
    return float(left), float(right)


def boundary_defect(kappa0: float, spec: BundleSpec, root_signs=None):
    """D(kappa0) = int_0^{s_*} V (r+kappa0)^(m-2) (E + eps (r+kappa0)^2/2) dr.

    The zero set of D matches that of alpha(s_*) wherever the dropped
    prefactor is finite and positive. D is the last entry of the alpha
    table (see _alpha_table), so the root is found on the same rule that
    alpha is evaluated with.

    Raises
    ------
    PositivityError
        If some beta_i <= 0 on (0, s_*) for this kappa0 (the scan in
        ``solve`` records such points as NaN rather than aborting).
    NonPositiveKappa0Error
        If kappa0 is too small for a positive left root (also a NaN row).
    """
    params = cf.params_from_kappa0(kappa0, spec, root_signs=root_signs)
    ok, violation = cf.positivity_check(params, spec)
    if not ok:
        raise PositivityError(
            f"beta_{violation['factor']} = {violation['value']:.3e} <= 0 at "
            f"s = {violation['s']:.6g} (kappa0 = {kappa0:.6g})",
            s=violation["s"],
            factor=violation["factor"],
        )
    return float(_alpha_table(params, spec)[1][-1])


def solve(
    spec: BundleSpec,
    config: SolverConfig = None,
    root_signs=None,
    kappa1: float = 1.0,
) -> SolvedProfile:
    """Locate kappa0 with alpha(s_*) = 0 by scan plus Brent's method.

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
            defects[k] = boundary_defect(float(kappa0), spec, root_signs)
        except (PositivityError, NonPositiveKappa0Error):
            pass  # NaN row in the scan table

    sign_changes = []
    for k in range(len(grid) - 1):
        d0, d1 = defects[k], defects[k + 1]
        if np.isnan(d0) or np.isnan(d1):
            continue
        if d0 == 0.0:
            sign_changes.append((float(grid[k]), float(grid[k])))
        elif np.sign(d0) == -np.sign(d1):  # d0 * d1 can overflow at large m
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
            lambda k0: boundary_defect(k0, spec, root_signs),
            a,
            b,
            xtol=config.root_tol,
            rtol=4.0 * np.finfo(float).eps,
        )
        roots.append(float(root))

    primary = min(roots)
    params = cf.params_from_kappa0(primary, spec, kappa1=kappa1, root_signs=root_signs)
    # boundary_defect has checked the betas here; alpha is checked below.
    defect_at_root = boundary_defect(primary, spec, root_signs)
    s_grid = np.linspace(0.0, params.s_star, 66)[1:-1]
    a_grid = alpha(s_grid, params, spec)
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
