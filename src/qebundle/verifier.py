"""Independent certification of a solved profile.

The ground truth is the s-coordinate system (the one the construction
actually solves):

    (I)   (1/2)a'' + (1/2)a'L' + a sum_i n_i(b_i''/b_i - (1/2)(b_i'/b_i)^2)
          + m (a phi''/phi + a'phi'/(2 phi)) = eps/2
    (II)  (1/2)a'' + (1/2)a'L' - a sum_i n_i q_i^2/(2 b_i^2)
          + m a'phi'/(2 phi) = eps/2
    (III) (1/2)a'b_i'/b_i + (1/2)a(b_i''/b_i - (b_i'/b_i)^2)
          + (1/2)a b_i' L'/b_i - p_i/b_i + q_i^2 a/(2 b_i^2)
          + (m/2) a b_i'phi'/(b_i phi) = eps/2       (one per factor)
    (IV)  phi(phi''a + phi'a'/2) + phi phi'(a'/2 + L'a)
          + (m-1)(phi')^2 a - (eps/2) phi^2 = mu     (first integral)

written with a = alpha, b_i = beta_i, L' = (log V)'. The verifier
evaluates all residuals on a Chebyshev-clustered interior grid, checks
the first integral against its constant mu = E kappa1^2, the quadratic
ansatz per factor, both endpoint quadratics, the boundary conditions
(values directly, slopes by Richardson extrapolation — the outgoing
slope -2 at s_* is emergent, never imposed), positivity, the leftover
defect, and cross-checks every analytic derivative against central
differences. alpha' and alpha'' come from the ODE, so the residuals
cannot see an inaccurate alpha table. The solver's root and alpha both
come from that table, so the leftover defect is recomputed here by
adaptive Gauss-Kronrod quadrature (solver._piece_integrals, at fixed
settings, whatever config the solution file carries), and the table is
compared with the same quadrature at five interior points. Under a
right blowdown alpha is anchored at s_* past the integrand's sign
change, so alpha(s_*) = 0 there by construction: that end is checked
instead by the leftover defect and by two more spot points, 0.95 s_*
and 0.99 s_*, against minus the adaptive integral from s to s_*.

A profile is *certified* when every named check passes its tolerance.
Tolerances are tiered by the weakest numerical ingredient of each
check: algebraic identities at 1e-12, quadrature-backed residuals at
1e-8, extrapolation/finite-difference checks at 1e-6 (and 1e-4 for the
t-coordinate spot check).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from . import solver as sv
from .errors import PositivityError
from .geometry import reconstruct_t
from .spec import BundleSpec, EndpointType


@dataclass(frozen=True)
class ProfileSample:
    """All profile values entering the residuals, on a grid of s.

    Every field has the shape of s; beta, beta_prime and beta_second
    stack the factors first, with shape (r,) + shape(s).
    """

    s: np.ndarray
    alpha: np.ndarray
    alpha_prime: np.ndarray
    alpha_second: np.ndarray
    beta: np.ndarray
    beta_prime: np.ndarray
    beta_second: np.ndarray
    phi: np.ndarray
    phi_prime: np.ndarray
    logV_prime: np.ndarray
    logV_second: np.ndarray


@dataclass
class ResidualReport:
    """Everything verify() measures, plus the pass/fail verdicts.

    checks maps a check name to {"value", "tol", "passed"}; certified
    is the conjunction of all passed flags.
    """

    grid: np.ndarray
    res_25: np.ndarray
    res_26: np.ndarray
    res_27: np.ndarray
    mu_samples: np.ndarray
    mu_dev: float
    ansatz_res: np.ndarray
    boundary: dict
    positivity_ok: bool
    positivity_violation: object
    fd_check: float
    checks: dict
    certified: bool


def sample_at(s, params: cf.SolutionParams, spec: BundleSpec) -> ProfileSample:
    """Evaluate every profile quantity at interior points s (scalar or array)."""
    a, ap, app = sv.alpha_derivatives(s, params, spec)
    return ProfileSample(
        s=s,
        alpha=a,
        alpha_prime=ap,
        alpha_second=app,
        beta=cf.beta(s, params, spec),
        beta_prime=cf.beta_prime(s, params, spec),
        beta_second=cf.beta_second(s, params, spec),
        phi=cf.phi(s, params),
        phi_prime=cf.phi_prime(s, params),
        logV_prime=cf.logV_prime(s, params, spec),
        logV_second=cf.logV_second(s, params, spec),
    )


def residual_25(sample: ProfileSample, spec: BundleSpec):
    """Residual of equation (I); phi'' = 0 for the linear phi."""
    n = cf.factor_constants(spec, np.ndim(sample.s))[0]
    b, bp, bpp = sample.beta, sample.beta_prime, sample.beta_second
    ansum = np.sum(n * (bpp / b - 0.5 * (bp / b) ** 2), axis=0)
    return (
        0.5 * sample.alpha_second
        + 0.5 * sample.alpha_prime * sample.logV_prime
        + sample.alpha * ansum
        + spec.m * sample.alpha_prime * sample.phi_prime / (2.0 * sample.phi)
        - 0.5 * spec.epsilon
    )


def residual_26(sample: ProfileSample, spec: BundleSpec):
    """Residual of equation (II)."""
    n, _, q = cf.factor_constants(spec, np.ndim(sample.s))
    qsum = np.sum(n * q**2 / (2.0 * sample.beta**2), axis=0)
    return (
        0.5 * sample.alpha_second
        + 0.5 * sample.alpha_prime * sample.logV_prime
        - sample.alpha * qsum
        + spec.m * sample.alpha_prime * sample.phi_prime / (2.0 * sample.phi)
        - 0.5 * spec.epsilon
    )


def residual_27(sample: ProfileSample, spec: BundleSpec):
    """Residuals of equation (III), one row per factor: shape (r,) + shape(s)."""
    _, p, q = cf.factor_constants(spec, np.ndim(sample.s))
    b, bp, bpp = sample.beta, sample.beta_prime, sample.beta_second
    return (
        0.5 * sample.alpha_prime * bp / b
        + 0.5 * sample.alpha * (bpp / b - (bp / b) ** 2)
        + 0.5 * sample.alpha * bp * sample.logV_prime / b
        - p / b
        + q**2 * sample.alpha / (2.0 * b * b)
        + 0.5 * spec.m * sample.alpha * bp * sample.phi_prime / (b * sample.phi)
        - 0.5 * spec.epsilon
    )


def mu_of_s(sample: ProfileSample, spec: BundleSpec):
    """LHS of the first integral (IV); constant = mu on exact solutions."""
    return (
        sample.phi * sample.phi_prime * sample.alpha_prime / 2.0
        + sample.phi
        * sample.phi_prime
        * (sample.alpha_prime / 2.0 + sample.logV_prime * sample.alpha)
        + (spec.m - 1.0) * sample.phi_prime**2 * sample.alpha
        - 0.5 * spec.epsilon * sample.phi**2
    )


def ansatz_residual(sample: ProfileSample, spec: BundleSpec):
    """b''/b - (1/2)(b'/b)^2 + q^2/(2 b^2) per factor (identically 0): shape (r,) + shape(s)."""
    q = cf.factor_constants(spec, np.ndim(sample.s))[2]
    b, bp, bpp = sample.beta, sample.beta_prime, sample.beta_second
    return bpp / b - 0.5 * (bp / b) ** 2 + q**2 / (2.0 * b * b)


def _ansatz_scale(sample: ProfileSample, spec: BundleSpec):
    """Magnitude of the largest term in the ansatz (all carry 1/b^2), per factor."""
    q = cf.factor_constants(spec, np.ndim(sample.s))[2]
    b, bp, bpp = sample.beta, sample.beta_prime, sample.beta_second
    return np.maximum(np.maximum(np.abs(bpp / b), 0.5 * (bp / b) ** 2), q**2 / (2.0 * b * b))


def chebyshev_grid(lo: float, hi: float, n: int) -> np.ndarray:
    """n Chebyshev-clustered points on (lo, hi), ascending, endpoint-free."""
    theta = np.pi * (2.0 * np.arange(n) + 1.0) / (2.0 * n)
    return lo + (hi - lo) * 0.5 * (1.0 - np.cos(theta))


# Tolerance tiers (see module docstring).
TOL_ALGEBRAIC = 1e-12
TOL_RESIDUAL = 1e-8
TOL_SLOPE = 1e-6
TOL_FD = 1e-6
TOL_ALPHA_END = 1e-10
TOL_T_SYSTEM = 1e-4


def verify(
    profile: sv.SolvedProfile,
    spec: BundleSpec,
    grid_size: int = 201,
    delta_frac: float = 1e-3,
) -> ResidualReport:
    """Certify a solved profile against every check it must satisfy.

    Parameters
    ----------
    profile : SolvedProfile
        Output of solver.solve (or deserialized equivalent).
    grid_size : int
        Number of Chebyshev-clustered interior residual samples (>= 16).
    delta_frac : float
        Interior margin as a fraction of s_*; the grid spans
        [delta, s_* - delta], 0 < delta_frac < 0.1.
    """
    if grid_size < 16:
        raise ValueError("grid_size must be at least 16")
    if not (0.0 < delta_frac < 0.1):
        raise ValueError("delta_frac must lie in (0, 0.1)")
    params = profile.params
    s_star = params.s_star
    delta = delta_frac * s_star

    # Some beta <= 0 makes log V (hence every residual) undefined on the
    # grid: that profile cannot be measured, only rejected. alpha <= 0,
    # by contrast, is recorded in the report below.
    beta_ok, beta_violation = cf.positivity_check(params, spec)
    if not beta_ok:
        raise PositivityError(
            f"beta_{beta_violation['factor']} = {beta_violation['value']:.3e} <= 0 "
            f"at s = {beta_violation['s']:.6g}; residuals undefined",
            s=beta_violation["s"],
            factor=beta_violation["factor"],
        )

    grid = chebyshev_grid(delta, s_star - delta, grid_size)
    sample = sample_at(grid, params, spec)

    res25 = residual_25(sample, spec)
    res26 = residual_26(sample, spec)
    res27 = residual_27(sample, spec).T
    mu_s = mu_of_s(sample, spec)
    ansatz = ansatz_residual(sample, spec).T
    ansatz_scaled = np.abs(ansatz) / _ansatz_scale(sample, spec).T
    mu_dev = float(np.max(np.abs(mu_s - params.mu)) / max(1.0, abs(params.mu)))

    # Boundary values and slopes. alpha(s_*) under a right blowdown is 0
    # by construction (see solver.alpha).
    alpha_at_0, alpha_at_sstar = sv.alpha(np.array([0.0, s_star]), params, spec)
    slope0, slope_end = sv.boundary_slopes(params, spec)
    boundary = {
        "alpha_at_0": float(alpha_at_0),
        "alpha_at_sstar": float(alpha_at_sstar),
        "slope_at_0_minus_2": float(slope0 - 2.0),
        "slope_at_sstar_plus_2": float(slope_end + 2.0),
    }
    if spec.left is EndpointType.BLOWDOWN:
        boundary["beta_left_at_0"] = float(cf.beta(0.0, params, spec)[0])
        boundary["beta_left_slope_minus_1"] = float(cf.beta_prime(0.0, params, spec)[0]) - 1.0
    if spec.right is EndpointType.BLOWDOWN:
        boundary["beta_right_at_sstar"] = float(cf.beta(s_star, params, spec)[-1])
        boundary["beta_right_slope_plus_1"] = float(cf.beta_prime(s_star, params, spec)[-1]) + 1.0

    # Endpoint quadratic residuals (exact algebraic identities).
    qL = 0.5 * params.kappa0**2 + 2.0 * (spec.n_left + 1) * params.kappa0 - params.E
    xR = -(s_star + params.kappa0)
    qR = 0.5 * xR**2 + 2.0 * (spec.n_right + 1) * xR - params.E

    # Positivity of alpha on the grid (betas were vetted above).
    positivity_ok, violation = True, None
    alpha_grid = sample.alpha
    if np.any(alpha_grid <= 0.0):
        bad = int(np.argmax(alpha_grid <= 0.0))
        positivity_ok = False
        violation = {"factor": None, "s": float(grid[bad]), "value": float(alpha_grid[bad])}

    # Finite-difference cross-checks at h = 1e-6 s_*: rows -h, 0, +h at 10 interior points.
    h = 1e-6 * s_star
    fd_points = np.linspace(0.1 * s_star, 0.9 * s_star, 10)
    pts = fd_points + h * np.array([[-1.0], [0.0], [1.0]])
    a, ap, app = sv.alpha_derivatives(pts, params, spec)
    lp = cf.logV_prime(pts, params, spec)
    lpp = cf.logV_second(fd_points, params, spec)
    logV = np.log(cf.V(pts, params, spec))
    fd_worst = float(
        np.max(
            [
                np.abs((a[2] - a[0]) / (2 * h) - ap[1]),
                np.abs((ap[2] - ap[0]) / (2 * h) - app[1]),
                np.abs((logV[2] - logV[0]) / (2 * h) - lp[1]) / np.maximum(1.0, np.abs(lp[1])),
                np.abs((lp[2] - lp[0]) / (2 * h) - lpp) / np.maximum(1.0, np.abs(lpp)),
            ]
        )
    )

    # Leftover defect by adaptive quadrature, against its natural scale.
    pieces = sv._piece_integrals(params, spec, s_star)
    defect, dscale = sum(pieces), sum(abs(v) for v in pieces)

    # The table alpha against adaptive quadrature at a few interior
    # points: the integral from 0, and under a right blowdown also minus
    # the integral to s_* next to that end, where alpha anchors there.
    spot = s_star * np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    spot_int = [sum(sv._piece_integrals(params, spec, s)) for s in spot]
    if spec.right is EndpointType.BLOWDOWN:
        tail_spot = s_star * np.array([0.95, 0.99])
        spot = np.concatenate([spot, tail_spot])
        spot_int += [-sum(sv._piece_integrals(params, spec, s_star, lo=s)) for s in tail_spot]
    spot_quad = np.array(spot_int) / (
        cf.V(spot, params, spec) * (spot + params.kappa0) ** (spec.m - 1.0)
    )
    spot_worst = float(np.max(np.abs(sv.alpha(spot, params, spec) - spot_quad)))

    alpha_max = float(np.max(np.abs(alpha_grid)))
    checks = {}

    def check(name, value, tol):
        checks[name] = {"value": float(value), "tol": float(tol), "passed": bool(abs(value) <= tol)}

    check("res25_max", np.max(np.abs(res25)), TOL_RESIDUAL)
    check("res26_max", np.max(np.abs(res26)), TOL_RESIDUAL)
    check("res27_max", np.max(np.abs(res27)), TOL_RESIDUAL)
    check("mu_dev", mu_dev, TOL_RESIDUAL)
    check("ansatz_max", np.max(ansatz_scaled), TOL_ALGEBRAIC)
    check("left_quadratic", qL, TOL_ALGEBRAIC * max(1.0, abs(params.E)))
    check("right_quadratic", qR, TOL_ALGEBRAIC * max(1.0, abs(params.E)))
    check("alpha_at_0", alpha_at_0, 0.0)
    check("alpha_at_sstar", alpha_at_sstar, TOL_ALPHA_END * max(1.0, alpha_max))
    check("slope_at_0_minus_2", boundary["slope_at_0_minus_2"], TOL_SLOPE)
    check("slope_at_sstar_plus_2", boundary["slope_at_sstar_plus_2"], TOL_SLOPE)
    check("fd_check", fd_worst, TOL_FD)
    check("defect_at_root", defect, 10.0 * sv.QUAD_REL_TOL * max(1.0, dscale))
    check("alpha_quad_spot", spot_worst, TOL_RESIDUAL * max(1.0, alpha_max))
    for name in [k for k in boundary if k.startswith("beta_")]:
        check(name, boundary[name], TOL_ALGEBRAIC)
    checks["positivity"] = {
        "value": 1.0 if positivity_ok else 0.0,
        "tol": 1.0,
        "passed": positivity_ok,
    }

    return ResidualReport(
        grid=grid,
        res_25=res25,
        res_26=res26,
        res_27=res27,
        mu_samples=mu_s,
        mu_dev=mu_dev,
        ansatz_res=ansatz,
        boundary=boundary,
        positivity_ok=positivity_ok,
        positivity_violation=violation,
        fd_check=fd_worst,
        checks=checks,
        certified=all(c["passed"] for c in checks.values()),
    )


def _window_fits(mp, y):
    """Local quartic fits in t over 7-sample windows of the reconstruction.

    The windows are centred on the nodes with t in [0.1 l, 0.9 l],
    thinned to about 200. y holds one column per fitted function (one
    row per grid node). Returns the centre indices and, per centre and
    column, the fitted value, d/dt and d2/dt2.
    """
    lo, hi = 0.1 * mp.total_length_l, 0.9 * mp.total_length_l
    idx = np.where((mp.t >= lo) & (mp.t <= hi))[0]
    idx = idx[:: max(1, len(idx) // 200)]
    idx = idx[(idx >= 3) & (idx <= len(mp.t) - 4)]
    fits = [
        np.polynomial.polynomial.polyfit(mp.t[j - 3 : j + 4] - mp.t[j], y[j - 3 : j + 4], 4)
        for j in idx
    ]
    # reshape keeps the (centre, coefficient, column) layout when no window fits
    c = np.array(fits).reshape(len(idx), 5, y.shape[1])
    return idx, c[:, 0], c[:, 1], 2.0 * c[:, 2]


def verify_t_system(
    params: cf.SolutionParams,
    spec: BundleSpec,
    grid_size: int = 257,
) -> float:
    """Spot-check the t-coordinate fiber equation on the reconstruction.

    Reconstructs t(s), forms f = sqrt(alpha), g_i = sqrt(beta_i),
    v = phi, differentiates them in t by local quartic fits on the
    nonuniform grid, and returns the max residual of

        f../f + sum_i (2 n_i f. g_i./(f g_i) - n_i q_i^2 f^2/(2 g_i^4))
             + m f. v./(f v) - eps/2

    over the interior window t in [0.1 l, 0.9 l]. Finite-difference
    limited; expected below 1e-4 for certified profiles.
    """
    mp = reconstruct_t(params, spec, grid_size)
    _, val, d1, d2 = _window_fits(mp, np.column_stack([mp.f, mp.v, mp.g]))
    f, fd, fdd, v, vd = val[:, 0], d1[:, 0], d2[:, 0], val[:, 1], d1[:, 1]
    g, gd = val[:, 2:].T, d1[:, 2:].T
    n, _, q = cf.factor_constants(spec, 1)
    res = fdd / f + spec.m * fd * vd / (f * v) - 0.5 * spec.epsilon
    res += np.sum(2.0 * n * fd * gd / (f * g) - 0.5 * n * q**2 * f**2 / g**4, axis=0)
    return float(np.max(np.abs(res), initial=0.0))


def dsdt_consistency(
    params: cf.SolutionParams,
    spec: BundleSpec,
    grid_size: int = 257,
) -> float:
    """Max relative deviation of the differenced ds/dt from sqrt(alpha).

    ds = f dt is the coordinate change itself, so the reconstructed
    t-grid must satisfy ds/dt = f = sqrt(alpha) wherever alpha > 0.
    """
    mp = reconstruct_t(params, spec, grid_size)
    idx, _, dsdt, _ = _window_fits(mp, mp.s[:, None])
    f = mp.f[idx]
    return float(np.max(np.abs(dsdt[:, 0] - f) / np.abs(f), initial=0.0))
