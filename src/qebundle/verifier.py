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

written with a = alpha, b_i = beta_i, L' = (log V)', and evaluated with
phi' = 1 and phi'' = 0 for the linear phi = s + kappa0. The verifier
evaluates all residuals on a Chebyshev-clustered interior grid, checks
the first integral against its constant mu = E, the quadratic
ansatz per factor, both endpoint quadratics, the boundary conditions
(values directly, slopes by Richardson extrapolation — the outgoing
slope -2 at s_* is emergent, never imposed), positivity, the leftover
defect, and cross-checks every analytic derivative against central
differences. alpha' and alpha'' come from the ODE, so the residuals
cannot see an inaccurate alpha table. The solver's root and alpha both
come from that table, so one pass of the package's own adaptive
7/15-point Gauss-Kronrod quadrature (solver.quad through
solver._piece_integrals, with other nodes and adaptive refinement, at
fixed settings, whatever config the solution file carries) recomputes
the integral over [0, s_*], cut at the spot points and the sign change:
the sum of the pieces is the leftover defect, and the sums from 0 check
the table at five interior points. Under a right blowdown alpha is
anchored at s_* past the sign change, so alpha(s_*) = 0 there by
construction: that end is checked instead by the leftover defect and
by two more spot points, 0.95 s_* and 0.99 s_*, against minus the sum
of the pieces from s to s_*.

A profile is *certified* when every named check passes its tolerance.
Tolerances are tiered by the weakest numerical ingredient of each
check: algebraic identities at 1e-12, quadrature-backed residuals at
1e-8, extrapolation/finite-difference checks at 1e-6. The fiber
equation of the metric dt^2 + f^2 theta^2 + sum_i g_i^2 h_i in the
arclength t has no check of its own: by the chain rule
d/dt = sqrt(alpha) d/ds it is residual (II) term for term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from . import solver as sv
from .errors import PositivityError
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
    """Evaluate every profile quantity at interior points s (scalar or array).

    The one evaluator of the profile's derivatives: one beta_jet call
    gives beta_i, beta_i' and beta_i'', and (log V)' and (log V)'' are
    formed from them. alpha' = RHS - P alpha comes from the first-order
    ODE, and differentiating it once gives alpha'' = RHS' - P' alpha - P alpha',
    with RHS' = eps/2 - E/(s+kappa0)^2 and
    P' = (log V)'' - (m-1)/(s+kappa0)^2. Needs all beta_i(s) > 0
    (interior points when a blowdown end exists), else raises
    PositivityError at the first factor and s where it is not (a NaN is
    not); endpoint slopes are obtained by extrapolation, see
    solver.boundary_slopes.
    """
    b, bp, bpp = cf.beta_jet(s, params, spec)
    flat = b.reshape(spec.r, -1)
    good = flat > 0.0
    if np.count_nonzero(good) < good.size:
        i, k = np.argwhere(~good)[0]
        s_k, b_k = float(np.ravel(s)[k]), float(flat[i, k])
        message = f"beta_{i + 1}({s_k:.6g}) = {b_k:.3e} is not positive; log V undefined"
        raise PositivityError(message, s=s_k, value=b_k, factor=int(i) + 1)
    n = cf.factor_constants(spec, np.ndim(s))[0]
    lp = np.sum(n * bp / b, axis=0)
    lpp = np.sum(n * (bpp * b - bp * bp) / (b * b), axis=0)
    a = sv.alpha(s, params, spec)
    x = np.asarray(s, dtype=float) + params.kappa0
    P = lp + (spec.m - 1.0) / x
    rhs = 0.5 * spec.epsilon * x + params.E / x
    ap = rhs - P * a
    rhs_p = 0.5 * spec.epsilon - params.E / (x * x)
    P_p = lpp - (spec.m - 1.0) / (x * x)
    app = rhs_p - P_p * a - P * ap
    return ProfileSample(
        s=s,
        alpha=a,
        alpha_prime=ap,
        alpha_second=app,
        beta=b,
        beta_prime=bp,
        beta_second=bpp,
        phi=cf.phi(s, params),
        logV_prime=lp,
        logV_second=lpp,
    )


def residual_25(sample: ProfileSample, spec: BundleSpec):
    """Residual of equation (I); phi' = 1 and phi'' = 0 for the linear phi."""
    n = cf.factor_constants(spec, np.ndim(sample.s))[0]
    b, bp, bpp = sample.beta, sample.beta_prime, sample.beta_second
    ansum = np.sum(n * (bpp / b - 0.5 * (bp / b) ** 2), axis=0)
    return (
        0.5 * sample.alpha_second
        + 0.5 * sample.alpha_prime * sample.logV_prime
        + sample.alpha * ansum
        + spec.m * sample.alpha_prime / (2.0 * sample.phi)
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
        + spec.m * sample.alpha_prime / (2.0 * sample.phi)
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
        + 0.5 * spec.m * sample.alpha * bp / (b * sample.phi)
        - 0.5 * spec.epsilon
    )


def mu_of_s(sample: ProfileSample, spec: BundleSpec):
    """LHS of the first integral (IV); constant = mu = E on exact solutions."""
    return (
        sample.phi * sample.alpha_prime / 2.0
        + sample.phi * (sample.alpha_prime / 2.0 + sample.logV_prime * sample.alpha)
        + (spec.m - 1.0) * sample.alpha
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

    # A beta that is not positive makes log V (hence every residual) undefined
    # on the grid: that profile cannot be measured, only rejected. An alpha
    # that is not positive, by contrast, is recorded in the report below.
    cf.require_positive_beta(params, spec)

    grid = chebyshev_grid(delta, s_star - delta, grid_size)
    sample = sample_at(grid, params, spec)

    res25 = residual_25(sample, spec)
    res26 = residual_26(sample, spec)
    res27 = residual_27(sample, spec).T
    mu_s = mu_of_s(sample, spec)
    ansatz = ansatz_residual(sample, spec).T
    ansatz_scaled = np.abs(ansatz) / _ansatz_scale(sample, spec).T
    mu_dev = float(np.max(np.abs(mu_s - params.E)) / max(1.0, abs(params.E)))

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
        boundary["beta_left_slope_minus_1"] = float(cf.beta_jet(0.0, params, spec)[1][0]) - 1.0
    if spec.right is EndpointType.BLOWDOWN:
        boundary["beta_right_at_sstar"] = float(cf.beta(s_star, params, spec)[-1])
        boundary["beta_right_slope_plus_1"] = float(cf.beta_jet(s_star, params, spec)[1][-1]) + 1.0

    # Endpoint quadratic residuals (exact algebraic identities).
    qL = 0.5 * params.kappa0**2 + 2.0 * (spec.n_left + 1) * params.kappa0 - params.E
    xR = -(s_star + params.kappa0)
    qR = 0.5 * xR**2 + 2.0 * (spec.n_right + 1) * xR - params.E

    # Positivity of alpha on the grid (betas were vetted above).
    positivity_ok, violation = True, None
    alpha_grid = sample.alpha
    try:
        sv.require_positive_alpha(grid, alpha_grid)
    except PositivityError as err:
        positivity_ok = False
        violation = {"factor": err.factor, "s": err.s, "value": err.value}

    # Finite-difference cross-checks at h = 1e-6 s_*: rows -h, 0, +h at 10 interior points.
    h = 1e-6 * s_star
    fd_points = np.linspace(0.1 * s_star, 0.9 * s_star, 10)
    pts = fd_points + h * np.array([[-1.0], [0.0], [1.0]])
    fd = sample_at(pts, params, spec)
    a, ap, app, lp = fd.alpha, fd.alpha_prime, fd.alpha_second, fd.logV_prime
    lpp = fd.logV_second[1]  # pts[1] is fd_points exactly
    # sum_i n_i log beta_i from the betas sample_at has checked: no V to overflow
    logV = np.sum(cf.factor_constants(spec, 2)[0] * np.log(fd.beta), axis=0)
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

    # The leftover defect and the table alpha against adaptive
    # quadrature, from one pass over [0, s_*] cut at the spot points: the
    # defect is the sum of all pieces, against the sum of their
    # magnitudes. alpha at five interior points takes the pieces from 0;
    # under a right blowdown, where alpha anchors at s_*, two more next
    # to that end take minus the pieces up to s_*.
    from_end = [0.95, 0.99] if spec.right is EndpointType.BLOWDOWN else []
    spot = s_star * np.array([0.1, 0.3, 0.5, 0.7, 0.9] + from_end)
    ends, pieces = sv._piece_integrals(params, spec, spot)
    defect, dscale = pieces.sum(), np.abs(pieces).sum()
    k = np.searchsorted(ends, spot)
    spot_int = np.where(
        spot > 0.9 * s_star, -np.cumsum(pieces[::-1])[::-1][k], np.cumsum(pieces)[k - 1]
    )
    spot_quad = spot_int / (cf.V(spot, params, spec) * (spot + params.kappa0) ** (spec.m - 1.0))
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
