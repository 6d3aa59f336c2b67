"""Closed-form pieces of the quasi-Einstein profile.

After reducing to the s-coordinate (ds = f dt, alpha = f^2,
beta_i = g_i^2, phi = v), the standard ansatz

    beta_i''/beta_i - (1/2)(beta_i'/beta_i)^2 + q_i^2/(2 beta_i^2) = 0

forces phi to be linear, phi = s + kappa0 (scaling phi, and so the
potential, leaves the quasi-Einstein equation unchanged), and every
beta_i to be the quadratic

    beta_i(s) = A_i*(s + kappa0)^2 - q_i^2/(4 A_i),

with each coefficient A_i tied to the single consistency constant

    E = (8 A_i p_i - eps q_i^2) / (8 A_i^2),

which is also the constant mu of the first integral.

Smooth closure at the two ends pins kappa0 and the interval length s_*
to roots of one endpoint quadratic each,

    (1/2) x^2 + 2 (n_end + 1) x - E = 0,

evaluated at x = kappa0 (left, large root) and x = -(s_* + kappa0)
(right, small root), where n_end is the dimension of the blown-down
factor at that end (0 for a smooth collapse of the circle fiber alone).

Everything in this module is exact arithmetic on these formulas; the
only numerics in the pipeline live in the quadrature for alpha and the
root-find over kappa0 (see solver). The base factors sit on one leading
array axis: beta and its jet (beta_jet) have shape (r,) + shape(s), and
V reduces over it. The log V derivatives are formed from the jet in
verifier.sample_at, the one evaluator of the profile's derivatives.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NegativeDiscriminantError, NonPositiveKappa0Error, PositivityError
from .spec import BundleSpec, EndpointType


@dataclass(frozen=True)
class QuadraticRoots:
    """Both real roots of (1/2)x^2 + 2(n+1)x - E, small <= large."""

    small: float
    large: float


@dataclass(frozen=True)
class SolutionParams:
    """All scalar data of one closed-form profile.

    kappa0 : shift of the s-coordinate, the large root of the left-end
        quadratic and the one free scalar (> 0).
    E : the consistency constant shared by all factors, and the
        first-integral constant mu.
    s_star : interval length; -(s_star + kappa0) is the small root of
        the right-end quadratic.
    A : tuple of r quadratic coefficients A_i.
    For kappa0 rows (params_from_kappa0 on a (K, 1) column) every field
    is a (K, 1) column.
    """

    kappa0: float
    E: float
    s_star: float
    A: tuple


# Python and numpy scalars: one profile, where an array is a kappa0 axis.
_SCALARS = (float, int, np.generic)


def _scalar_or_array(x):
    """x as a float if it is a scalar, else the array itself."""
    return x if isinstance(x, np.ndarray) and x.ndim else float(x)


def _floats(x):
    """x as an np.float64 if it is a scalar, else as a float array.

    For one profile the chain runs on np.float64 scalars, which overflow
    and divide by zero to inf or NaN with a RuntimeWarning, as arrays do,
    where a Python float would raise ZeroDivisionError or OverflowError.
    """
    return np.float64(x) if isinstance(x, _SCALARS) else np.asarray(x, dtype=float)


def _not_positive(x):
    """not (x > 0) on a scalar, or elementwise on an array; a NaN is not positive."""
    return not (x > 0.0) if isinstance(x, _SCALARS) else ~(np.asarray(x) > 0.0)


def _first(mask):
    """Flat index of the first true entry of a boolean scalar or array, or None."""
    if not isinstance(mask, np.ndarray):
        return 0 if mask else None
    return int(np.argmax(mask)) if mask.any() else None


def endpoint_quadratic_roots(E, n_end: int) -> QuadraticRoots:
    """Solve the endpoint quadratic (1/2)x^2 + 2(n_end+1)x - E = 0.

    E may be an array (a kappa0 axis): the roots then have its shape.

    Raises
    ------
    NegativeDiscriminantError
        If 4(n_end+1)^2 + 2E < 0 (no real roots), at the first such E.
    """
    b, E = 2.0 * (n_end + 1), _floats(E)
    disc = b * b + 2.0 * E
    k = _first(disc < 0.0)
    if k is not None:
        raise NegativeDiscriminantError(
            f"endpoint quadratic has negative discriminant {float(np.ravel(disc)[k])} "
            f"(E={float(np.ravel(E)[k])}, n_end={n_end})"
        )
    root = np.sqrt(disc)  # the large root -b + root as 2E / (b + root), which does not cancel
    small, large = -b - root, 2.0 * E / (b + root)
    return QuadraticRoots(small=_scalar_or_array(small), large=_scalar_or_array(large))


def energy_from_kappa0(kappa0, n_left: int):
    """Invert the left-end quadratic: E = (1/2)kappa0^2 + 2(n_left+1)kappa0."""
    return 0.5 * kappa0 * kappa0 + 2.0 * (n_left + 1) * kappa0


def coefficients_A(E, kappa0, s_star, spec: BundleSpec, root_signs=None) -> tuple:
    """Quadratic coefficients A_i for every factor.

    Blowdown factors are forced: A_1 = 1/(2 kappa0) at a left blowdown,
    A_r = -1/(2 (s_star + kappa0)) at a right blowdown. Every other
    factor solves 8 E A^2 - 8 p_i A + eps q_i^2 = 0, whose roots are

        A = (p_i +/- sqrt(p_i^2 - eps E q_i^2 / 2)) / (2E),

    one positive and one negative (their product is eps q_i^2/(8E) < 0
    with eps = -1). The NEGATIVE root, taken as
    eps q_i^2 / (4 (p_i + sqrt(...))) so that it does not cancel, is the
    default: it is the branch on which the boundary defect acquires a
    root for the solvable configurations.
    Mixed choices can solve too, e.g. (+, -) for (1,8,3) + (4,3,2) at
    m = 4, but none with every free factor on the positive root.
    ``root_signs`` overrides the choice per factor with entries +1/-1;
    entries for blowdown factors are ignored. E, kappa0 and s_star may
    be arrays of one shape (a kappa0 axis); each A_i then has it too.
    """
    if root_signs is None:
        root_signs = (-1,) * spec.r
    if len(root_signs) != spec.r:
        raise ValueError(f"root_signs needs {spec.r} entries, got {len(root_signs)}")
    eps = spec.epsilon
    sigma = s_star + kappa0
    left_blowdown = spec.left is EndpointType.BLOWDOWN
    right_blowdown = spec.right is EndpointType.BLOWDOWN
    last = spec.r - 1
    A = []
    for i, fac in enumerate(spec.factors):
        if left_blowdown and i == 0:
            A.append(1.0 / (2.0 * kappa0))
        elif right_blowdown and i == last:
            A.append(-1.0 / (2.0 * sigma))
        else:
            disc = fac.p * fac.p - 0.5 * eps * E * fac.q * fac.q
            k = _first(disc < 0.0)
            if k is not None:
                raise NegativeDiscriminantError(
                    f"factor {i + 1}: A-quadratic discriminant {float(np.ravel(disc)[k])} < 0"
                )
            plus = fac.p + np.sqrt(disc)
            A.append(plus / (2.0 * E) if root_signs[i] >= 0 else eps * fac.q**2 / (4.0 * plus))
    return tuple(map(_scalar_or_array, A))


def params_from_kappa0(kappa0, spec: BundleSpec, root_signs=None) -> SolutionParams:
    """Assemble the full parameter set from the single free scalar kappa0.

    E comes from the left-end quadratic at kappa0, and s_* from the small
    root of the right-end one and that kappa0; when both ends collapse
    (n_L = n_R = 0) the two quadratics coincide and s_* = 4 for every
    kappa0. kappa0 may be an array, such as a (K, 1) column of kappa0
    rows: every field then has its shape, each entry the scalar call's
    value. Raises NonPositiveKappa0Error at the first entry where
    not (kappa0 > 0), so a NaN fails too.
    """
    k = _first(_not_positive(kappa0))
    if k is not None:
        raise NonPositiveKappa0Error(f"kappa0 = {float(np.ravel(kappa0)[k])} is not positive")
    E = energy_from_kappa0(kappa0, spec.n_left)
    s_star = -endpoint_quadratic_roots(E, spec.n_right).small - kappa0
    A = coefficients_A(E, kappa0, s_star, spec, root_signs=root_signs)
    return SolutionParams(kappa0=kappa0, E=E, s_star=s_star, A=A)


def take_rows(params: SolutionParams, rows) -> SolutionParams:
    """The kappa0 rows of params (params_from_kappa0 on a (K, 1) column) at index ``rows``."""
    return SolutionParams(
        kappa0=params.kappa0[rows],
        E=params.E[rows],
        s_star=params.s_star[rows],
        A=tuple(a[rows] for a in params.A),
    )


# ---------------------------------------------------------------------------
# Profile evaluators (all accept scalar or ndarray s)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _factor_table(factors, ndim):
    table = np.array([(f.n, f.p, f.q) for f in factors], dtype=float).T
    table.flags.writeable = False
    return table.reshape(table.shape + (1,) * ndim)


def factor_constants(spec: BundleSpec, ndim: int = 0):
    """n, p, q of every factor: one read-only (3, r) + (1,) * ndim array, to unpack."""
    return _factor_table(spec.factors, ndim)


def _coefficients(params: SolutionParams, spec: BundleSpec):
    """(A_i, q_i^2/(4 A_i)) of every factor: beta_i = A_i x^2 - q_i^2/(4 A_i) at x = s + kappa0.

    Each is an np.float64 for one profile (see _floats), or a (K, 1)
    column for kappa0 rows (see take_rows), broadcasting against x.
    """
    pairs = []
    for a, fac in zip(params.A, spec.factors):
        a, q = _floats(a), float(fac.q)
        pairs.append((a, q * q / (4.0 * a)))
    return pairs


def _betas(x, coefficients):
    """beta_i at x = s + kappa0, one entry per factor, from _coefficients."""
    return [a * x * x - c for a, c in coefficients]


def beta(s, params: SolutionParams, spec: BundleSpec):
    """beta_i(s) = A_i (s+kappa0)^2 - q_i^2/(4 A_i), shape (r,) + shape(s)."""
    x = np.asarray(s, dtype=float) + params.kappa0
    return np.array(_betas(x, _coefficients(params, spec)))


def beta_jet(s, params: SolutionParams, spec: BundleSpec):
    """(beta_i, beta_i', beta_i'') at s from one coefficient evaluation, each (r,) + shape(s).

    beta_i' = 2 A_i (s+kappa0) and beta_i'' = 2 A_i. Unchecked, so the
    blowdown ends, where a beta_i vanishes, can read it too;
    verifier.sample_at checks positivity where log V enters.
    """
    x = np.asarray(s, dtype=float) + params.kappa0
    coefficients = _coefficients(params, spec)
    return (
        np.array(_betas(x, coefficients)),
        np.array([2.0 * a * x for a, _ in coefficients]),
        np.array([np.full(x.shape, 2.0 * a) for a, _ in coefficients]),
    )


def phi(s, params: SolutionParams):
    """phi(s) = s + kappa0 (phi is linear: phi' = 1, phi'' = 0)."""
    out = np.asarray(s, dtype=float) + params.kappa0
    return float(out) if np.ndim(s) == 0 else out


def V(s, params: SolutionParams, spec: BundleSpec):
    """V(s) = prod_i beta_i(s)^(n_i); vanishes only at a blowdown end."""
    return _V_at(np.asarray(s, dtype=float) + params.kappa0, params, spec)


def _V_at(x, params: SolutionParams, spec: BundleSpec):
    """V at x = s + kappa0 (see V), for callers that have formed x already."""
    # A Python-int exponent per factor: numpy squares exactly, an exponent array uses pow.
    betas = _betas(x, _coefficients(params, spec))
    powers = (b if fac.n == 1 else b**fac.n for b, fac in zip(betas, spec.factors))
    return functools.reduce(operator.mul, powers)


def _end_betas(params: SolutionParams, spec: BundleSpec):
    """Every beta_i at the ends 0 and s_*: a list over the factors at each end.

    Each value is an np.float64 for one profile, or a (K, 1) column for
    kappa0 rows (see take_rows). Each beta_i is A_i x^2 - c with vertex
    at x = 0, outside [kappa0, kappa0 + s_*] since kappa0 > 0, so it is
    monotone there and positive on (0, s_*) iff at both ends. A blowdown
    factor vanishes at its own end by construction, which reads +inf.
    """
    coefficients = _coefficients(params, spec)
    left = _betas(0.0 + params.kappa0, coefficients)
    right = _betas(params.s_star + params.kappa0, coefficients)
    if spec.left is EndpointType.BLOWDOWN:
        left[0] = np.inf
    if spec.right is EndpointType.BLOWDOWN:
        right[-1] = np.inf
    return left, right


def require_positive_beta(params: SolutionParams, spec: BundleSpec):
    """Raise PositivityError at one profile's first factor, then end, where not (beta_i > 0)."""
    for i, ends in enumerate(zip(*_end_betas(params, spec))):
        for s, value in zip((0.0, params.s_star), ends):
            if not (value > 0.0):
                s, value, kappa0 = float(s), float(value), float(params.kappa0)
                raise PositivityError(
                    f"beta_{i + 1} = {value:.3e} is not positive at s = {s:.6g} "
                    f"(kappa0 = {kappa0:.6g})",
                    factor=i + 1,
                    s=s,
                    value=value,
                )
