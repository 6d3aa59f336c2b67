"""Independent numerical oracles for the test suite.

Everything in this module re-derives the profile from scratch using
deliberately different numerics than the package: fixed-grid composite
Simpson instead of adaptive quadrature, plain bisection instead of
Brent, and exact polynomial antidifferentiation for integer fiber
dimension m.  Agreement between these routes and the package is the
whole point of the tests, so nothing here may import from qebundle.

The frozen root constants below were produced by running these same
routines before the solver was written, and are kept verbatim so a
regression in either route is caught against a fixed reference.
"""

import numpy as np

EPS = -1.0  # expansion constant; the construction requires eps = -1

# Reference instance: one factor (n, p, q) = (2, 3, 1), m = 2, both ends
# smooth collapses.  Root frozen from the exact polynomial-antiderivative
# route (bisection to ~1 ulp) and cross-checked by Simpson+bisection.
REF_FACTORS = ((2, 3, 1),)
REF_M = 2.0
K0_REF = 8.2778212457685338

# Blowdown instance: factors (1, 2, 1) + (1, 3, 1), m = 2, left end a
# blowdown, right end a smooth collapse.
BLOW_FACTORS = ((1, 2, 1), (1, 3, 1))
BLOW_M = 2.0
K0_BLOW = 20.842223363325445

# Right-blowdown instance: factors (1, 4, 1) + (2, 3, 1), m = 3.3, left
# end a smooth collapse, right end a blowdown.  Root from oracle_root
# (Simpson, 8193 nodes, plus bisection) on the bracket [30, 50].
K0_RIGHT = 40.57251817827793

# Both ends blown down: factors (1, 2, 1) + (1, 7, 3) + (1, 2, 1), m = 4.
# Root from oracle_root on the bracket [20, 30].
K0_BOTH = 24.752329252810554


def simpson(values, h):
    """Composite Simpson rule over an odd number of uniform samples."""
    values = np.asarray(values, dtype=float)
    if values.size % 2 != 1 or values.size < 3:
        raise ValueError("need an odd number (>= 3) of samples")
    return (h / 3.0) * (
        values[0] + values[-1] + 4.0 * values[1:-1:2].sum() + 2.0 * values[2:-1:2].sum()
    )


def oracle_params(factors, kappa0, left_blowdown=False, right_blowdown=False):
    """(E, s_star, A) from kappa0: closed forms, negative interior root."""
    n1 = factors[0][0] if left_blowdown else 0
    nr = factors[-1][0] if right_blowdown else 0
    E = 0.5 * kappa0**2 + 2.0 * (n1 + 1) * kappa0
    sigma = 2.0 * (nr + 1) + np.sqrt(4.0 * (nr + 1) ** 2 + 2.0 * E)
    A = []
    for i, (n, p, q) in enumerate(factors):
        if left_blowdown and i == 0:
            A.append(1.0 / (2.0 * kappa0))
        elif right_blowdown and i == len(factors) - 1:
            A.append(-1.0 / (2.0 * sigma))
        else:
            A.append((p - np.sqrt(p * p - EPS * E * q * q / 2.0)) / (2.0 * E))
    return E, sigma - kappa0, tuple(A)


def oracle_V(x, factors, A):
    """V(x) = prod_i beta_i(x)^{n_i} with beta_i = A_i x^2 - q_i^2/(4 A_i)."""
    x = np.asarray(x, dtype=float)
    out = np.ones_like(x)
    for (n, p, q), a in zip(factors, A):
        out = out * (a * x * x - q * q / (4.0 * a)) ** n
    return out


def oracle_integrand(x, factors, m, E, A):
    """V(x) x^(m-2) (E + eps x^2/2), the weighted source of alpha."""
    x = np.asarray(x, dtype=float)
    return oracle_V(x, factors, A) * x ** (m - 2.0) * (E + 0.5 * EPS * x * x)


def oracle_defect(factors, m, kappa0, left_blowdown=False, right_blowdown=False, nodes=8193):
    """Simpson value of the bare integral of the alpha source over [0, s_*]."""
    E, s_star, A = oracle_params(factors, kappa0, left_blowdown, right_blowdown)
    r = np.linspace(0.0, s_star, nodes)
    return simpson(oracle_integrand(r + kappa0, factors, m, E, A), r[1] - r[0])


def oracle_root(factors, m, lo, hi, left_blowdown=False, right_blowdown=False,
                nodes=8193, iters=200):
    """Bisection root of the Simpson defect; requires a sign change on [lo, hi]."""

    def D(k):
        return oracle_defect(factors, m, k, left_blowdown, right_blowdown, nodes)

    flo, fhi = D(lo), D(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]: D={flo:.3e}, {fhi:.3e}")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = D(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def oracle_alpha(s, factors, m, kappa0, left_blowdown=False, right_blowdown=False,
                 nodes=4097):
    """alpha(s) by Simpson on [0, s] divided by the V x^(m-1) prefactor."""
    E, s_star, A = oracle_params(factors, kappa0, left_blowdown, right_blowdown)
    s = float(s)
    if s == 0.0:
        return 0.0
    r = np.linspace(0.0, s, nodes)
    integral = simpson(oracle_integrand(r + kappa0, factors, m, E, A), r[1] - r[0])
    x = s + kappa0
    return integral / (oracle_V(x, factors, A) * x ** (m - 1.0))


def poly_alpha(factors, m, kappa0, left_blowdown=False, right_blowdown=False):
    """Exact alpha for integer m >= 2 via polynomial antidifferentiation.

    The source V(x) x^(m-2) (E + eps x^2/2) is a polynomial in x when m
    is an integer >= 2; its antiderivative F gives
    alpha(s) = (F(x) - F(kappa0)) / (V(x) x^(m-1)) with x = s + kappa0,
    exactly (up to polynomial-evaluation roundoff).
    """
    if m != int(m) or int(m) < 2:
        raise ValueError("polynomial route needs integer m >= 2")
    E, s_star, A = oracle_params(factors, kappa0, left_blowdown, right_blowdown)
    poly = np.polynomial.Polynomial([E, 0.0, 0.5 * EPS])
    poly = poly * np.polynomial.Polynomial([0.0] * (int(m) - 2) + [1.0])
    for (n, p, q), a in zip(factors, A):
        beta = np.polynomial.Polynomial([-q * q / (4.0 * a), 0.0, a])
        for _ in range(n):
            poly = poly * beta
    antider = poly.integ()

    def alpha(s):
        x = np.asarray(s, dtype=float) + kappa0
        return (antider(x) - antider(kappa0)) / (oracle_V(x, factors, A) * x ** (int(m) - 1.0))

    return alpha, E, s_star, A


def poly_root(factors, m, lo, hi, left_blowdown=False, right_blowdown=False, iters=200):
    """Bisection on the exact polynomial defect F(sigma) - F(kappa0)."""

    def D(k):
        alpha, E, s_star, A = poly_alpha(factors, m, k, left_blowdown, right_blowdown)
        x = s_star + k
        return alpha(s_star) * oracle_V(x, factors, A) * x ** (int(m) - 1.0)

    flo, fhi = D(lo), D(hi)
    if flo * fhi > 0.0:
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        fmid = D(mid)
        if fmid == 0.0:
            return mid
        if flo * fmid < 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def central_first(f, x, h):
    """Central first difference (f(x+h) - f(x-h)) / 2h."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_second(f, x, h):
    """Central second difference (f(x+h) - 2 f(x) + f(x-h)) / h^2."""
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
