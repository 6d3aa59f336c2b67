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
profile (the last few built are cached, see _alpha_table):
ALPHA_PANELS = 8 panels of 16 points, half on each single-signed
side of the integrand's sign change, their cumulative sums from 0 and
from s_*, and one partial panel to each query point from the table
edge at or below it. Under a right blowdown, past the sign change,
alpha takes the integral from the s_* end instead, with a partial
panel up to the edge above the point (see alpha).

alpha(0) = 0 holds by construction; the one remaining boundary
condition alpha(s_*) = 0 becomes a scalar root-find in kappa0. The
defect is taken as the bare integral D(kappa0) = int_0^{s_*} ... dr
(no prefactor): it has the same zeros wherever the prefactor is finite
and positive, and stays well-defined at a right blowdown end where
V(s_*) = 0. The defect is the last entry of the same table, so the
scan, the root polish and alpha all use one integration rule. Adaptive
7/15-point Gauss-Kronrod quadrature (quad, through _piece_integrals) is
kept only as the verifier's independent reference for the leftover
defect and for alpha.

The solver scans a log-uniform kappa0 grid, records every sign change
of D, polishes each to a root by Brent's method (_brentq), and returns
the smallest root as the primary profile. The scan is one array call
(_defects): the closed forms, the beta check and the table carry a
leading kappa0 axis, and every row that passes the checks is
integrated in the same blocks of _GL_BLOCK panels. Brent's method
calls the scalar boundary_defect, which runs the same closed forms,
check and table on one profile, so each scan row equals it bit for
bit; it takes the defects at its interval's two ends from the scan
rows instead of calling it there again. Only the scalar call raises:
a scan row that fails a check is a NaN, and the scan's mask of checked
rows tells an overflow from it.

The scalar call keeps its parameters, its beta check, its break and
its panel edges on scalars, and builds one array only for the
(ALPHA_PANELS, 16) integrand nodes: the same IEEE operations, in the
same order, as its scan row. Scalar and array part ways only inside
small primitives: closedform._floats, _scalar_or_array, _not_positive
and _first, and here _even_edges, _panel_edges and the shape test at
the top of _alpha_tables.
Its scalars are np.float64, not Python floats, which keeps numpy's
semantics at the edges: past kappa0 ~ 1e160 an A_i rounds to -0.0,
and q_i^2/(4 A_i) is then -inf with a RuntimeWarning, where a Python
float would raise ZeroDivisionError, so the call fails the beta check
with its PositivityError, as the scan row does.

Both numerical pieces are written here on numpy alone, so numpy is the
only runtime dependency.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from .errors import NoSignChangeError, PositivityError
from .spec import BundleSpec, EndpointType, require_valid_spec


@dataclass(frozen=True)
class SolverConfig:
    """Numerical knobs for the defect scan and root polish.

    bracket : (lo, hi) kappa0 search interval, 0 < lo < hi < inf.
    scan_points : log-uniform samples of the defect across the bracket.
    root_tol : absolute tolerance on kappa0 in the Brent polish (_brentq),
        0 < root_tol < inf.

    The defect and alpha both come from the fixed-order table (see
    alpha), which has no tolerance to set.
    """

    bracket: tuple = (1e-3, 1e3)
    scan_points: int = 64
    root_tol: float = 1e-12

    def __post_init__(self):
        lo, hi = self.bracket
        if isinstance(lo, bool) or isinstance(hi, bool) or not (0.0 < lo < hi < math.inf):
            raise ValueError(f"bracket must satisfy 0 < lo < hi < inf, got {self.bracket}")
        if not isinstance(self.scan_points, int) or isinstance(self.scan_points, bool):
            raise ValueError(f"scan_points must be an int, got {self.scan_points!r}")
        if self.scan_points < 2:
            raise ValueError("scan_points must be at least 2")
        if isinstance(self.root_tol, bool) or not (0.0 < self.root_tol < math.inf):
            raise ValueError(f"root_tol must satisfy 0 < root_tol < inf, got {self.root_tol!r}")


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
        cf._V_at(x, params, spec)
        * x ** (spec.m - 2.0)
        * (params.E + 0.5 * spec.epsilon * x * x)
    )
    return cf._scalar_or_array(out)


def _integral_break(params, spec):
    """The integrand's sign change, sqrt(2E) - kappa0, in s.

    Of the shape of params.kappa0: an np.float64 for one profile, or a
    (K, 1) column of kappa0 rows. E - x^2/2 is 2(n_L+1) kappa0 > 0 at
    x = kappa0 and -2(n_R+1)(kappa0 + s_*) < 0 at x = kappa0 + s_*, so
    for params_from_kappa0 at any kappa0 > 0 it lies strictly inside
    (0, s_*); output.solution_from_dict rejects a file where it does not.
    """
    return np.sqrt(2.0 * params.E / -spec.epsilon) - params.kappa0


# Adaptive quadrature settings of the verifier's reference integrals.
QUAD_REL_TOL = 1e-10
QUAD_LIMIT = 200


def _piece_integrals(params, spec, cuts):
    """Adaptive-quadrature integrals of the alpha integrand over [0, s_*], in pieces.

    The verifier's reference, independent of the Gauss-Legendre table:
    [0, s_*] is cut at the points ``cuts`` inside it and at the sign
    change, so the integral from 0 to a cut, or from a cut to s_*, is a
    sum of pieces. Each piece is single-signed, so the relative
    quadrature tolerance is meaningful even when their sum (the defect
    near a root) cancels to ~0, and the sum of their magnitudes is
    int_0^{s_*} |integrand| exactly. Returns the ascending piece ends,
    from 0 to s_*, and the integral over each piece.
    """
    brk = float(_integral_break(params, spec))
    inside = [brk] if 0.0 < brk < params.s_star else []
    ends = np.array(sorted({0.0, params.s_star, *cuts, *inside}))

    def integrand(r):
        return alpha_integrand(r, params, spec)

    pieces = [
        quad(integrand, lo, hi, epsabs=0.0, epsrel=QUAD_REL_TOL, limit=QUAD_LIMIT)[0]
        for lo, hi in zip(ends[:-1], ends[1:])
    ]
    return ends, np.array(pieces)


def legendre_rule(nodes, weights):
    """A Gauss-Legendre rule on [-1, 1], ascending, from its positive nodes and their weights.

    The rules are written out as np.polynomial.legendre.leggauss gives
    them (bit for bit with numpy 2.4). Computing them at import would
    load numpy.polynomial and run LAPACK's eigensolver in every process:
    on a 2-core Linux host about 3 ms of start-up, and 1.4 MB more peak
    resident memory in a benchmark run.
    """
    x, w = np.array(nodes), np.array(weights)
    return np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])


# Fixed-order rule for alpha: 16-point Gauss-Legendre panels, 8 across
# [0, s_*], split evenly between the two single-signed sides of the
# integrand's sign change. Against a 512-panel table, on 112 solved
# profiles (the 99 roots of the benchmark's generated census and the
# table specs of the tests), tables of 8, 16 and 32 panels all agree to
# roundoff: alpha at 64 interior points to 3.2e-13 relative, the defect
# at the root to 3.0e-15 of int_0^{s_*} |integrand| (1.0e-15 at 32). 4
# panels would take a further eighth off a solve (1.61 against 1.85 ms
# over those 99 census specs, one process) but eat into the certificate:
# the worst check on the blowdown (1,2,1)+(1,3,1) at m = 100 reads 0.057
# of its tolerance, against 0.030 at 8 and 0.031 at 32. The verifier's
# tail spots see a broken tail sum at any panel count; its test corrupts
# the one at the last interior edge.
_GL_NODES, _GL_WEIGHTS = legendre_rule(
    (
        0.09501250983763744,
        0.2816035507792589,
        0.45801677765722737,
        0.6178762444026438,
        0.755404408355003,
        0.8656312023878318,
        0.9445750230732326,
        0.9894009349916499,
    ),
    (
        0.18945061045506864,
        0.18260341504492364,
        0.16915651939500265,
        0.1495959888165767,
        0.12462897125553407,
        0.0951585116824926,
        0.062253523938647456,
        0.027152459411754176,
    ),
)
ALPHA_PANELS = 8
# Intervals integrated per vectorised block: one block holds the whole
# default scan (64 kappa0 rows of 8 panels). Keeps each (block, 16)
# temporary of the integrand at 64 kB however many points or rows are
# asked. With three factors, 1024 ran the scan and alpha about 1.4 times
# slower than 512, with a 1.7 times higher peak.
_GL_BLOCK = 512

# The 7-point Gauss / 15-point Kronrod pair of QUADPACK's QK15
# (Piessens et al., 1983) for quad: Kronrod nodes on [-1, 1] and their
# weights, and the Gauss weights on the same nodes (0 at the
# Kronrod-only ones).
_QK15_X = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144845693013,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
        0.0,
    ]
)
_QK15_WK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
    ]
)
_QK15_WG = np.array(
    [
        0.0,
        0.129484966168869693270611432679082,
        0.0,
        0.279705391489276667901467771423780,
        0.0,
        0.381830050505118944950369775488975,
        0.0,
        0.417959183673469387755102040816327,
    ]
)
_GK_NODES = np.concatenate([-_QK15_X[:-1], _QK15_X[::-1]])
_GK_WEIGHTS = np.concatenate([_QK15_WK[:-1], _QK15_WK[::-1]])
_G7_WEIGHTS = np.concatenate([_QK15_WG[:-1], _QK15_WG[::-1]])


def _gauss_kronrod(func, lo, hi):
    """G7K15 integrals of func over each [lo_k, hi_k] and their QUADPACK error estimates.

    func is called once, on every node of every interval as one array.
    """
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    f = func(mid[:, None] + half[:, None] * _GK_NODES)
    resk = np.sum(_GK_WEIGHTS * f, axis=-1)
    resg = np.sum(_G7_WEIGHTS * f, axis=-1)
    # QK15's estimate: the Kronrod-Gauss difference, scaled by the
    # integrand's spread about its mean, and never below roundoff in
    # the integral of |f|.
    err = np.abs((resk - resg) * half)
    asc = np.sum(_GK_WEIGHTS * np.abs(f - 0.5 * resk[:, None]), axis=-1) * np.abs(half)
    both = (asc != 0.0) & (err != 0.0)
    err[both] = asc[both] * np.minimum(1.0, (200.0 * err[both] / asc[both]) ** 1.5)
    resabs = np.sum(_GK_WEIGHTS * np.abs(f), axis=-1) * np.abs(half)
    return resk * half, np.maximum(err, 50.0 * np.finfo(float).eps * resabs)


def quad(func, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50):
    """Adaptive Gauss-Kronrod integral of func over [a, b]: (value, abserr).

    QUADPACK's globally adaptive scheme with the 7/15-point rule: the
    subinterval with the largest error estimate is bisected until the
    summed estimate is at most max(epsabs, epsrel |value|), or until
    there are ``limit`` subintervals. func takes an array of points and
    is called once per refinement, on all the new nodes at once.
    """
    edges = np.array([a, b], dtype=float)
    val, err = _gauss_kronrod(func, edges[:-1], edges[1:])
    while err.sum() > max(epsabs, epsrel * abs(val.sum())) and val.size < limit:
        k = int(np.argmax(err))
        edges = np.insert(edges, k + 1, 0.5 * (edges[k] + edges[k + 1]))
        v, e = _gauss_kronrod(func, edges[k : k + 2], edges[k + 1 : k + 3])
        val = np.concatenate([val[:k], v, val[k + 1 :]])
        err = np.concatenate([err[:k], e, err[k + 1 :]])
    return float(val.sum()), float(err.sum())


def _gauss_legendre(lo, hi, params, spec):
    """16-point Gauss-Legendre integrals of the alpha integrand, elementwise over [lo, hi].

    lo and hi have one row of intervals for each kappa0 row of params
    (see closedform.take_rows), or are 1-D for a single profile.
    The nodes are evaluated _GL_BLOCK intervals at a time, each with
    the parameters of its row (a single row broadcasts as it is).
    """
    mid, half = (0.5 * (hi + lo)).ravel(), (0.5 * (hi - lo)).ravel()
    many_rows = hi.ndim == 2 and hi.shape[0] > 1
    rows = np.repeat(np.arange(hi.shape[0]), hi.shape[1]) if many_rows else None
    sums = np.empty(mid.size)
    for k in range(0, mid.size, _GL_BLOCK):
        block = slice(k, k + _GL_BLOCK)
        r = mid[block, None] + half[block, None] * _GL_NODES
        at = params if rows is None else cf.take_rows(params, rows[block])
        sums[block] = np.add.reduce(_GL_WEIGHTS * alpha_integrand(r, at, spec), axis=-1)
    return (half * sums).reshape(hi.shape)


def _even_edges(lo, hi, panels):
    """np.linspace(lo, hi, panels + 1) on each row, for 1-D hi and a scalar or 1-D lo.

    Written out in linspace's own arithmetic (step = (hi - lo) / panels,
    edge k = k * step + lo, the last edge hi), so the edges are its bits;
    linspace takes another path only for a step that rounds to 0. For
    one row, an np.float64 hi, the same sums are a list of np.float64.
    """
    step = (hi - lo) / panels
    if isinstance(step, cf._SCALARS):
        return [k * step + lo for k in range(panels)] + [hi]
    edges = np.arange(panels + 1.0) * step[:, None] + np.asarray(lo)[..., None]
    edges[:, -1] = hi
    return edges


def _panel_edges(s_star, brk):
    """ALPHA_PANELS + 1 panel edges on [0, s_*]: a row for each entry of a 1-D s_star, or one row.

    Half the panels evenly on either side of the break brk, which is
    edge ALPHA_PANELS // 2. For one profile s_star is an np.float64 and
    brk a scalar.
    """
    half = ALPHA_PANELS // 2
    left, right = _even_edges(0.0, brk, half), _even_edges(brk, s_star, half)
    if isinstance(brk, cf._SCALARS):
        return np.array(left + right[1:])
    return np.concatenate([left, right[:, 1:]], axis=1)


def _alpha_tables(params, spec):
    """Panel edges on [0, s_*] and the alpha integrand's integral from 0 to each and to s_*.

    One (K, ALPHA_PANELS + 1) array each, a row for each kappa0 row of
    params (see closedform.take_rows), or one 1-D row for a single
    profile, from scalars (see closedform._floats). Each row has half
    its panels on either side of the integrand's sign change.
    """
    s_star, brk = cf._floats(params.s_star), _integral_break(params, spec)
    if not isinstance(s_star, cf._SCALARS):  # kappa0 rows: (K, 1) columns as 1-D
        s_star, brk = s_star.reshape(-1), brk.reshape(-1)
    edges = _panel_edges(s_star, brk)
    panels = _gauss_legendre(edges[..., :-1], edges[..., 1:], params, spec)
    cum, tail = np.zeros(edges.shape), np.zeros(edges.shape)
    np.add.accumulate(panels, axis=-1, out=cum[..., 1:])
    np.add.accumulate(panels[..., ::-1], axis=-1, out=tail[..., -2::-1])
    return edges, cum, tail


@functools.lru_cache(maxsize=4)
def _alpha_table(params, spec):
    """_alpha_tables for one profile: its edges, and the integral from 0 to each and to s_*.

    Cached on the profile itself, as both arguments are frozen
    dataclasses, so verifying and exporting one profile build one
    table, not one per alpha call; the cached arrays are read-only.
    Four entries hold the table at every root of the benchmark's
    generated census when solve checks alpha there: Brent's method
    evaluated that root last, or at most three calls before the end.
    """
    tables = _alpha_tables(params, spec)
    for table in tables:
        table.flags.writeable = False
    return tables


def alpha(s, params: cf.SolutionParams, spec: BundleSpec):
    """alpha(s) from the integrating-factor formula, by a Gauss-Legendre table.

    The integral is tabulated at the panel edges of [0, s_*] once per
    profile (see _alpha_table), and every point is answered from the
    table value at the edge at or below it plus one 16-point panel from
    that edge. Under a right blowdown, past the integrand's sign change,
    the integral is taken from the s_* end, by the tail sum at the edge
    above the point plus one panel up to that edge: alpha =
    -int_s^{s_*} ... dr / (V x^(m-1)), so V ~ (s_* - s)^(n_r) never
    divides roundoff; this drops the defect D, about 0 at a root and
    recomputed by the verifier.
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
    past = r >= (edges[len(edges) // 2] if right_blowdown else np.inf)
    lo, hi = np.where(past, r, edges[k]), np.where(past, edges[k + 1], r)
    part = _gauss_legendre(lo, hi, params, spec)
    integral = np.where(past, -(tail[k + 1] + part), cum[k] + part)
    out[inner] = integral / (cf.V(r, params, spec) * (r + params.kappa0) ** (spec.m - 1.0))
    return float(out) if np.ndim(s) == 0 else out


def require_positive_alpha(s, a):
    """Raise PositivityError (factor None) at the first s where alpha a is not > 0; NaN fails."""
    good = a > 0.0
    if np.count_nonzero(good) < good.size:
        k = int(np.argmin(good))
        s_k, a_k = float(s[k]), float(a[k])
        message = f"alpha({s_k:.6g}) = {a_k:.3e} is not positive"
        raise PositivityError(message, s=s_k, value=a_k, factor=None)


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


def _defects(kappa0, spec, root_signs=None):
    """boundary_defect at every kappa0 > 0 of a 1-D array, and where the beta check passed.

    Returns (defects, checked). Where checked[k], row k passed the beta
    check and is boundary_defect(kappa0[k]) bit for bit, from one table
    build for all such rows; it is not finite only if it overflowed.
    Elsewhere it is NaN, where boundary_defect raises PositivityError.
    """
    params = cf.params_from_kappa0(kappa0[:, None], spec, root_signs=root_signs)
    checked = np.ones(np.shape(kappa0), dtype=bool)
    for values in cf._end_betas(params, spec):
        for value in values:
            checked &= np.reshape(value > 0.0, -1)
    defects = np.full(np.shape(kappa0), np.nan)
    rows = cf.take_rows(params, np.flatnonzero(checked))
    defects[checked] = _alpha_tables(rows, spec)[1][:, -1]
    return defects, checked


def boundary_defect(kappa0: float, spec: BundleSpec, root_signs=None):
    """D(kappa0) = int_0^{s_*} V (r+kappa0)^(m-2) (E + eps (r+kappa0)^2/2) dr.

    The zero set of D matches that of alpha(s_*) wherever the dropped
    prefactor is finite and positive. D is the last entry of the alpha
    table (see _alpha_tables), so the root is found on the same rule
    that alpha is evaluated with. This is the one-profile chain of
    ``solve`` and ``verify``; the scan (_defects) runs it on many rows
    at once, and each of its rows is this call's value bit for bit.
    The chain runs on np.float64 scalars but for the integrand nodes,
    so an overflow or a division by zero reads inf or NaN with a
    RuntimeWarning, as in the scan, and never raises a Python
    ZeroDivisionError or OverflowError.

    Raises
    ------
    NonPositiveKappa0Error
        If not (kappa0 > 0); never on a scan row, as the bracket is positive.
    PositivityError
        If some beta_i is not positive on (0, s_*) (a NaN scan row).
    """
    params = cf.params_from_kappa0(kappa0, spec, root_signs=root_signs)
    cf.require_positive_beta(params, spec)
    return float(_alpha_table(params, spec)[1][-1])


def _brent_step(xpre, xcur, xblk, fpre, fcur, fblk):
    """Brent's trial step from xcur: secant if xpre == xblk, else inverse quadratic.

    Taken on np.float64 with warnings off, so a step that overflows at
    large |f| comes out inf or NaN, fails the acceptance test and
    bisects, as in C.
    """
    fpre, fcur, fblk = np.float64(fpre), np.float64(fcur), np.float64(fblk)
    with np.errstate(all="ignore"):
        if xpre == xblk:
            return float(-fcur * (xcur - xpre) / (fcur - fpre))
        dpre = (fpre - fcur) / (xpre - xcur)
        dblk = (fblk - fcur) / (xblk - xcur)
        return float(-fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre)))


def _brentq(f, a, b, xtol, rtol, maxiter=100, fa=None, fb=None):
    """A root x of f in [a, b], where f(a) and f(b) differ in sign, and f(x), by Brent's method.

    A line-for-line port of SciPy's C brentq (R. P. Brent, Algorithms
    for Minimization without Derivatives, 1973), with the same iterates
    and the same f calls: xblk is the contrapoint, spre and scur the
    last two steps; the trial step (_brent_step) is taken when it is
    short enough, else the step bisects, and no step is shorter than
    delta = (xtol + rtol |xcur|) / 2. An exact zero at an end is
    returned as is. f(x) is the value f returned at the root, so no
    call is repeated for it. fa and fb, where given, are f(a) and f(b)
    already known to the caller (as solve knows them from its scan): f
    is then not called at that end, and every later iterate and the
    result are the same as without them.

    Raises ValueError if f(a) and f(b) have the same sign or f returns
    NaN, and RuntimeError after maxiter iterations.
    """

    def call(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN; Brent's method cannot continue")
        return fx

    xpre, xcur = float(a), float(b)
    fpre = call(xpre) if fa is None else fa
    fcur = call(xcur) if fb is None else fb
    if fpre == 0.0:
        return xpre, fpre
    if fcur == 0.0:
        return xcur, fcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, fcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            stry = _brent_step(xpre, xcur, xblk, fpre, fcur, fblk)
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} iterations, value is {xcur}")


def solve(spec: BundleSpec, config: SolverConfig = None, root_signs=None) -> SolvedProfile:
    """Locate kappa0 with alpha(s_*) = 0 by scan plus Brent's method.

    Scans ``config.scan_points`` log-uniform kappa0 values across the
    bracket in one array call, records every sign change of the defect,
    polishes each to ``config.root_tol`` with the scalar
    boundary_defect, and returns the profile assembled at the smallest
    root together with the full list. The defect at the root is the
    value the polish last evaluated there (0.0 for an exact zero of the
    scan).

    Raises
    ------
    ValueError
        If the spec fails validation (precondition).
    NoSignChangeError
        If the defect never changes sign between neighbouring scan
        points. The message names the scan rows that overflowed, or else
        says so when every finite row has one sign; it carries the table.
    PositivityError
        If alpha is not positive (or NaN) at one of 64 interior points
        of the profile at the returned root.
    """
    config = config or SolverConfig()
    require_valid_spec(spec)

    lo, hi = config.bracket
    grid = np.geomspace(lo, hi, config.scan_points)
    defects, checked = _defects(grid, spec, root_signs)  # NaN rows where the checks fail

    # An exact zero d0 is its own interval (k, k); d0 * d1 can overflow at large m.
    d0, d1 = defects[:-1], defects[1:]
    hits = np.flatnonzero(~np.isnan(d1) & ((d0 == 0.0) | (np.sign(d0) == -np.sign(d1))))
    ends = [(k, k + int(d0[k] != 0.0)) for k in hits]
    if defects[-1] == 0.0:
        ends.append((grid.size - 1, grid.size - 1))
    sign_changes = [(float(grid[i]), float(grid[j])) for i, j in ends]

    if not sign_changes:
        table = "\n".join(
            f"  kappa0 = {g:12.6g}   defect = {d:.6e}" for g, d in zip(grid, defects)
        )
        finite = defects[np.isfinite(defects)]
        overflowed = grid[checked & ~np.isfinite(defects)]
        if overflowed.size:
            summary = (
                f"boundary defect overflowed on {overflowed.size} scan rows, kappa0 in "
                f"[{overflowed[0]:g}, {overflowed[-1]:g}]; its {finite.size} finite rows over "
                f"[{lo:g}, {hi:g}] show no sign change, so no root was found in this scan."
            )
        elif finite.size and (np.all(finite > 0.0) or np.all(finite < 0.0)):
            # A finding about this scan only: nothing is known past the bracket.
            sign = "positive" if finite[0] > 0.0 else "negative"
            summary = (
                f"boundary defect is single-signed ({sign}) over [{lo:g}, {hi:g}]: "
                f"{finite.size} finite and {defects.size - finite.size} NaN scan rows; "
                "no root was found in this scan."
            )
        else:
            summary = (
                "boundary defect has no sign change over bracket "
                f"({lo:g}, {hi:g}) with {config.scan_points} scan points; "
                "widen the bracket or flip root_signs."
            )
        raise NoSignChangeError(
            summary + " Scan table:\n" + table,
            scan_table=list(zip(grid.tolist(), defects.tolist())),
        )

    roots, root_defects = [], []
    for i, j in ends:
        if i == j:
            roots.append(float(grid[i]))
            root_defects.append(0.0)  # an exact zero of the scan
            continue
        # the scan rows at the ends are boundary_defect there, bit for bit
        root, defect = _brentq(
            lambda k0: boundary_defect(k0, spec, root_signs),
            float(grid[i]),
            float(grid[j]),
            xtol=config.root_tol,
            rtol=4.0 * np.finfo(float).eps,
            fa=float(defects[i]),
            fb=float(defects[j]),
        )
        roots.append(float(root))
        root_defects.append(defect)

    primary = min(roots)
    defect_at_root = root_defects[roots.index(primary)]
    # boundary_defect has checked the betas here; alpha is checked below.
    # E - x^2/2 is 2(n_L+1) kappa0 > 0 at x = kappa0 and -2(n_R+1)(kappa0 + s_*) < 0
    # at x = kappa0 + s_*: at an exact root with every beta_i > 0 the integral from 0
    # rises, then falls to 0, so alpha is positive inside.
    params = cf.params_from_kappa0(primary, spec, root_signs=root_signs)
    s_grid = np.linspace(0.0, params.s_star, 66)[1:-1]
    require_positive_alpha(s_grid, alpha(s_grid, params, spec))

    return SolvedProfile(
        params=params,
        defect_at_root=float(defect_at_root),
        bracket_used=(float(lo), float(hi)),
        all_sign_changes=tuple(sign_changes),
        roots=tuple(roots),
    )
