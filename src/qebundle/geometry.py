"""Reconstruction of the t-parameterization of the metric.

The s-coordinate was chosen so that ds = f dt with f = sqrt(alpha);
inverting,

    t(s) = int_0^s dr / sqrt(alpha(r)).

alpha vanishes linearly at a collapsing end (alpha ~ 2s near s = 0,
alpha ~ 2(s_* - s) near s_*), so 1/sqrt(alpha) has integrable
1/sqrt(r) singularities there. The end segments are integrated under
the substitution r = w^2 (resp. r = s_* - w^2), which removes the
singularity exactly; interior segments use fixed high-order
Gauss-Legendre panels on the smooth integrand. The nodes of all panels,
end panels included, form one (grid_size - 1, 6) array, so alpha is
evaluated there in a single call (one table build, see solver.alpha).
Six nodes per segment keep t well inside the error that the defect
left over at the root already sets (see _GL_NODES).
The result is the metric profile in the original coordinates:

    g = dt^2 + f^2(t) theta x theta + sum_i g_i^2(t) h_i,
    f = sqrt(alpha), g_i = sqrt(beta_i), v = phi,

with potential u = -m log(v) (conventional dictionary v = e^(-u/m);
the export layer flags this convention explicitly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform as cf
from . import solver as sv
from .errors import PositivityError
from .spec import BundleSpec

# 6-point Gauss-Legendre nodes/weights on [-1, 1]; panel-exact for
# polynomial degree 11. On the 99 certified profiles of the benchmark's
# spec family t stays within 5.4e-11 t(s_*) of the 12-node rule, below
# the 1e-9 t(s_*) by which 12 and 48 nodes disagree at s_* (the leftover
# defect). On the default 513-point grid alpha is evaluated at
# 513 + 512 * 6 = 3585 points instead of 6657.
_GL_NODES, _GL_WEIGHTS = sv.legendre_rule(
    (0.2386191860831969, 0.6612093864662645, 0.9324695142031519),
    (0.46791393457269104, 0.3607615730481387, 0.17132449237917027),
)


@dataclass
class MetricProfile:
    """Sampled metric functions over matched s- and t-grids.

    Arrays share one index: (s[k], t[k]) are the same point, with
    f = sqrt(alpha), g[k, i] = sqrt(beta_i), v = phi, u = -m log v.
    t[0] = 0 and total_length_l = t[-1] is the t-length of the
    interval.
    """

    s: np.ndarray
    t: np.ndarray
    f: np.ndarray
    g: np.ndarray
    v: np.ndarray
    u: np.ndarray
    total_length_l: float


def reconstruct_t(
    params: cf.SolutionParams,
    spec: BundleSpec,
    grid_size: int = 513,
) -> MetricProfile:
    """Rebuild the t-grid and metric functions on a uniform s-grid.

    Raises
    ------
    PositivityError
        If alpha is not positive at an interior node, or is below
        -1e-8 max(1, max |alpha|) at s_* (``factor`` None: the profile
        was not certified, or params are not at a defect root), or if
        some beta_i < 0 beyond roundoff (``factor`` i). NaN fails each.
    """
    if grid_size < 8:
        raise ValueError("grid_size must be at least 8")
    s_star = params.s_star
    s = np.linspace(0.0, s_star, grid_size)

    # alpha(0) = 0 exactly; alpha(s_*) is zero up to solver tolerance,
    # so it is checked against that tolerance and clamped at 0.
    a = sv.alpha(s, params, spec)
    sv.require_positive_alpha(s[1:-1], a[1:-1])
    if not (a[-1] >= -1e-8 * max(1.0, float(np.max(np.abs(a))))):
        sv.require_positive_alpha(s[-1:], a[-1:])
    a[-1] = max(a[-1], 0.0)

    # One row of 6 Gauss-Legendre nodes per segment [s_{k-1}, s_k]. The
    # end rows substitute r = s_1 w^2 and r = s_* - d w^2 (w in [0, 1],
    # d = s_* - s_{N-2}), which turns the integrand into
    # 2 s_1 w / sqrt(alpha(r)), resp. 2 d w / sqrt(alpha(r)): smooth at
    # w = 0 since alpha vanishes linearly at a collapsing end. scale holds
    # these factors times the half-width of each row's panel.
    w = 0.5 * (1.0 + _GL_NODES)
    mid, half = 0.5 * (s[2:-1] + s[1:-2]), 0.5 * (s[2:-1] - s[1:-2])
    s1, d_end = s[1], s_star - s[grid_size - 2]
    nodes = np.vstack(
        [s1 * w * w, mid[:, None] + half[:, None] * _GL_NODES, s_star - d_end * w * w]
    )
    scale = np.vstack([s1 * w, np.repeat(half[:, None], len(w), axis=1), d_end * w])
    dt = np.zeros(grid_size)
    dt[1:] = np.sum(_GL_WEIGHTS * scale / np.sqrt(sv.alpha(nodes, params, spec)), axis=1)
    t = np.cumsum(dt)

    b = cf.beta(s, params, spec)
    bad = np.argwhere(~(b >= -1e-12 * max(1.0, float(np.max(np.abs(b))))))
    if bad.size:
        i, k = bad[0]
        raise PositivityError(
            f"beta_{i + 1}({s[k]:.6g}) = {b[i, k]:.3e} < 0 beyond roundoff; profile invalid",
            s=float(s[k]),
            value=float(b[i, k]),
            factor=int(i) + 1,
        )
    b[b < 0.0] = 0.0

    v = cf.phi(s, params)
    return MetricProfile(
        s=s,
        t=t,
        f=np.sqrt(a),
        g=np.sqrt(b.T),
        v=v,
        u=-spec.m * np.log(v),
        total_length_l=float(t[-1]),
    )
