"""Acceptance suite: ten end-to-end criteria with quantified tolerances.

Each criterion prints one pass/fail line (on the real stdout, so the
lines survive pytest's capture) and then asserts. Oracle constants in
tests/oracles.py were frozen from independent runs before the solver
existed; nothing here re-derives an expected value from the code under
test.
"""

import sys

import numpy as np
import pytest

import oracles as orc
from qebundle import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    alpha,
    ansatz_residual,
    boundary_slopes,
    chebyshev_grid,
    endpoint_quadratic_roots,
    energy_from_kappa0,
    params_from_kappa0,
    residual_25,
    residual_26,
    residual_27,
    sample_at,
    solve,
    verify,
)
from qebundle.verifier import TOL_RESIDUAL

COLLAPSE = EndpointType.SMOOTH_COLLAPSE
BLOWDOWN = EndpointType.BLOWDOWN


def grid_sample(profile, spec, grid_size):
    """sample_at on the grid verify() samples at its default margin."""
    s_star = profile.params.s_star
    delta = 1e-3 * s_star
    return sample_at(chebyshev_grid(delta, s_star - delta, grid_size), profile.params, spec)


def residual_max(profile, spec, grid_size):
    """max |residual| of equations (I)-(III) on verify()'s grid."""
    smp = grid_sample(profile, spec, grid_size)
    return max(
        float(np.max(np.abs(residual_25(smp, spec)))),
        float(np.max(np.abs(residual_26(smp, spec)))),
        float(np.max(np.abs(residual_27(smp, spec)))),
    )


def announce(num, ok, detail):
    flag = "pass" if ok else "FAIL"
    sys.__stdout__.write(f"criterion {num:2d}: {flag}  {detail}\n")
    sys.__stdout__.flush()


# Criteria 3 and 4 quantify over "every solved profile"; the sweep
# fixtures below collect every profile this suite solves.


@pytest.fixture(scope="module")
def m_sweep_profiles(ref_spec):
    out = {}
    for m in (1.5, 2.0, 4.0, 8.0, 32.0):
        spec = BundleSpec(factors=ref_spec.factors, m=m)
        out[m] = (spec, solve(spec))
    return out


@pytest.fixture(scope="module")
def all_solved(ref_spec, ref_profile, blow_spec, blow_profile, m_sweep_profiles):
    profiles = [(ref_spec, ref_profile), (blow_spec, blow_profile)]
    profiles += list(m_sweep_profiles.values())
    return profiles


@pytest.fixture(scope="module")
def ref_report_512(ref_spec, ref_profile):
    return verify(ref_profile, ref_spec, grid_size=512)


@pytest.fixture(scope="module")
def blow_report_512(blow_spec, blow_profile):
    return verify(blow_profile, blow_spec, grid_size=512)


def test_criterion_01_interval_length_is_four(ref_spec):
    worst = 0.0
    for kappa0 in (0.1, 1.0, 10.0, 100.0):
        s_star = params_from_kappa0(kappa0, ref_spec).s_star
        worst = max(worst, abs(s_star - 4.0))
    ok = worst < 1e-12
    announce(1, ok, f"both-collapse s_* = 4 for kappa0 in {{0.1,1,10,100}}; max dev {worst:.2e}")
    assert ok


def test_criterion_02_interval_formula_reproduction():
    # unified endpoint-quadratic route vs the literal closed formula
    # s_* = sqrt(kappa0 (4(n1+1) + kappa0) + 4(nr+1)^2) - kappa0 + 2(nr+1)
    worst = 0.0
    for kappa0 in (0.5, 1.0, 2.0, 5.0):
        for n1 in (0, 1, 2):
            for nr in (0, 1, 2):
                E = energy_from_kappa0(kappa0, n1)
                sigma = -endpoint_quadratic_roots(E, nr).small
                unified = sigma - kappa0
                literal = (
                    np.sqrt(kappa0 * (4.0 * (n1 + 1) + kappa0) + 4.0 * (nr + 1) ** 2)
                    - kappa0
                    + 2.0 * (nr + 1)
                )
                worst = max(worst, abs(unified - literal) / literal)
    ok = worst < 1e-12
    announce(2, ok, f"36-point (kappa0, n1, nr) grid; max rel dev {worst:.2e}")
    assert ok


def test_criterion_03_quadratic_root_identities(all_solved):
    worst = 0.0
    for spec, prof in all_solved:
        p = prof.params
        scale = 1e-12 * max(1.0, p.E)
        left = 0.5 * p.kappa0**2 + 2.0 * (spec.n_left + 1) * p.kappa0 - p.E
        xr = -(p.s_star + p.kappa0)
        right = 0.5 * xr**2 + 2.0 * (spec.n_right + 1) * xr - p.E
        worst = max(worst, abs(left) / scale, abs(right) / scale)
    ok = worst < 1.0
    announce(
        3, ok, f"endpoint quadratic residuals on {len(all_solved)} solved profiles; "
        f"worst {worst:.2e} x tol"
    )
    assert ok


def test_criterion_04_ansatz_identity(all_solved):
    # beta-quadratic identity at every verification grid point of every
    # solved profile, measured relative to the largest term of the
    # 1/beta^2-scaled form (the roundoff-faithful reading: near a
    # blowdown zero of beta the terms themselves reach ~q^2/(2 beta^2),
    # so an absolute threshold would demand sub-eps cancellation there)
    worst_rel = 0.0
    worst_raw_collapse = 0.0
    for spec, prof in all_solved:
        report = verify(prof, spec, grid_size=64)
        worst_rel = max(worst_rel, report.checks["ansatz_max"]["value"])
        if spec.left is COLLAPSE and spec.right is COLLAPSE:
            raw = ansatz_residual(grid_sample(prof, spec, 64), spec)
            worst_raw_collapse = max(worst_raw_collapse, float(np.max(np.abs(raw))))
    ok = worst_rel < 1e-12 and worst_raw_collapse < 1e-12
    announce(
        4, ok, f"ansatz identity on all solved profiles; max relative "
        f"{worst_rel:.2e}, max raw away from blowdowns {worst_raw_collapse:.2e}"
    )
    assert ok


def test_criterion_05_reference_certification(ref_spec, ref_profile, ref_report_512):
    k_dev = abs(ref_profile.params.kappa0 - orc.K0_REF)
    res = residual_max(ref_profile, ref_spec, 512)
    ok = k_dev < 1e-10 and res < 1e-8 and ref_report_512.mu_dev < 1e-8
    announce(
        5, ok, f"reference root within {k_dev:.2e} of frozen oracle; 512-grid "
        f"residual max {res:.2e}; mu_dev {ref_report_512.mu_dev:.2e}"
    )
    assert ok


def test_criterion_06_boundary_conditions(ref_profile, ref_spec):
    p = ref_profile.params
    a0 = alpha(0.0, p, ref_spec)
    a_grid = alpha(np.linspace(0.0, p.s_star, 64)[1:-1], p, ref_spec)
    a_end = alpha(p.s_star, p, ref_spec)
    left, right = boundary_slopes(p, ref_spec)
    ok = (
        a0 == 0.0
        and abs(left - 2.0) < 1e-6
        and abs(a_end) < 1e-10 * max(1.0, float(a_grid.max()))
        and abs(right + 2.0) < 1e-6
    )
    announce(
        6, ok, f"alpha(0) = {a0}; slope(0)-2 = {left - 2.0:.2e}; "
        f"alpha(s_*) = {a_end:.2e}; slope(s_*)+2 = {right + 2.0:.2e} (emergent)"
    )
    assert ok


def test_criterion_07_blowdown_instance(blow_spec, blow_profile, blow_report_512):
    from qebundle.closedform import beta_jet

    p = blow_profile.params
    k_dev = abs(p.kappa0 - orc.K0_BLOW)
    b, bp, _ = beta_jet(0.0, p, blow_spec)
    b0 = abs(b[0])
    bp0 = abs(bp[0] - 1.0)
    res = residual_max(blow_profile, blow_spec, 512)
    ok = (
        k_dev < 1e-10
        and b0 < 1e-12
        and bp0 < 1e-12
        and res < 1e-8
        and blow_report_512.mu_dev < 1e-8
        and blow_report_512.certified
    )
    announce(
        7, ok, f"blowdown root within {k_dev:.2e} of frozen oracle; "
        f"beta_1(0) = {b0:.1e}, beta_1'(0)-1 = {bp0:.1e}; 512-grid residual "
        f"max {res:.2e}; certified = {blow_report_512.certified}"
    )
    assert ok


def test_criterion_08_exact_quadrature_oracle(ref_spec):
    rng = np.random.default_rng(42)
    worst = 0.0
    for m in (2, 3, 4):
        spec = BundleSpec(factors=ref_spec.factors, m=float(m))
        prof = solve(spec)
        k0 = prof.params.kappa0
        for kappa0 in (k0, 0.5 * k0):  # at the root and off it
            p = params_from_kappa0(kappa0, spec)
            exact, E, s_star, A = orc.poly_alpha(orc.REF_FACTORS, m, kappa0)
            s = rng.uniform(0.05 * s_star, 0.95 * s_star, 20)
            ours = alpha(s, p, spec)
            worst = max(worst, float(np.max(np.abs(ours - exact(s)) / np.abs(exact(s)))))
    ok = worst < 1e-10
    announce(
        8, ok, f"adaptive alpha vs polynomial antiderivative, m in {{2,3,4}}, "
        f"20 random points each; max rel dev {worst:.2e}"
    )
    assert ok


def test_criterion_09_m_robustness(m_sweep_profiles):
    failures = []
    for m, (spec, prof) in m_sweep_profiles.items():
        report = verify(prof, spec, grid_size=64)
        if not report.certified or abs(prof.params.s_star - 4.0) >= 1e-12:
            failures.append(m)
    ok = not failures
    announce(
        9, ok, f"solve + certify for m in {{1.5,2,4,8,32}}; "
        f"failures: {failures if failures else 'none'}"
    )
    assert ok


def test_criterion_10_t_system_spot_check(ref_spec, ref_profile, blow_spec, blow_profile):
    # the fiber equation in the arclength t of dt^2 + f^2 theta^2 + sum_i g_i^2 h_i,
    #   f../f + sum_i (2 n_i f. g_i./(f g_i) - n_i q_i^2 f^2/(2 g_i^4)) + m f. v./(f v) - eps/2,
    # formed by the chain rule d/dt = f d/ds (f = sqrt(alpha), g_i = sqrt(beta_i),
    # v = phi) from sample_at on the verifier's 201-point grid
    worst = {}
    for name, spec, prof in (("ref", ref_spec, ref_profile), ("blowdown", blow_spec, blow_profile)):
        s_star = prof.params.s_star
        smp = sample_at(chebyshev_grid(1e-3 * s_star, s_star - 1e-3 * s_star, 201), prof.params, spec)
        n = np.array([[fac.n] for fac in spec.factors], dtype=float)
        q = np.array([[fac.q] for fac in spec.factors], dtype=float)
        f, g, v = np.sqrt(smp.alpha), np.sqrt(smp.beta), smp.phi
        f_t, f_tt = 0.5 * smp.alpha_prime, 0.5 * f * smp.alpha_second
        g_t, v_t = f * smp.beta_prime / (2.0 * g), f  # v' = phi' = 1
        res = (
            f_tt / f
            + np.sum(2.0 * n * f_t * g_t / (f * g) - n * q**2 * f**2 / (2.0 * g**4), axis=0)
            + spec.m * f_t * v_t / (f * v)
            - 0.5 * spec.epsilon
        )
        worst[name] = float(np.max(np.abs(res)))
    ok = max(worst.values()) < TOL_RESIDUAL
    announce(
        10, ok, f"t-coordinate fiber equation by the chain rule on the 201-point grid; "
        f"max residual ref {worst['ref']:.2e}, blowdown {worst['blowdown']:.2e}"
    )
    assert ok
