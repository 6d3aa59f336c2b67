"""Quadrature layer and defect root-find, against independent numerics."""

import numpy as np
import pytest

import oracles as orc
from qebundle import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    NoSignChangeError,
    PositivityError,
    SolverConfig,
    alpha,
    alpha_derivatives,
    alpha_integrand,
    boundary_defect,
    boundary_slopes,
    solve,
)
from qebundle.closedform import params_from_kappa0

COLLAPSE = EndpointType.SMOOTH_COLLAPSE
BLOWDOWN = EndpointType.BLOWDOWN


# ---------------------------------------------------------------------------
# Configuration object
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = SolverConfig()
    assert cfg.bracket == (1e-3, 1e3)
    assert cfg.scan_points == 64
    assert cfg.root_tol == 1e-12
    assert cfg.quad_rel_tol == 1e-10
    assert cfg.max_subdivisions == 200


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bracket": (1.0, 1.0)},
        {"bracket": (-1.0, 10.0)},
        {"scan_points": 1},
        {"root_tol": 0.0},
        {"quad_rel_tol": -1e-10},
        {"max_subdivisions": 0},
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SolverConfig(**kwargs)


# ---------------------------------------------------------------------------
# Integrand
# ---------------------------------------------------------------------------


def test_integrand_matches_oracle(ref_profile, ref_spec):
    p = ref_profile.params
    r = np.linspace(0.0, p.s_star, 17)
    expected = orc.oracle_integrand(r + p.kappa0, orc.REF_FACTORS, 2.0, p.E, p.A)
    assert np.allclose(alpha_integrand(r, p, ref_spec), expected, rtol=1e-13)


def test_integrand_changes_sign_at_sqrt_2E(ref_spec):
    # the weight E + eps x^2 / 2 vanishes at x = sqrt(2E), which lies
    # strictly inside (kappa0, kappa0 + 4) for every collapse profile
    for kappa0 in (0.1, 1.0, 10.0, 100.0):
        p = params_from_kappa0(kappa0, ref_spec)
        x0 = np.sqrt(2.0 * p.E)
        assert p.kappa0 < x0 < p.kappa0 + p.s_star
        below = alpha_integrand(x0 - p.kappa0 - 1e-3, p, ref_spec)
        above = alpha_integrand(x0 - p.kappa0 + 1e-3, p, ref_spec)
        assert below > 0.0 > above


def test_integrand_vanishes_at_left_blowdown(blow_profile, blow_spec):
    # V(kappa0) = 0 there since beta_1(0) = 0
    assert alpha_integrand(0.0, blow_profile.params, blow_spec) == 0.0


# ---------------------------------------------------------------------------
# Defect: adaptive quadrature vs fixed-grid Simpson
# ---------------------------------------------------------------------------


def test_defect_agrees_with_simpson_oracle(ref_spec):
    for kappa0 in np.geomspace(0.1, 100.0, 16):
        ours = boundary_defect(kappa0, ref_spec)
        simpson = orc.oracle_defect(orc.REF_FACTORS, 2.0, kappa0)
        assert ours == pytest.approx(simpson, rel=1e-9, abs=1e-9)


def test_defect_agrees_with_simpson_oracle_blowdown(blow_spec):
    for kappa0 in np.geomspace(0.5, 50.0, 8):
        ours = boundary_defect(kappa0, blow_spec)
        simpson = orc.oracle_defect(orc.BLOW_FACTORS, 2.0, kappa0, left_blowdown=True)
        assert ours == pytest.approx(simpson, rel=1e-9, abs=1e-9)


def test_defect_negative_at_small_kappa0(ref_spec, blow_spec):
    # E -> 0 with kappa0 makes the weight E - x^2/2 negative on almost
    # the whole interval
    assert boundary_defect(1e-3, ref_spec) < 0.0
    assert boundary_defect(1e-3, blow_spec) < 0.0


def test_defect_is_continuous_in_kappa0(ref_spec):
    k = 5.0
    d0 = boundary_defect(k, ref_spec)
    d1 = boundary_defect(k * (1.0 + 1e-8), ref_spec)
    assert abs(d1 - d0) < 1e-5 * max(1.0, abs(d0))


def test_defect_positivity_guard_fires_on_invalid_spec():
    # an invalid-clause right-blowdown spec makes the interior beta go
    # nonpositive before the right end at large kappa0; boundary_defect
    # does not validate, so the positivity guard must catch it
    spec = BundleSpec(
        factors=(FactorSpec(1, 2, 1), FactorSpec(2, 3, 1)),
        m=2.0,
        left=COLLAPSE,
        right=BLOWDOWN,
    )
    with pytest.raises(PositivityError):
        boundary_defect(300.0, spec)


# ---------------------------------------------------------------------------
# Root find
# ---------------------------------------------------------------------------


def test_solve_reproduces_frozen_oracle_root(ref_profile):
    assert abs(ref_profile.params.kappa0 - orc.K0_REF) < 1e-10


def test_solve_reproduces_frozen_oracle_root_blowdown(blow_profile):
    assert abs(blow_profile.params.kappa0 - orc.K0_BLOW) < 1e-10


def test_solve_agrees_with_live_simpson_bisection(ref_profile):
    live = orc.oracle_root(orc.REF_FACTORS, 2.0, 1.0, 50.0)
    assert abs(ref_profile.params.kappa0 - live) < 1e-10


def test_solve_result_structure(ref_profile):
    assert ref_profile.roots == tuple(sorted(ref_profile.roots))
    assert ref_profile.params.kappa0 == min(ref_profile.roots)
    assert ref_profile.bracket_used == (1e-3, 1e3)
    assert len(ref_profile.all_sign_changes) >= 1
    lo, hi = ref_profile.all_sign_changes[0]
    assert lo < ref_profile.params.kappa0 < hi


def test_solve_defect_residual_is_small(ref_profile, ref_spec):
    import qebundle.solver as sv

    scale = sv.defect_scale(ref_profile.params, ref_spec)
    assert abs(ref_profile.defect_at_root) < 10.0 * 1e-10 * max(1.0, scale)


def test_solve_rejects_invalid_spec():
    with pytest.raises(ValueError, match="invalid spec"):
        solve(BundleSpec(factors=(FactorSpec(1, 2, 2),), m=2.0))


def test_solve_no_sign_change_for_wrong_root(ref_spec):
    # the positive-root coefficient keeps the defect single-signed, so
    # the scan must fail loudly and carry its table
    cfg = SolverConfig(scan_points=16)
    with pytest.raises(NoSignChangeError) as err:
        solve(ref_spec, config=cfg, root_signs=(+1,))
    assert len(err.value.scan_table) == 16
    assert "scan" in str(err.value).lower()


def test_solve_kappa1_rescales_nothing_geometric(ref_spec, ref_profile):
    prof3 = solve(ref_spec, kappa1=3.0)
    assert prof3.params.kappa0 == pytest.approx(ref_profile.params.kappa0, abs=1e-12)
    assert prof3.params.s_star == pytest.approx(ref_profile.params.s_star, abs=1e-14)
    assert prof3.params.A == pytest.approx(ref_profile.params.A, rel=1e-14)
    assert prof3.params.mu == pytest.approx(9.0 * ref_profile.params.mu, rel=1e-12)


def test_solve_is_invariant_under_twisting_sign(ref_profile):
    spec_neg = BundleSpec(factors=(FactorSpec(2, 3, -1),), m=2.0)
    prof_neg = solve(spec_neg)
    assert prof_neg.params.kappa0 == pytest.approx(
        ref_profile.params.kappa0, abs=1e-12
    )
    assert prof_neg.params.A == pytest.approx(ref_profile.params.A, rel=1e-14)


def test_solve_both_blowdown_needs_middle_factor():
    # r = 2 with both ends blown down leaves no free coefficient and the
    # defect stays negative: no metric in this family
    spec = BundleSpec(
        factors=(FactorSpec(1, 2, 1), FactorSpec(1, 2, 1)),
        m=2.0,
        left=BLOWDOWN,
        right=BLOWDOWN,
    )
    with pytest.raises(NoSignChangeError):
        solve(spec, config=SolverConfig(scan_points=16))


def test_solve_both_blowdown_with_middle_factor():
    spec = BundleSpec(
        factors=(FactorSpec(1, 2, 1), FactorSpec(1, 4, 1), FactorSpec(1, 2, 1)),
        m=2.0,
        left=BLOWDOWN,
        right=BLOWDOWN,
    )
    prof = solve(spec)
    # n_1 = n_r = 1 forces s_* = 4(n + 1) = 8 exactly
    assert prof.params.s_star == pytest.approx(8.0, abs=1e-12)


# ---------------------------------------------------------------------------
# alpha and its derivatives
# ---------------------------------------------------------------------------


def test_alpha_vanishes_at_left_end(ref_profile, ref_spec):
    assert alpha(0.0, ref_profile.params, ref_spec) == 0.0


def test_alpha_starts_like_2s(ref_profile, ref_spec):
    d = 1e-6 * ref_profile.params.s_star
    assert alpha(d, ref_profile.params, ref_spec) / d == pytest.approx(2.0, abs=1e-4)


def test_alpha_positive_inside_and_zero_at_right_end(ref_profile, ref_spec):
    p = ref_profile.params
    s = np.linspace(0.0, p.s_star, 66)[1:-1]
    a = alpha(s, p, ref_spec)
    assert np.all(a > 0.0)
    a_end = alpha(p.s_star, p, ref_spec)
    assert abs(a_end) < 1e-10 * max(1.0, a.max())


def test_alpha_matches_simpson_oracle(ref_profile, ref_spec):
    p = ref_profile.params
    for s in (0.5, 1.7, 3.2):
        ours = alpha(s, p, ref_spec)
        simpson = orc.oracle_alpha(s, orc.REF_FACTORS, 2.0, p.kappa0, nodes=8193)
        assert ours == pytest.approx(simpson, rel=1e-8)


def test_alpha_matches_exact_polynomial_oracle(ref_profile, ref_spec):
    p = ref_profile.params
    exact, E, s_star, A = orc.poly_alpha(orc.REF_FACTORS, 2, p.kappa0)
    rng = np.random.default_rng(42)
    s = rng.uniform(0.05 * s_star, 0.95 * s_star, 20)
    ours = alpha(s, p, ref_spec)
    assert np.allclose(ours, exact(s), rtol=1e-10)


def test_alpha_prime_matches_central_differences(ref_profile, ref_spec):
    p = ref_profile.params
    h = 1e-6 * p.s_star
    f = lambda s: alpha(s, p, ref_spec)
    for s in np.linspace(0.1 * p.s_star, 0.9 * p.s_star, 10):
        fd = orc.central_first(f, s, h)
        assert alpha_derivatives(s, p, ref_spec)[1] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_alpha_second_matches_differenced_alpha_prime(ref_profile, ref_spec):
    p = ref_profile.params
    h = 1e-6 * p.s_star
    f = lambda s: alpha_derivatives(s, p, ref_spec)[1]
    for s in np.linspace(0.1 * p.s_star, 0.9 * p.s_star, 10):
        fd = orc.central_first(f, s, h)
        assert alpha_derivatives(s, p, ref_spec)[2] == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_boundary_slopes_are_plus_minus_two(ref_profile, ref_spec):
    # the left slope 2 is built into the root equation; the right slope
    # -2 is emergent and measures the solve quality
    left, right = boundary_slopes(ref_profile.params, ref_spec)
    assert abs(left - 2.0) < 1e-6
    assert abs(right + 2.0) < 1e-6


def test_boundary_slopes_blowdown(blow_profile, blow_spec):
    left, right = boundary_slopes(blow_profile.params, blow_spec)
    assert abs(left - 2.0) < 1e-6
    assert abs(right + 2.0) < 1e-6


def test_alpha_quadrature_tolerance_is_honest(ref_profile, ref_spec):
    # halving the quadrature tolerance moves alpha by less than the
    # advertised tolerance itself
    p = ref_profile.params
    loose = SolverConfig(quad_rel_tol=1e-8)
    tight = SolverConfig(quad_rel_tol=1e-12)
    for s in (0.7, 2.1, 3.6):
        a_loose = alpha(s, p, ref_spec, loose)
        a_tight = alpha(s, p, ref_spec, tight)
        assert abs(a_loose - a_tight) <= 1e-8 * max(1.0, abs(a_tight)) * 10.0


def test_alpha_for_non_integer_m():
    # fractional m exercises the x^(m-2) weight with no polynomial form
    spec = BundleSpec(factors=(FactorSpec(2, 3, 1),), m=1.5)
    prof = solve(spec)
    p = prof.params
    simpson = orc.oracle_alpha(2.0, orc.REF_FACTORS, 1.5, p.kappa0, nodes=8193)
    assert alpha(2.0, p, spec) == pytest.approx(simpson, rel=1e-8)
