"""Quadrature layer and defect root-find, against independent numerics."""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import oracles as orc
from qebundle import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    NoSignChangeError,
    PositivityError,
    SolverConfig,
    V,
    alpha,
    alpha_derivatives,
    alpha_integrand,
    beta,
    boundary_defect,
    boundary_slopes,
    positivity_check,
    solve,
)
from qebundle.closedform import params_from_kappa0
from qebundle.verifier import chebyshev_grid

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


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bracket": (1.0, 1.0)},
        {"bracket": (-1.0, 10.0)},
        {"scan_points": 1},
        {"root_tol": 0.0},
        {"bracket": (1e-3, math.inf)},
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


def test_solve_reproduces_frozen_oracle_root_right_blowdown(right_profile):
    assert abs(right_profile.params.kappa0 - orc.K0_RIGHT) < 1e-10


def test_solve_reproduces_frozen_oracle_root_both_blowdowns(both_profile):
    # both ends blown down goes beyond the source construction (at most
    # one end is blown down there); the oracle root still pins it
    assert abs(both_profile.params.kappa0 - orc.K0_BOTH) < 1e-10


def test_solve_records_tiny_kappa0_as_nan_scan_rows(ref_spec):
    # at kappa0 ~ 1e-20 the left root recomputed from E rounds to 0; the
    # scan must record NaN there and still find the root further up.
    # The cancelling default A-root divides by zero at such E: ROADMAP
    # item 1 (cancellation-free closed forms) removes that warning.
    with pytest.warns(RuntimeWarning, match="divide by zero"):
        prof = solve(ref_spec, SolverConfig(bracket=(1e-20, 1e3)))
    assert abs(prof.params.kappa0 - orc.K0_REF) < 1e-10


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
    p = ref_profile.params
    scale = quad(lambda r: abs(alpha_integrand(r, p, ref_spec)), 0.0, p.s_star, limit=200)[0]
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


@pytest.mark.parametrize(
    "factors, m, right, sign_changes, roots",
    [
        (
            ((1, 4, 1), (2, 3, 1)),
            64.0,
            BLOWDOWN,
            ((415.95621630718426, 517.9474679231203),),
            (468.95845130578823,),
        ),
        (
            ((1, 4, 1), (2, 3, 1)),
            100.0,
            BLOWDOWN,
            ((644.946677103762, 803.0857221391504),),
            (722.1499449723636,),
        ),
        (
            ((2, 3, 1),),
            100.0,
            COLLAPSE,
            ((268.26957952797216, 334.04849835132444),),
            (297.05971628434196,),
        ),
    ],
)
def test_scan_at_large_m_compares_signs_without_overflow(factors, m, right, sign_changes, roots):
    # at large m the scanned defects are so large that the product of two
    # neighbours overflows; the scan must find the same roots without it
    spec = BundleSpec(factors=tuple(FactorSpec(*f) for f in factors), m=m, right=right)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        prof = solve(spec)
    assert prof.all_sign_changes == sign_changes
    assert prof.roots == roots


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


TABLE_SPECS = {
    "ref": BundleSpec(factors=(FactorSpec(2, 3, 1),), m=2.0),
    "blowdown": BundleSpec(
        factors=(FactorSpec(1, 2, 1), FactorSpec(1, 3, 1)), m=2.0, left=BLOWDOWN
    ),
    "three-factor": BundleSpec(
        factors=(FactorSpec(4, 5, 1), FactorSpec(3, 7, 2), FactorSpec(2, 3, 1)), m=5.5
    ),
    "m=1.5": BundleSpec(factors=(FactorSpec(2, 3, 1),), m=1.5),
    # a left blowdown drawn by the benchmark's spec generator; certifies
    "left-blowdown": BundleSpec(
        factors=(FactorSpec(2, 3, 1), FactorSpec(2, 12, 3)),
        m=1.595286767410206,
        left=BLOWDOWN,
    ),
}


def _quad_split(p, spec, s, epsrel):
    """int_0^s of the alpha integrand by scipy's adaptive quad, split at its sign change."""
    x0 = np.sqrt(2.0 * p.E) - p.kappa0
    ends = [0.0] + ([x0] if 0.0 < x0 < s else []) + [s]
    return sum(
        quad(alpha_integrand, lo, hi, args=(p, spec), epsabs=0.0, epsrel=epsrel, limit=200)[0]
        for lo, hi in zip(ends[:-1], ends[1:])
    )


@pytest.mark.parametrize("name", sorted(TABLE_SPECS))
def test_alpha_table_matches_adaptive_quadrature(name):
    # the fixed-order table against scipy's adaptive quad at a tight
    # tolerance, split at the integrand's sign change like the defect
    spec = TABLE_SPECS[name]
    p = solve(spec).params
    s = np.linspace(0.0, p.s_star, 42)[1:-1]
    want = []
    for sk in s:
        x = sk + p.kappa0
        want.append(_quad_split(p, spec, sk, 2e-14) / (V(sk, p, spec) * x ** (spec.m - 1.0)))
    assert np.allclose(alpha(s, p, spec), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", ["ref", "blowdown", "three-factor"])
def test_scan_sign_changes_match_adaptive_quadrature(name):
    # the table-based scan against a 64-point scan of the defect by
    # scipy's adaptive quad, split at the integrand's sign change
    spec = TABLE_SPECS[name]
    grid = np.geomspace(1e-3, 1e3, 64)
    defects = np.full(grid.shape, np.nan)
    for k, kappa0 in enumerate(grid):
        p = params_from_kappa0(float(kappa0), spec)
        if positivity_check(p, spec)[0]:
            defects[k] = _quad_split(p, spec, p.s_star, 1e-12)
    want = tuple(
        (float(grid[k]), float(grid[k + 1]))
        for k in range(len(grid) - 1)
        if defects[k] * defects[k + 1] < 0.0
    )
    assert want
    assert solve(spec).all_sign_changes == want


def test_alpha_at_right_blowdown_end_when_beta_rounds_off_zero():
    # beta_r(s_*) should vanish but rounds to -3.6e-15 here, so V(s_*)
    # is tiny but nonzero; alpha(s_*) must still be the one-sided limit
    spec = BundleSpec(
        factors=(FactorSpec(1, 4, 1), FactorSpec(2, 3, 1)), m=3.3, right=BLOWDOWN
    )
    p = params_from_kappa0(40.57251817827792, spec)
    assert beta(p.s_star, p, spec)[1] != 0.0
    a_max = np.max(np.abs(alpha(chebyshev_grid(0.0, p.s_star, 201), p, spec)))
    assert abs(alpha(p.s_star, p, spec)) <= 1e-3 * a_max


def test_alpha_for_non_integer_m():
    # fractional m exercises the x^(m-2) weight with no polynomial form
    spec = BundleSpec(factors=(FactorSpec(2, 3, 1),), m=1.5)
    prof = solve(spec)
    p = prof.params
    simpson = orc.oracle_alpha(2.0, orc.REF_FACTORS, 1.5, p.kappa0, nodes=8193)
    assert alpha(2.0, p, spec) == pytest.approx(simpson, rel=1e-8)
