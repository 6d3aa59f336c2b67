"""Quadrature layer and defect root-find, against independent numerics."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import oracles as orc
from qebundle import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    NonPositiveKappa0Error,
    NoSignChangeError,
    PositivityError,
    SolverConfig,
    V,
    alpha,
    alpha_integrand,
    beta,
    boundary_defect,
    boundary_slopes,
    sample_at,
    solve,
)
from qebundle import closedform as cf
from qebundle import geometry
from qebundle import solver as sv
from qebundle.closedform import params_from_kappa0, require_positive_beta
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
        {"root_tol": math.inf},
        {"root_tol": math.nan},
        {"scan_points": 64.0},
        {"scan_points": "64"},
        {"scan_points": True},
        {"root_tol": True},
        {"bracket": (True, 1e3)},
        {"bracket": (1e-3, True)},
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


@pytest.mark.parametrize("name", ["ref", "blow", "three", "right", "both"])
def test_integrand_changes_sign_once_inside_on_the_scan_grid(name, request):
    # E - x^2/2 is 2(n_L+1) kappa0 > 0 at x = kappa0 and -2(n_R+1)(kappa0 + s_*) < 0
    # at x = kappa0 + s_*: at every kappa0 of the default scan the break lies strictly
    # inside (0, s_*), with the integrand positive just left of it and negative just right
    spec = request.getfixturevalue(f"{name}_spec")
    cfg = SolverConfig()
    for kappa0 in np.geomspace(*cfg.bracket, cfg.scan_points).tolist():
        p = params_from_kappa0(kappa0, spec)
        brk = float(sv._integral_break(p, spec))
        assert 0.0 < brk < p.s_star
        h = 1e-6 * p.s_star
        assert alpha_integrand(brk - h, p, spec) > 0.0 > alpha_integrand(brk + h, p, spec)


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


@pytest.mark.parametrize("spec_name", ["ref_spec", "blow_spec", "right_spec"])
def test_boundary_defect_evaluates_each_closed_form_once(request, spec_name, monkeypatch):
    # one profile: E once from kappa0, and the endpoint quadratic once, at the right end
    spec = request.getfixturevalue(spec_name)
    calls = []
    energy, roots = cf.energy_from_kappa0, cf.endpoint_quadratic_roots

    def counted_energy(kappa0, n_left):
        calls.append("E")
        return energy(kappa0, n_left)

    def counted_roots(E, n_end):
        calls.append(n_end)
        return roots(E, n_end)

    monkeypatch.setattr(cf, "energy_from_kappa0", counted_energy)
    monkeypatch.setattr(cf, "endpoint_quadratic_roots", counted_roots)
    boundary_defect(5.0, spec)
    assert calls == ["E", spec.n_right]


def test_alpha_positivity_rule_fails_nan():
    # one rule for alpha: the first point where not (alpha > 0)
    s = np.array([1.0, 2.0, 3.0])
    sv.require_positive_alpha(s, np.array([1.0, 2.0, 3.0]))
    with pytest.raises(PositivityError) as err:
        sv.require_positive_alpha(s, np.array([1.0, np.nan, -1.0]))
    assert err.value.factor is None
    assert err.value.s == 2.0 and math.isnan(err.value.value)


def test_beta_positivity_check_fails_nan(ref_profile, ref_spec):
    p = ref_profile.params
    with pytest.raises(PositivityError) as err:
        require_positive_beta(dataclasses.replace(p, s_star=math.nan), ref_spec)
    assert err.value.factor == 1 and math.isnan(err.value.value)


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
    # kappa0 ~ 1e-20 is a profile like any other: the scan must take
    # those rows and still find the root further up, with no warning
    # from a closed form that cancels
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
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


def test_solve_is_invariant_under_twisting_sign(ref_profile):
    spec_neg = BundleSpec(factors=(FactorSpec(2, 3, -1),), m=2.0)
    prof_neg = solve(spec_neg)
    assert prof_neg.params.kappa0 == pytest.approx(
        ref_profile.params.kappa0, abs=1e-12
    )
    assert prof_neg.params.A == pytest.approx(ref_profile.params.A, rel=1e-14)


def test_solve_both_blowdown_needs_middle_factor():
    # r = 2 with both ends blown down leaves no free coefficient and the
    # defect stays negative over the whole scan
    spec = BundleSpec(
        factors=(FactorSpec(1, 2, 1), FactorSpec(1, 2, 1)),
        m=2.0,
        left=BLOWDOWN,
        right=BLOWDOWN,
    )
    with pytest.raises(NoSignChangeError) as err:
        solve(spec, config=SolverConfig(scan_points=16))
    message = str(err.value)
    # the message reports what the scan saw, with no advice to widen the
    # bracket and no claim about kappa0 outside it
    assert message.startswith(
        "boundary defect is single-signed (negative) over [0.001, 1000]: "
        "16 finite and 0 NaN scan rows;"
    )
    assert "widen" not in message
    assert message.count("kappa0 = ") == 16
    assert all(d < 0.0 for _, d in err.value.scan_table)


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


# (m, right end): the roots below on a table of 64 panels, the count before 32
LARGE_M_ROOTS_64 = {
    (64.0, BLOWDOWN): (468.95845130578823,),
    (100.0, BLOWDOWN): (722.1499449723636,),
    (100.0, COLLAPSE): (297.05971628434196,),
}
# the same roots before s_* was taken from kappa0 itself rather than from
# the left root recomputed from E, with the large root and A-root cancelling
LARGE_M_ROOTS_RECOMPUTED = {
    (64.0, BLOWDOWN): (468.9584513057884,),
    (100.0, BLOWDOWN): (722.149944972417,),
    (100.0, COLLAPSE): (297.0597162843375,),
}
# the roots on a table of 32 panels, the count before 8
LARGE_M_ROOTS_32 = {
    (64.0, BLOWDOWN): (468.9584513057955,),
    (100.0, BLOWDOWN): (722.1499449723901,),
    (100.0, COLLAPSE): (297.05971628433775,),
}


@pytest.mark.parametrize(
    "factors, m, right, sign_changes, roots",
    [
        (
            ((1, 4, 1), (2, 3, 1)),
            64.0,
            BLOWDOWN,
            ((415.95621630718426, 517.9474679231203),),
            (468.95845130579505,),
        ),
        (
            ((1, 4, 1), (2, 3, 1)),
            100.0,
            BLOWDOWN,
            ((644.946677103762, 803.0857221391504),),
            (722.1499449723925,),
        ),
        (
            ((2, 3, 1),),
            100.0,
            COLLAPSE,
            ((268.26957952797216, 334.04849835132444),),
            (297.05971628433565,),
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
    assert prof.roots == pytest.approx(LARGE_M_ROOTS_64[m, right], rel=1e-13, abs=0.0)
    assert prof.roots == pytest.approx(LARGE_M_ROOTS_RECOMPUTED[m, right], rel=1e-13, abs=0.0)
    assert prof.roots == pytest.approx(LARGE_M_ROOTS_32[m, right], rel=1e-13, abs=0.0)


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
        assert sample_at(s, p, ref_spec).alpha_prime == pytest.approx(fd, rel=1e-6, abs=1e-6)


def test_alpha_second_matches_differenced_alpha_prime(ref_profile, ref_spec):
    p = ref_profile.params
    h = 1e-6 * p.s_star
    f = lambda s: sample_at(s, p, ref_spec).alpha_prime
    for s in np.linspace(0.1 * p.s_star, 0.9 * p.s_star, 10):
        fd = orc.central_first(f, s, h)
        assert sample_at(s, p, ref_spec).alpha_second == pytest.approx(fd, rel=1e-6, abs=1e-6)


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
    # the edges of m, and a right blowdown, where alpha past the sign
    # change is the integral from the s_* end
    "m=1.01": BundleSpec(factors=(FactorSpec(2, 3, 1),), m=1.01),
    "m=100": BundleSpec(factors=(FactorSpec(2, 3, 1),), m=100.0),
    "right-blowdown": BundleSpec(
        factors=(FactorSpec(1, 4, 1), FactorSpec(2, 3, 1)), m=2.0, right=BLOWDOWN
    ),
    "right-blowdown-m100": BundleSpec(
        factors=(FactorSpec(1, 4, 1), FactorSpec(2, 3, 1)), m=100.0, right=BLOWDOWN
    ),
    # high-degree integrands and the blowdown edges, where a table with
    # fewer panels would lose digits first
    "n=100": BundleSpec(factors=(FactorSpec(100, 101, 1),), m=2.0),
    "two-factor-m8": BundleSpec(factors=(FactorSpec(20, 21, 1), FactorSpec(10, 31, 2)), m=8.0),
    "both-ends": BundleSpec(
        factors=(FactorSpec(1, 2, 1), FactorSpec(1, 7, 3), FactorSpec(1, 2, 1)),
        m=4.0,
        left=BLOWDOWN,
        right=BLOWDOWN,
    ),
    "left-blowdown-m100": BundleSpec(
        factors=(FactorSpec(1, 2, 1), FactorSpec(1, 3, 1)), m=100.0, left=BLOWDOWN
    ),
}


def _quad_split(p, spec, a, b, epsrel):
    """int_a^b of the alpha integrand by scipy's adaptive quad, split at its sign change."""
    x0 = np.sqrt(2.0 * p.E) - p.kappa0
    ends = [a] + ([x0] if a < x0 < b else []) + [b]
    return sum(
        quad(alpha_integrand, lo, hi, args=(p, spec), epsabs=0.0, epsrel=epsrel, limit=200)[0]
        for lo, hi in zip(ends[:-1], ends[1:])
    )


@pytest.mark.parametrize("name", sorted(TABLE_SPECS))
def test_alpha_table_matches_adaptive_quadrature(name):
    # the fixed-order table against scipy's adaptive quad at a tight
    # tolerance, split at the integrand's sign change like the defect;
    # under a right blowdown, past that change, from the s_* end as alpha
    spec = TABLE_SPECS[name]
    p = solve(spec).params
    x0 = np.sqrt(2.0 * p.E) - p.kappa0
    s = np.linspace(0.0, p.s_star, 42)[1:-1]
    want = []
    for sk in s:
        if spec.right is BLOWDOWN and sk >= x0:
            integral = -_quad_split(p, spec, sk, p.s_star, 2e-14)
        else:
            integral = _quad_split(p, spec, 0.0, sk, 2e-14)
        want.append(integral / (V(sk, p, spec) * (sk + p.kappa0) ** (spec.m - 1.0)))
    assert np.allclose(alpha(s, p, spec), want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("name", sorted(TABLE_SPECS))
def test_defect_at_the_root_matches_a_finer_table(name, monkeypatch):
    # at the root the defect is roundoff in int_0^{s_*} |integrand|; a
    # 128-panel table reads the same to within that
    spec = TABLE_SPECS[name]
    p = solve(spec).params
    scale = np.abs(sv._piece_integrals(p, spec, ())[1]).sum()
    ours = boundary_defect(p.kappa0, spec)
    monkeypatch.setattr(sv, "ALPHA_PANELS", 128)
    edges, cum, _ = sv._alpha_tables(p, spec)  # uncached: the cache keeps no 128-panel table
    assert len(edges) == 129
    assert abs(ours - float(cum[-1])) <= 1e-14 * scale


def test_kept_table_answers_alternating_profiles_as_fresh_builds():
    # alpha for three profiles in turn, each time through the cached tables,
    # equals alpha with an empty cache, bit for bit; the second differs
    # from the first in kappa0 alone, as in a tampered solution file
    ref, right = TABLE_SPECS["ref"], TABLE_SPECS["right-blowdown"]
    p = solve(ref).params
    cases = [
        (ref, p),
        (ref, dataclasses.replace(p, kappa0=p.kappa0 * (1.0 + 1e-6))),
        (right, solve(right).params),
    ]
    calls = [(spec, q, np.linspace(0.0, q.s_star, 37)[1:]) for spec, q in cases] * 2
    kept = [alpha(s, q, spec) for spec, q, s in calls]
    fresh = []
    for spec, q, s in calls:
        sv._alpha_table.cache_clear()
        fresh.append(alpha(s, q, spec))
    for a, b in zip(kept, fresh):
        assert np.array_equal(a, b)
    assert not np.array_equal(kept[0], kept[1])


def test_kept_table_is_read_only(ref_spec):
    p = solve(ref_spec).params
    tables = sv._alpha_table(p, ref_spec)
    assert sv._alpha_table(p, ref_spec) is tables
    for table in tables:
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 1.0


@pytest.mark.parametrize("name", ["ref", "blowdown", "three-factor"])
def test_scan_sign_changes_match_adaptive_quadrature(name):
    # the table-based scan against a 64-point scan of the defect by
    # scipy's adaptive quad, split at the integrand's sign change
    spec = TABLE_SPECS[name]
    grid = np.geomspace(1e-3, 1e3, 64)
    defects = np.full(grid.shape, np.nan)
    for k, kappa0 in enumerate(grid):
        p = params_from_kappa0(float(kappa0), spec)
        try:
            require_positive_beta(p, spec)
        except PositivityError:
            continue
        defects[k] = _quad_split(p, spec, 0.0, p.s_star, 1e-12)
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


# ---------------------------------------------------------------------------
# Brent's method and Gauss-Kronrod quadrature against scipy's
# ---------------------------------------------------------------------------

REFERENCE_SPECS = {
    "ref": TABLE_SPECS["ref"],
    "blowdown": TABLE_SPECS["blowdown"],
    "three-factor": TABLE_SPECS["three-factor"],
    "right-blowdown": BundleSpec(
        factors=(FactorSpec(1, 4, 1), FactorSpec(2, 3, 1)), m=3.3, right=BLOWDOWN
    ),
    "both-ends": BundleSpec(
        factors=(FactorSpec(1, 2, 1), FactorSpec(1, 7, 3), FactorSpec(1, 2, 1)),
        m=4.0,
        left=BLOWDOWN,
        right=BLOWDOWN,
    ),
}

# (spec, root_signs): the reference specs, a mixed root choice, and the
# large-m specs whose trial steps overflow
BRENT_CASES = {
    **{name: (spec, None) for name, spec in REFERENCE_SPECS.items()},
    "mixed-signs": (
        BundleSpec(factors=(FactorSpec(1, 8, 3), FactorSpec(4, 3, 2)), m=4.0),
        (+1, -1),
    ),
    "right-blowdown-m64": (
        BundleSpec(factors=(FactorSpec(1, 4, 1), FactorSpec(2, 3, 1)), m=64.0, right=BLOWDOWN),
        None,
    ),
    "right-blowdown-m100": (
        BundleSpec(factors=(FactorSpec(1, 4, 1), FactorSpec(2, 3, 1)), m=100.0, right=BLOWDOWN),
        None,
    ),
    "ref-m100": (BundleSpec(factors=(FactorSpec(2, 3, 1),), m=100.0), None),
}


def _recording(f):
    """f, and the list of the points it is called at."""
    points = []

    def wrapped(x):
        points.append(x)
        return f(x)

    return wrapped, points


@pytest.mark.parametrize("name", sorted(BRENT_CASES))
def test_brentq_port_repeats_scipy_iterates(name):
    # the same f calls and the same root bits as scipy's brentq, warning-free
    spec, root_signs = BRENT_CASES[name]
    cfg = SolverConfig()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        intervals = solve(spec, root_signs=root_signs).all_sign_changes
        for a, b in intervals:
            defect = lambda k0: boundary_defect(k0, spec, root_signs)  # noqa: E731
            ours, ours_at = _recording(defect)
            theirs, theirs_at = _recording(defect)
            root, _ = sv._brentq(ours, a, b, xtol=cfg.root_tol, rtol=4.0 * np.finfo(float).eps)
            want = brentq(theirs, a, b, xtol=cfg.root_tol, rtol=4.0 * np.finfo(float).eps)
            assert root == want
            assert ours_at == theirs_at


BRENT_FUNCTIONS = {
    "cubic": (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    "exp-vs-linear": (lambda x: math.exp(x) - 1e4 * x, 0.0, 1.0),
    "steep-atan": (lambda x: 1e3 * math.atan(x - 0.7), -1.0, 20.0),
    "signed-sqrt": (lambda x: math.copysign(math.sqrt(abs(x - 0.1)), x - 0.1), -1.0, 4.0),
    "x^20": (lambda x: x**20 - 1.0, 0.0, 5.0),
    "cos-vs-cubic": (lambda x: math.cos(x) - x**3, 0.0, 4.0),
    # flat to roundoff around its root: both run out of iterations
    "(x-1)^9": (lambda x: (x - 1.0) ** 9, 0.0, 1.7),
}


@pytest.mark.parametrize("name", sorted(BRENT_FUNCTIONS))
def test_brentq_port_repeats_scipy_iterates_on_textbook_functions(name):
    f, a, b = BRENT_FUNCTIONS[name]
    outcomes = []
    ours = lambda *args, **kwargs: sv._brentq(*args, **kwargs)[0]  # noqa: E731
    for solver in (ours, brentq):
        g, points = _recording(f)
        try:
            outcomes.append((solver(g, a, b, xtol=1e-12, rtol=1e-15), points))
        except RuntimeError:
            outcomes.append(("no convergence", points))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name", sorted(BRENT_FUNCTIONS))
def test_brentq_with_known_end_values_skips_only_those_calls(name):
    # f(a) and f(b) passed in: the same result bits, and the same calls
    # but the two at the ends
    f, a, b = BRENT_FUNCTIONS[name]
    outcomes = []
    for given in ({}, {"fa": f(a), "fb": f(b)}):
        g, points = _recording(f)
        try:
            outcomes.append((sv._brentq(g, a, b, xtol=1e-12, rtol=1e-15, **given), points))
        except RuntimeError as err:
            outcomes.append((str(err), points))
    (plain, plain_at), (known, known_at) = outcomes
    assert known == plain
    assert plain_at[:2] == [a, b]
    assert known_at == plain_at[2:]


@pytest.mark.parametrize("name", ["ref", "blowdown", "three-factor"])
def test_root_polish_calls_the_defect_off_the_scan_grid(name, monkeypatch):
    # Brent's method takes the defects at its interval's ends from the
    # scan, so it evaluates none of the scan's points again
    spec = REFERENCE_SPECS[name]
    calls = []
    defect = sv.boundary_defect

    def counted_defect(*args):
        calls.append(args[0])
        return defect(*args)

    monkeypatch.setattr(sv, "boundary_defect", counted_defect)
    solve(spec)
    assert calls
    assert not set(calls) & set(np.geomspace(1e-3, 1e3, 64).tolist())


def test_brentq_returns_an_exact_zero_at_an_end():
    assert sv._brentq(lambda x: x - 1.0, 1.0, 3.0, xtol=1e-12, rtol=1e-15)[0] == 1.0
    assert sv._brentq(lambda x: x - 3.0, 1.0, 3.0, xtol=1e-12, rtol=1e-15)[0] == 3.0


def test_brentq_rejects_ends_of_one_sign():
    with pytest.raises(ValueError, match="different signs"):
        sv._brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12, rtol=1e-15)


# ---------------------------------------------------------------------------
# The array scan against the scalar defect, row by row
# ---------------------------------------------------------------------------

# (spec, root_signs): the Brent cases, a spec off the validity clause
# whose scan mixes positivity failures with finite rows, and ref at
# m = 150, whose scan has 11 overflowed rows
SCAN_CASES = {
    **BRENT_CASES,
    "positivity-rows": (
        BundleSpec(factors=(FactorSpec(2, 3, 1), FactorSpec(2, 3, 1)), m=3.0, right=BLOWDOWN),
        None,
    ),
    "ref-m150": (BundleSpec(factors=(FactorSpec(2, 3, 1),), m=150.0), None),
}


def _scalar_scan(grid, spec, root_signs=None):
    """boundary_defect at each kappa0 of grid, NaN where it raises, and what it raises."""
    defects, raised = np.full(grid.shape, np.nan), []
    for k, kappa0 in enumerate(grid):
        try:
            defects[k] = boundary_defect(float(kappa0), spec, root_signs)
            raised.append(None)
        except (PositivityError, NonPositiveKappa0Error) as err:
            raised.append((type(err), str(err)))
    return defects, raised


def _assert_scan_is_scalar(grid, spec, root_signs=None, overflows=False):
    defects, checked = sv._defects(grid, spec, root_signs)
    want, raised = _scalar_scan(grid, spec, root_signs)
    assert np.array_equal(defects, want, equal_nan=True)
    assert checked.tolist() == [e is None for e in raised]
    if overflows:
        # an overflowed row passed the checks and reads NaN or -inf, as the scalar call does
        assert np.isnan(defects[~checked]).all()
        assert not np.isfinite(defects[checked]).all()
    else:
        assert np.array_equal(np.isnan(defects), ~checked)
    return raised


@pytest.mark.parametrize("name", sorted(SCAN_CASES))
def test_scan_is_the_scalar_defect_bit_for_bit(name):
    # every row of the one-call scan is the scalar call's value to the bit,
    # and unchecked and NaN exactly where the scalar call raises; at
    # m = 150 the overflowed rows read the same NaN and -inf in both
    spec, root_signs = SCAN_CASES[name]
    grid = np.geomspace(1e-3, 1e3, 64)
    if name == "ref-m150":
        with pytest.warns(RuntimeWarning):
            raised = _assert_scan_is_scalar(grid, spec, root_signs, overflows=True)
        assert raised == [None] * 64
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        raised = _assert_scan_is_scalar(grid, spec, root_signs)
    if name == "positivity-rows":
        assert 0 < sum(e is not None for e in raised) < 64


def test_scan_is_the_scalar_defect_on_a_tiny_bracket(ref_spec):
    # down to kappa0 = 1e-20 every closed form stays exact: no warning,
    # every row passes the checks, and each is the scalar call to the bit
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        raised = _assert_scan_is_scalar(np.geomspace(1e-20, 1e3, 64), ref_spec)
    assert raised == [None] * 64


def test_scan_is_the_scalar_defect_up_to_the_largest_floats(ref_spec):
    # far past the default bracket beta_1(0) cancels to 0 (from kappa0 ~ 1e25)
    # and then overflows to NaN with a RuntimeWarning (from ~1e155): every
    # such row fails the beta check in the scan and in the scalar call alike
    with pytest.warns(RuntimeWarning):
        raised = _assert_scan_is_scalar(np.geomspace(1e-3, 1e300, 64), ref_spec)
    assert 0 < raised.count(None) < 64


@pytest.mark.parametrize(
    "kappa0, at",
    [
        (1e160, "s = inf (kappa0 = 1e+160)"),
        (1e200, "s = inf (kappa0 = 1e+200)"),
        (1e308, "s = inf (kappa0 = 1e+308)"),
        (math.inf, "s = 0 (kappa0 = inf)"),
    ],
)
def test_scalar_defect_at_huge_kappa0_fails_the_beta_check(ref_spec, kappa0, at):
    # A_1 rounds to -0.0 from kappa0 ~ 1e160: the one-profile chain runs on
    # numpy scalars, so q^2/(4 A_1) is -inf with a RuntimeWarning, not a
    # ZeroDivisionError, and the typed error names the NaN beta
    with pytest.warns(RuntimeWarning), pytest.raises(PositivityError) as err:
        boundary_defect(kappa0, ref_spec)
    assert str(err.value) == f"beta_1 = nan is not positive at {at}"
    assert err.value.factor == 1 and math.isnan(err.value.value)


def test_overflowed_scan_rows_are_named_not_called_single_signed():
    # at m = 150 every row passes the checks, and 11 overflow: 10 to NaN,
    # one to -inf. The root lies among them (ROADMAP item 1), so the
    # message names them instead of calling the defect single-signed.
    spec = BundleSpec(factors=(FactorSpec(2, 3, 1),), m=150.0)
    with pytest.warns(RuntimeWarning):
        defects, checked = sv._defects(np.geomspace(1e-3, 1e3, 64), spec)
        with pytest.raises(NoSignChangeError) as err:
            solve(spec)
    assert checked.all()
    assert np.count_nonzero(np.isnan(defects)) == 10 and np.count_nonzero(defects == -np.inf) == 1
    summary = str(err.value).splitlines()[0]
    assert "single-signed" not in summary
    assert summary.startswith(
        "boundary defect overflowed on 11 scan rows, kappa0 in [111.588, 1000]; "
        "its 53 finite rows over [0.001, 1000] show no sign change"
    )


@pytest.mark.parametrize("scan_points", [7, 200])
@pytest.mark.parametrize("name", ["ref", "three-factor", "right-blowdown"])
def test_scan_points_give_the_scalar_sign_changes(name, scan_points):
    # 7 rows are one partial block of the table, 200 rows several
    spec = REFERENCE_SPECS[name]
    grid = np.geomspace(1e-3, 1e3, scan_points)
    _assert_scan_is_scalar(grid, spec)
    defects = _scalar_scan(grid, spec)[0]
    want = tuple(
        (float(grid[k]), float(grid[k + 1]))
        for k in range(scan_points - 1)
        if np.sign(defects[k]) == -np.sign(defects[k + 1]) != 0.0
    )
    assert want
    assert solve(spec, SolverConfig(scan_points=scan_points)).all_sign_changes == want


def test_solve_calls_the_scalar_defect_only_in_the_root_polish(ref_spec, monkeypatch):
    # the scan is one array call, and the defect at the root is the value
    # Brent's method last evaluated there
    calls, polish_calls = [], []
    defect, brentq_port = sv.boundary_defect, sv._brentq

    def counted_defect(*args):
        calls.append(args[0])
        return defect(*args)

    def counted_brentq(f, *args, **kwargs):
        def g(x):
            polish_calls.append(x)
            return f(x)

        return brentq_port(g, *args, **kwargs)

    monkeypatch.setattr(sv, "boundary_defect", counted_defect)
    monkeypatch.setattr(sv, "_brentq", counted_brentq)
    prof = solve(ref_spec)
    assert 0 < len(calls) < 16
    assert calls == polish_calls
    assert prof.params.kappa0 in calls
    assert prof.defect_at_root == defect(prof.params.kappa0, ref_spec)


@pytest.mark.parametrize("name", ["ref", "blow", "three", "right", "both"])
def test_solve_builds_one_table_per_defect_call(name, request, monkeypatch):
    # the 64-point alpha check at the root reads the table that Brent's
    # method built there, so solve builds one one-profile table for each
    # defect call and none more
    spec = request.getfixturevalue(f"{name}_spec")
    builds, calls = [], []
    tables, defect = sv._alpha_tables, sv.boundary_defect

    def counted_tables(params, spec):
        if np.ndim(params.kappa0) == 0:
            builds.append(params.kappa0)
        return tables(params, spec)

    def counted_defect(*args):
        calls.append(args[0])
        return defect(*args)

    monkeypatch.setattr(sv, "_alpha_tables", counted_tables)
    monkeypatch.setattr(sv, "boundary_defect", counted_defect)
    sv._alpha_table.cache_clear()
    solve(spec)
    assert calls
    assert len(builds) == len(calls)


@pytest.mark.parametrize("module, n", [(sv, 16), (geometry, 6)])
def test_written_out_gauss_legendre_rules_are_leggauss(module, n):
    # bit for bit with numpy 2.4; another LAPACK build may move a last bit
    nodes, weights = np.polynomial.legendre.leggauss(n)
    np.testing.assert_array_max_ulp(module._GL_NODES, nodes, maxulp=2)
    np.testing.assert_array_max_ulp(module._GL_WEIGHTS, weights, maxulp=2)


def test_panel_edges_are_linspace_bit_for_bit():
    # the table's edges are written out in linspace's arithmetic: half the
    # panels on either side of the break, which alpha reads back as the
    # middle edge
    rng = np.random.default_rng(5)
    s_star = rng.uniform(1e-3, 1e3, 500)
    brk = s_star * rng.random(500)
    edges = sv._panel_edges(s_star, brk)
    half = sv.ALPHA_PANELS // 2
    for e, s, b in zip(edges, s_star, brk):
        want = np.concatenate([np.linspace(0.0, b, half + 1), np.linspace(b, s, half + 1)[1:]])
        assert np.array_equal(e, want)
        assert e[half] == b
    for s, b in zip(s_star[:20].tolist(), brk[:20].tolist()):
        assert sv._panel_edges(np.float64(s), np.float64(b))[half] == b


@pytest.mark.parametrize("name", sorted(REFERENCE_SPECS))
def test_quad_pieces_match_scipy(name):
    # each single-signed piece the verifier integrates, [0, s_*] cut at
    # the five spot points and at the sign change, against scipy's quad
    # at a tighter tolerance
    spec = REFERENCE_SPECS[name]
    p = solve(spec).params
    x0 = np.sqrt(2.0 * p.E) - p.kappa0
    cuts = p.s_star * np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    ends = sorted([0.0, *cuts, *([x0] if 0.0 < x0 < p.s_star else []), p.s_star])
    want = [
        quad(alpha_integrand, lo, hi, args=(p, spec), epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(ends[:-1], ends[1:])
    ]
    got_ends, got = sv._piece_integrals(p, spec, cuts)
    assert got_ends.tolist() == ends
    assert len(got) == len(want)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)


def test_quad_is_exact_for_degree_22_on_one_interval():
    # the 15-point Kronrod rule integrates polynomials up to degree 22
    poly = np.polynomial.Polynomial(np.random.default_rng(3).uniform(-1.0, 1.0, 23))
    a, b = -0.3, 1.7
    exact = poly.integ()(b) - poly.integ()(a)
    value, _ = sv.quad(poly, a, b, limit=1)
    assert value == pytest.approx(exact, rel=1e-14, abs=1e-14)


def test_quad_meets_relative_tolerance_on_sqrt():
    # an endpoint singularity in the derivative: the interval at 0 is
    # bisected until the summed error estimate meets the tolerance
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.sqrt(x)

    value, abserr = sv.quad(f, 0.0, 1.0, epsabs=0.0, epsrel=1e-10, limit=50)
    assert abs(value - 2.0 / 3.0) <= 1e-10 * 2.0 / 3.0
    assert abserr <= 1e-10 * value
    # one array call for the first rule, then one per bisection
    assert calls[0] == (1, 15) and all(shape == (2, 15) for shape in calls[1:])
    assert len(calls) < 50
