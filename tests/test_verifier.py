"""Residual definitions and the certification report."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import oracles as orc
from qebundle import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    PositivityError,
    SolutionParams,
    SolvedProfile,
    ansatz_residual,
    chebyshev_grid,
    mu_of_s,
    residual_25,
    residual_26,
    residual_27,
    sample_at,
    solve,
    verify,
)
from qebundle import closedform as cf
from qebundle import solver
from qebundle.closedform import beta_jet, params_from_kappa0
from qebundle.solver import boundary_defect


# ---------------------------------------------------------------------------
# Residual algebra
# ---------------------------------------------------------------------------


def test_residuals_vanish_on_solved_profile(ref_profile, ref_spec):
    # with alpha' and alpha'' taken from the first-order form, the two
    # second-order residuals are algebraic identities: machine zero
    p = ref_profile.params
    for s in np.linspace(0.2, 3.8, 9):
        smp = sample_at(s, p, ref_spec)
        assert abs(residual_25(smp, ref_spec)) < 1e-10
        assert abs(residual_26(smp, ref_spec)) < 1e-10
        assert abs(residual_27(smp, ref_spec)[0]) < 1e-10


def test_residual_difference_is_weighted_ansatz(ref_profile, ref_spec):
    # res_I - res_II = alpha * sum_i n_i * ansatz_i exactly
    p = ref_profile.params
    for s in (0.4, 1.9, 3.3):
        smp = sample_at(s, p, ref_spec)
        diff = residual_25(smp, ref_spec) - residual_26(smp, ref_spec)
        weighted = smp.alpha * sum(
            fac.n * ansatz_residual(smp, ref_spec)[i]
            for i, fac in enumerate(ref_spec.factors)
        )
        assert diff == pytest.approx(weighted, abs=1e-14)


def test_residual_25_sees_alpha_prime_perturbation(ref_profile, ref_spec):
    # the residual is affine in alpha' with slope (log V)'/2 + m/(2x);
    # a perturbation h must move it by exactly h times that slope, far
    # above the 1e-8 residual tolerance, so corrupted slopes cannot
    # certify
    p = ref_profile.params
    s, h = 3.7, 1e-3
    smp = sample_at(s, p, ref_spec)
    bumped = dataclasses.replace(smp, alpha_prime=smp.alpha_prime + h)
    shift = residual_25(bumped, ref_spec) - residual_25(smp, ref_spec)
    slope = 0.5 * smp.logV_prime + ref_spec.m / (2.0 * smp.phi)
    assert shift == pytest.approx(h * slope, rel=1e-9)
    assert abs(shift) > 1e-5
    assert abs(residual_25(bumped, ref_spec)) > 1e-8


def test_residual_27_reduces_to_left_quadratic_at_zero(ref_profile, ref_spec):
    # at s = 0 the equation collapses to (beta'(0) - p)/beta(0) = eps/2,
    # which is the left endpoint quadratic in disguise
    p = ref_profile.params
    b, bp, _ = beta_jet(0.0, p, ref_spec)
    assert (bp[0] - 3.0) / b[0] == pytest.approx(-0.5, abs=1e-12)


def test_mu_samples_equal_E(ref_profile, ref_spec):
    p = ref_profile.params
    for s in (0.6, 2.0, 3.4):
        smp = sample_at(s, p, ref_spec)
        assert mu_of_s(smp, ref_spec) == pytest.approx(p.E, rel=1e-10)


def test_residuals_invariant_under_twisting_sign(ref_profile, ref_spec):
    spec_neg = BundleSpec(factors=(FactorSpec(2, 3, -1),), m=2.0)
    p = ref_profile.params
    for s in (0.9, 2.2):
        r_pos = residual_26(sample_at(s, p, ref_spec), ref_spec)
        r_neg = residual_26(sample_at(s, p, spec_neg), spec_neg)
        assert r_pos == r_neg


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


def test_chebyshev_grid_contract():
    g = chebyshev_grid(0.1, 3.9, 33)
    assert g.shape == (33,)
    assert np.all(np.diff(g) > 0.0)
    assert g[0] >= 0.1 and g[-1] <= 3.9
    # Chebyshev points cluster toward the ends
    assert (g[1] - g[0]) < (g[17] - g[16])


# ---------------------------------------------------------------------------
# verify report
# ---------------------------------------------------------------------------


def test_reference_profile_certifies(ref_report):
    assert ref_report.certified
    assert ref_report.positivity_ok
    assert all(c["passed"] for c in ref_report.checks.values())


def test_blowdown_profile_certifies(blow_report):
    assert blow_report.certified
    # exact blowdown boundary conditions are part of the checks
    assert blow_report.checks["beta_left_at_0"]["value"] == 0.0
    assert blow_report.checks["beta_left_slope_minus_1"]["value"] == 0.0


def test_right_blowdown_profile_certifies(right_profile, right_spec):
    report = verify(right_profile, right_spec, grid_size=201)
    assert report.certified
    assert report.checks["beta_right_at_sstar"]["passed"]


def test_both_blowdowns_profile_certifies(both_profile, both_spec):
    # beyond the source construction, which blows down at most one end:
    # both blown-down ends certify here all the same
    report = verify(both_profile, both_spec, grid_size=201)
    assert report.certified
    assert report.checks["beta_left_at_0"]["passed"]
    assert report.checks["beta_right_at_sstar"]["passed"]


def test_report_residual_levels(ref_report):
    assert ref_report.checks["res25_max"]["value"] < 1e-10
    assert ref_report.checks["res26_max"]["value"] < 1e-10
    assert ref_report.checks["res27_max"]["value"] < 1e-10
    assert ref_report.checks["mu_dev"]["value"] < 1e-10
    assert ref_report.checks["ansatz_max"]["value"] < 1e-12
    assert ref_report.fd_check < 1e-6


def _verifier_grid(profile, grid_size):
    """The grid verify() samples at its default margin, from the public function."""
    s_star = profile.params.s_star
    delta = 1e-3 * s_star
    return chebyshev_grid(delta, s_star - delta, grid_size)


def test_report_grid_respects_margins(ref_profile):
    s_star = ref_profile.params.s_star
    delta = 1e-3 * s_star
    grid = _verifier_grid(ref_profile, 201)
    assert grid[0] >= delta
    assert grid[-1] <= s_star - delta
    assert len(grid) == 201


# the checks taken over a point set; every other check is at fixed ends
POINT_SET_CHECKS = (
    "res25_max",
    "res26_max",
    "res27_max",
    "mu_dev",
    "ansatz_max",
    "fd_check",
    "alpha_quad_spot",
)


@pytest.mark.parametrize("name", ["ref", "blow", "right", "both"])
def test_report_margin_is_value_over_tol(request, name):
    spec, profile = (request.getfixturevalue(f"{name}_{part}") for part in ("spec", "profile"))
    report = verify(profile, spec, grid_size=64)
    for check, c in report.checks.items():
        if c["tol"] > 0.0 and check != "positivity":
            assert c["margin"] == abs(c["value"]) / c["tol"], check
        else:
            assert c["margin"] is None, check
    assert report.checks["alpha_at_0"]["margin"] is None  # tol 0


@pytest.mark.parametrize("name", ["ref", "blow", "right", "both"])
def test_report_worst_s_is_where_each_maximum_occurs(request, name):
    spec, profile = (request.getfixturevalue(f"{name}_{part}") for part in ("spec", "profile"))
    p = profile.params
    report = verify(profile, spec, grid_size=64)
    grid = _verifier_grid(profile, 64)
    smp = sample_at(grid, p, spec)
    b, bp, bpp = smp.beta, smp.beta_prime, smp.beta_second
    q = np.array([f.q for f in spec.factors], dtype=float)[:, None]
    scale = np.maximum(np.maximum(np.abs(bpp / b), 0.5 * (bp / b) ** 2), q**2 / (2.0 * b * b))
    on_grid = {
        "res25_max": np.abs(residual_25(smp, spec)),
        "res26_max": np.abs(residual_26(smp, spec)),
        "res27_max": np.max(np.abs(residual_27(smp, spec)), axis=0),
        "mu_dev": np.abs(mu_of_s(smp, spec) - p.E),
        "ansatz_max": np.max(np.abs(ansatz_residual(smp, spec)) / scale, axis=0),
    }
    for check, per_point in on_grid.items():
        assert report.checks[check]["worst_s"] == grid[np.argmax(per_point)], check
    fd_points = np.linspace(0.1 * p.s_star, 0.9 * p.s_star, 10)
    assert report.checks["fd_check"]["worst_s"] in fd_points
    spots = p.s_star * np.array([0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99])
    assert report.checks["alpha_quad_spot"]["worst_s"] in spots
    delta = 1e-3 * p.s_star
    for check, c in report.checks.items():
        if check in POINT_SET_CHECKS:
            assert delta <= c["worst_s"] <= p.s_star - delta, check
        else:
            assert c["worst_s"] is None, check


def test_report_boundary_block(ref_report):
    b = ref_report.boundary
    assert abs(b["alpha_at_0"]) == 0.0
    assert abs(b["slope_at_0_minus_2"]) < 1e-6
    assert abs(b["slope_at_sstar_plus_2"]) < 1e-6


def test_verify_rejects_bad_grid(ref_profile, ref_spec):
    with pytest.raises(ValueError):
        verify(ref_profile, ref_spec, grid_size=8)
    with pytest.raises(ValueError):
        verify(ref_profile, ref_spec, delta_frac=0.5)


def test_wrong_root_profile_fails_positivity(ref_profile, ref_spec):
    # the positive-root coefficient admits no defect root, so a profile
    # assembled from it has alpha < 0 near s_*: reported, not raised
    k0 = ref_profile.params.kappa0
    p_bad = params_from_kappa0(k0, ref_spec, root_signs=(+1,))
    prof_bad = SolvedProfile(
        params=p_bad,
        defect_at_root=boundary_defect(k0, ref_spec, root_signs=(+1,)),
        bracket_used=(1e-3, 1e3),
        all_sign_changes=(),
        roots=(k0,),
    )
    report = verify(prof_bad, ref_spec, grid_size=64)
    assert not report.certified
    assert not report.positivity_ok
    assert report.positivity_violation["value"] <= 0.0
    assert report.positivity_violation["factor"] is None  # alpha, not a beta
    assert report.checks["positivity"]["worst_s"] == report.positivity_violation["s"]


def test_nan_alpha_fails_positivity(ref_profile, ref_spec, monkeypatch):
    # NaN is not positive: the first grid point is recorded as the offender
    alpha = solver.alpha
    monkeypatch.setattr(solver, "alpha", lambda s, p, spec: alpha(s, p, spec) * np.nan)
    report = verify(ref_profile, ref_spec, grid_size=64)
    assert not report.positivity_ok
    assert not report.checks["positivity"]["passed"]
    assert report.positivity_violation["factor"] is None
    first = _verifier_grid(ref_profile, 64)[0]
    assert report.positivity_violation["s"] == first
    assert report.checks["positivity"]["worst_s"] == first
    assert np.isnan(report.positivity_violation["value"])


def test_broken_beta_raises_positivity_error(ref_profile, ref_spec):
    p = ref_profile.params
    broken = SolutionParams(kappa0=p.kappa0, E=p.E, s_star=p.s_star, A=(1e-4,))
    prof = SolvedProfile(
        params=broken,
        defect_at_root=0.0,
        bracket_used=(1e-3, 1e3),
        all_sign_changes=(),
        roots=(),
    )
    with pytest.raises(PositivityError) as err:
        verify(prof, ref_spec, grid_size=64)
    assert err.value.factor == 1


def test_non_root_profile_fails_certification(ref_spec):
    # kappa0 off the root: closed forms are fine but the right boundary
    # condition cannot hold
    p = params_from_kappa0(5.0, ref_spec)
    prof = SolvedProfile(
        params=p,
        defect_at_root=boundary_defect(5.0, ref_spec),
        bracket_used=(1e-3, 1e3),
        all_sign_changes=(),
        roots=(5.0,),
    )
    report = verify(prof, ref_spec, grid_size=64)
    assert not report.certified
    assert not report.checks["defect_at_root"]["passed"]


def test_certified_is_conjunction_of_checks(ref_report):
    assert ref_report.certified == all(c["passed"] for c in ref_report.checks.values())


@pytest.mark.parametrize("name", ["ref", "right"])
def test_corrupted_alpha_table_fails_the_quad_spot_check(name, request, monkeypatch):
    # alpha' and alpha'' come from the ODE, not from the table, so the
    # residual checks alone cannot see a table that is slightly off; the
    # adaptive-quadrature spot check must, also where a right blowdown
    # anchors alpha on the tail sums
    spec = request.getfixturevalue(f"{name}_spec")
    profile = request.getfixturevalue(f"{name}_profile")
    # uncorrupted it passes, and its own table is cached (see solver._alpha_table)
    assert verify(profile, spec, grid_size=65).checks["alpha_quad_spot"]["passed"]
    build = solver._alpha_table

    def corrupted(params, spec):
        edges, cum, tail = build(params, spec)
        return edges, cum * (1.0 + 1e-6), tail * (1.0 + 1e-6)

    monkeypatch.setattr(solver, "_alpha_table", corrupted)
    report = verify(profile, spec, grid_size=65)
    assert not report.checks["alpha_quad_spot"]["passed"]
    assert not report.certified


def test_tail_spots_see_a_table_broken_next_to_a_right_blowdown(
    right_profile, right_spec, monkeypatch
):
    # only the tail sum from the last interior edge (edges[-2]) is off: it
    # is the integral over the panel next to the blown-down end, and every
    # spot past the sign change in the panel before that one reads its
    # alpha from it (at 8 panels the spot at 0.7 s_*, at 32 the one at 0.95 s_*)
    assert verify(right_profile, right_spec, grid_size=65).checks["alpha_quad_spot"]["passed"]
    build = solver._alpha_table

    def corrupted(params, spec):
        edges, cum, tail = build(params, spec)
        last = np.arange(edges.size) == edges.size - 2
        return edges, cum, np.where(last, tail * (1.0 + 1e-6), tail)

    monkeypatch.setattr(solver, "_alpha_table", corrupted)
    report = verify(right_profile, right_spec, grid_size=65)
    assert not report.checks["alpha_quad_spot"]["passed"]
    assert not report.certified


@pytest.mark.parametrize(
    "factors, m",
    [
        (((13, 13, 1), (6, 7, 1)), 5.051904464491117),
        (((9, 22, 1), (18, 19, -1)), 22.69333405583672),
    ],
)
def test_spots_past_the_break_take_the_tail_under_a_right_blowdown(factors, m):
    # alpha anchors at s_* from the integrand's break on, so a spot
    # between the break and 0.9 s_* is referenced by minus the pieces up
    # to s_* too: the forward sum from 0 there carries D / (V x^(m-1)),
    # which read 3.0 and 1.6e14 of the tolerance on these two specs
    spec = BundleSpec(
        factors=tuple(FactorSpec(*f) for f in factors), m=m, right=EndpointType.BLOWDOWN
    )
    profile = solve(spec)
    assert solver._integral_break(profile.params, spec) < 0.9 * profile.params.s_star
    report = verify(profile, spec)
    check = report.checks["alpha_quad_spot"]
    assert check["value"] < 1e-5 * check["tol"]
    assert report.certified


@pytest.mark.parametrize("name", ["ref", "blow", "right"])
def test_verify_takes_the_fd_log_v_from_the_sampled_betas(name, request, monkeypatch):
    # fd_check differences sum_i n_i log beta_i of the (3, 10) stencil's
    # betas, which sample_at has checked: V itself, which can overflow,
    # is never formed there
    spec = request.getfixturevalue(f"{name}_spec")
    profile = request.getfixturevalue(f"{name}_profile")
    shapes, V = [], cf.V

    def recorded_V(s, params, spec):
        shapes.append(np.shape(s))
        return V(s, params, spec)

    monkeypatch.setattr(cf, "V", recorded_V)
    report = verify(profile, spec, grid_size=65)
    assert report.certified and report.checks["fd_check"]["passed"]
    assert shapes and (3, 10) not in shapes


@pytest.mark.parametrize("name", ["ref", "right"])
def test_verify_integrates_each_piece_once(name, request, monkeypatch):
    # one pass over [0, s_*], cut at the spot points and at the sign
    # change, serves the defect and every spot reference
    spec = request.getfixturevalue(f"{name}_spec")
    profile = request.getfixturevalue(f"{name}_profile")
    passes, quad_calls = [], []
    piece_integrals, solver_quad = solver._piece_integrals, solver.quad

    def recorded_pass(*args):
        passes.append(piece_integrals(*args))
        return passes[-1]

    def counted_quad(*args, **kwargs):
        quad_calls.append(args[1:3])
        return solver_quad(*args, **kwargs)

    monkeypatch.setattr(solver, "_piece_integrals", recorded_pass)
    monkeypatch.setattr(solver, "quad", counted_quad)
    assert verify(profile, spec, grid_size=65).certified
    assert len(passes) == 1
    ends, pieces = passes[0]
    assert len(quad_calls) == len(pieces) == len(ends) - 1
    assert quad_calls == list(zip(ends[:-1], ends[1:]))
    p = profile.params
    spots = p.s_star * np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    assert np.isin(spots, ends).all()
    if name == "right":
        # the tail references next to the blown-down end, minus the
        # pieces from s to s_*, against scipy's quad over [s, s_*]
        for s in p.s_star * np.array([0.95, 0.99]):
            got = -np.sum(pieces[np.searchsorted(ends, s) :])
            want = -quad(
                solver.alpha_integrand, s, p.s_star, args=(p, spec), epsabs=0.0, epsrel=1e-13
            )[0]
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
