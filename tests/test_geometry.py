"""Arc-length reconstruction t(s) and the t-coordinate spot check."""

import numpy as np
import pytest
from scipy.integrate import quad

import oracles as orc
from qebundle import (
    NonPositiveAlphaError,
    SolvedProfile,
    alpha,
    dsdt_consistency,
    reconstruct_t,
    verify_t_system,
)
from qebundle.closedform import beta, params_from_kappa0, phi
from qebundle.solver import boundary_defect
from qebundle.verifier import TOL_T_SYSTEM


@pytest.fixture(scope="module")
def ref_metric(ref_profile, ref_spec):
    return reconstruct_t(ref_profile.params, ref_spec, grid_size=513)


def test_t_grid_is_monotone_from_zero(ref_metric):
    assert ref_metric.t[0] == 0.0
    assert np.all(np.diff(ref_metric.t) > 0.0)
    assert ref_metric.total_length_l == ref_metric.t[-1]


def test_profile_functions_are_consistent(ref_metric, ref_profile, ref_spec):
    p = ref_profile.params
    k = len(ref_metric.s) // 3
    s = ref_metric.s[k]
    assert ref_metric.f[k] == pytest.approx(
        np.sqrt(alpha(s, p, ref_spec)), rel=1e-12
    )
    assert ref_metric.g[k, 0] == pytest.approx(
        np.sqrt(beta(s, p, ref_spec)[0]), rel=1e-12
    )
    assert ref_metric.v[k] == pytest.approx(phi(s, p), rel=1e-15)
    assert ref_metric.u[k] == pytest.approx(-2.0 * np.log(ref_metric.v[k]), rel=1e-14)


def test_fiber_size_vanishes_at_both_ends(ref_metric):
    assert ref_metric.f[0] == 0.0
    assert abs(ref_metric.f[-1]) < 1e-5  # sqrt of the near-zero defect


def test_total_length_matches_independent_integration(ref_profile, ref_spec):
    # t(s_*) = int_0^{s_*} alpha^{-1/2} ds, computed here with the
    # w = sqrt(s) substitution on each half so the integrable endpoint
    # singularities disappear; alpha itself via the Simpson oracle
    p = ref_profile.params
    k0, s_star = p.kappa0, p.s_star

    def a(s):
        return orc.oracle_alpha(float(s), orc.REF_FACTORS, 2.0, k0, nodes=2049)

    half = 0.5 * s_star
    left, _ = quad(lambda w: 2.0 * w / np.sqrt(a(w * w)), 0.0, np.sqrt(half), limit=200)
    right, _ = quad(
        lambda w: 2.0 * w / np.sqrt(a(s_star - w * w)), 0.0, np.sqrt(half), limit=200
    )
    mp = reconstruct_t(p, ref_spec, grid_size=513)
    assert mp.total_length_l == pytest.approx(left + right, rel=1e-6)


def test_t_starts_like_sqrt_2s(ref_profile, ref_spec):
    # alpha ~ 2s at the left collapse, so t ~ sqrt(2 s): check the
    # short-segment integral against that local model
    p = ref_profile.params
    s1 = 1e-8

    def a(s):
        return alpha(float(s), p, ref_spec)

    t1, _ = quad(lambda w: 2.0 * w / np.sqrt(a(w * w)), 0.0, np.sqrt(s1))
    assert t1 / np.sqrt(2.0 * s1) == pytest.approx(1.0, abs=1e-2)


def test_blowdown_reconstruction(blow_profile, blow_spec):
    mp = reconstruct_t(blow_profile.params, blow_spec, grid_size=257)
    assert np.all(np.diff(mp.t) > 0.0)
    assert np.isfinite(mp.total_length_l)
    # the collapsing factor's size vanishes at the left end
    assert mp.g[0, 0] == 0.0


def test_reconstruct_rejects_non_root_profile(ref_spec):
    # away from the root, alpha(s_*) != 0 and alpha goes negative
    # before the right end: no metric, loud failure
    p = params_from_kappa0(2.0, ref_spec)
    with pytest.raises(NonPositiveAlphaError):
        reconstruct_t(p, ref_spec, grid_size=129)


def test_t_system_residual_small_on_reference(ref_profile, ref_spec):
    assert verify_t_system(ref_profile.params, ref_spec) < TOL_T_SYSTEM


def test_dsdt_matches_f(ref_profile, ref_spec):
    assert dsdt_consistency(ref_profile.params, ref_spec) < 1e-6
