"""Arc-length reconstruction t(s) of the metric profile."""

import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

import oracles as orc
from qebundle import (
    BundleSpec,
    FactorSpec,
    PositivityError,
    SolvedProfile,
    alpha,
    reconstruct_t,
    solve,
)
from qebundle import geometry
from qebundle.closedform import beta, params_from_kappa0, phi


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


@pytest.fixture(scope="module")
def high_m_spec():
    """Factors (3, 4, -3) + (3, 5, 2) at m = 27.94, a spec of the benchmark's family."""
    return BundleSpec(factors=(FactorSpec(3, 4, -3), FactorSpec(3, 5, 2)), m=27.938276618071598)


@pytest.fixture(scope="module")
def high_m_profile(high_m_spec):
    return solve(high_m_spec)


@pytest.mark.parametrize("name", ["ref", "blow", "three", "right", "both", "high_m"])
def test_six_node_t_agrees_with_finer_rules(name, request, monkeypatch):
    # 6 nodes per segment against 12 and 48: on the benchmark's spec
    # family the 12- and 48-node rules differ by up to 1e-9 t(s_*) in the
    # last segment, where the defect left over at the root sets the
    # error; 6 nodes stay far inside that, also with both ends blown
    # down and at large m
    spec = request.getfixturevalue(f"{name}_spec")
    p = request.getfixturevalue(f"{name}_profile").params
    t6 = reconstruct_t(p, spec).t
    finer = {}
    for nodes in (12, 48):
        rule = np.polynomial.legendre.leggauss(nodes)
        monkeypatch.setattr(geometry, "_GL_NODES", rule[0])
        monkeypatch.setattr(geometry, "_GL_WEIGHTS", rule[1])
        finer[nodes] = reconstruct_t(p, spec).t
    t_end = finer[48][-1]
    assert np.max(np.abs(t6 - finer[48])) <= 2e-9 * t_end
    assert np.max(np.abs(t6 - finer[12])) <= 1e-10 * t_end


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
    with pytest.raises(PositivityError) as err:
        reconstruct_t(p, ref_spec, grid_size=129)
    assert err.value.factor is None  # alpha, not a beta


def test_reconstruct_checks_alpha_at_sstar_against_the_tolerance(ref_profile, ref_spec):
    # just below the root alpha(s_*) < 0 while the interior stays
    # positive: within 1e-8 max(1, max |alpha|) it is clamped to 0,
    # beyond it the endpoint itself is the offender
    k0 = ref_profile.params.kappa0
    near = params_from_kappa0(k0 * (1.0 - 1e-9), ref_spec)
    assert alpha(near.s_star, near, ref_spec) < 0.0
    assert reconstruct_t(near, ref_spec, grid_size=129).f[-1] == 0.0
    p = params_from_kappa0(k0 * (1.0 - 1e-6), ref_spec)
    with pytest.raises(PositivityError) as err:
        reconstruct_t(p, ref_spec, grid_size=129)
    assert err.value.factor is None
    assert err.value.s == p.s_star
    assert err.value.value < -1e-8


def test_reconstruct_names_the_negative_beta(ref_profile, ref_spec):
    # with n = 2, negating A leaves V and alpha alone but makes beta_1 < 0
    p = ref_profile.params
    broken = dataclasses.replace(p, A=tuple(-a for a in p.A))
    with pytest.raises(PositivityError, match=r"beta_1\(0\) = ") as err:
        reconstruct_t(broken, ref_spec, grid_size=65)
    assert err.value.factor == 1
    assert err.value.s == 0.0
    assert err.value.value < 0.0
