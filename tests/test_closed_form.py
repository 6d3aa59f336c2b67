"""Closed-form layer: endpoint quadratic, coefficients, profile pieces."""

import dataclasses
import decimal
import math

import numpy as np
import pytest

import oracles as orc
from qebundle import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    NegativeDiscriminantError,
    NonPositiveKappa0Error,
    PositivityError,
    beta,
    beta_jet,
    coefficients_A,
    endpoint_quadratic_roots,
    energy_from_kappa0,
    params_from_kappa0,
    phi,
    sample_at,
    V,
)
from qebundle.closedform import require_positive_beta

COLLAPSE = EndpointType.SMOOTH_COLLAPSE
BLOWDOWN = EndpointType.BLOWDOWN


# ---------------------------------------------------------------------------
# Endpoint quadratic 1/2 x^2 + 2(n_end + 1) x - E
# ---------------------------------------------------------------------------


def quadratic_residual(x, E, n_end):
    return 0.5 * x * x + 2.0 * (n_end + 1) * x - E


def test_quadratic_roots_zero_energy():
    roots = endpoint_quadratic_roots(0.0, 0)
    assert roots.small == -4.0 and roots.large == 0.0


def test_quadratic_roots_collapse_example():
    roots = endpoint_quadratic_roots(6.0, 0)
    assert roots.small == pytest.approx(-6.0, abs=1e-12)
    assert roots.large == pytest.approx(2.0, abs=1e-12)


def test_quadratic_roots_satisfy_quadratic():
    for E in (0.1, 1.0, 6.0, 123.0):
        for n_end in (0, 1, 2, 5):
            roots = endpoint_quadratic_roots(E, n_end)
            assert abs(quadratic_residual(roots.small, E, n_end)) < 1e-12 * max(1.0, E)
            assert abs(quadratic_residual(roots.large, E, n_end)) < 1e-12 * max(1.0, E)
            assert roots.small < roots.large


def test_quadratic_negative_discriminant():
    # discriminant 4(n_end+1)^2 + 2E goes negative for E < -2(n_end+1)^2
    with pytest.raises(NegativeDiscriminantError):
        endpoint_quadratic_roots(-10.0, 0)


def test_energy_round_trip():
    # E(kappa0) inverts back through the large root of the left quadratic
    for kappa0 in (0.5, 2.0, 5.0):
        for n_left in (0, 1, 2):
            E = energy_from_kappa0(kappa0, n_left)
            assert endpoint_quadratic_roots(E, n_left).large == pytest.approx(
                kappa0, abs=1e-12
            )


def test_blowdown_energy_example():
    # kappa0 = 2 under a left blowdown with n_1 = 1: E = 2 + 8 = 10
    assert energy_from_kappa0(2.0, 1) == pytest.approx(10.0, abs=1e-14)


# ---------------------------------------------------------------------------
# s_* from kappa0
# ---------------------------------------------------------------------------


def make(factors, m=2.0, left=COLLAPSE, right=COLLAPSE):
    return BundleSpec(factors=tuple(FactorSpec(*f) for f in factors), m=m, left=left, right=right)


def test_interval_length_is_four_without_blowdowns():
    spec = make([(2, 3, 1)])
    for kappa0 in (0.1, 1.0, 10.0, 100.0):
        p = params_from_kappa0(kappa0, spec)
        assert abs(p.s_star - 4.0) < 1e-12
        # both interval ends are roots of their endpoint quadratics
        assert abs(quadratic_residual(p.kappa0, p.E, 0)) < 1e-12 * max(1.0, p.E)
        assert abs(quadratic_residual(-(p.s_star + p.kappa0), p.E, 0)) < 1e-12 * max(1.0, p.E)


def test_interval_length_left_blowdown_example():
    # kappa0 = 2, n_1 = 1, collapse on the right: Hall's interval formula
    # s_* = sqrt(kappa0 (4(n_1+1) + kappa0) + 4(n_r+1)^2) - kappa0 + 2(n_r+1) = sqrt(24)
    spec = make([(1, 2, 1), (1, 3, 1)], left=BLOWDOWN)
    p = params_from_kappa0(2.0, spec)
    assert p.E == energy_from_kappa0(2.0, 1)
    assert p.s_star == pytest.approx(np.sqrt(24.0), abs=1e-12)


def test_interval_length_both_blowdowns_same_dimension():
    # n_1 = n_r = n makes the radicand a perfect square: s_* = 4(n + 1)
    # for every kappa0
    for n in (1, 2, 3):
        spec = make(
            [(n, n + 1, 1), (1, 2 * (n + 1), 1), (n, n + 1, 1)],
            left=BLOWDOWN,
            right=BLOWDOWN,
        )
        for kappa0 in (0.5, 2.0, 5.0):
            s_star = params_from_kappa0(kappa0, spec).s_star
            assert s_star == pytest.approx(4.0 * (n + 1), abs=1e-10)


def _scalar_message(call, x):
    with pytest.raises(NonPositiveKappa0Error) as err:
        call(x)
    return str(err.value)


@pytest.mark.parametrize("spec_name", ["ref_spec", "blow_spec", "right_spec", "both_spec"])
def test_params_on_a_kappa0_column_are_the_scalar_calls_bit_for_bit(request, spec_name):
    # a (K, 1) column of kappa0 rows is only a shape: every field of each
    # row is the scalar call's value to the bit, and an array with rows that
    # have no positive left root raises the first one's scalar error
    spec = request.getfixturevalue(spec_name)
    kappa0 = np.geomspace(1e-3, 1e3, 64)
    rows = params_from_kappa0(kappa0[:, None], spec)
    scalar = [params_from_kappa0(float(k0), spec) for k0 in kappa0]
    want = np.array([[p.kappa0, p.E, p.s_star, *p.A] for p in scalar])
    got = np.hstack([rows.kappa0, rows.E, rows.s_star, *rows.A])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()

    bad = np.array([1.0, 1e-20, -0.5, 2.0])  # -0.5 is the first that is not positive
    with pytest.raises(NonPositiveKappa0Error) as err:
        params_from_kappa0(bad[:, None], spec)
    assert str(err.value) == _scalar_message(lambda k0: params_from_kappa0(k0, spec), -0.5)


@pytest.mark.parametrize("spec_name", ["ref_spec", "blow_spec", "right_spec", "both_spec"])
def test_params_reject_a_kappa0_that_is_not_positive(request, spec_name):
    # kappa0 is the input: it is checked as given, never recovered from E,
    # as a scalar and as any entry of a column, with the scalar's message
    spec = request.getfixturevalue(spec_name)
    for k0 in (0.0, -0.5, -4.0 * (spec.n_left + 1), -100.0, np.nan):
        with pytest.raises(NonPositiveKappa0Error) as err:
            params_from_kappa0(k0, spec)
        message = str(err.value)
        assert "not positive" in message
        column = np.array([[2.0], [k0], [-1.0]])
        with pytest.raises(NonPositiveKappa0Error) as err:
            params_from_kappa0(column, spec)
        assert str(err.value) == message


def _decimal_roots(E, n_end, p, q):
    """The large endpoint root and the default A-root at E, by their textbook forms in decimal.

    Both forms cancel, -b + sqrt(b^2 + 2E) and (p - sqrt(p^2 + E q^2/2)) / (2E)
    with eps = -1, so the precision covers the digits that cancel.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 80 + 2 * abs(int(math.log10(E)))
        E = decimal.Decimal(E)
        b = decimal.Decimal(2 * (n_end + 1))
        large = -b + (b * b + 2 * E).sqrt()
        a = (p - (p * p + E * q * q / 2).sqrt()) / (2 * E)
    return float(large), float(a)


def test_large_root_and_default_a_root_are_exact_over_every_scale():
    # neither closed form cancels: within 4 ulp of a decimal reference for
    # E from 1e-300 to 1e300 (the cancelling forms were off by 100% at 1e-300)
    spec = make([(2, 3, 1), (1, 8, 3)])
    for E in np.geomspace(1e-300, 1e300, 61):
        for n_end in (0, 1, 3):
            want, _ = _decimal_roots(E, n_end, 3, 1)
            got = endpoint_quadratic_roots(E, n_end).large
            assert abs(got - want) <= 4 * math.ulp(want), (E, n_end)
        A = coefficients_A(E, 1.0, 4.0, spec)
        for a, fac in zip(A, spec.factors):
            _, want = _decimal_roots(E, 0, fac.p, fac.q)
            assert abs(a - want) <= 4 * math.ulp(want), (E, fac)


# ---------------------------------------------------------------------------
# Quadratic coefficients A_i
# ---------------------------------------------------------------------------


def test_left_blowdown_coefficient_is_half_inverse_kappa0():
    spec = make([(1, 2, 1), (1, 3, 1)], left=BLOWDOWN)
    A = params_from_kappa0(2.0, spec).A
    assert A[0] == pytest.approx(1.0 / (2.0 * 2.0), abs=1e-14)


def test_right_blowdown_coefficient_is_minus_half_inverse_sigma():
    spec = make([(1, 3, 1), (1, 2, 1)], right=BLOWDOWN)
    p = params_from_kappa0(2.0, spec)  # E = 6
    assert p.A[-1] == pytest.approx(-1.0 / (2.0 * (p.s_star + p.kappa0)), abs=1e-14)


def test_interior_coefficient_solves_energy_identity():
    # E = (8 A p - eps q^2) / (8 A^2) must hold for the returned A,
    # whichever root is taken
    spec = make([(2, 3, 1)])
    p = params_from_kappa0(2.0, spec)  # E = 6
    for signs in ((-1,), (+1,)):
        (a,) = coefficients_A(p.E, p.kappa0, p.s_star, spec, root_signs=signs)
        assert (8.0 * a * 3 + 1) / (8.0 * a * a) == pytest.approx(p.E, rel=1e-12)


def test_interior_root_pair_signs():
    # the two roots have product eps q^2 / (8E) < 0: one of each sign
    spec = make([(2, 3, 1)])
    p = params_from_kappa0(2.0, spec)  # E = 6
    (neg,) = coefficients_A(p.E, p.kappa0, p.s_star, spec, root_signs=(-1,))
    (pos,) = coefficients_A(p.E, p.kappa0, p.s_star, spec, root_signs=(+1,))
    assert neg < 0.0 < pos
    assert neg * pos == pytest.approx(-1.0 / (8.0 * p.E), rel=1e-12)


def test_positive_root_example():
    spec = make([(1, 3, 1)])
    p = params_from_kappa0(2.0, spec)  # E = 6
    (a,) = coefficients_A(p.E, p.kappa0, p.s_star, spec, root_signs=(+1,))
    assert a == pytest.approx((3.0 + np.sqrt(9.0 + 3.0)) / 12.0, abs=1e-14)


def test_default_interior_root_matches_oracle(ref_profile):
    E, s_star, A = orc.oracle_params(orc.REF_FACTORS, ref_profile.params.kappa0)
    assert ref_profile.params.A[0] == pytest.approx(A[0], rel=1e-14)


def test_root_signs_length_checked():
    spec = make([(2, 3, 1)])
    with pytest.raises(ValueError):
        coefficients_A(6.0, 2.0, 4.0, spec, root_signs=(-1, -1))


# ---------------------------------------------------------------------------
# Profile pieces: beta, phi, V
# ---------------------------------------------------------------------------


def test_beta_is_the_declared_quadratic(ref_profile, ref_spec):
    p = ref_profile.params
    a = p.A[0]
    for s in np.linspace(0.3, 3.7, 7):
        x = s + p.kappa0
        assert beta(s, p, ref_spec)[0] == pytest.approx(
            a * x * x - 1.0 / (4.0 * a), rel=1e-14
        )
        b, bp, bpp = beta_jet(s, p, ref_spec)
        assert b[0] == beta(s, p, ref_spec)[0]
        assert bp[0] == pytest.approx(2.0 * a * x, rel=1e-14)
        assert bpp[0] == pytest.approx(2.0 * a, rel=1e-14)


def test_beta_accepts_arrays(ref_profile, ref_spec):
    p = ref_profile.params
    s = np.linspace(0.1, 3.9, 5)
    vals = beta(s, p, ref_spec)[0]
    assert vals.shape == s.shape
    assert vals[2] == beta(s[2], p, ref_spec)[0]


def test_blowdown_boundary_values_of_beta(blow_profile, blow_spec):
    # beta_1(0) = 0 and beta_1'(0) = 1 are exact consequences of
    # A_1 = 1/(2 kappa0), not numerics
    p = blow_profile.params
    assert beta(0.0, p, blow_spec)[0] == 0.0
    assert beta_jet(0.0, p, blow_spec)[1][0] == 1.0


def test_right_blowdown_boundary_values_of_beta():
    spec = make([(1, 3, 1), (1, 2, 1)], right=BLOWDOWN)
    p = params_from_kappa0(2.0, spec)  # E = 6
    assert abs(beta(p.s_star, p, spec)[1]) < 1e-14
    assert beta_jet(p.s_star, p, spec)[1][1] == pytest.approx(-1.0, abs=1e-14)


def test_phi_is_linear(ref_profile):
    p = ref_profile.params
    assert phi(0.0, p) == p.kappa0
    assert phi(1.7, p) == 1.7 + p.kappa0
    assert np.array_equal(phi(np.array([0.3, 3.1]), p), np.array([0.3, 3.1]) + p.kappa0)


def test_V_is_product_of_beta_powers(blow_profile, blow_spec):
    p = blow_profile.params
    for s in (0.5, 2.0, 17.0):
        if s >= p.s_star:
            continue
        expected = beta(s, p, blow_spec)[0] ** 1 * beta(s, p, blow_spec)[1] ** 1
        assert V(s, p, blow_spec) == pytest.approx(expected, rel=1e-14)


def test_V_matches_oracle(ref_profile, ref_spec):
    p = ref_profile.params
    s = np.linspace(0.2, 3.8, 9)
    expected = orc.oracle_V(s + p.kappa0, orc.REF_FACTORS, p.A)
    assert np.allclose(V(s, p, ref_spec), expected, rtol=1e-14)


def test_logV_derivatives_match_central_differences(ref_profile, ref_spec):
    p = ref_profile.params
    h = 1e-6 * p.s_star
    rng = np.random.default_rng(42)
    logV = lambda s: np.log(V(s, p, ref_spec))
    for s in rng.uniform(0.1 * p.s_star, 0.9 * p.s_star, 10):
        fd1 = orc.central_first(logV, s, h)
        fd2 = orc.central_second(logV, s, h)
        smp = sample_at(s, p, ref_spec)
        assert smp.logV_prime == pytest.approx(fd1, rel=1e-8, abs=1e-8)
        assert smp.logV_second == pytest.approx(fd2, rel=1e-4, abs=1e-4)


def test_V_rejects_nonpositive_beta(ref_profile, ref_spec):
    # beta_1 has its zero at x_0 = q/(2|A_1|) past the right interval
    # end; log V is undefined beyond it
    p = ref_profile.params
    x0 = 1.0 / (2.0 * abs(p.A[0]))
    with pytest.raises(PositivityError, match="log V undefined") as err:
        sample_at(x0 - p.kappa0 + 1.0, p, ref_spec)
    assert err.value.factor == 1


def test_ansatz_identity_holds_pointwise(ref_profile, ref_spec):
    # beta'' / beta - (beta'/beta)^2 / 2 == -q^2 / (2 beta^2) + eps-free
    # algebra of the quadratic: 2A beta - 2 A^2 x^2 ... reduces to
    # q^2/4 - (A x^2 + c)^2-type cancellation; assert the implemented
    # combination vanishes
    p = ref_profile.params
    for s in np.linspace(0.2, 3.8, 7):
        b, bp, bpp = (d[0] for d in beta_jet(s, p, ref_spec))
        lhs = bpp / b - 0.5 * (bp / b) ** 2
        rhs = -1.0 / (2.0 * b * b)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_positivity_check_accepts_solved_profiles(ref_profile, ref_spec, blow_profile, blow_spec):
    assert require_positive_beta(ref_profile.params, ref_spec) is None
    assert require_positive_beta(blow_profile.params, blow_spec) is None


def test_positivity_check_flags_broken_coefficients(ref_profile, ref_spec):
    from qebundle import SolutionParams

    p = ref_profile.params
    bad = SolutionParams(kappa0=p.kappa0, E=p.E, s_star=p.s_star, A=(1e-4,))
    with pytest.raises(PositivityError) as err:
        require_positive_beta(bad, ref_spec)
    assert err.value.factor == 1
    assert err.value.value <= 0.0


@pytest.mark.parametrize("spec_name", ["ref_spec", "blow_spec", "right_spec", "both_spec"])
def test_positivity_check_matches_factor_by_factor_reference(request, spec_name):
    # the check reads every factor at both ends at once; the reference
    # walks them one by one, left end first, skipping a blowdown
    # factor's own end, and reports the first offender. Shrunk or
    # sign-flipped coefficients make some factors fail.
    spec = request.getfixturevalue(spec_name)
    forced = {(0, 0): spec.left is BLOWDOWN, (spec.r - 1, 1): spec.right is BLOWDOWN}
    rng = np.random.default_rng(7)
    outcomes = set()
    for kappa0 in np.geomspace(1e-3, 1e3, 64):
        p = params_from_kappa0(kappa0, spec)
        scale = rng.choice([1.0, 1e-3, -1.0], size=spec.r)
        p = dataclasses.replace(p, A=tuple(float(a * f) for a, f in zip(p.A, scale)))
        want = None
        for i, j in np.ndindex(spec.r, 2):
            s = (0.0, p.s_star)[j]
            value = beta(s, p, spec)[i]
            if not forced.get((i, j)) and value <= 0.0:
                want = {"factor": i + 1, "s": s, "value": value}
                break
        try:
            require_positive_beta(p, spec)
            got = None
        except PositivityError as error:
            got = {"factor": error.factor, "s": error.s, "value": error.value}
        assert got == want
        outcomes.add(want is None)
    assert outcomes == {True, False}
