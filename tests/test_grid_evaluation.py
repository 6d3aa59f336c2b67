"""Whole-grid evaluation of the profile equals the point-by-point one, bit for bit."""

import dataclasses

import numpy as np
import pytest

from qebundle import (
    V,
    alpha,
    ansatz_residual,
    chebyshev_grid,
    residual_27,
    sample_at,
)
from qebundle.solver import SLOPE_DELTA_FRAC

PROFILES = [
    ("ref_profile", "ref_spec"),
    ("blow_profile", "blow_spec"),
    ("right_profile", "right_spec"),
    ("both_profile", "both_spec"),
]


def _grid(params):
    # the verifier's interior Chebyshev grid, at the default margin
    delta = 1e-3 * params.s_star
    return chebyshev_grid(delta, params.s_star - delta, 33)


def _fd_stencil(params):
    # the verifier's finite-difference points: rows -h, 0, +h, shape (3, 10)
    h = 1e-6 * params.s_star
    fd_points = np.linspace(0.1 * params.s_star, 0.9 * params.s_star, 10)
    return fd_points + h * np.array([[-1.0], [0.0], [1.0]])


def _on_points_and_pointwise(fn, points, p, spec):
    """fn on the whole point array, and fn point by point laid out the same way."""
    on_points = np.asarray(fn(points, p, spec))
    # a tuple result (a group of sample_at fields) stacks its parts first
    pointwise = np.array([fn(s, p, spec) for s in points.ravel()])
    return on_points, np.moveaxis(pointwise, 0, -1).reshape(on_points.shape)


def _sampled(*fields):
    """The sample_at fields ``fields`` as a function of the points."""

    def fn(s, p, spec):
        sample = sample_at(s, p, spec)
        return tuple(getattr(sample, name) for name in fields)

    return fn


# every sample_at field but s, in groups, and the alpha and V it builds on
ON_POINTS = {
    "alpha": alpha,
    "alpha_derivatives": _sampled("alpha", "alpha_prime", "alpha_second"),
    "logV_prime": _sampled("logV_prime"),
    "logV_second": _sampled("logV_second"),
    "V": V,
    "beta": _sampled("beta", "beta_prime", "beta_second"),
    "phi": _sampled("phi"),
}


@pytest.mark.parametrize("profile_name, spec_name", PROFILES)
@pytest.mark.parametrize("fn", ON_POINTS.values(), ids=ON_POINTS.keys())
def test_profile_on_2d_points_equals_pointwise(request, profile_name, spec_name, fn):
    p = request.getfixturevalue(profile_name).params
    spec = request.getfixturevalue(spec_name)
    points = _fd_stencil(p)
    on_points, pointwise = _on_points_and_pointwise(fn, points, p, spec)
    assert on_points.shape[-2:] == (3, 10)
    assert np.array_equal(on_points, pointwise)


@pytest.mark.parametrize("profile_name, spec_name", PROFILES)
def test_alpha_at_end_points_equals_pointwise(request, profile_name, spec_name):
    # the verifier's end values, and boundary_slopes' (2, 3) steps from both ends
    p = request.getfixturevalue(profile_name).params
    spec = request.getfixturevalue(spec_name)
    d = SLOPE_DELTA_FRAC * p.s_star * np.array([1.0, 2.0, 4.0])
    for points in (np.array([0.0, p.s_star]), np.array([d, p.s_star - d])):
        on_points, pointwise = _on_points_and_pointwise(alpha, points, p, spec)
        assert np.array_equal(on_points, pointwise)


@pytest.mark.parametrize("profile_name, spec_name", PROFILES)
def test_alpha_derivatives_on_grid_equal_pointwise(request, profile_name, spec_name):
    # sample_at's alpha is the solver's alpha, and alpha' and alpha'' follow it pointwise
    p = request.getfixturevalue(profile_name).params
    spec = request.getfixturevalue(spec_name)
    grid = _grid(p)
    on_grid = sample_at(grid, p, spec)
    pointwise = [sample_at(s, p, spec) for s in grid]
    assert np.array_equal(on_grid.alpha, alpha(grid, p, spec))
    for name in ("alpha", "alpha_prime", "alpha_second"):
        assert getattr(on_grid, name).shape == grid.shape
        assert np.array_equal(getattr(on_grid, name), [getattr(sm, name) for sm in pointwise])


@pytest.mark.parametrize("profile_name, spec_name", PROFILES)
def test_fd_stencil_middle_row_is_sample_at_on_the_fd_points(request, profile_name, spec_name):
    # the verifier's finite-difference check reads (log V)'' from row 1 of
    # one sample_at call on the stencil: bit for bit the value at the points
    p = request.getfixturevalue(profile_name).params
    spec = request.getfixturevalue(spec_name)
    points = _fd_stencil(p)
    fd_points = np.linspace(0.1 * p.s_star, 0.9 * p.s_star, 10)
    assert np.array_equal(points[1], fd_points)
    on_stencil, on_row = sample_at(points, p, spec), sample_at(fd_points, p, spec)
    for field in dataclasses.fields(on_row):
        got = np.asarray(getattr(on_stencil, field.name))[..., 1, :]
        assert np.array_equal(got, getattr(on_row, field.name)), field.name


@pytest.mark.parametrize("profile_name, spec_name", PROFILES)
def test_sample_at_on_grid_equals_pointwise(request, profile_name, spec_name):
    p = request.getfixturevalue(profile_name).params
    spec = request.getfixturevalue(spec_name)
    grid = _grid(p)
    on_grid = sample_at(grid, p, spec)
    pointwise = [sample_at(s, p, spec) for s in grid]
    for field in dataclasses.fields(on_grid):
        got = np.asarray(getattr(on_grid, field.name))
        # per-factor fields stack the factors first: (r, N) on the grid
        want = np.stack([np.asarray(getattr(sm, field.name)) for sm in pointwise], axis=-1)
        assert got.shape == want.shape, field.name
        assert np.array_equal(got, want), field.name


@pytest.mark.parametrize("profile_name, spec_name", PROFILES)
@pytest.mark.parametrize("residual", [residual_27, ansatz_residual])
def test_per_factor_residuals_on_grid_equal_pointwise(request, profile_name, spec_name, residual):
    p = request.getfixturevalue(profile_name).params
    spec = request.getfixturevalue(spec_name)
    grid = _grid(p)
    on_grid = residual(sample_at(grid, p, spec), spec)
    # one row per factor on the grid, one entry per factor at a point
    pointwise = np.stack([residual(sample_at(s, p, spec), spec) for s in grid], axis=-1)
    assert on_grid.shape == pointwise.shape == (spec.r, len(grid))
    assert np.array_equal(on_grid, pointwise)
