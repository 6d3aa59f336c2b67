"""Whole-grid evaluation of the profile equals the point-by-point one, bit for bit."""

import dataclasses

import numpy as np
import pytest

from qebundle import (
    V,
    alpha,
    alpha_derivatives,
    ansatz_residual,
    chebyshev_grid,
    logV_prime,
    logV_second,
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
    # a tuple result (alpha_derivatives) stacks its parts first
    pointwise = np.array([fn(s, p, spec) for s in points.ravel()])
    return on_points, np.moveaxis(pointwise, 0, -1).reshape(on_points.shape)


@pytest.mark.parametrize("profile_name, spec_name", PROFILES)
@pytest.mark.parametrize("fn", [alpha, alpha_derivatives, logV_prime, logV_second, V])
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
    p = request.getfixturevalue(profile_name).params
    spec = request.getfixturevalue(spec_name)
    grid = _grid(p)
    on_grid = alpha_derivatives(grid, p, spec)
    pointwise = [alpha_derivatives(s, p, spec) for s in grid]
    for k in range(3):
        assert on_grid[k].shape == grid.shape
        assert np.array_equal(on_grid[k], [d[k] for d in pointwise])


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
