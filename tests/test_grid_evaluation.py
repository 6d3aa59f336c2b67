"""Whole-grid evaluation of the profile equals the point-by-point one, bit for bit."""

import dataclasses

import numpy as np
import pytest

from qebundle import alpha_derivatives, chebyshev_grid, sample_at

PROFILES = [("ref_profile", "ref_spec"), ("blow_profile", "blow_spec")]


def _grid(params):
    # the verifier's interior Chebyshev grid, at the default margin
    delta = 1e-3 * params.s_star
    return chebyshev_grid(delta, params.s_star - delta, 33)


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
