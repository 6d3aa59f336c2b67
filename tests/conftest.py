"""Shared fixtures: the study instances, solved and verified once."""

import pytest

from qebundle import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    solve,
    verify,
)


@pytest.fixture(scope="session")
def ref_spec():
    """One factor (n, p, q) = (2, 3, 1), m = 2, both ends smooth collapses."""
    return BundleSpec(
        factors=(FactorSpec(n=2, p=3, q=1),),
        m=2.0,
        left=EndpointType.SMOOTH_COLLAPSE,
        right=EndpointType.SMOOTH_COLLAPSE,
    )


@pytest.fixture(scope="session")
def ref_profile(ref_spec):
    return solve(ref_spec)


@pytest.fixture(scope="session")
def ref_report(ref_spec, ref_profile):
    return verify(ref_profile, ref_spec, grid_size=201)


@pytest.fixture(scope="session")
def blow_spec():
    """Factors (1, 2, 1) + (1, 3, 1), m = 2, left blowdown, right collapse."""
    return BundleSpec(
        factors=(FactorSpec(n=1, p=2, q=1), FactorSpec(n=1, p=3, q=1)),
        m=2.0,
        left=EndpointType.BLOWDOWN,
        right=EndpointType.SMOOTH_COLLAPSE,
    )


@pytest.fixture(scope="session")
def blow_profile(blow_spec):
    return solve(blow_spec)


@pytest.fixture(scope="session")
def blow_report(blow_spec, blow_profile):
    return verify(blow_profile, blow_spec, grid_size=201)


@pytest.fixture(scope="session")
def right_spec():
    """Factors (1, 4, 1) + (2, 3, 1), m = 3.3, left collapse, right blowdown."""
    return BundleSpec(
        factors=(FactorSpec(n=1, p=4, q=1), FactorSpec(n=2, p=3, q=1)),
        m=3.3,
        left=EndpointType.SMOOTH_COLLAPSE,
        right=EndpointType.BLOWDOWN,
    )


@pytest.fixture(scope="session")
def right_profile(right_spec):
    return solve(right_spec)


@pytest.fixture(scope="session")
def three_spec():
    """Factors (4, 5, 1) + (3, 7, 2) + (2, 3, 1), m = 5.5, both ends smooth collapses."""
    return BundleSpec(
        factors=(FactorSpec(n=4, p=5, q=1), FactorSpec(n=3, p=7, q=2), FactorSpec(n=2, p=3, q=1)),
        m=5.5,
    )


@pytest.fixture(scope="session")
def three_profile(three_spec):
    return solve(three_spec)


@pytest.fixture(scope="session")
def both_spec():
    """Factors (1, 2, 1) + (1, 7, 3) + (1, 2, 1), m = 4, both ends blown down.

    Both-ends blowdowns lie beyond the source construction, which blows
    down at most one end; the package solves and certifies them anyway.
    """
    return BundleSpec(
        factors=(FactorSpec(n=1, p=2, q=1), FactorSpec(n=1, p=7, q=3), FactorSpec(n=1, p=2, q=1)),
        m=4.0,
        left=EndpointType.BLOWDOWN,
        right=EndpointType.BLOWDOWN,
    )


@pytest.fixture(scope="session")
def both_profile(both_spec):
    return solve(both_spec)
