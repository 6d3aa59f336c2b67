"""Quasi-Einstein metric profiles on sphere bundles over Fano products.

The pipeline: a BundleSpec fixes the base factors, the parameter m and
the endpoint behavior; the closed-form layer determines beta_i, phi, V
and the endpoint algebra from one free scalar kappa0; the solver
evaluates alpha from a fixed-order quadrature table and roots the
remaining boundary condition alpha(s_*) = 0 over kappa0; the verifier
certifies the result against every equation, boundary condition and positivity
requirement with quantified tolerances.

Only `errors` and `spec` load with the package: they need no numpy, so
validating a spec never imports it. The numeric submodules are
registered with it as lazy modules, and each executes on its first
attribute access. An export is looked up in its home module on every
access, never stored here, so a replaced `solver.solve` is what
`qebundle.solve` returns.
"""

import importlib.util
import sys

from .errors import (
    NegativeDiscriminantError,
    NonPositiveKappa0Error,
    NoSignChangeError,
    PositivityError,
    QEError,
)
from .spec import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)


def _lazy(name):
    """Submodule `name` of this package, executed on its first attribute access.

    It is registered in sys.modules, as an eager import would leave it,
    so code that walks sys.modules to wrap the layers' functions
    (perfbench/tracer.py) still finds it.
    """
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


closedform = _lazy("closedform")
geometry = _lazy("geometry")
output = _lazy("output")
solver = _lazy("solver")
verifier = _lazy("verifier")

# Each numeric export and the module that defines it.
_LAZY = {
    **dict.fromkeys(
        (
            "QuadraticRoots",
            "SolutionParams",
            "beta",
            "beta_jet",
            "coefficients_A",
            "endpoint_quadratic_roots",
            "energy_from_kappa0",
            "params_from_kappa0",
            "phi",
            "V",
        ),
        "closedform",
    ),
    **dict.fromkeys(("MetricProfile", "reconstruct_t"), "geometry"),
    **dict.fromkeys(
        (
            "SolvedProfile",
            "SolverConfig",
            "alpha",
            "alpha_integrand",
            "boundary_defect",
            "boundary_slopes",
            "solve",
        ),
        "solver",
    ),
    **dict.fromkeys(
        (
            "ProfileSample",
            "ResidualReport",
            "ansatz_residual",
            "chebyshev_grid",
            "mu_of_s",
            "residual_25",
            "residual_26",
            "residual_27",
            "sample_at",
            "verify",
        ),
        "verifier",
    ),
}

__all__ = [
    "NegativeDiscriminantError",
    "NonPositiveKappa0Error",
    "NoSignChangeError",
    "PositivityError",
    "QEError",
    "BundleSpec",
    "EndpointType",
    "FactorSpec",
    "spec_from_dict",
    "spec_to_dict",
    "validate_spec",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name):
    home = _LAZY.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[home], name)


def __dir__():
    return sorted({*globals(), *_LAZY})
