"""Quasi-Einstein metric profiles on sphere bundles over Fano products.

The pipeline: a BundleSpec fixes the base factors, the parameter m and
the endpoint behavior; the closed-form layer determines beta_i, phi, V
and the endpoint algebra from one free scalar kappa0; the solver
evaluates alpha from a fixed-order quadrature table and roots the
remaining boundary condition alpha(s_*) = 0 over kappa0; the verifier
certifies the result against every equation, boundary condition and positivity
requirement with quantified tolerances.
"""

from .closedform import (
    QuadraticRoots,
    SolutionParams,
    beta,
    beta_jet,
    coefficients_A,
    endpoint_quadratic_roots,
    energy_from_kappa0,
    params_from_kappa0,
    phi,
    V,
)
from .errors import (
    NegativeDiscriminantError,
    NonPositiveKappa0Error,
    NoSignChangeError,
    PositivityError,
    QEError,
)
from .geometry import MetricProfile, reconstruct_t
from .solver import (
    SolvedProfile,
    SolverConfig,
    alpha,
    alpha_integrand,
    boundary_defect,
    boundary_slopes,
    solve,
)
from .spec import (
    BundleSpec,
    EndpointType,
    FactorSpec,
    spec_from_dict,
    spec_to_dict,
    validate_spec,
)
from .verifier import (
    ProfileSample,
    ResidualReport,
    ansatz_residual,
    chebyshev_grid,
    mu_of_s,
    residual_25,
    residual_26,
    residual_27,
    sample_at,
    verify,
)

__version__ = "0.1.0"
