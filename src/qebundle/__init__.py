"""Quasi-Einstein metric profiles on sphere bundles over Fano products.

The pipeline: a BundleSpec fixes the base factors, the parameter m and
the endpoint behavior; the closed-form layer determines beta_i, phi, V
and the endpoint algebra from one free scalar kappa0; the solver
evaluates alpha by quadrature and roots the remaining boundary
condition alpha(s_*) = 0 over kappa0; the verifier certifies the
result against every equation, boundary condition and positivity
requirement with quantified tolerances.
"""

from .closedform import (
    QuadraticRoots,
    SolutionParams,
    beta,
    beta_prime,
    beta_second,
    coefficients_A,
    endpoint_quadratic_roots,
    energy_from_kappa0,
    kappa0_and_sstar,
    logV_prime,
    logV_second,
    params_from_kappa0,
    phi,
    phi_prime,
    positivity_check,
    V,
)
from .errors import (
    NegativeDiscriminantError,
    NonPositiveAlphaError,
    NonPositiveKappa0Error,
    NoSignChangeError,
    PositivityError,
    QEError,
    SingularVError,
)
from .geometry import MetricProfile, reconstruct_t
from .solver import (
    SolvedProfile,
    SolverConfig,
    alpha,
    alpha_derivatives,
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
    dsdt_consistency,
    mu_of_s,
    residual_25,
    residual_26,
    residual_27,
    sample_at,
    verify,
    verify_t_system,
)

__version__ = "0.1.0"
