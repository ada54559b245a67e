"""Mean-value identities for the Helmholtz equation, the monotone-kernel
companion for the modified equation, and a numerical ball-characterization
test built on them.

The primary objects are SolutionField (exact solutions carrying their
wavenumber), Domain (implicit bounded regions, a tree of geometry's
Ball, Box, Difference, Translate and CustomDomain nodes), MeanValueEstimate
(quadrature / Monte Carlo volume means with error bars), and
VerificationReport (lhs, rhs, residual, tolerance, verdict).  See the
demos/ scripts for narrative walkthroughs and the `helmholtz-means` CLI
for reproducible runs.
"""

from .geometry import (
    Domain,
    EstimationError,
    ball,
    box,
    circumradius_about,
    custom_domain,
    difference,
    domain_from_json,
    domain_to_json,
    equivalent_radius,
    exact_circumradius,
    translate,
    unit_ball_volume,
    volume,
)
from .quadrature import (
    MeanValueEstimate,
    ball_mean,
    box_mean,
    mc_integral,
    mc_mean,
    surface_flux,
    surface_flux_error,
)
from .solutions import (
    HELMHOLTZ,
    MODIFIED_HELMHOLTZ,
    SolutionField,
    helmholtz_residual,
    membrane_eigenfunction,
    modified_radial_solution,
    plane_wave,
    radial_solution,
    solution_from_json,
    solution_to_json,
)
from .specfun import (
    a_norm,
    b_norm,
    bessel_i,
    bessel_j,
    bessel_zero,
    gamma_fn,
)
from .verify import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    CharacterizationProblem,
    VerificationReport,
    characterize,
    check_identity,
    check_mean_value_formula,
    check_size_condition,
    default_family,
    derive_verdict,
    flux_identity_check,
    kuran_limit_check,
    make_problem,
    membrane_counterexample,
    proof_discrepancy,
    report_to_dict,
    reports_to_csv,
    theorem1_identity_check,
)

__version__ = "0.1.0"
