"""diffid: recover the reaction coefficient a(t, x) in a diffusion equation
from an integral measurement of the solution, with solvability certificates
and a manufactured-solution verification harness."""

from .errors import (
    CertificateFailure,
    ConfigurationError,
    DataError,
    DiffidError,
    DivisionHazardError,
    NumericalBlowupError,
)
from .grids import (
    Domain,
    Grid,
    ScalarField,
    build_grid,
    grad_x,
    interior_margin_mask,
    l2_norm_G,
    l2_norm_GT,
    laplacian_x,
)
from .sinebasis import (
    F_functional,
    ModeFieldSet,
    OmegaData,
    SpectralParams,
    frac_norm,
    sine_coeffs,
    synthesize,
)
from .parabolic import (
    march_modes,
    overdetermination_residual,
    solve_forward,
)
from .problem import ProblemData
from .certificates import (
    Certificate,
    CertifyOptions,
    check_global,
    check_local,
    compute_Psi,
    compute_certificate,
    estimate_sobolev_constant,
    first_dirichlet_eigenvalue,
    poincare_time_check,
)
from .inversion import (
    InversionResult,
    excited_modes,
    iterate,
    picard_source,
    reconstruct_a,
    run_inversion,
)
from .scenarios import (
    SCENARIO_NAMES,
    Scenario,
    build_scenario,
    convergence_study,
    recovery_error,
    strong_diagnostics,
    uniqueness_probe,
)

__version__ = "0.1.0"
