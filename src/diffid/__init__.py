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
from .grids import Grid, ScalarField
from .sinebasis import (
    F_functional,
    ModeFieldSet,
    OmegaData,
    SpectralParams,
    sine_coeffs,
    synthesize,
)
from .parabolic import (
    forced_modes,
    march_modes,
    overdetermination_residual,
    solve_forward,
)
from .problem import ProblemData
from .certificates import (
    Certificate,
    CertifyOptions,
    compute_Psi,
    compute_certificate,
    conditions,
)
from .inversion import (
    InversionResult,
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
