"""Solvability certificates: the constants entering the local and global
contraction conditions, with pass/fail verdicts and the margins by which each
inequality holds.

Conventions baked in here and recorded in each certificate's provenance:
the four terms of R/R1 are squared weighted-mode norms (see frac_norm); sup
over (t, x) means max over grid nodes at least boundary_margin cells from the
spatial boundary, since an admissible measurement vanishes on the boundary
and the literal supremum of 1/|psi| would be infinite; C_S is a supplied
constant, optionally sanity-checked by a random lower-bound probe.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, DataError, DivisionHazardError
from .grids import Grid, ScalarField, diff, interior_margin_mask, l2_sq_GT, laplacian_x
from .problem import ProblemData
from .sinebasis import ModeFieldSet, OmegaData, frac_norm


@dataclass(frozen=True)
class CertifyOptions:
    C_S: float = 1.0
    boundary_margin: int = 2
    psi_floor: float = 1e-12

    def __post_init__(self):
        if self.C_S <= 0:
            raise ConfigurationError(f"C_S must be positive, got {self.C_S}")
        if self.boundary_margin < 1:
            raise ConfigurationError("boundary_margin must be at least 1 cell")
        if self.psi_floor <= 0:
            raise ConfigurationError("psi_floor must be positive")


@dataclass(frozen=True)
class Certificate:
    epsilon: float
    A_eps: float
    C_S: float
    C_P: float
    B: float
    Psi_M: float
    R: float
    R1: float
    q_local: float
    q_global: float
    T: float
    cond_local_T: bool
    cond_T_le_1: bool
    cond_local_q: bool
    cond_global_poincare: bool
    cond_global_q: bool
    local_pass: bool
    global_pass: bool
    boundary_margin: int
    provenance: str

    def __post_init__(self):
        for name in ("A_eps", "C_S", "C_P", "B", "Psi_M", "R", "R1",
                     "q_local", "q_global", "T"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigurationError(f"certificate constant {name} = {v} is not a finite nonnegative number")
        if self.local_pass != (self.cond_local_T and self.cond_T_le_1 and self.cond_local_q):
            raise ConfigurationError("local verdict inconsistent with its conditions")
        if self.global_pass != (self.cond_global_poincare and self.cond_global_q):
            raise ConfigurationError("global verdict inconsistent with its conditions")

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls(**json.loads(text))


def first_dirichlet_eigenvalue(grid: Grid) -> float:
    """Exact lambda_1 of -d^2/dx^2 on the interval (0, Lx)."""
    return np.float64(np.pi / grid.domain.Lx) ** 2


def _check_psi_floor(psi_values: np.ndarray, region: np.ndarray, floor: float) -> None:
    """Raise DivisionHazardError naming the first node of region (broadcast
    against psi_values) where |psi| < floor."""
    hazard = (np.abs(psi_values) < floor) & region
    if np.any(hazard):
        node = tuple(int(i) for i in np.argwhere(hazard)[0])
        raise DivisionHazardError(
            f"|psi| < {floor:g} at grid node {node}; cannot divide", node=node)


def compute_Psi(psi: ScalarField, f_modes: ModeFieldSet, omega: OmegaData,
                grid: Grid, floor: float = 1e-12) -> ScalarField:
    """The lifted source field (-psi_t + Lap psi + (f, omega)) / psi.

    Evaluated at every strictly interior node (the iteration needs it there);
    boundary nodes are set to zero since the mode solves never read them.
    A node where |psi| drops below the floor is a division hazard.
    """
    vals = psi.values
    _check_psi_floor(vals, interior_margin_mask(grid, 1), floor)

    if omega.K < f_modes.K:
        raise DataError(f"omega carries {omega.K} coefficients, need {f_modes.K}")
    dpsi_dt = diff(vals, grid.dt, axis=0)
    lap = laplacian_x(vals, grid)
    numer = -dpsi_dt + lap + omega.measure(f_modes.values)
    out = np.zeros_like(vals)
    np.divide(numer[:, 1:-1], vals[:, 1:-1], out=out[:, 1:-1])
    return ScalarField(grid, out)


def compute_certificate(data: ProblemData, options: CertifyOptions,
                        Psi: ScalarField | None = None) -> Certificate:
    """Evaluate every solvability constant and the local/global conditions.

    Psi, when given, must be compute_Psi of the same data and psi floor; it
    is computed here otherwise.  Its psi-floor check covers every interior
    node, so it covers the boundary-margin region used below.
    """
    grid = data.grid
    eps = data.params.epsilon
    margin = options.boundary_margin
    mask = interior_margin_mask(grid, margin)
    region = np.broadcast_to(mask, grid.field_shape)

    if Psi is None:
        Psi = compute_Psi(data.psi, data.f_modes, data.omega, grid, floor=options.psi_floor)
    psi_vals = np.abs(data.psi.values[region])
    tau1, tau2 = data.params.tau1, data.params.tau2
    T = grid.domain.T
    C_S = np.float64(options.C_S)

    # numpy float64 throughout: a constant beyond float range becomes inf or
    # nan, which Certificate rejects by name, where a Python float power
    # would raise OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        inv_psi_max = np.max(1.0 / psi_vals)
        A_eps = (np.sqrt(np.pi) * np.sqrt(1.0 + 1.0 / (2.0 * eps))
                 * data.omega.omega_dd_l2 * inv_psi_max)
        B = 2.0 * A_eps**2 * C_S**2

        Psi_M = np.max(np.abs(Psi.values[region]))

        phi_1_tau1 = frac_norm(data.phi_modes, grid, tau1, level=1, measure="G")
        phi_0_tau1 = frac_norm(data.phi_modes, grid, tau1, level=0, measure="G")
        phi_0_tau2 = frac_norm(data.phi_modes, grid, tau2, level=0, measure="G")
        f_tau1 = frac_norm(data.f_modes.values, grid, tau1, level=0, measure="GT")

        R = phi_1_tau1 + 8.0 * Psi_M**2 * T * phi_0_tau1 + phi_0_tau2 + 4.0 * f_tau1
        R1 = phi_1_tau1 + phi_0_tau2 + 4.0 * f_tau1
        q_local = 4.0 * R * B
        q_global = 4.0 * R1 * B

        C_P = 1.0 / first_dirichlet_eigenvalue(grid)

        cond_local_T = bool(2.0 * Psi_M * T <= A_eps * C_S)
        cond_T_le_1 = bool(T <= 1.0)
        cond_local_q = bool(q_local < 1.0)
        cond_global_poincare = bool(2.0 * Psi_M**2 * C_P <= A_eps**2 * C_S**2)
        cond_global_q = bool(q_global < 1.0)

    provenance = (
        f"R-terms are squared weighted-mode norms; sup over nodes >= {margin} cells "
        f"from the spatial boundary; psi floor {options.psi_floor:g}; "
        f"conditional on supplied C_S = {options.C_S:.12g}"
    )
    return Certificate(
        epsilon=eps,
        A_eps=float(A_eps),
        C_S=options.C_S,
        C_P=float(C_P),
        B=float(B),
        Psi_M=float(Psi_M),
        R=float(R),
        R1=float(R1),
        q_local=float(q_local),
        q_global=float(q_global),
        T=float(T),
        cond_local_T=cond_local_T,
        cond_T_le_1=cond_T_le_1,
        cond_local_q=cond_local_q,
        cond_global_poincare=cond_global_poincare,
        cond_global_q=cond_global_q,
        local_pass=cond_local_T and cond_T_le_1 and cond_local_q,
        global_pass=cond_global_poincare and cond_global_q,
        boundary_margin=margin,
        provenance=provenance,
    )


def check_local(cert: Certificate) -> tuple[bool, dict[str, tuple[float, bool]]]:
    """Local verdict plus, per inequality, its signed margin (positive means
    it holds) and the certificate's own verdict on it."""
    conditions = {
        "2*Psi_M*T <= A_eps*C_S": (cert.A_eps * cert.C_S - 2.0 * cert.Psi_M * cert.T,
                                   cert.cond_local_T),
        "T <= 1": (1.0 - cert.T, cert.cond_T_le_1),
        "4*R*B < 1": (1.0 - cert.q_local, cert.cond_local_q),
    }
    return cert.local_pass, conditions


def check_global(cert: Certificate) -> tuple[bool, dict[str, tuple[float, bool]]]:
    """Global verdict plus each inequality's margin and verdict, as check_local."""
    conditions = {
        "2*Psi_M^2*C_P <= A_eps^2*C_S^2": (cert.A_eps**2 * cert.C_S**2
                                           - 2.0 * cert.Psi_M**2 * cert.C_P,
                                           cert.cond_global_poincare),
        "4*R1*B < 1": (1.0 - cert.q_global, cert.cond_global_q),
    }
    return cert.global_pass, conditions


def poincare_time_check(g: np.ndarray, T: float) -> tuple[float, float]:
    """Both sides of the time inequality int g^2 <= T^2 int (g')^2 + 2T g(0)^2,
    realized with trapezoid quadrature and second-order differences."""
    g = np.asarray(g, dtype=float)
    n = len(g) - 1
    dt = T / n
    lhs = float(np.trapezoid(g**2, dx=dt))
    dg = diff(g, dt, axis=0)
    rhs = float(T**2 * np.trapezoid(dg**2, dx=dt) + 2.0 * T * g[0] ** 2)
    return lhs, rhs


def estimate_sobolev_constant(grid: Grid, trials: int = 200, seed: int = 0,
                              modes: int = 6) -> float:
    """Empirical lower bound for C_S: maximize ||v||_L4 / ||v||_W12 over
    random band-limited trial fields on the space-time cylinder."""
    rng = np.random.default_rng(seed)
    t = grid.t
    x = grid.x
    best = 0.0
    for _ in range(trials):
        v = np.zeros(grid.field_shape)
        for k in range(1, modes + 1):
            amp_s, amp_c = rng.standard_normal(2)
            profile = np.sin(k * np.pi * x / grid.domain.Lx)
            wt = amp_s * np.sin(k * np.pi * t / grid.domain.T) + amp_c * np.cos(
                k * np.pi * t / grid.domain.T)
            v += wt[:, None] * profile[None, :]
        l4 = l2_sq_GT(v**2, grid) ** 0.25
        w12 = np.sqrt(
            l2_sq_GT(v, grid)
            + l2_sq_GT(diff(v, grid.dt, axis=0), grid)
            + l2_sq_GT(v, grid, grad=True)
        )
        if w12 > 0:
            best = max(best, l4 / w12)
    return best
