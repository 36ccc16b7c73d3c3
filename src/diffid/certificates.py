"""Solvability certificates: the constants entering the local and global
contraction conditions, with pass/fail verdicts, and conditions(cert), the
margin by which each inequality holds.  Each condition is written once, in
_CONDITIONS; a Certificate derives B, q_local, q_global, its cond_* flags
and both verdicts from its constants through that table, so one read back
from a file carries the verdicts of the constants it holds, and the margins
read the same table.

Conventions baked in here and recorded in each certificate's provenance:
the four terms of R/R1 are raw sums sum_k lambda_k^{2 tau} (|v_k|^2
[+ |grad v_k|^2]) by mode_sum, phi's rows over G and f's over G_T, with no
pi/2 Parseval factor, so the tau1 weight is lambda_k^{(1+eps)/2} as in the
contraction estimates; sup over (t, x) is the max over nodes at least
boundary_margin cells from the spatial boundary, where psi vanishes and
1/|psi| is unbounded; C_S is supplied, and the certificate is conditional
on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DivisionHazardError, check_integer, check_positive
from .grids import ScalarField, diff, diff2, l2_sq_G, l2_sq_GT
from .problem import ProblemData
from .sinebasis import eigenvalues, mode_sum


@dataclass(frozen=True)
class CertifyOptions:
    C_S: float = 1.0
    boundary_margin: int = 2
    psi_floor: float = 1e-12

    def __post_init__(self):
        check_positive("C_S", self.C_S)
        check_integer("boundary_margin", self.boundary_margin, 1)
        check_positive("psi_floor", self.psi_floor)


# the paper's five solvability conditions, local first, as rows (scope,
# label, cond_* field, lhs, rhs, strict): the condition is lhs < rhs when
# strict, lhs <= rhs otherwise, and lhs and rhs read the constants off a
# Certificate.  Powers are numpy float64, evaluated under np.errstate, so a
# side beyond float range reads inf and its condition fails (a Python float
# power raises OverflowError)
_CONDITIONS = (
    ("local", "2*Psi_M*T <= A_eps*C_S", "cond_local_T",
     lambda c: 2.0 * c.Psi_M * c.T, lambda c: c.A_eps * c.C_S, False),
    ("local", "T <= 1", "cond_T_le_1", lambda c: c.T, lambda c: 1.0, False),
    ("local", "4*R*B < 1", "cond_local_q", lambda c: c.q_local, lambda c: 1.0, True),
    ("global", "2*Psi_M^2*C_P <= A_eps^2*C_S^2", "cond_global_poincare",
     lambda c: 2.0 * np.float64(c.Psi_M)**2 * c.C_P,
     lambda c: np.float64(c.A_eps)**2 * np.float64(c.C_S)**2, False),
    ("global", "4*R1*B < 1", "cond_global_q", lambda c: c.q_global, lambda c: 1.0, True),
)


@dataclass(frozen=True)
class Certificate:
    """The solvability constants; B = 2 A_eps^2 C_S^2, q_local = 4 R B,
    q_global = 4 R1 B, one cond_* flag per _CONDITIONS row and both verdicts
    are derived from them on construction, and are not arguments."""
    epsilon: float
    A_eps: float
    C_S: float
    C_P: float
    B: float = field(init=False)
    Psi_M: float
    R: float
    R1: float
    q_local: float = field(init=False)
    q_global: float = field(init=False)
    T: float
    cond_local_T: bool = field(init=False)
    cond_T_le_1: bool = field(init=False)
    cond_local_q: bool = field(init=False)
    cond_global_poincare: bool = field(init=False)
    cond_global_q: bool = field(init=False)
    local_pass: bool = field(init=False)
    global_pass: bool = field(init=False)
    boundary_margin: int
    provenance: str

    def __post_init__(self):
        # numpy float64, so B beyond float range is inf or nan, which the check
        # below rejects by name (a Python float power raises OverflowError)
        with np.errstate(over="ignore", invalid="ignore"):
            B = float(2.0 * np.float64(self.A_eps)**2 * np.float64(self.C_S)**2)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "q_local", 4.0 * self.R * B)
        object.__setattr__(self, "q_global", 4.0 * self.R1 * B)
        for name in ("A_eps", "C_S", "C_P", "B", "Psi_M", "R", "R1",
                     "q_local", "q_global", "T"):
            v = getattr(self, name)
            if not np.isfinite(v) or v < 0:
                raise ConfigurationError(f"certificate constant {name} = {v} is not a finite nonnegative number")
        if self.C_P == 0:  # C_P = 1/lambda_1 > 0; a zero reads inf * 0 = nan below
            raise ConfigurationError("certificate constant C_P = 0.0 is not positive")
        with np.errstate(over="ignore", invalid="ignore"):
            for _, _, flag, lhs, rhs, strict in _CONDITIONS:
                object.__setattr__(self, flag, bool(lhs(self) < rhs(self) if strict
                                                    else lhs(self) <= rhs(self)))
        for scope in ("local", "global"):
            object.__setattr__(self, f"{scope}_pass", all(
                getattr(self, flag) for s, _, flag, *_ in _CONDITIONS if s == scope))


def compute_Psi(data: ProblemData, floor: float) -> ScalarField:
    """The lifted source field (-psi_t + Lap psi + (f, omega)) / psi.

    Evaluated at every strictly interior node (the iteration needs it there);
    boundary nodes are set to zero since the mode solves never read them.
    A node where |psi| drops below the floor is a division hazard, raised as
    DivisionHazardError naming certify.psi_floor and the first such node.
    """
    grid, vals, f_modes = data.grid, data.psi.values, data.f_modes
    x = grid.interior(1)
    hazard = np.abs(vals[:, x]) < floor
    if np.any(hazard):
        n, i = (int(j) for j in np.argwhere(hazard)[0] + (0, x.start))
        raise DivisionHazardError(
            f"|psi| < certify.psi_floor = {floor:g} at grid node ({n}, {i}), "
            f"t = {grid.t[n]:.6g}, x = {grid.x[i]:.6g}; cannot divide")

    dpsi_dt = diff(vals, grid.dt, axis=0)
    lap = diff2(vals, grid.hx)
    numer = -dpsi_dt + lap + data.omega.measure(f_modes.values, f_modes.modes)
    out = np.zeros_like(vals)
    np.divide(numer[:, x], vals[:, x], out=out[:, x])
    return ScalarField(grid, out)


def compute_certificate(data: ProblemData, options: CertifyOptions) -> Certificate:
    """Evaluate every solvability constant; the Certificate derives the
    conditions from them.  compute_Psi's psi-floor check covers every
    interior node, so it covers the boundary-margin region used below."""
    grid = data.grid
    eps = data.params.epsilon
    margin = options.boundary_margin
    x = grid.interior(margin)

    Psi = compute_Psi(data, options.psi_floor)
    psi_vals = np.abs(data.psi.values[:, x])
    tau1, tau2 = data.params.tau1, data.params.tau2
    T = grid.T

    # numpy float64 throughout: a constant beyond float range becomes inf or
    # nan, which Certificate rejects by name, where a Python float power
    # would raise OverflowError
    with np.errstate(over="ignore", invalid="ignore"):
        inv_psi_max = np.max(1.0 / psi_vals)
        A_eps = (np.sqrt(np.pi) * np.sqrt(1.0 + 1.0 / (2.0 * eps))
                 * data.omega.omega_dd_l2 * inv_psi_max)

        Psi_M = np.max(np.abs(Psi.values[:, x]))

        phi = data.phi_modes
        phi_sq = l2_sq_G(phi, grid)
        grad_sq = l2_sq_G(diff(phi, grid.hx, axis=-1), grid)
        lam = eigenvalues(len(phi))
        phi_1_tau1 = mode_sum(phi_sq + grad_sq, lam, 2.0 * tau1)
        phi_0_tau1 = mode_sum(phi_sq, lam, 2.0 * tau1)
        phi_0_tau2 = mode_sum(phi_sq, lam, 2.0 * tau2)
        f_tau1 = mode_sum(l2_sq_GT(data.f_modes.values, grid), data.f_modes.eigenvalues,
                          2.0 * tau1)

        R = phi_1_tau1 + 8.0 * Psi_M**2 * T * phi_0_tau1 + phi_0_tau2 + 4.0 * f_tau1
        R1 = phi_1_tau1 + phi_0_tau2 + 4.0 * f_tau1

        C_P = 1.0 / np.float64(np.pi / grid.Lx) ** 2  # 1/lambda_1 of (0, Lx)

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
        Psi_M=float(Psi_M),
        R=float(R),
        R1=float(R1),
        T=float(T),
        boundary_margin=margin,
        provenance=provenance,
    )


def conditions(cert: Certificate) -> list[tuple[str, str, float, bool]]:
    """(scope, label, margin, holds) of every condition, local first: the
    inequality's signed margin rhs - lhs (positive means it holds) and the
    certificate's own verdict on it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [(scope, label, float(rhs(cert) - lhs(cert)), getattr(cert, field))
                for scope, label, field, lhs, rhs, _ in _CONDITIONS]
