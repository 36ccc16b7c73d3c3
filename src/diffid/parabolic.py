"""Linear parabolic solver for one sine mode:

    v_t - Lap v + lambda_k v + a(t,x) v = S(t,x),  v|_{bdry} = 0,  v(0) = phi,

advanced by a theta-scheme (theta = 0.5 is Crank-Nicolson).  The reaction is
taken implicitly at level n+1 and explicitly at level n with the same theta
weights, which keeps the step unconditionally stable for a >= 0 while the
linear solves stay tridiagonal (1-d) or one sparse solve per step (2-d).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sps
from scipy.sparse.linalg import splu

from .errors import ConfigurationError, NumericalBlowupError
from .grids import Grid, ScalarField, l2_norm_GT
from .sinebasis import ModeFieldSet, OmegaData, SpectralParams, eigenvalue
from .tridiag import thomas_solve


@dataclass(frozen=True)
class ModeProblem:
    """Data for one mode solve; reaction=None drops the a-term entirely."""

    k: int
    source: ScalarField
    initial: np.ndarray
    reaction: ScalarField | None = None
    theta: float = 0.5

    def __post_init__(self):
        if not 0.5 <= self.theta <= 1.0:
            raise ConfigurationError(f"theta must lie in [0.5, 1], got {self.theta}")
        if self.k < 1:
            raise ConfigurationError(f"mode index must be >= 1, got {self.k}")

    @property
    def lambda_k(self) -> float:
        return eigenvalue(self.k)


def solve_mode(problem: ModeProblem, grid: Grid) -> ScalarField:
    """Time-march one mode; raises NumericalBlowupError at the first
    non-finite step."""
    if problem.source.grid != grid:
        raise ConfigurationError("source grid does not match solve grid")
    phi = np.asarray(problem.initial, dtype=float)
    if phi.shape != grid.space_shape:
        raise ConfigurationError(f"initial profile shape {phi.shape} != {grid.space_shape}")

    if problem.reaction is not None:
        a_min = float(np.min(problem.reaction.values))
        if a_min < 0 and grid.dt * (-a_min) > 1.0:
            warnings.warn(
                f"dt*max(-a) = {grid.dt * (-a_min):.3g} > 1; negative reaction may be under-resolved",
                RuntimeWarning,
            )

    if grid.dim == 1:
        values = _march_1d(problem, grid, phi)
    else:
        values = _march_2d(problem, grid, phi)
    return ScalarField(grid, values)


def _march_1d(problem: ModeProblem, grid: Grid, phi: np.ndarray) -> np.ndarray:
    theta = problem.theta
    dt, hx = grid.dt, grid.hx
    lam = problem.lambda_k
    r = dt / hx**2
    S = problem.source.values
    a = problem.reaction.values if problem.reaction is not None else None

    n_int = grid.Nx  # interior nodes 1..Nx
    out = np.zeros(grid.field_shape)
    v = phi.copy()
    v[0] = 0.0
    v[-1] = 0.0
    out[0] = v

    lower = np.full(n_int - 1, -theta * r)
    upper = lower.copy()
    base_diag = 1.0 + theta * (2.0 * r + dt * lam)

    for n in range(grid.Nt):
        a_n = a[n, 1:-1] if a is not None else 0.0
        a_np1 = a[n + 1, 1:-1] if a is not None else 0.0
        s_mid = dt * (theta * S[n + 1, 1:-1] + (1.0 - theta) * S[n, 1:-1])

        rhs = (
            v[1:-1] * (1.0 - (1.0 - theta) * (2.0 * r + dt * lam + dt * a_n))
            + (1.0 - theta) * r * (v[:-2] + v[2:])
            + s_mid
        )
        diag = base_diag + theta * dt * a_np1 if a is not None else np.full(n_int, base_diag)

        interior = thomas_solve(lower, diag, upper, rhs)
        if not np.all(np.isfinite(interior)):
            raise NumericalBlowupError(
                f"mode {problem.k}: non-finite values at time step {n + 1}",
                mode=problem.k, step=n + 1,
            )
        v = np.zeros_like(v)
        v[1:-1] = interior
        out[n + 1] = v
    return out


def _neg_laplacian_2d(grid: Grid) -> sps.csr_matrix:
    """Second-order FD Dirichlet -Laplacian on the interior nodes, row-major
    in (x, y)."""
    nx, ny = grid.Nx, grid.Ny
    ex = np.ones(nx)
    ey = np.ones(ny)
    Ax = sps.diags([-ex[:-1], 2.0 * ex, -ex[:-1]], [-1, 0, 1]) / grid.hx**2
    Ay = sps.diags([-ey[:-1], 2.0 * ey, -ey[:-1]], [-1, 0, 1]) / grid.hy**2
    return (sps.kron(Ax, sps.eye(ny)) + sps.kron(sps.eye(nx), Ay)).tocsr()


def _march_2d(problem: ModeProblem, grid: Grid, phi: np.ndarray) -> np.ndarray:
    theta = problem.theta
    dt = grid.dt
    lam = problem.lambda_k
    S = problem.source.values
    a = problem.reaction.values if problem.reaction is not None else None

    nx, ny = grid.Nx, grid.Ny
    n_unknown = nx * ny
    A = _neg_laplacian_2d(grid)
    eye = sps.identity(n_unknown, format="csr")
    M = A + lam * eye

    out = np.zeros(grid.field_shape)
    v = phi.copy()
    v[0, :] = v[-1, :] = 0.0
    v[:, 0] = v[:, -1] = 0.0
    out[0] = v

    lu = None
    if a is None:
        lu = splu((eye + theta * dt * M).tocsc())

    for n in range(grid.Nt):
        v_int = v[1:-1, 1:-1].ravel()
        s_mid = dt * (theta * S[n + 1, 1:-1, 1:-1] + (1.0 - theta) * S[n, 1:-1, 1:-1]).ravel()
        if a is None:
            rhs = (eye - (1.0 - theta) * dt * M) @ v_int + s_mid
            sol = lu.solve(rhs)
        else:
            Dn = sps.diags(a[n, 1:-1, 1:-1].ravel())
            Dnp1 = sps.diags(a[n + 1, 1:-1, 1:-1].ravel())
            rhs = (eye - (1.0 - theta) * dt * (M + Dn)) @ v_int + s_mid
            sol = splu((eye + theta * dt * (M + Dnp1)).tocsc()).solve(rhs)
        if not np.all(np.isfinite(sol)):
            raise NumericalBlowupError(
                f"mode {problem.k}: non-finite values at time step {n + 1}",
                mode=problem.k, step=n + 1,
            )
        v = np.zeros_like(v)
        v[1:-1, 1:-1] = sol.reshape(nx, ny)
        out[n + 1] = v
    return out


def solve_forward(a: ScalarField | None, f_modes: ModeFieldSet, phi_modes: np.ndarray,
                  grid: Grid, params: SpectralParams, theta: float = 0.5) -> ModeFieldSet:
    """Solve the decoupled mode equations with a known reaction coefficient."""
    phi_modes = np.asarray(phi_modes, dtype=float)
    if phi_modes.shape != (params.K,) + grid.space_shape:
        raise ConfigurationError(
            f"phi mode stack shape {phi_modes.shape} != {(params.K,) + grid.space_shape}")

    def solve_one(k: int) -> np.ndarray:
        problem = ModeProblem(
            k=k,
            source=ScalarField(grid, f_modes.values[k - 1]),
            initial=phi_modes[k - 1],
            reaction=a,
            theta=theta,
        )
        try:
            return solve_mode(problem, grid).values
        except NumericalBlowupError as err:
            raise NumericalBlowupError(f"forward solve failed: {err}", mode=k, step=err.step) from err

    stack = np.stack([solve_one(k) for k in range(1, params.K + 1)])
    return ModeFieldSet(grid, params, stack)


def overdetermination_residual(u: ModeFieldSet, omega: OmegaData,
                               psi: ScalarField) -> tuple[ScalarField, float]:
    """Residual of the integral measurement: (pi/2) sum_k u_k omega_k - psi,
    returned as a field together with its L2(G_T) norm."""
    w = omega.omega_coeffs[: u.K]
    measured = (np.pi / 2.0) * np.tensordot(w, u.values, axes=(0, 0))
    res = ScalarField(u.grid, measured - psi.values)
    return res, l2_norm_GT(res)
