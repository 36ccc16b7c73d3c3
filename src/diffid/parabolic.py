"""Linear parabolic solver for one sine mode:

    v_t - Lap v + lambda_k v + a(t,x) v = S(t,x),  v|_{bdry} = 0,  v(0) = phi,

advanced by a theta-scheme (theta = 0.5 is Crank-Nicolson).

Without a reaction term (every Picard sweep lags the coefficient into the
source) the step operator I + theta dt (-Lap_h + lambda_k) is the same at
every step, and on the uniform Dirichlet grid the orthonormal DST-I
diagonalises it exactly (the fast-Poisson idea of Buzbee, Golub & Nielson,
1970).  The march is then one transform of the source, a scalar recurrence
per sine lane, and one transform back.  The transform is a dense
sine-matrix product: for the grid sizes used here it beats an FFT-based
DST, whose speed depends on the factors of Nx+1.

With a known reaction a(t,x) the term is taken implicitly at level n+1 and
explicitly at level n with the same theta weights, which keeps the step
unconditionally stable for a >= 0 while each step stays one tridiagonal
solve.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

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

    if problem.reaction is None:
        values = _march_spectral(problem, grid, phi)
    else:
        a_min = float(np.min(problem.reaction.values))
        if a_min < 0 and grid.dt * (-a_min) > 1.0:
            warnings.warn(
                f"dt*max(-a) = {grid.dt * (-a_min):.3g} > 1; negative reaction may be under-resolved",
                RuntimeWarning,
            )
        values = _march_tridiagonal(problem, grid, phi)
    return ScalarField(grid, values)


def _blowup(problem: ModeProblem, step: int) -> NumericalBlowupError:
    return NumericalBlowupError(
        f"mode {problem.k}: non-finite values at time step {step}",
        mode=problem.k, step=step,
    )


@functools.lru_cache(maxsize=8)
def _sine_matrix(n: int) -> np.ndarray:
    """Orthonormal DST-I matrix sqrt(2/(n+1)) sin(pi i j/(n+1)), i, j = 1..n.

    Symmetric and orthogonal, hence its own inverse.  The phase i*j is
    reduced modulo 2(n+1) in integers first, so sin sees arguments in
    [0, 2 pi) however large n is.  Read-only, since the cache hands the same
    array to every caller.
    """
    m = np.arange(1, n + 1)
    phase = np.outer(m, m) % (2 * (n + 1))
    Q = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * phase / (n + 1))
    Q.setflags(write=False)
    return Q


def _dirichlet_symbol(n: int, h: float) -> np.ndarray:
    """Eigenvalues (4/h^2) sin^2(m pi/(2(n+1))), m = 1..n, of the 3-point
    Dirichlet -d^2/dx^2 on n interior nodes; sine vector m of _sine_matrix
    is the eigenvector."""
    m = np.arange(1, n + 1)
    return (4.0 / h**2) * np.sin(m * np.pi / (2 * (n + 1))) ** 2


def _sine_transform(values: np.ndarray) -> np.ndarray:
    """DST-I of interior values (..., Nx) along the last axis; the same call
    inverts it."""
    return values @ _sine_matrix(values.shape[-1])


def _march_spectral(problem: ModeProblem, grid: Grid, phi: np.ndarray) -> np.ndarray:
    """Reaction-free theta march in DST-I coordinates: per lane with symbol mu,
    v^{n+1} = amp v^n + p dt (theta S^{n+1} + (1-theta) S^n), where
    p = 1/(1 + theta dt mu) and amp = (1 - (1-theta) dt mu) p."""
    theta, dt = problem.theta, grid.dt

    mu = _dirichlet_symbol(grid.Nx, grid.hx) + problem.lambda_k
    p = 1.0 / (1.0 + theta * dt * mu)
    amp = (1.0 - (1.0 - theta) * dt * mu) * p

    S_hat = _sine_transform(problem.source.values[:, 1:-1])
    v_hat = np.empty(S_hat.shape)
    v_hat[0] = _sine_transform(phi[1:-1])
    v_hat[1:] = (p * dt) * (theta * S_hat[1:] + (1.0 - theta) * S_hat[:-1])
    for n in range(1, grid.Nt + 1):
        v_hat[n] += amp * v_hat[n - 1]

    out = np.zeros(grid.field_shape)
    out[0, 1:-1] = phi[1:-1]
    out[1:, 1:-1] = _sine_transform(v_hat[1:])
    finite = np.isfinite(out[1:]).all(axis=1)
    if not finite.all():
        raise _blowup(problem, int(np.argmin(finite)) + 1)
    return out


def _march_tridiagonal(problem: ModeProblem, grid: Grid, phi: np.ndarray) -> np.ndarray:
    theta = problem.theta
    dt, hx = grid.dt, grid.hx
    lam = problem.lambda_k
    r = dt / hx**2
    S = problem.source.values
    a = problem.reaction.values

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
        s_mid = dt * (theta * S[n + 1, 1:-1] + (1.0 - theta) * S[n, 1:-1])
        rhs = (
            v[1:-1] * (1.0 - (1.0 - theta) * (2.0 * r + dt * lam + dt * a[n, 1:-1]))
            + (1.0 - theta) * r * (v[:-2] + v[2:])
            + s_mid
        )
        diag = base_diag + theta * dt * a[n + 1, 1:-1]

        interior = thomas_solve(lower, diag, upper, rhs)
        if not np.all(np.isfinite(interior)):
            raise _blowup(problem, n + 1)
        v = np.zeros_like(v)
        v[1:-1] = interior
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
