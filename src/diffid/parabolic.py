"""Linear parabolic solver for a stack of sine modes k = 1..K:

    v_t - Lap v + lambda_k v + a(t,x) v = S_k(t,x),  v|_{bdry} = 0,  v(0) = phi_k,

advanced by a theta-scheme (theta = 0.5 is Crank-Nicolson).  Since a does not
depend on y, the modes share the grid, theta and a, and differ only in
lambda_k = k^2 and their data; march_modes advances the stack of mode rows it
is given (all of 1..K, or the excited ones that the sweep loop and the
forward solve carry), and each row's result does not depend on which other
rows are in the stack.

Without a reaction term (every Picard sweep lags the coefficient into the
source) the step operator I + theta dt (-Lap_h + lambda_k) is the same at
every step, and on the uniform Dirichlet grid the orthonormal DST-I
diagonalises it exactly (the fast-Poisson idea of Buzbee, Golub & Nielson,
1970).  The march is then one transform of the source stack, a scalar
recurrence over the (K, Nx) sine lanes, and one transform back.  The
transform is a dense sine-matrix product: for the grid sizes used here it
beats an FFT-based DST, whose speed depends on the factors of Nx+1.

With a known reaction a(t,x) the term is taken implicitly at level n+1 and
explicitly at level n with the same theta weights, which keeps the step
unconditionally stable for a >= 0 while each step stays one tridiagonal
solve per mode.  Every step's matrix is known before the march, so the
Thomas elimination of all Nt x K systems runs once up front, and each step
is one substitution across the (K, Nx) lanes of the whole stack.  The
step's right-hand side, mixed source included, is formed on its (K, Nx)
level, so the march holds no stack-sized array besides its output, the
diagonals being factored and the factors.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .errors import ConfigurationError, NumericalBlowupError
from .grids import Grid, ScalarField, l2_norm_GT
from .sinebasis import ModeFieldSet, OmegaData, SpectralParams, eigenvalues
from .tridiag import thomas_factor, thomas_substitute


def march_modes(sources: np.ndarray, phi_modes: np.ndarray, grid: Grid, theta: float = 0.5,
                reaction: np.ndarray | None = None, modes: np.ndarray | None = None) -> np.ndarray:
    """Time-march every row of the stack; row i of the (E, Nt+1, Nx+2) source
    stack and of the (E, Nx+2) initial stack is mode modes[i], by default
    mode i+1.  reaction, a (Nt+1, Nx+2) field, adds the a-term; None drops it.

    Returns the (E, Nt+1, Nx+2) solution stack.  Raises NumericalBlowupError
    naming the mode of the first row with a non-finite value and that row's
    first non-finite step.
    """
    if not 0.5 <= theta <= 1.0:
        raise ConfigurationError(f"theta must lie in [0.5, 1], got {theta}")
    sources = np.asarray(sources, dtype=float)
    phi_modes = np.asarray(phi_modes, dtype=float)
    K = sources.shape[0] if sources.ndim == 3 else 0
    if K < 1 or sources.shape[1:] != grid.field_shape:
        raise ConfigurationError(
            f"source stack shape {sources.shape} != (K,) + {grid.field_shape} with K >= 1")
    if phi_modes.shape != (K,) + grid.space_shape:
        raise ConfigurationError(
            f"initial stack shape {phi_modes.shape} != {(K,) + grid.space_shape}")
    modes = np.arange(1, K + 1) if modes is None else np.asarray(modes)
    if modes.shape != (K,) or modes.dtype.kind not in "iu" or np.any(modes < 1):
        raise ConfigurationError(f"mode numbers {modes} are not {K} positive integers")
    lam = eigenvalues(modes)

    out = np.zeros(sources.shape)
    if reaction is None:
        _march_spectral(out, sources, phi_modes, lam, grid, theta)
    else:
        reaction = np.asarray(reaction, dtype=float)
        if reaction.shape != grid.field_shape:
            raise ConfigurationError(f"reaction shape {reaction.shape} != {grid.field_shape}")
        a_min = float(np.min(reaction))
        if a_min < 0 and grid.dt * (-a_min) > 1.0:
            warnings.warn(
                f"dt*max(-a) = {grid.dt * (-a_min):.3g} > 1; negative reaction may be under-resolved",
                RuntimeWarning,
            )
        with np.errstate(all="ignore"):
            _march_tridiagonal(out, sources, phi_modes, lam, reaction, grid, theta)

    finite = np.isfinite(out[:, 1:]).all(axis=2)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=1)))
        k, step = int(modes[row]), int(np.argmin(finite[row])) + 1
        raise NumericalBlowupError(f"mode {k}: non-finite values at time step {step}",
                                   mode=k, step=step)
    return out


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


def _march_spectral(out: np.ndarray, sources: np.ndarray, phi_modes: np.ndarray,
                    lam: np.ndarray, grid: Grid, theta: float) -> None:
    """Reaction-free theta march in DST-I coordinates, written into the zeroed
    stack out; lam holds each row's lambda_k.  Per lane with symbol mu,
    v^{n+1} = amp v^n + p dt (theta S^{n+1} + (1-theta) S^n), where
    p = 1/(1 + theta dt mu) and amp = (1 - (1-theta) dt mu) p.

    The recurrence overwrites the transformed source stack one time level at
    a time, and the transform back writes straight into out, so the march
    holds no full-stack temporaries.
    """
    dt, Q = grid.dt, _sine_matrix(grid.Nx)
    mu = _dirichlet_symbol(grid.Nx, grid.hx)[None, :] + lam[:, None]
    p = 1.0 / (1.0 + theta * dt * mu)
    amp = (1.0 - (1.0 - theta) * dt * mu) * p
    pdt = p * dt

    # time-major (Nt+1, K, Nx), so each level the recurrence touches is one
    # contiguous block; it holds S_hat, then v_hat level by level
    v_hat = np.empty((grid.Nt + 1, len(sources), grid.Nx))
    np.matmul(sources[:, :, 1:-1], Q, out=v_hat.transpose(1, 0, 2))
    for n in range(grid.Nt, 0, -1):   # backwards: level n-1 still holds S_hat
        mixed = v_hat[n]
        mixed *= theta
        mixed += (1.0 - theta) * v_hat[n - 1]
        mixed *= pdt
    # a stack of (1, Nx) @ Q vector products: one (K, Nx) @ Q matrix product
    # differs in the last bits
    np.matmul(phi_modes[:, None, 1:-1], Q, out=v_hat[0, :, None, :])
    for n in range(1, grid.Nt + 1):
        v_hat[n] += amp * v_hat[n - 1]

    out[:, 0, 1:-1] = phi_modes[:, 1:-1]
    np.matmul(v_hat[1:].transpose(1, 0, 2), Q, out=out[:, 1:, 1:-1])


def _march_tridiagonal(out: np.ndarray, sources: np.ndarray, phi_modes: np.ndarray,
                       lam: np.ndarray, a: np.ndarray, grid: Grid, theta: float) -> None:
    """Theta march of the whole stack with the known reaction a, written into
    the zeroed stack out; lam holds each row's lambda_k.  A blowup runs on as
    inf/nan for march_modes to report."""
    dt, r = grid.dt, grid.dt / grid.hx**2
    c0 = 2.0 * r + dt * lam[:, None]   # (K, 1)

    off = np.full(grid.Nx - 1, -theta * r)
    # the (Nt, K, Nx) diagonals of steps 1..Nt
    cp, m = thomas_factor(off, (1.0 + theta * c0) + theta * dt * a[1:, None, 1:-1], off)

    out[:, 0, 1:-1] = phi_modes[:, 1:-1]
    for n in range(grid.Nt):
        v = out[:, n]
        rhs = v[:, 1:-1] * (1.0 - (1.0 - theta) * (c0 + dt * a[n, 1:-1]))
        rhs += (1.0 - theta) * r * (v[:, :-2] + v[:, 2:])
        # the mixed source dt (theta S^{n+1} + (1-theta) S^n), staged in the
        # level the step then overwrites with the solution
        mixed = out[:, n + 1, 1:-1]
        np.multiply(sources[:, n + 1, 1:-1], theta, out=mixed)
        mixed += (1.0 - theta) * sources[:, n, 1:-1]
        mixed *= dt
        rhs += mixed
        out[:, n + 1, 1:-1] = thomas_substitute(off, cp[n], m[n], rhs)


def forced_modes(phi_modes: np.ndarray, *stacks: ModeFieldSet) -> np.ndarray:
    """Ascending mode numbers k whose initial profile phi_k, or whose row in
    one of the mode stacks (a source f, a starting iterate), has a nonzero
    node.  Any other mode marches from zero with a zero source, so its
    solution is exactly zero, with or without a reaction term; in the
    inverse sweep its lagged source f_k - lag * u_k is zero too."""
    live = np.any(phi_modes, axis=1)
    for stack in stacks:
        live[stack.modes[np.any(stack.values, axis=(1, 2))] - 1] = True
    return np.flatnonzero(live) + 1


def solve_forward(a: ScalarField | None, f_modes: ModeFieldSet, phi_modes: np.ndarray,
                  grid: Grid, params: SpectralParams, theta: float = 0.5) -> ModeFieldSet:
    """Solve the decoupled mode equations with a known reaction coefficient.
    Only the forced modes are marched; the result is their compact stack."""
    modes = forced_modes(phi_modes, f_modes)
    if not len(modes):
        return ModeFieldSet.empty(grid, params)
    try:
        values = march_modes(f_modes.rows(modes).values, phi_modes[modes - 1], grid, theta,
                             reaction=None if a is None else a.values, modes=modes)
    except NumericalBlowupError as err:
        raise NumericalBlowupError(f"forward solve failed: {err}",
                                   mode=err.mode, step=err.step) from err
    # march_modes has checked every marched value finite
    return ModeFieldSet(grid, params, values, modes, check_finite=False)


def overdetermination_residual(u: ModeFieldSet, omega: OmegaData,
                               psi: ScalarField) -> tuple[ScalarField, float]:
    """Residual of the integral measurement: (pi/2) sum_k u_k omega_k - psi
    over u's rows, returned as a field together with its L2(G_T) norm."""
    res = ScalarField(u.grid, omega.measure(u.values, u.modes) - psi.values)
    return res, l2_norm_GT(res)
