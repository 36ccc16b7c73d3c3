"""Linear parabolic solver for a stack of sine modes k = 1..K:

    v_t - Lap v + lambda_k v + a(t,x) v = S_k(t,x),  v|_{bdry} = 0,  v(0) = phi_k,

advanced by a theta-scheme (theta = 0.5 is Crank-Nicolson).  Since a does not
depend on y, the modes share the grid, theta and a, and differ only in
lambda_k = k^2 and their data; march_modes advances the stack of mode rows it
is given, each labelled with its mode number (the excited modes that the
sweep loop and the forward solve carry), and each row's result does not
depend on which other rows are in the stack.

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
solve per mode.  Each step solves the (K, Nx) systems of the whole stack at
once by parallel cyclic reduction (tridiag.solve_in_place): ceil(log2 Nx)
vectorised passes with no loop over x.  The step builds its diagonal from
a^{n+1} and its right-hand side, mixed source included, in the level it
solves for, so the march holds its stack plus a few (K, Nx) work arrays, and
nothing is factored ahead or stored across steps.

Every march runs in place: march_modes overwrites the source stack it is
given with the solution, so a march holds one stack, not two.  Both kernels
take their extent from the stack: each marches any contiguous run of a
parent grid's levels at that grid's dt and hx, so a time window needs no
grid of its own.  The Picard sweep marches the fresh source stack
picard_source builds, and solve_forward the rows of f it reads.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .errors import ConfigurationError, NumericalBlowupError
from .grids import Grid, ScalarField, l2_sq_GT
from .sinebasis import ModeFieldSet, OmegaData
from .tridiag import solve_in_place


def march_modes(sources: ModeFieldSet, start: np.ndarray, theta: float = 0.5,
                reaction: np.ndarray | None = None) -> ModeFieldSet:
    """Time-march every row of the source stack in place.  The grid and each
    row's mode k come from the stack; row i starts from start[i], so start
    holds one (Nx+2) row per stack row.  reaction, a (Nt+1, Nx+2) field,
    adds the a-term; None drops it.

    Overwrites sources.values with the solution and returns sources; an
    empty stack returns at once.  Raises NumericalBlowupError naming the
    mode of the first row with a non-finite value and that row's first
    non-finite step.
    """
    if not 0.5 <= theta <= 1.0:
        raise ConfigurationError(f"theta must lie in [0.5, 1], got {theta}")
    grid, modes, values = sources.grid, sources.modes, sources.values
    start = np.asarray(start, dtype=float)
    if start.shape != (len(modes), grid.Nx + 2):
        raise ConfigurationError(f"start rows shape {start.shape} != {(len(modes), grid.Nx + 2)}")
    if not len(modes):
        return sources
    if reaction is not None:
        reaction = np.asarray(reaction, dtype=float)
        if reaction.shape != grid.field_shape:
            raise ConfigurationError(f"reaction shape {reaction.shape} != {grid.field_shape}")
        a_min = float(np.min(reaction))
        if a_min < 0 and grid.dt * (-a_min) > 1.0:
            warnings.warn(
                f"dt*max(-a) = {grid.dt * (-a_min):.3g} > 1; negative reaction may be under-resolved",
                RuntimeWarning,
            )

    # both marches write every interior node and read only the sources'
    # interior columns
    values[:, :, 0] = values[:, :, -1] = 0.0
    if reaction is None:
        _march_spectral(values, start, sources.eigenvalues, grid, theta)
    else:
        with np.errstate(all="ignore"):
            _march_tridiagonal(values, start, sources.eigenvalues, reaction, grid, theta)

    # steps 1..Nt of one mode at a time: a boolean work array of one mode's
    # (Nt, Nx+2) nodes, not of the whole stack
    for k, rows in zip(modes.tolist(), values[:, 1:]):
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            step = int(np.argmin(finite)) + 1
            raise NumericalBlowupError(f"mode {k}: non-finite values at time step {step}")
    return sources


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


def _march_spectral(stack: np.ndarray, start: np.ndarray, lam: np.ndarray, grid: Grid,
                    theta: float) -> None:
    """Reaction-free theta march in DST-I coordinates of the source stack into
    itself, whose boundary columns are zero: any contiguous run of the parent
    grid's levels, at its dt and hx.  Level 0 holds the source at the run's
    first level, and start (row i's start row, lambda_k lam[i]) overwrites it.
    Per lane with symbol mu, v^{n+1} = amp v^n + p dt (theta S^{n+1}
    + (1-theta) S^n), where p = 1/(1 + theta dt mu), amp = (1 - (1-theta) dt mu) p.

    The mixed sources overwrite the transformed source stack in three
    whole-stack operations, after (1-theta) S^n is staged in the stack's
    interior, which the transform back overwrites; the recurrence then runs
    over the levels in place.  Besides the stack the march holds the one
    transform buffer.  A blowup runs on as inf/nan; the caller's scan names
    the step within the run.
    """
    dt, Q = grid.dt, _sine_matrix(stack.shape[2] - 2)
    mu = _dirichlet_symbol(len(Q), grid.hx)[None, :] + lam[:, None]
    p = 1.0 / (1.0 + theta * dt * mu)
    amp = (1.0 - (1.0 - theta) * dt * mu) * p
    pdt = p * dt

    # level-major (levels, K, Nx), so each level the recurrence touches is
    # one contiguous block; it holds S_hat, then v_hat level by level
    v_hat = np.empty((stack.shape[1], len(stack), len(Q)))
    np.matmul(stack[:, :, 1:-1], Q, out=v_hat.transpose(1, 0, 2))
    lagged = stack[:, 1:, 1:-1].transpose(1, 0, 2)
    np.multiply(v_hat[:-1], 1.0 - theta, out=lagged)
    mixed = v_hat[1:]
    mixed *= theta
    mixed += lagged
    mixed *= pdt
    # a stack of (1, Nx) @ Q vector products: one (K, Nx) @ Q matrix product
    # differs in the last bits
    np.matmul(start[:, None, 1:-1], Q, out=v_hat[0, :, None, :])
    step = np.empty_like(amp)
    for n in range(1, len(v_hat)):
        v_hat[n] += np.multiply(amp, v_hat[n - 1], out=step)

    stack[:, 0, 1:-1] = start[:, 1:-1]
    np.matmul(v_hat[1:].transpose(1, 0, 2), Q, out=stack[:, 1:, 1:-1])


def _march_tridiagonal(stack: np.ndarray, start: np.ndarray, lam: np.ndarray, a: np.ndarray,
                       grid: Grid, theta: float) -> None:
    """Theta march with the known reaction a, over the run's levels too, of
    the source stack into itself, with the run, start and lam as in
    _march_spectral.  Each step reads source levels n and n+1 and overwrites
    level n+1, so the march keeps source level n aside.  A blowup runs on as
    inf/nan; the caller's scan names the step within the run."""
    dt, r = grid.dt, grid.dt / grid.hx**2
    c0 = 2.0 * r + dt * lam[:, None]   # (K, 1)

    prev = stack[:, 0, 1:-1].copy()   # source level n
    stack[:, 0, 1:-1] = start[:, 1:-1]
    for n in range(stack.shape[1] - 1):
        v, x = stack[:, n], stack[:, n + 1, 1:-1]
        # the mixed source dt (theta S^{n+1} + (1-theta) S^n), staged in the
        # level the step then solves for in place
        nxt = stack[:, n + 1, 1:-1].copy()
        np.multiply(nxt, theta, out=x)
        prev *= 1.0 - theta
        x += prev
        x *= dt
        x += (v[:, 1:-1] * (1.0 - (1.0 - theta) * (c0 + dt * a[n, 1:-1]))
              + (1.0 - theta) * r * (v[:, :-2] + v[:, 2:]))
        diag = (1.0 + theta * c0) + theta * dt * a[n + 1, 1:-1]
        solve_in_place(-theta * r, diag, x)
        prev = nxt


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


def solve_forward(a: ScalarField, f_modes: ModeFieldSet, phi_modes: np.ndarray,
                  theta: float = 0.5) -> ModeFieldSet:
    """Solve the decoupled mode equations with the known reaction coefficient
    a on f_modes' grid.  Only the forced modes are marched; the result is
    their compact stack, marched in place in the stack that
    f_modes.rows(modes) returns.  When f_modes holds exactly the forced rows
    that is f_modes itself, which is then left holding the result and must
    not be read again."""
    try:
        sources = f_modes.rows(forced_modes(phi_modes, f_modes))
        return march_modes(sources, phi_modes[sources.modes - 1], theta, reaction=a.values)
    except NumericalBlowupError as err:
        raise NumericalBlowupError(f"forward solve failed: {err}") from err


def overdetermination_residual(u: ModeFieldSet, omega: OmegaData,
                               psi: ScalarField) -> tuple[ScalarField, float]:
    """Residual of the integral measurement: (pi/2) sum_k u_k omega_k - psi
    over u's rows, returned as a field together with its L2(G_T) norm."""
    res = ScalarField(u.grid, omega.measure(u.values, u.modes) - psi.values)
    return res, float(np.sqrt(l2_sq_GT(res.values, u.grid)))
