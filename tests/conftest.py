import warnings

import numpy as np
import pytest
from hypothesis import strategies as st

from diffid import Grid, SpectralParams, build_scenario, run_inversion


@st.composite
def grid_and_stack(draw):
    """A random grid and a random (B, Nt+1, Nx+2) value stack."""
    grid = Grid(draw(st.floats(0.5, 4.0)), draw(st.floats(0.1, 2.0)),
                Nx=draw(st.integers(2, 40)), Nt=draw(st.integers(2, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 10)),) + grid.field_shape
    return grid, rng.standard_normal(shape) * 10.0 ** draw(st.integers(-3, 3))


def smooth_weights(K, Ny):
    """The weights sin y + 0.3 sin 3y, y (pi - y) and (y (pi - y))^2 on the
    Ny + 1 nodes y of [0, pi], each with the closed form of its couplings
    c_j = (sin(j y), omega''), j = 1..K: -pi/2 and -2.7 pi/2 at j = 1, 3;
    -4/j; and 4 pi^2/j - 48/j^3, the last two for odd j only."""
    y = SpectralParams(K=K, Ny=Ny).y
    j = np.arange(1, K + 1, dtype=float)
    odd = j % 2 == 1
    sines = np.zeros(K)
    sines[0], sines[2] = -np.pi / 2, -2.7 * np.pi / 2
    return y, [(np.sin(y) + 0.3 * np.sin(3 * y), sines),
               (y * (np.pi - y), np.where(odd, -4.0 / j, 0.0)),
               ((y * (np.pi - y)) ** 2, np.where(odd, 4 * np.pi**2 / j - 48.0 / j**3, 0.0))]


def _invert(name, N, T=0.5, K=16, epsilon=1.0, tol_F=1e-10, max_iters=50, scale=1.0):
    grid = Grid(np.pi, T, Nx=N, Nt=N)
    params = SpectralParams(K=K, epsilon=epsilon, Ny=max(4 * K, 256))
    scn = build_scenario(name, grid, params, scale=scale)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = run_inversion(scn.data, tol_F=tol_F, max_iters=max_iters, force=True)
    return scn, result


@pytest.fixture(scope="session")
def mmsa_study():
    """Full MMS-A inversions at the acceptance resolutions (shared)."""
    return {N: _invert("MMS-A", N) for N in (32, 64, 128)}


@pytest.fixture(scope="session")
def mmsa_eps5():
    """MMS-A inversions with epsilon = 5 for the strong-solution diagnostics."""
    return {N: _invert("MMS-A", N, epsilon=5.0) for N in (64, 128)}
