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
