import numpy as np
import pytest
from conftest import grid_and_stack
from hypothesis import given, settings

from diffid import (
    CertifyOptions,
    ConfigurationError,
    Grid,
    ScalarField,
    SpectralParams,
)
from diffid.errors import DataError
from diffid.grids import diff, diff2, l2_sq_G, l2_sq_GT


def grid_1d(Nx=128, Nt=128, Lx=np.pi, T=1.0):
    return Grid(Lx, T, Nx=Nx, Nt=Nt)


def test_build_grid_spacing():
    g = Grid(np.pi, 1.0, Nx=3, Nt=4)
    assert g.hx == pytest.approx(np.pi / 4, abs=1e-15)
    assert g.dt == pytest.approx(0.25, abs=1e-15)

    g = Grid(1.0, 1.0, Nx=99, Nt=10)
    assert g.hx == pytest.approx(0.01, abs=1e-15)


def test_build_grid_rejects_small_counts():
    with pytest.raises(ConfigurationError, match="Nx=1"):
        Grid(np.pi, 1.0, Nx=1, Nt=4)
    with pytest.raises(ConfigurationError, match="Nt=1"):
        Grid(np.pi, 1.0, Nx=4, Nt=1)


def test_grid_spans_an_interval():
    g = Grid(np.pi, 0.5, Nx=8, Nt=4)
    assert (g.Lx, g.T, g.field_shape) == (np.pi, 0.5, (5, 10))
    for Lx in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="Lx=.* not a finite positive number"):
            Grid(Lx, 1.0, Nx=8, Nt=4)
    for T in (0.0, -1.0):
        with pytest.raises(ConfigurationError, match="T=.* not a finite positive number"):
            Grid(np.pi, T, Nx=8, Nt=4)


@pytest.mark.parametrize("make, field", [
    pytest.param(lambda: Grid(np.nan, 0.5, Nx=4, Nt=4), "Lx", id="Grid-Lx-nan"),
    pytest.param(lambda: Grid(3.0, np.inf, Nx=4, Nt=4), "T", id="Grid-T-inf"),
    pytest.param(lambda: SpectralParams(K=4, epsilon=np.nan), "epsilon",
                 id="SpectralParams-epsilon-nan"),
    pytest.param(lambda: SpectralParams(K=2.5), "K", id="SpectralParams-K-2.5"),
    pytest.param(lambda: SpectralParams(K=2, Ny=64.5), "Ny", id="SpectralParams-Ny-64.5"),
    pytest.param(lambda: Grid(np.pi, 1.0, Nx=4.5, Nt=4), "Nx", id="Grid-Nx-4.5"),
    pytest.param(lambda: Grid(np.pi, 1.0, Nx=4, Nt=4.0), "Nt", id="Grid-Nt-4.0"),
    pytest.param(lambda: CertifyOptions(C_S=np.nan), "C_S", id="CertifyOptions-C_S-nan"),
    pytest.param(lambda: CertifyOptions(C_S=np.inf), "C_S", id="CertifyOptions-C_S-inf"),
    pytest.param(lambda: CertifyOptions(psi_floor=np.nan), "psi_floor",
                 id="CertifyOptions-psi_floor-nan"),
    pytest.param(lambda: CertifyOptions(boundary_margin=1.5), "boundary_margin",
                 id="CertifyOptions-boundary_margin-1.5"),
])
def test_constructors_reject_nonfinite_and_nonintegral(make, field):
    with pytest.raises(ConfigurationError, match=rf"^{field}="):
        make()


def test_integrate_constant_exact():
    # the trapezoid with step hx over the Nx+2 nodes spans exactly (0, Lx)
    g = grid_1d(Nx=17)
    assert np.trapezoid(np.ones(g.Nx + 2), dx=g.hx) == pytest.approx(np.pi, abs=1e-12)
    assert np.trapezoid(np.zeros(g.Nx + 2), dx=g.hx) == 0.0


def test_integrate_sin():
    g = grid_1d(Nx=128)
    assert np.trapezoid(np.sin(g.x), dx=g.hx) == pytest.approx(2.0, abs=1e-3)


def test_l2_norm_G_sin():
    g = grid_1d(Nx=128)
    assert np.sqrt(l2_sq_G(np.sin(g.x), g)) == pytest.approx(np.sqrt(np.pi / 2), abs=1e-3)
    assert l2_sq_G(np.zeros(g.Nx + 2), g) == 0.0


def test_l2_sq_G_rejects_a_trailing_axis_off_the_grid():
    g = grid_1d(Nx=8, Nt=4)
    for v in (np.zeros(9), np.zeros((5, 11)), np.float64(1.0)):
        with pytest.raises(DataError, match=r"does not end in the grid's 10 x-nodes"):
            l2_sq_G(v, g)


def test_l2_norm_GT_separable():
    g = grid_1d(Nx=128, Nt=128, T=1.0)
    f = ScalarField(g, np.exp(-g.t)[:, None] * np.sin(g.x)[None, :])
    exact = np.sqrt((np.pi / 2) * (1 - np.exp(-2)) / 2)
    assert np.sqrt(l2_sq_GT(f.values, g)) == pytest.approx(exact, abs=1e-3)


def test_l2_norm_GT_refinement_order():
    exact_sq = (np.pi / 2) * (1 - np.exp(-2)) / 2
    errs = []
    for n in (32, 64, 128):
        g = grid_1d(Nx=n, Nt=n)
        f = ScalarField(g, np.exp(-g.t)[:, None] * np.sin(g.x)[None, :])
        errs.append(abs(l2_sq_GT(f.values, g) - exact_sq))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.8


def test_grad_linear_exact():
    g = grid_1d(Nx=33)
    d = diff(2.0 * g.x, g.hx, axis=-1)
    assert np.max(np.abs(d - 2.0)) < 1e-12


def test_grad_quadratic_exact():
    g = grid_1d(Nx=41, Lx=2.0)
    v = 3.0 * g.x**2 - g.x + 0.5
    d = diff(v, g.hx, axis=-1)
    assert np.max(np.abs(d - (6.0 * g.x - 1.0))) < 1e-10


def test_grad_sin():
    g = grid_1d(Nx=128)
    d = diff(np.sin(g.x), g.hx, axis=-1)
    assert np.max(np.abs(d - np.cos(g.x))) < 1e-3


def test_laplacian_quadratic_exact():
    g = grid_1d(Nx=25)
    lap = diff2(g.x**2, g.hx)
    assert np.max(np.abs(lap - 2.0)) < 1e-9


def test_field_validation():
    g = grid_1d(Nx=8, Nt=4)
    with pytest.raises(Exception):
        ScalarField(g, np.zeros((3, 3)))
    bad = np.zeros(g.field_shape)
    bad[0, 0] = np.nan
    with pytest.raises(Exception):
        ScalarField(g, bad)


def test_grid_interior():
    g = grid_1d(Nx=6, Nt=4)  # nodes 0..7
    assert np.arange(8)[g.interior(2)].tolist() == [2, 3, 4, 5]
    assert (g.interior(0), g.interior(3)) == (slice(0, 8), slice(3, 5))
    assert np.arange(9)[grid_1d(Nx=7).interior(4)].tolist() == [4]
    for margin in (-1, 4):
        with pytest.raises(ConfigurationError,
                           match=rf"certify\.boundary_margin = {margin} .* Nx = 6.*\[0, 3\]"):
            g.interior(margin)


def _ref_sq_GT(v, grid, grad=False):
    """The per-time-slice loop the batched l2_sq_GT replaced, kept as the
    reference: one squared norm of each space slice (or of its x-derivative),
    then one trapezoid in time."""
    per_t = np.array([l2_sq_G(diff(v[n], grid.hx, axis=-1) if grad else v[n], grid)
                      for n in range(v.shape[0])])
    return float(np.trapezoid(per_t, dx=grid.dt))


@settings(max_examples=60, deadline=None)
@given(case=grid_and_stack())
def test_l2_sq_GT_batched_matches_slice_loop(case):
    grid, stack = case
    for grad in (False, True):
        ref = np.array([_ref_sq_GT(v, grid, grad) for v in stack])
        values = diff(stack, grid.hx, axis=-1) if grad else stack
        assert np.array_equal(l2_sq_GT(values, grid), ref)
        assert l2_sq_GT(values[0], grid) == ref[0]


@settings(max_examples=30, deadline=None)
@given(case=grid_and_stack())
def test_stencils_batched_match_per_slice(case):
    grid, stack = case
    for fn in (diff2, lambda v, h: diff(v, h, axis=-1)):
        per_slice = np.array([[fn(s, grid.hx) for s in v] for v in stack])
        assert np.array_equal(fn(stack, grid.hx), per_slice)


@settings(max_examples=60, deadline=None)
@given(case=grid_and_stack())
def test_diff_matches_np_gradient(case):
    grid, stack = case
    for h, axis in ((grid.dt, 1), (grid.dt, -2), (grid.hx, 2), (grid.hx, -1)):
        ref = np.gradient(stack, h, axis=axis, edge_order=2)
        assert np.array_equal(diff(stack, h, axis), ref)
        out = np.full_like(stack, np.nan)
        assert diff(stack, h, axis, out=out) is out
        assert np.array_equal(out, ref)
    assert np.array_equal(diff(stack[0, 0], grid.hx, 0),
                          np.gradient(stack[0, 0], grid.hx, edge_order=2))


@settings(max_examples=60, deadline=None)
@given(case=grid_and_stack())
def test_l2_sq_G_matches_trapezoid_of_square(case):
    grid, stack = case
    ref = np.trapezoid(stack**2, dx=grid.hx, axis=-1)
    got = l2_sq_G(stack, grid)
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-14 * ref)
    assert l2_sq_G(stack[0, 0], grid) == got[0, 0]
    assert l2_sq_G(np.zeros(grid.Nx + 2), grid) == 0.0
