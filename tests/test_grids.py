import numpy as np
import pytest
from conftest import grid_and_stack
from hypothesis import given, settings

from diffid import (
    ConfigurationError,
    Domain,
    Grid,
    ScalarField,
    build_grid,
    grad_x,
    interior_margin_mask,
    l2_norm_G,
    l2_norm_GT,
    laplacian_x,
)
from diffid.grids import diff, l2_sq_G, l2_sq_GT


def grid_1d(Nx=128, Nt=128, Lx=np.pi, T=1.0):
    return build_grid(Domain((Lx,), T), Nx=Nx, Nt=Nt)


def test_build_grid_spacing():
    g = build_grid(Domain((np.pi,), 1.0), Nx=3, Nt=4)
    assert g.hx == pytest.approx(np.pi / 4, abs=1e-15)
    assert g.dt == pytest.approx(0.25, abs=1e-15)

    g = build_grid(Domain((1.0,), 1.0), Nx=99, Nt=10)
    assert g.hx == pytest.approx(0.01, abs=1e-15)


def test_build_grid_rejects_small_counts():
    with pytest.raises(ConfigurationError):
        build_grid(Domain((np.pi,), 1.0), Nx=1, Nt=4)
    with pytest.raises(ConfigurationError):
        build_grid(Domain((np.pi,), 1.0), Nx=4, Nt=1)
    with pytest.raises(ConfigurationError):
        Domain((0.0,), 1.0)
    with pytest.raises(ConfigurationError):
        Domain((np.pi,), -1.0)


def test_domain_is_an_interval():
    for lengths in ((), (np.pi, np.pi)):
        with pytest.raises(ConfigurationError, match="1-dimensional"):
            Domain(lengths, 1.0)
    g = build_grid(Domain((np.pi,), 1.0), Nx=8, Nt=4)
    assert g.space_shape == (10,)


def test_integrate_constant_exact():
    # the trapezoid with step hx over the Nx+2 nodes spans exactly (0, Lx)
    g = grid_1d(Nx=17)
    assert np.trapezoid(np.ones(g.space_shape), dx=g.hx) == pytest.approx(np.pi, abs=1e-12)
    assert np.trapezoid(np.zeros(g.space_shape), dx=g.hx) == 0.0


def test_integrate_sin():
    g = grid_1d(Nx=128)
    assert np.trapezoid(np.sin(g.x), dx=g.hx) == pytest.approx(2.0, abs=1e-3)


def test_l2_norm_G_sin():
    g = grid_1d(Nx=128)
    assert l2_norm_G(np.sin(g.x), g) == pytest.approx(np.sqrt(np.pi / 2), abs=1e-3)
    assert l2_norm_G(np.zeros(g.space_shape), g) == 0.0


def test_l2_norm_GT_separable():
    g = grid_1d(Nx=128, Nt=128, T=1.0)
    f = ScalarField.from_function(g, lambda t, x: np.exp(-t) * np.sin(x))
    exact = np.sqrt((np.pi / 2) * (1 - np.exp(-2)) / 2)
    assert l2_norm_GT(f) == pytest.approx(exact, abs=1e-3)


def test_l2_norm_GT_refinement_order():
    exact_sq = (np.pi / 2) * (1 - np.exp(-2)) / 2
    errs = []
    for n in (32, 64, 128):
        g = grid_1d(Nx=n, Nt=n)
        f = ScalarField.from_function(g, lambda t, x: np.exp(-t) * np.sin(x))
        errs.append(abs(l2_norm_GT(f) ** 2 - exact_sq))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]
    assert min(orders) >= 1.8


def test_grad_linear_exact():
    g = grid_1d(Nx=33)
    d = grad_x(2.0 * g.x, g)
    assert np.max(np.abs(d - 2.0)) < 1e-12


def test_grad_quadratic_exact():
    g = grid_1d(Nx=41, Lx=2.0)
    v = 3.0 * g.x**2 - g.x + 0.5
    d = grad_x(v, g)
    assert np.max(np.abs(d - (6.0 * g.x - 1.0))) < 1e-10


def test_grad_sin():
    g = grid_1d(Nx=128)
    d = grad_x(np.sin(g.x), g)
    assert np.max(np.abs(d - np.cos(g.x))) < 1e-3


def test_laplacian_quadratic_exact():
    g = grid_1d(Nx=25)
    lap = laplacian_x(g.x**2, g)
    assert np.max(np.abs(lap - 2.0)) < 1e-9


def test_field_validation():
    g = grid_1d(Nx=8, Nt=4)
    with pytest.raises(Exception):
        ScalarField(g, np.zeros((3, 3)))
    bad = np.zeros(g.field_shape)
    bad[0, 0] = np.nan
    with pytest.raises(Exception):
        ScalarField(g, bad)


def test_interior_margin_mask():
    g = grid_1d(Nx=6, Nt=4)  # nodes 0..7
    mask = interior_margin_mask(g, 2)
    assert mask.tolist() == [False, False, True, True, True, True, False, False]
    with pytest.raises(ConfigurationError):
        interior_margin_mask(g, 5)


def _ref_sq_GT(v, grid, grad=False):
    """The per-time-slice loop the batched l2_sq_GT replaced, kept as the
    reference: one squared norm of each space slice, then one trapezoid in
    time."""
    per_t = np.array([l2_sq_G(grad_x(v[n], grid) if grad else v[n], grid)
                      for n in range(v.shape[0])])
    return float(np.trapezoid(per_t, dx=grid.dt))


@settings(max_examples=60, deadline=None)
@given(case=grid_and_stack())
def test_l2_sq_GT_batched_matches_slice_loop(case):
    grid, stack = case
    for grad in (False, True):
        ref = np.array([_ref_sq_GT(v, grid, grad) for v in stack])
        assert np.array_equal(l2_sq_GT(stack, grid, grad=grad), ref)
        assert l2_sq_GT(stack[0], grid, grad=grad) == ref[0]


@settings(max_examples=30, deadline=None)
@given(case=grid_and_stack())
def test_stencils_batched_match_per_slice(case):
    grid, stack = case
    for fn in (laplacian_x, grad_x):
        per_slice = np.array([[fn(s, grid) for s in v] for v in stack])
        assert np.array_equal(fn(stack, grid), per_slice)


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
    assert l2_sq_G(np.zeros(grid.space_shape), grid) == 0.0
