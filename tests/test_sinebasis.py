import numpy as np
import pytest
from conftest import grid_and_stack, smooth_weights
from hypothesis import given, settings
from hypothesis import strategies as st

from diffid import (
    ConfigurationError,
    F_functional,
    Grid,
    ModeFieldSet,
    OmegaData,
    SpectralParams,
    sine_coeffs,
    synthesize,
)
from diffid.errors import DataError
from diffid.grids import diff, l2_sq_G, l2_sq_GT
from diffid.sinebasis import eigenvalues, mode_sum


def test_eigenvalues():
    lam = eigenvalues(np.arange(1, 11))
    assert lam.dtype == float
    assert np.array_equal(lam, np.arange(1, 11) ** 2)
    assert np.array_equal(eigenvalues([3, 7]), [9.0, 49.0])


def test_sine_coeff_orthonormal():
    params = SpectralParams(K=8, Ny=256)
    y = params.y
    v = np.sin(2 * y)
    c = sine_coeffs(v, 3, y)   # c[k-1] is the coefficient of sin(k y)
    assert c[1] == pytest.approx(1.0, abs=1e-10)
    assert c[0] == pytest.approx(0.0, abs=1e-10)
    assert c[2] == pytest.approx(0.0, abs=1e-10)
    assert sine_coeffs(np.zeros_like(y), 5, y)[4] == 0.0


def test_sine_coeff_parabola():
    # (2/pi) int y(pi-y) sin(ky) dy = 8/(pi k^3) for odd k, 0 for even k
    params = SpectralParams(K=9, Ny=256)
    y = params.y
    v = y * (np.pi - y)
    c = sine_coeffs(v, 9, y)
    for k in range(1, 10):
        exact = 8.0 / (np.pi * k**3) if k % 2 == 1 else 0.0
        assert c[k - 1] == pytest.approx(exact, abs=1e-6)


def test_orthogonality_matrix():
    K = 32
    params = SpectralParams(K=K, Ny=4 * K)
    y = params.y
    for m in range(1, K + 1):
        coeffs = sine_coeffs(np.sin(m * y), K, y)
        expected = np.zeros(K)
        expected[m - 1] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-10


def test_synthesize_basics():
    params = SpectralParams(K=4, Ny=128)
    y = params.y
    coeffs = np.array([1.0, 0.0, 0.0, 0.0])
    assert np.max(np.abs(synthesize(coeffs, y, np.arange(1, 5)) - np.sin(y))) < 1e-14


def test_analysis_synthesis_roundtrip():
    params = SpectralParams(K=16, Ny=128)
    y = params.y
    rng = np.random.default_rng(3)
    coeffs, modes = rng.standard_normal(16), np.arange(1, 17)
    v = synthesize(coeffs, y, modes)
    back = sine_coeffs(v, 16, y)
    assert np.max(np.abs(back - coeffs)) < 1e-10
    assert np.max(np.abs(synthesize(back, y, modes) - v)) < 1e-10


def test_synthesize_parabola_tail():
    K = 64
    params = SpectralParams(K=K, Ny=4 * K)
    y = params.y
    v = y * (np.pi - y)
    approx = synthesize(sine_coeffs(v, K, y), y, np.arange(1, K + 1))
    assert np.max(np.abs(approx - v)) <= 1e-3


def test_parseval_band_limited():
    params = SpectralParams(K=12, Ny=256)
    y = params.y
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(12)
    v = synthesize(coeffs, y, np.arange(1, 13))
    norm_sq = np.trapezoid(v**2, y)
    assert norm_sq == pytest.approx((np.pi / 2) * np.sum(coeffs**2), abs=1e-8)


def test_couplings_sin():
    params = SpectralParams(K=6, Ny=256)
    om = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
    c = om.couplings[:6]
    assert c[0] == pytest.approx(-np.pi / 2, abs=1e-10)
    assert np.max(np.abs(c[1:])) < 1e-10


def test_couplings_sin2():
    params = SpectralParams(K=6, Ny=256)
    om = OmegaData.from_profiles(params.y, np.sin(2 * params.y), params.K)
    c = om.couplings[:6]
    assert c[1] == pytest.approx(-2.0 * np.pi, abs=1e-10)
    mask = np.ones(6, dtype=bool)
    mask[1] = False
    assert np.max(np.abs(c[mask])) < 1e-10


def test_couplings_zero_omega():
    params = SpectralParams(K=4, Ny=128)
    om = OmegaData.from_profiles(params.y, np.zeros_like(params.y), 4)
    assert np.max(np.abs(om.couplings)) == 0.0
    assert om.omega_dd_l2 == 0.0


def test_coupling_identity_smooth_omegas():
    # polynomial-type weights need the y quadrature resolved well past 4K
    y, cases = smooth_weights(32, 4096)
    for omega, exact in cases:
        om = OmegaData.from_profiles(y, omega, 32)
        assert np.max(np.abs(om.couplings - exact)) <= 1e-8


def test_omega_dd_l2_parseval():
    # ||omega''|| is the norm of omega's K-term sine series, exact for a weight
    # of at most K modes: omega = sin y + 0.3 sin 3y gives pi/2 (1 + 2.7^2)
    exact = np.sqrt(np.pi / 2 * 8.29)
    y = SpectralParams(K=4, Ny=128).y
    om = OmegaData.from_profiles(y, np.sin(y) + 0.3 * np.sin(3 * y), 4)
    assert om.omega_dd_l2 == pytest.approx(exact, rel=1e-12, abs=0)
    # on non-uniform nodes only the trapezoid coefficients move
    s = np.linspace(0.0, 1.0, 129)
    y = np.pi * (s + 0.05 * np.sin(2 * np.pi * s))
    om = OmegaData.from_profiles(y, np.sin(y) + 0.3 * np.sin(3 * y), 4)
    assert om.omega_dd_l2 == pytest.approx(exact, rel=1e-3)
    # any other weight reads below the continuous norm, from below as K grows:
    # y (pi - y) has omega'' = -2, ||omega''|| = 2 sqrt(pi)
    y = SpectralParams(K=32, Ny=4096).y
    norms = [OmegaData.from_profiles(y, y * (np.pi - y), K).omega_dd_l2
             for K in (1, 2, 4, 8, 16, 32)]
    assert np.all(np.diff(norms[1:]) > 0) and norms[1] >= norms[0]
    assert norms[-1] < 2 * np.sqrt(np.pi)
    assert norms[4] == pytest.approx(3.4998, abs=1e-4)


def test_omega_boundary_check():
    # the check is relative to max|omega|, so omega's units do not decide it
    params = SpectralParams(K=4, Ny=128)
    for scale in (1.0, 1e-10):
        with pytest.raises(DataError, match="vanish"):
            OmegaData.from_profiles(params.y, scale * np.cos(params.y), 4)
        om = OmegaData.from_profiles(params.y, scale * np.sin(params.y), 4)
        assert om.couplings[0] == pytest.approx(-scale * np.pi / 2, rel=1e-12)


def make_grid(Nx=64, Nt=16, T=1.0):
    return Grid(np.pi, T, Nx=Nx, Nt=Nt)


def test_F_functional_static_mode():
    g = make_grid(Nx=128, Nt=16)
    params = SpectralParams(K=1, epsilon=1.0, Ny=64)
    vals = np.zeros((1,) + g.field_shape)
    vals[0, :] = np.sin(g.x)
    modes = ModeFieldSet(g, params, vals, np.arange(1, params.K + 1))
    zero = ModeFieldSet.empty(g, params)
    assert F_functional(modes, zero) == pytest.approx(np.pi, abs=1e-3)
    doubled = ModeFieldSet(g, params, 2.0 * vals, np.arange(1, params.K + 1))
    assert F_functional(doubled, zero) == pytest.approx(4.0 * F_functional(modes, zero), rel=1e-12)
    # the energy of the difference: 2u - u is u, and u - u is zero
    assert F_functional(doubled, modes) == F_functional(modes, zero)
    assert F_functional(modes, modes) == 0.0

    assert F_functional(zero, zero) == 0.0
    assert F_functional(zero.full(), zero) == 0.0


def test_mode_rows_select_and_scatter():
    g = make_grid(Nx=12, Nt=6)
    params = SpectralParams(K=4, epsilon=1.0, Ny=64)
    vals = np.random.default_rng(3).standard_normal((4,) + g.field_shape)
    vals[[0, 2]] = 0.0
    full = ModeFieldSet(g, params, vals, np.arange(1, params.K + 1))
    compact = full.rows(np.array([2, 4]))
    assert np.array_equal(compact.values, vals[[1, 3]])
    assert np.array_equal(compact.eigenvalues, [4.0, 16.0])
    assert full.rows(np.arange(1, 5)) is full and full.full() is full
    assert compact.rows(np.array([2, 4])) is compact
    assert np.array_equal(compact.full().values, vals)
    # mode_sum skips zero rows, so the energy and the measurement of a stack
    # do not depend on them; synthesize's matrix product over several nonzero
    # rows may group them otherwise, which moves last bits only
    zero = ModeFieldSet.empty(g, params)
    assert F_functional(compact, zero) == F_functional(full, zero)
    om = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
    assert np.array_equal(om.measure(compact.values, compact.modes),
                          om.measure(full.values, full.modes))
    got, dense = compact.synthesize_y(params.y, g.Nt), full.synthesize_y(params.y, g.Nt)
    assert np.max(np.abs(got - dense)) <= 1e-14 * np.max(np.abs(dense))
    for bad in (np.array([3, 2]), np.array([0, 1]), np.array([5]), np.array([1.0, 2.0])):
        with pytest.raises(DataError, match="mode numbers"):
            ModeFieldSet(g, params, vals[: len(bad)], bad)
    # the energy of new - old reads a mode old lacks as zero, but old may not
    # hold a mode new lacks
    assert F_functional(full, compact) == 0.0
    with pytest.raises(DataError, match=r"old holds mode rows \[1, 3\] that new"):
        F_functional(compact, full)


def test_mode_stack_rejects_a_bad_shape_and_non_finite_values():
    g = make_grid(Nx=12, Nt=6)
    params = SpectralParams(K=3, Ny=64)
    vals = np.zeros((3,) + g.field_shape)
    for shape in ((2,) + g.field_shape, (3, g.Nt + 1, g.Nx + 1), g.field_shape):
        with pytest.raises(DataError, match="mode stack shape"):
            ModeFieldSet(g, params, np.zeros(shape), np.arange(1, params.K + 1))
    for bad in (np.nan, np.inf):
        vals[1, 2, 3] = bad
        with pytest.raises(DataError, match="non-finite"):
            ModeFieldSet(g, params, vals, np.arange(1, params.K + 1))
        # a producer that has checked its own values skips the scan
        assert ModeFieldSet(g, params, vals, np.arange(1, params.K + 1),
                            check_finite=False).values is vals


def test_mode_numbers_are_required():
    # a stack, a synthesis and the eigenvalues all take the mode numbers,
    # never a count or a default of 1..K
    g = make_grid(Nx=4, Nt=2)
    params = SpectralParams(K=2, Ny=64)
    with pytest.raises(TypeError):
        ModeFieldSet(g, params, np.zeros((2,) + g.field_shape))
    with pytest.raises(TypeError):
        synthesize(np.ones(2), params.y)


def test_rows_fill_absent_modes_with_zeros():
    g = make_grid(Nx=10, Nt=5)
    params = SpectralParams(K=6, Ny=64)
    vals = np.random.default_rng(4).standard_normal((3,) + g.field_shape)
    stack = ModeFieldSet(g, params, vals, np.array([2, 3, 5]))
    aligned = stack.rows(np.array([1, 3, 4, 5, 6]))
    assert aligned.modes.tolist() == [1, 3, 4, 5, 6]
    assert not np.any(aligned.values[[0, 2, 4]])   # modes 1, 4, 6: absent
    assert aligned.values[1].tobytes() == vals[1].tobytes()  # mode 3
    assert aligned.values[3].tobytes() == vals[2].tobytes()  # mode 5
    dense = stack.full()
    assert dense.modes.tolist() == list(range(1, 7))
    assert np.array_equal(dense.values[[1, 2, 4]], vals) and not np.any(dense.values[[0, 3, 5]])
    empty = ModeFieldSet.empty(g, params)
    assert empty.values.shape == (0,) + g.field_shape
    assert not np.any(empty.rows(np.array([2, 6])).values)
    assert stack.rows(np.zeros(0, dtype=int)).values.shape == (0,) + g.field_shape
    with pytest.raises(DataError, match="mode numbers"):
        stack.rows(np.array([7]))


def test_F_functional_triangle_inequality():
    g = make_grid(Nx=24, Nt=8)
    params = SpectralParams(K=3, epsilon=1.0, Ny=64)
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = ModeFieldSet(g, params, 0.1 * rng.standard_normal((3,) + g.field_shape), [1, 2, 3])
        v = ModeFieldSet(g, params, 0.1 * rng.standard_normal((3,) + g.field_shape), [1, 2, 3])
        zero = ModeFieldSet.empty(g, params)
        lhs = np.sqrt(F_functional(u, v))
        rhs = np.sqrt(F_functional(u, zero)) + np.sqrt(F_functional(v, zero))
        assert lhs <= rhs + 1e-10


def test_params_validation():
    with pytest.raises(ConfigurationError):
        SpectralParams(K=0)
    with pytest.raises(ConfigurationError):
        SpectralParams(K=4, epsilon=-1.0)
    with pytest.raises(ConfigurationError):
        SpectralParams(K=32, Ny=64)
    p = SpectralParams(K=4)
    assert p.tau1 == pytest.approx(0.5)
    assert p.tau2 == pytest.approx(1.0)
    p5 = SpectralParams(K=4, epsilon=5.0)
    assert p5.tau1 == pytest.approx(1.5)
    assert p5.tau2 == pytest.approx(2.0)


def _ref_F(modes):
    """The per-mode, per-time-slice loop the batched F_functional replaced."""
    grid, eps = modes.grid, modes.params.epsilon
    lam = np.arange(1, modes.K + 1, dtype=float) ** 2
    total = 0.0
    for k in range(modes.K):
        v = modes.values[k]
        dt_term = l2_sq_GT(np.gradient(v, grid.dt, axis=0, edge_order=2), grid)
        grad_term = max(l2_sq_G(diff(v[n], grid.hx, axis=-1), grid) for n in range(v.shape[0]))
        l2_term = max(l2_sq_G(v[n], grid) for n in range(v.shape[0]))
        total += lam[k] ** ((1.0 + eps) / 2.0) * (dt_term + grad_term + lam[k] * l2_term)
    return float(total)


@settings(max_examples=60, deadline=None)
@given(case=grid_and_stack(), eps=st.floats(0.1, 5.0))
def test_batched_mode_norms_match_slice_loops(case, eps):
    grid, stack = case
    modes = ModeFieldSet(grid, SpectralParams(K=stack.shape[0], epsilon=eps), stack,
                         np.arange(1, len(stack) + 1))
    assert F_functional(modes, ModeFieldSet.empty(grid, modes.params)) == _ref_F(modes)


def _stack_F(modes):
    """F of one whole stack, as F_functional computed it before it took the
    pair (new, old): whole-stack derivatives and norms, then one mode_sum."""
    grid, v = modes.grid, modes.values
    buf = diff(v, grid.dt, axis=1)
    dt_term = l2_sq_GT(buf, grid)
    grad_term = np.max(l2_sq_G(diff(v, grid.hx, axis=-1, out=buf), grid), axis=1)
    l2_term = np.max(l2_sq_G(v, grid), axis=1)
    lam = modes.eigenvalues
    return mode_sum(dt_term + grad_term + lam * l2_term, lam, 2.0 * modes.params.tau1)


@settings(max_examples=80, deadline=None)
@given(K=st.integers(1, 16), data=st.data())
def test_F_of_a_pair_is_F_of_the_difference_stack(K, data):
    # F_functional(new, old) differences row by row; it gives the bits of the
    # whole-stack F of new - old, with old's missing rows read as zero
    grid = Grid(np.pi, data.draw(st.floats(0.1, 2.0)), Nx=data.draw(st.integers(2, 40)),
                Nt=data.draw(st.integers(2, 16)))
    params = SpectralParams(K=K, epsilon=data.draw(st.floats(0.1, 5.0)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    live = data.draw(st.lists(st.booleans(), min_size=K, max_size=K))
    modes = np.arange(1, K + 1)[np.array(live)]
    kept = data.draw(st.lists(st.booleans(), min_size=len(modes), max_size=len(modes)))
    old_modes = modes[np.array(kept, dtype=bool)]

    def stack(rows):
        scale = 10.0 ** rng.integers(-3, 4, size=(len(rows), 1, 1))
        return ModeFieldSet(grid, params, rng.standard_normal((len(rows),) + grid.field_shape)
                            * scale, rows)

    new, old = stack(modes), stack(old_modes)
    if data.draw(st.booleans()):
        new = new.full()
        if data.draw(st.booleans()):
            old = old.full()
    if data.draw(st.booleans()):  # new's rows equal to old's: zero rows of the difference
        shared = np.isin(new.modes, old.modes)
        new.values[shared] = old.rows(new.modes).values[shared]
    difference = ModeFieldSet(grid, params, new.values - old.rows(new.modes).values, new.modes)
    assert F_functional(new, old) == _stack_F(difference)
    assert F_functional(new, ModeFieldSet.empty(grid, params)) == _stack_F(new)
