import numpy as np
import pytest
from conftest import grid_and_stack
from hypothesis import given, settings
from hypothesis import strategies as st

from diffid import (
    ConfigurationError,
    Domain,
    F_functional,
    ModeFieldSet,
    OmegaData,
    SpectralParams,
    build_grid,
    frac_norm,
    sine_coeffs,
    synthesize,
)
from diffid.errors import DataError
from diffid.grids import grad_x, l2_sq_G, l2_sq_GT
from diffid.sinebasis import eigenvalues


def test_eigenvalues():
    lam = eigenvalues(10)
    assert lam.dtype == float
    assert np.array_equal(lam, np.arange(1, 11) ** 2)


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
    assert np.max(np.abs(synthesize(coeffs, y) - np.sin(y))) < 1e-14


def test_analysis_synthesis_roundtrip():
    params = SpectralParams(K=16, Ny=128)
    y = params.y
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(16)
    v = synthesize(coeffs, y)
    back = sine_coeffs(v, 16, y)
    assert np.max(np.abs(back - coeffs)) < 1e-10
    assert np.max(np.abs(synthesize(back, y) - v)) < 1e-10


def test_synthesize_parabola_tail():
    K = 64
    params = SpectralParams(K=K, Ny=4 * K)
    y = params.y
    v = y * (np.pi - y)
    approx = synthesize(sine_coeffs(v, K, y), y)
    assert np.max(np.abs(approx - v)) <= 1e-3


def test_parseval_band_limited():
    params = SpectralParams(K=12, Ny=256)
    y = params.y
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(12)
    v = synthesize(coeffs, y)
    norm_sq = np.trapezoid(v**2, y)
    assert norm_sq == pytest.approx((np.pi / 2) * np.sum(coeffs**2), abs=1e-8)


def test_couplings_sin():
    params = SpectralParams(K=6, Ny=256)
    om = OmegaData.from_callables(np.sin, lambda y: -np.sin(y), params)
    c = om.couplings[:6]
    assert c[0] == pytest.approx(-np.pi / 2, abs=1e-10)
    assert np.max(np.abs(c[1:])) < 1e-10


def test_couplings_sin2():
    params = SpectralParams(K=6, Ny=256)
    om = OmegaData.from_callables(
        lambda y: np.sin(2 * y), lambda y: -4.0 * np.sin(2 * y), params)
    c = om.couplings[:6]
    assert c[1] == pytest.approx(-2.0 * np.pi, abs=1e-10)
    mask = np.ones(6, dtype=bool)
    mask[1] = False
    assert np.max(np.abs(c[mask])) < 1e-10


def test_couplings_zero_omega():
    params = SpectralParams(K=4, Ny=128)
    om = OmegaData.from_profiles(params.y, np.zeros_like(params.y), 4,
                                 omega_dd=np.zeros_like(params.y))
    assert np.max(np.abs(om.couplings)) == 0.0


def test_coupling_identity_smooth_omegas():
    # quadrature against omega'' must agree with -lambda_j (pi/2) omega_j;
    # polynomial-type weights need the quadrature resolved well past 4K
    params = SpectralParams(K=32, Ny=4096)
    y = params.y
    cases = [
        (np.sin(y) + 0.3 * np.sin(3 * y), -np.sin(y) - 2.7 * np.sin(3 * y)),
        (y * (np.pi - y), -2.0 * np.ones_like(y)),
        ((y * (np.pi - y)) ** 2, 2 * np.pi**2 - 12 * np.pi * y + 12 * y**2),
    ]
    for omega, omega_dd in cases:
        om = OmegaData.from_profiles(y, omega, 32, omega_dd=omega_dd)
        assert np.max(np.abs(om.couplings - om.couplings_ibp)) <= 1e-8


def test_omega_nonuniform_nodes_rejected():
    # second differences with h = y[1] - y[0] would put ||omega''|| at 0.940, not 1.253
    s = np.linspace(0.0, 1.0, 129)
    y = np.pi * (s + 0.05 * np.sin(2 * np.pi * s))
    with pytest.raises(DataError, match="uniformly spaced"):
        OmegaData.from_profiles(y, np.sin(y), 4)
    # the coupling quadrature's endpoint correction assumes the same step:
    # it would give c_1 = -1.57055 here, not -pi/2
    with pytest.raises(DataError, match="uniformly spaced"):
        OmegaData.from_profiles(y, np.sin(y) + 0.3 * np.sin(3 * y), 4,
                                omega_dd=-np.sin(y) - 2.7 * np.sin(3 * y))
    y = SpectralParams(K=4, Ny=128).y
    om = OmegaData.from_profiles(y, np.sin(y), 4, omega_dd=-np.sin(y))
    assert om.omega_dd_l2 == pytest.approx(np.sqrt(np.pi / 2), rel=1e-3)


def test_omega_boundary_check():
    params = SpectralParams(K=4, Ny=128)
    with pytest.raises(DataError):
        OmegaData.from_profiles(params.y, np.cos(params.y), 4,
                                omega_dd=-np.cos(params.y))


def make_grid(Nx=64, Nt=16, T=1.0):
    return build_grid(Domain((np.pi,), T), Nx=Nx, Nt=Nt)


def test_frac_norm_single_modes():
    g = make_grid()
    amp = np.sqrt(2.0 / np.pi)  # normalizes ||amp sin x||_{L2(0,pi)} to 1
    v1 = np.zeros((1,) + g.space_shape)
    v1[0] = amp * np.sin(g.x)
    for tau in (0.0, 0.25, 1.0):
        assert frac_norm(v1, g, tau, level=0, measure="G") == pytest.approx(1.0, abs=1e-9)

    v2 = np.zeros((2,) + g.space_shape)
    v2[1] = amp * np.sin(g.x)
    assert frac_norm(v2, g, 0.5, level=0, measure="G") == pytest.approx(4.0, abs=1e-8)

    v12 = np.zeros((2,) + g.space_shape)
    v12[0] = amp * np.sin(g.x)
    v12[1] = amp * np.sin(g.x)
    assert frac_norm(v12, g, 0.0, level=0, measure="G") == pytest.approx(2.0, abs=1e-8)


def test_frac_norm_monotone_in_tau():
    g = make_grid(Nx=32)
    rng = np.random.default_rng(5)
    v = rng.standard_normal((4,) + g.space_shape)
    vals = [frac_norm(v, g, tau, level=0, measure="G") for tau in (0.0, 0.3, 0.6, 1.0)]
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))


def test_F_functional_static_mode():
    g = make_grid(Nx=128, Nt=16)
    params = SpectralParams(K=1, epsilon=1.0, Ny=64)
    vals = np.zeros((1,) + g.field_shape)
    vals[0, :] = np.sin(g.x)
    modes = ModeFieldSet(g, params, vals)
    assert F_functional(modes) == pytest.approx(np.pi, abs=1e-3)
    doubled = ModeFieldSet(g, params, 2.0 * vals)
    assert F_functional(doubled) == pytest.approx(4.0 * F_functional(modes), rel=1e-12)

    assert F_functional(ModeFieldSet.zeros(g, params)) == 0.0


def test_mode_rows_select_and_scatter():
    g = make_grid(Nx=12, Nt=6)
    params = SpectralParams(K=4, epsilon=1.0, Ny=64)
    vals = np.random.default_rng(3).standard_normal((4,) + g.field_shape)
    vals[[0, 2]] = 0.0
    full = ModeFieldSet(g, params, vals)
    compact = full.select(np.array([2, 4]))
    assert np.array_equal(compact.values, vals[[1, 3]])
    assert np.array_equal(compact.eigenvalues, [4.0, 16.0])
    assert full.select(np.arange(1, 5)) is full and full.full() is full
    assert np.array_equal(compact.full().values, vals)
    # a zero row adds exactly 0 to the energy
    assert F_functional(compact) == F_functional(full)
    assert np.array_equal(compact.synthesize_y(params.y), full.synthesize_y(params.y))
    for bad in (np.array([3, 2]), np.array([0, 1]), np.array([5]), np.array([1.0, 2.0])):
        with pytest.raises(DataError, match="mode numbers"):
            ModeFieldSet(g, params, vals[: len(bad)], bad)
    with pytest.raises(DataError, match="not all among"):
        compact.select(np.array([1, 2]))
    with pytest.raises(DataError, match="differ"):
        compact - full


def test_F_functional_triangle_inequality():
    g = make_grid(Nx=24, Nt=8)
    params = SpectralParams(K=3, epsilon=1.0, Ny=64)
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = ModeFieldSet(g, params, 0.1 * rng.standard_normal((3,) + g.field_shape))
        v = ModeFieldSet(g, params, 0.1 * rng.standard_normal((3,) + g.field_shape))
        lhs = np.sqrt(F_functional(ModeFieldSet(g, params, u.values + v.values)))
        rhs = np.sqrt(F_functional(u)) + np.sqrt(F_functional(v))
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


def _ref_frac_norm(v, grid, tau, level, measure):
    """The per-mode, per-time-slice loop the batched frac_norm replaced."""
    lam = np.arange(1, v.shape[0] + 1, dtype=float) ** 2
    total = 0.0
    for k in range(v.shape[0]):
        if measure == "G":
            part = l2_sq_G(v[k], grid)
            if level == 1:
                part += l2_sq_G(grad_x(v[k], grid), grid)
        else:
            part = l2_sq_GT(v[k], grid)
            if level == 1:
                gsq = np.array([l2_sq_G(grad_x(v[k][n], grid), grid) for n in range(v.shape[1])])
                part += float(np.trapezoid(gsq, dx=grid.dt))
        total += lam[k] ** (2.0 * tau) * part
    return float(total)


def _ref_F(modes):
    """The per-mode, per-time-slice loop the batched F_functional replaced."""
    grid, eps = modes.grid, modes.params.epsilon
    lam = np.arange(1, modes.K + 1, dtype=float) ** 2
    total = 0.0
    for k in range(modes.K):
        v = modes.values[k]
        dt_term = l2_sq_GT(np.gradient(v, grid.dt, axis=0, edge_order=2), grid)
        grad_term = max(l2_sq_G(grad_x(v[n], grid), grid) for n in range(v.shape[0]))
        l2_term = max(l2_sq_G(v[n], grid) for n in range(v.shape[0]))
        total += lam[k] ** ((1.0 + eps) / 2.0) * (dt_term + grad_term + lam[k] * l2_term)
    return float(total)


@settings(max_examples=60, deadline=None)
@given(case=grid_and_stack(), tau=st.floats(0.0, 2.0), eps=st.floats(0.1, 5.0))
def test_batched_mode_norms_match_slice_loops(case, tau, eps):
    grid, stack = case
    for level in (0, 1):
        assert frac_norm(stack, grid, tau, level, "GT") == _ref_frac_norm(stack, grid, tau, level, "GT")
        assert frac_norm(stack[:, 0], grid, tau, level, "G") == _ref_frac_norm(
            stack[:, 0], grid, tau, level, "G")
    modes = ModeFieldSet(grid, SpectralParams(K=stack.shape[0], epsilon=eps), stack)
    assert F_functional(modes) == _ref_F(modes)
