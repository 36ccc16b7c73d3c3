import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffid import (
    Domain,
    ModeFieldSet,
    OmegaData,
    ScalarField,
    SpectralParams,
    build_grid,
    l2_norm_G,
    march_modes,
    overdetermination_residual,
    solve_forward,
)
from diffid.errors import ConfigurationError, NumericalBlowupError


def grid_1d(Nx=128, Nt=128, T=1.0):
    return build_grid(Domain((np.pi,), T), Nx=Nx, Nt=Nt)


def march_one(k, g, source=None, initial=None, theta=0.5, reaction=None):
    """Mode k alone: row k-1 of a K = k stack whose other rows are zero."""
    sources = np.zeros((k,) + g.field_shape)
    phis = np.zeros((k,) + g.space_shape)
    if source is not None:
        sources[k - 1] = source
    if initial is not None:
        phis[k - 1] = initial
    return march_modes(sources, phis, g, theta, reaction)[k - 1]


def decay_error(Nx, Nt):
    """Max error against u = e^{-2t} sin x for v_t = v_xx - v, phi = sin x."""
    g = grid_1d(Nx=Nx, Nt=Nt, T=1.0)
    u = march_one(1, g, initial=np.sin(g.x))
    exact = np.exp(-2.0 * g.t)[:, None] * np.sin(g.x)[None, :]
    return float(np.max(np.abs(u - exact)))


def test_analytic_decay():
    assert decay_error(128, 128) <= 2e-4


def test_zero_data_stays_zero():
    g = grid_1d(Nx=32, Nt=16)
    u = march_modes(np.zeros((3,) + g.field_shape), np.zeros((3,) + g.space_shape), g)
    assert np.max(np.abs(u)) == 0.0


def test_stationary_solution():
    # phi = sin x with S = (1 + lambda_1) sin x holds the profile steady;
    # the discrete fixed point is offset by ~hx^2/24, so a fine x-grid is used.
    g = grid_1d(Nx=1024, Nt=16, T=0.25)
    source = ScalarField.from_function(g, lambda t, x: 2.0 * np.sin(x))
    u = march_one(1, g, source=source.values, initial=np.sin(g.x))
    assert np.max(np.abs(u - np.sin(g.x)[None, :])) <= 1e-6


def test_refinement_order():
    errs = [decay_error(n, n) for n in (64, 128)]
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_dirichlet_boundary_exact_zero():
    g = grid_1d(Nx=24, Nt=12)
    source = ScalarField.from_function(g, lambda t, x: np.cos(t) * x * (np.pi - x))
    u = march_one(2, g, source=source.values, initial=np.sin(2 * g.x))
    assert np.all(u[:, 0] == 0.0)
    assert np.all(u[:, -1] == 0.0)


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
def test_l2_stability_nonnegative_reaction(theta):
    g = grid_1d(Nx=48, Nt=24, T=2.0)
    rng = np.random.default_rng(9)
    a_profile = rng.random(g.space_shape) * 2.0
    reaction = np.broadcast_to(a_profile, g.field_shape)
    phi = rng.standard_normal(g.space_shape)
    phi[0] = phi[-1] = 0.0
    u = march_one(1, g, initial=phi, theta=theta, reaction=reaction)
    norms = [l2_norm_G(u[n], g) for n in range(g.Nt + 1)]
    for prev, cur in zip(norms, norms[1:]):
        assert cur <= prev * (1.0 + 1e-12)


def test_mode_decoupling_bitwise():
    g = grid_1d(Nx=32, Nt=16)
    params = SpectralParams(K=3, Ny=64)
    rng = np.random.default_rng(21)
    f_vals = rng.standard_normal((3,) + g.field_shape)
    phi = rng.standard_normal((3,) + g.space_shape)
    phi[:, 0] = phi[:, -1] = 0.0

    u1 = solve_forward(None, ModeFieldSet(g, params, f_vals), phi, g, params)

    f_vals2 = f_vals.copy()
    f_vals2[1] *= -3.0  # change mode 2's data only
    phi2 = phi.copy()
    phi2[2] += 1.0
    phi2[:, 0] = phi2[:, -1] = 0.0
    u2 = solve_forward(None, ModeFieldSet(g, params, f_vals2), phi2, g, params)

    assert np.array_equal(u1.values[0], u2.values[0])


def test_forward_mode2_decay():
    g = grid_1d(Nx=128, Nt=128, T=1.0)
    params = SpectralParams(K=2, Ny=64)
    f = ModeFieldSet.empty(g, params)
    phi = np.zeros((2,) + g.space_shape)
    phi[1] = np.sin(g.x)
    u = solve_forward(None, f, phi, g, params)
    exact = np.exp(-5.0 * g.t)[:, None] * np.sin(g.x)[None, :]
    assert u.modes.tolist() == [2]  # only the mode phi excites is marched
    assert np.max(np.abs(u.full().values[1] - exact)) <= 5e-4
    assert np.max(np.abs(u.full().values[0])) == 0.0


def test_forward_with_reaction_manufactured():
    # a = 1, f_1 = 2 e^{-t} sin x, phi_1 = sin x  =>  u_1 = e^{-t} sin x
    g = grid_1d(Nx=128, Nt=128, T=1.0)
    params = SpectralParams(K=2, Ny=64)
    a = ScalarField(g, np.ones(g.field_shape))
    f_vals = np.zeros((2,) + g.field_shape)
    f_vals[0] = 2.0 * np.exp(-g.t)[:, None] * np.sin(g.x)[None, :]
    phi = np.zeros((2,) + g.space_shape)
    phi[0] = np.sin(g.x)
    u = solve_forward(a, ModeFieldSet(g, params, f_vals), phi, g, params).full()
    exact = np.exp(-g.t)[:, None] * np.sin(g.x)[None, :]
    assert np.max(np.abs(u.values[0] - exact)) <= 5e-4
    assert np.max(np.abs(u.values[1])) <= 1e-12


def test_negative_reaction_warning():
    g = grid_1d(Nx=16, Nt=4, T=1.0)  # dt = 0.25
    a = np.full(g.field_shape, -5.0)
    with pytest.warns(RuntimeWarning):
        march_one(1, g, initial=np.sin(g.x), reaction=a)


def test_blowup_reported_with_step():
    # a negative reaction tuned so the implicit operator is singular: the
    # solve produces non-finite values, which must surface as a blowup error
    g = grid_1d(Nx=16, Nt=64, T=1.0)
    theta = 0.5
    a_sing = -(1.0 / (theta * g.dt) + 2.0 / g.hx**2 + 1.0)
    a = np.full(g.field_shape, a_sing)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalBlowupError) as err:
            march_one(1, g, initial=np.sin(g.x), theta=theta, reaction=a)
    assert err.value.mode == 1
    assert err.value.step is not None


def test_overdetermination_residual_exact_fields():
    g = grid_1d(Nx=64, Nt=32, T=1.0)
    params = SpectralParams(K=2, Ny=128)
    om = OmegaData.from_callables(np.sin, lambda y: -np.sin(y), params)
    vals = np.zeros((2,) + g.field_shape)
    vals[0] = np.exp(-g.t)[:, None] * np.sin(g.x)[None, :]
    u = ModeFieldSet(g, params, vals)
    psi = ScalarField(g, (np.pi / 2) * vals[0])
    res, norm = overdetermination_residual(u, om, psi)
    assert norm <= 1e-12


def test_overdetermination_residual_linearity():
    g = grid_1d(Nx=32, Nt=16)
    params = SpectralParams(K=1, Ny=64)
    om = OmegaData.from_callables(np.sin, lambda y: -np.sin(y), params)
    u = ModeFieldSet.empty(g, params)
    zero = ScalarField.zeros(g)
    _, norm0 = overdetermination_residual(u, om, zero)
    assert norm0 == 0.0

    delta = ScalarField.from_function(g, lambda t, x: 0.01 * np.sin(x) * (1 + t))
    _, norm1 = overdetermination_residual(u, om, delta)
    from diffid import l2_norm_GT
    assert norm1 == pytest.approx(l2_norm_GT(delta), rel=1e-12)


def scalar_thomas(b, a, c, d):
    """Thomas solve of one system on Python floats (lists in, list out)."""
    n = len(a)
    cp, dp = [0.0] * n, [0.0] * n
    cp[0], dp[0] = c[0] / a[0], d[0] / a[0]
    for i in range(1, n):
        m = a[i] - b[i - 1] * cp[i - 1]
        if i < n - 1:
            cp[i] = c[i] / m
        dp[i] = (d[i] - b[i - 1] * dp[i - 1]) / m
    x = dp[:]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def thomas_march(S, phi, a, g, theta):
    """Theta march with the reaction a, mode by mode and one scalar Thomas
    solve per step: the reference for both paths of march_modes."""
    dt, r = g.dt, g.dt / g.hx**2
    off = [-theta * r] * (g.Nx - 1)
    out = np.zeros(S.shape)
    for k in range(1, len(S) + 1):
        lam = float(k * k)
        v = phi[k - 1].copy()
        v[0] = v[-1] = 0.0
        out[k - 1, 0] = v
        base_diag = 1.0 + theta * (2.0 * r + dt * lam)
        for n in range(g.Nt):
            s_mid = dt * (theta * S[k - 1, n + 1, 1:-1] + (1.0 - theta) * S[k - 1, n, 1:-1])
            rhs = (v[1:-1] * (1.0 - (1.0 - theta) * (2.0 * r + dt * lam + dt * a[n, 1:-1]))
                   + (1.0 - theta) * r * (v[:-2] + v[2:])
                   + s_mid)
            diag = base_diag + theta * dt * a[n + 1, 1:-1]
            v = out[k - 1, n + 1]
            v[1:-1] = scalar_thomas(off, diag.tolist(), off, rhs.tolist())
    return out


def rel_max_diff(u, ref):
    return float(np.max(np.abs(u - ref)) / np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None)
@given(Nx=st.integers(4, 200), Nt=st.integers(2, 48), K=st.integers(1, 16),
       theta=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
@example(Nx=96, Nt=48, K=16, theta=0.5, seed=1)   # Nx+1 = 97 is prime
@example(Nx=192, Nt=24, K=1, theta=1.0, seed=2)   # Nx+1 = 193 is prime
def test_spectral_march_matches_thomas_reference(Nx, Nt, K, theta, seed):
    g = grid_1d(Nx=Nx, Nt=Nt, T=0.5)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((K,) + g.field_shape)
    phi = rng.standard_normal((K,) + g.space_shape)
    u = march_modes(S, phi, g, theta)
    ref = thomas_march(S, phi, np.zeros(g.field_shape), g, theta)
    for k in range(1, K + 1):
        assert rel_max_diff(u[k - 1], ref[k - 1]) <= 1e-12
    assert np.all(u[:, :, 0] == 0.0) and np.all(u[:, :, -1] == 0.0)
    assert np.array_equal(u[:, 0, 1:-1], phi[:, 1:-1])


@settings(max_examples=30, deadline=None)
@given(Nx=st.integers(4, 200), Nt=st.integers(2, 48), K=st.integers(1, 16),
       theta=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
@example(Nx=128, Nt=48, K=16, theta=0.5, seed=1)
def test_reaction_march_matches_per_mode_reference(Nx, Nt, K, theta, seed):
    g = grid_1d(Nx=Nx, Nt=Nt, T=0.5)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((K,) + g.field_shape)
    phi = rng.standard_normal((K,) + g.space_shape)
    a = 10.0 * rng.random(g.field_shape)
    u = march_modes(S, phi, g, theta, reaction=a)
    assert u.tobytes() == thomas_march(S, phi, a, g, theta).tobytes()


def test_reaction_march_peaks_below_four_stacks():
    # besides its output the known-a march holds the step diagonals while
    # they are factored and the two factors, each (Nt, K, Nx); the mixed
    # source is formed one (K, Nx) level at a time
    g = grid_1d(Nx=32, Nt=32, T=0.5)
    rng = np.random.default_rng(9)
    S = rng.standard_normal((16,) + g.field_shape)
    phi = rng.standard_normal((16,) + g.space_shape)
    a = rng.random(g.field_shape)
    tracemalloc.start()
    try:
        march_modes(S, phi, g, reaction=a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * S.nbytes, f"peak {peak} B, one stack {S.nbytes} B"


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(Nt=st.integers(2, 16), data=st.data(),
       theta=st.floats(0.5, 1.0), value=st.sampled_from((np.inf, -np.inf, np.nan)))
def test_spectral_blowup_names_first_bad_step(Nt, data, theta, value):
    # the bad value sits in mode 3 of a K = 4 stack; mode 4 goes bad at an
    # earlier step, but the error names the first bad mode
    g = build_grid(Domain((np.pi,), 1.0), Nx=12, Nt=Nt)
    step = data.draw(st.integers(1, Nt))
    node = data.draw(st.integers(1, g.Nx))
    S = np.zeros((4,) + g.field_shape)
    S[2, step, node] = value
    S[3, 1, node] = value
    with pytest.raises(NumericalBlowupError) as err:
        march_modes(S, np.zeros((4,) + g.space_shape), g, theta)
    assert err.value.mode == 3
    assert err.value.step == step


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_march_of_mode_rows_matches_full_stack_and_names_true_mode():
    # rows for modes 3 and 5 march as rows 3 and 5 of a K = 5 stack do, and a
    # blowup in the second row is reported as mode 5
    g = grid_1d(Nx=16, Nt=8)
    rng = np.random.default_rng(5)
    S = rng.standard_normal((5,) + g.field_shape)
    phi = rng.standard_normal((5,) + g.space_shape)
    rows = np.array([3, 5])
    full = march_modes(S, phi, g)
    assert np.array_equal(march_modes(S[rows - 1], phi[rows - 1], g, modes=rows), full[rows - 1])
    bad = S[rows - 1]
    bad[1, 4, 7] = np.nan
    with pytest.raises(NumericalBlowupError) as err:
        march_modes(bad, phi[rows - 1], g, modes=rows)
    assert (err.value.mode, err.value.step) == (5, 4)
    with pytest.raises(ConfigurationError, match="mode numbers"):
        march_modes(S[:2], phi[:2], g, modes=np.array([0, 1]))


def test_march_modes_rejects_bad_theta_and_shapes():
    g = grid_1d(Nx=8, Nt=4)
    S = np.zeros((3,) + g.field_shape)
    phi = np.zeros((3,) + g.space_shape)
    for theta in (0.4, 1.1):
        with pytest.raises(ConfigurationError, match="theta"):
            march_modes(S, phi, g, theta)
    for bad_S, bad_phi in ((S, phi[:2]),                           # K differs
                           (S[:, :-1], phi),                       # Nt+1 rows off
                           (S[:, :, :-1], phi),                    # Nx+2 columns off
                           (S[0], phi[0]),                         # no mode axis
                           (S[:0], phi[:0])):                      # K = 0
        with pytest.raises(ConfigurationError):
            march_modes(bad_S, bad_phi, g)
    with pytest.raises(ConfigurationError, match="reaction"):
        march_modes(S, phi, g, reaction=np.zeros(g.space_shape))
