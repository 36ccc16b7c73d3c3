import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffid import (
    Grid,
    ModeFieldSet,
    OmegaData,
    ScalarField,
    SpectralParams,
    march_modes,
    overdetermination_residual,
    solve_forward,
)
from diffid.errors import ConfigurationError, NumericalBlowupError
from diffid.grids import l2_sq_G, l2_sq_GT
from diffid.parabolic import _dirichlet_symbol, _march_spectral, _march_tridiagonal, _sine_matrix


def grid_1d(Nx=128, Nt=128, T=1.0):
    return Grid(np.pi, T, Nx=Nx, Nt=Nt)


def mode_stack(g, values, modes=None):
    """values as the stack of mode rows modes (1..len(values) by default),
    K the largest mode; the march scans its own output, so values may hold
    non-finite numbers.  The stack wraps values itself, which a march
    overwrites."""
    modes = np.arange(1, len(values) + 1) if modes is None else np.asarray(modes)
    return ModeFieldSet(g, SpectralParams(K=int(modes.max())), values, modes, check_finite=False)


def march(g, S, phi, theta=0.5, reaction=None, modes=None):
    """The solution array of march_modes on the stack mode_stack wraps
    around S, which the march overwrites."""
    return march_modes(mode_stack(g, S, modes), phi, theta, reaction).values


def march_one(k, g, source=None, initial=None, theta=0.5, reaction=None):
    """Mode k alone: row k-1 of a K = k stack whose other rows are zero."""
    sources = np.zeros((k,) + g.field_shape)
    phis = np.zeros((k, g.Nx + 2))
    if source is not None:
        sources[k - 1] = source
    if initial is not None:
        phis[k - 1] = initial
    return march(g, sources, phis, theta, reaction)[k - 1]


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
    u = march(g, np.zeros((3,) + g.field_shape), np.zeros((3, g.Nx + 2)))
    assert np.max(np.abs(u)) == 0.0


def test_stationary_solution():
    # phi = sin x with S = (1 + lambda_1) sin x holds the profile steady;
    # the discrete fixed point is offset by ~hx^2/24, so a fine x-grid is used.
    g = grid_1d(Nx=1024, Nt=16, T=0.25)
    u = march_one(1, g, source=2.0 * np.sin(g.x), initial=np.sin(g.x))
    assert np.max(np.abs(u - np.sin(g.x)[None, :])) <= 1e-6


def test_refinement_order():
    errs = [decay_error(n, n) for n in (64, 128)]
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_dirichlet_boundary_exact_zero():
    g = grid_1d(Nx=24, Nt=12)
    source = np.cos(g.t)[:, None] * g.x * (np.pi - g.x)
    u = march_one(2, g, source=source, initial=np.sin(2 * g.x))
    assert np.all(u[:, 0] == 0.0)
    assert np.all(u[:, -1] == 0.0)


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
def test_l2_stability_nonnegative_reaction(theta):
    g = grid_1d(Nx=48, Nt=24, T=2.0)
    rng = np.random.default_rng(9)
    a_profile = rng.random(g.Nx + 2) * 2.0
    reaction = np.broadcast_to(a_profile, g.field_shape)
    phi = rng.standard_normal(g.Nx + 2)
    phi[0] = phi[-1] = 0.0
    u = march_one(1, g, initial=phi, theta=theta, reaction=reaction)
    norms = [np.sqrt(l2_sq_G(u[n], g)) for n in range(g.Nt + 1)]
    for prev, cur in zip(norms, norms[1:]):
        assert cur <= prev * (1.0 + 1e-12)


def test_mode_decoupling_bitwise():
    g = grid_1d(Nx=32, Nt=16)
    rng = np.random.default_rng(21)
    f_vals = rng.standard_normal((3,) + g.field_shape)
    phi = rng.standard_normal((3, g.Nx + 2))
    phi[:, 0] = phi[:, -1] = 0.0

    u1 = march(g, f_vals.copy(), phi)

    f_vals2 = f_vals.copy()
    f_vals2[1] *= -3.0  # change mode 2's data only
    phi2 = phi.copy()
    phi2[2] += 1.0
    phi2[:, 0] = phi2[:, -1] = 0.0
    u2 = march(g, f_vals2, phi2)

    assert np.array_equal(u1[0], u2[0])


def test_forward_mode2_decay():
    g = grid_1d(Nx=128, Nt=128, T=1.0)
    params = SpectralParams(K=2, Ny=64)
    f = ModeFieldSet.empty(g, params)
    phi = np.zeros((2, g.Nx + 2))
    phi[1] = np.sin(g.x)
    u = solve_forward(ScalarField(g, np.zeros(g.field_shape)), f, phi)
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
    phi = np.zeros((2, g.Nx + 2))
    phi[0] = np.sin(g.x)
    u = solve_forward(a, ModeFieldSet(g, params, f_vals, np.arange(1, params.K + 1)), phi).full()
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
        with pytest.raises(NumericalBlowupError,
                           match=r"^mode 1: non-finite values at time step \d+$"):
            march_one(1, g, initial=np.sin(g.x), theta=theta, reaction=a)


def test_forward_solve_failure_names_mode_and_step():
    # theta = 1 and a = -(1 + dt (1 + mu_1)) / dt, mu_1 the least eigenvalue of
    # the discrete -d^2/dx^2, make mode 1's implicit step singular: the march
    # runs away, and solve_forward re-raises the blowup under its own prefix
    g = Grid(np.pi, 0.5, Nx=16, Nt=64)
    mu_1 = 4.0 / g.hx**2 * np.sin(np.pi / (2 * (g.Nx + 1)))**2
    a = ScalarField(g, np.full(g.field_shape, -(1.0 + g.dt * (1.0 + mu_1)) / g.dt))
    f = ModeFieldSet.empty(g, SpectralParams(K=1))
    with pytest.warns(RuntimeWarning, match="negative reaction"):
        with pytest.raises(NumericalBlowupError, match=r"^forward solve failed: mode 1: "
                           r"non-finite values at time step 19$") as err:
            solve_forward(a, f, np.sin(g.x)[None], theta=1.0)
    assert isinstance(err.value.__cause__, NumericalBlowupError)


def test_overdetermination_residual_exact_fields():
    g = grid_1d(Nx=64, Nt=32, T=1.0)
    params = SpectralParams(K=2, Ny=128)
    om = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
    vals = np.zeros((2,) + g.field_shape)
    vals[0] = np.exp(-g.t)[:, None] * np.sin(g.x)[None, :]
    u = ModeFieldSet(g, params, vals, np.arange(1, params.K + 1))
    psi = ScalarField(g, (np.pi / 2) * vals[0])
    res, norm = overdetermination_residual(u, om, psi)
    assert norm <= 1e-12


def test_overdetermination_residual_linearity():
    g = grid_1d(Nx=32, Nt=16)
    params = SpectralParams(K=1, Ny=64)
    om = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
    u = ModeFieldSet.empty(g, params)
    zero = ScalarField(g, np.zeros(g.field_shape))
    _, norm0 = overdetermination_residual(u, om, zero)
    assert norm0 == 0.0

    delta = ScalarField(g, 0.01 * np.sin(g.x)[None, :] * (1 + g.t)[:, None])
    _, norm1 = overdetermination_residual(u, om, delta)
    assert norm1 == pytest.approx(np.sqrt(l2_sq_GT(delta.values, g)), rel=1e-12)


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


def split_march(S, start, n, lam, a, g, theta):
    """S marched in place in two runs of the parent grid's levels, split at
    level n: levels 0..n from start, then levels n..Nt from the first run's
    level n, with level n's source kept aside before the first run
    overwrites it.  a, the reaction over every level, picks the known-a
    kernel; None the spectral one."""
    def run(lo, hi, first):
        if a is None:
            _march_spectral(S[:, lo:hi], first, lam, g, theta)
        else:
            _march_tridiagonal(S[:, lo:hi], first, lam, a[lo:hi], g, theta)

    source_n = S[:, n].copy()
    run(0, n + 1, start)
    solution_n = S[:, n].copy()
    S[:, n] = source_n
    run(n, None, solution_n)
    return S


@settings(max_examples=40, deadline=None)
@given(N=st.sampled_from((64, 97, 128, 192)), K=st.integers(1, 16), theta=st.floats(0.5, 1.0),
       known_a=st.booleans(), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_march_split_at_a_level_matches_the_whole_march(N, K, theta, known_a, seed, data):
    # each kernel marches any contiguous run of levels at the parent grid's
    # dt: a run split at level n is the known-a march bit for bit, and the
    # spectral march within 1e-14 relative, since the transforms' batch
    # shapes change (7.1e-16 the largest seen over N in {64, 97, 128, 192})
    g = grid_1d(Nx=N, Nt=N, T=0.5)
    n = data.draw(st.sampled_from((1, N // 3, N // 2, N - 1)) | st.integers(1, N - 1))
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((K,) + g.field_shape)
    S[:, :, 0] = S[:, :, -1] = 0.0
    start = rng.standard_normal((K, g.Nx + 2))
    lam = np.arange(1, K + 1.0) ** 2
    a = rng.random(g.field_shape) if known_a else None
    whole = S.copy()
    if known_a:
        _march_tridiagonal(whole, start, lam, a, g, theta)
    else:
        _march_spectral(whole, start, lam, g, theta)
    split = split_march(S, start, n, lam, a, g, theta)
    if known_a:
        assert split.tobytes() == whole.tobytes()
    else:
        assert rel_max_diff(split, whole) <= 1e-14


@settings(max_examples=40, deadline=None)
@given(Nx=st.integers(4, 200), Nt=st.integers(2, 48), K=st.integers(1, 16),
       theta=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
@example(Nx=96, Nt=48, K=16, theta=0.5, seed=1)   # Nx+1 = 97 is prime
@example(Nx=192, Nt=24, K=1, theta=1.0, seed=2)   # Nx+1 = 193 is prime
def test_spectral_march_matches_thomas_reference(Nx, Nt, K, theta, seed):
    g = grid_1d(Nx=Nx, Nt=Nt, T=0.5)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((K,) + g.field_shape)
    phi = rng.standard_normal((K, g.Nx + 2))
    u = march(g, S.copy(), phi, theta)
    ref = thomas_march(S, phi, np.zeros(g.field_shape), g, theta)
    for k in range(1, K + 1):
        assert rel_max_diff(u[k - 1], ref[k - 1]) <= 1e-12
    assert np.all(u[:, :, 0] == 0.0) and np.all(u[:, :, -1] == 0.0)
    assert np.array_equal(u[:, 0, 1:-1], phi[:, 1:-1])


def level_loop_march(S, phi, g, theta):
    """The reaction-free march with the source mixing and the recurrence
    written as per-level loops: the reference whose bits the batched march
    keeps."""
    K = len(S)
    Q = _sine_matrix(g.Nx)
    mu = _dirichlet_symbol(g.Nx, g.hx)[None, :] + (np.arange(1, K + 1) ** 2.0)[:, None]
    p = 1.0 / (1.0 + theta * g.dt * mu)
    amp = (1.0 - (1.0 - theta) * g.dt * mu) * p
    pdt = p * g.dt
    v_hat = np.empty((g.Nt + 1, K, g.Nx))
    np.matmul(S[:, :, 1:-1], Q, out=v_hat.transpose(1, 0, 2))
    for n in range(g.Nt, 0, -1):
        mixed = v_hat[n]
        mixed *= theta
        mixed += (1.0 - theta) * v_hat[n - 1]
        mixed *= pdt
    np.matmul(phi[:, None, 1:-1], Q, out=v_hat[0, :, None, :])
    for n in range(1, g.Nt + 1):
        v_hat[n] += amp * v_hat[n - 1]
    out = np.zeros(S.shape)
    out[:, 0, 1:-1] = phi[:, 1:-1]
    np.matmul(v_hat[1:].transpose(1, 0, 2), Q, out=out[:, 1:, 1:-1])
    return out


@settings(max_examples=40, deadline=None)
@given(Nx=st.integers(4, 200), Nt=st.integers(2, 48), K=st.integers(1, 16),
       theta=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
def test_spectral_march_keeps_the_level_loop_bits(Nx, Nt, K, theta, seed):
    g = grid_1d(Nx=Nx, Nt=Nt, T=0.5)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((K,) + g.field_shape)
    phi = rng.standard_normal((K, g.Nx + 2))
    ref = level_loop_march(S, phi, g, theta).tobytes()
    assert march(g, S, phi, theta).tobytes() == ref


@settings(max_examples=30, deadline=None)
@given(Nx=st.integers(4, 200), Nt=st.integers(2, 48), K=st.integers(1, 16),
       theta=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
@example(Nx=128, Nt=48, K=16, theta=0.5, seed=1)
def test_reaction_march_matches_per_mode_reference(Nx, Nt, K, theta, seed):
    g = grid_1d(Nx=Nx, Nt=Nt, T=0.5)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal((K,) + g.field_shape)
    phi = rng.standard_normal((K, g.Nx + 2))
    a = 10.0 * rng.random(g.field_shape)
    u = march(g, S.copy(), phi, theta, reaction=a)
    ref = thomas_march(S, phi, a, g, theta)
    for k in range(1, K + 1):
        assert rel_max_diff(u[k - 1], ref[k - 1]) <= 1e-13


def test_reaction_march_peaks_below_four_stacks():
    # besides its stack the known-a march holds a few (K, Nx) work levels
    # of the step being solved, never an (Nt, K, Nx) array; at N = 64 those
    # levels and numpy's fixed per-call buffers stay well below a quarter
    # stack (at N = 32 they alone are 0.3 stacks)
    g = grid_1d(Nx=64, Nt=64, T=0.5)
    rng = np.random.default_rng(9)
    S = rng.standard_normal((16,) + g.field_shape)
    phi = rng.standard_normal((16, g.Nx + 2))
    a = rng.random(g.field_shape)
    sources = mode_stack(g, S)
    tracemalloc.start()
    try:
        march_modes(sources, phi, reaction=a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * S.nbytes, f"peak {peak} B, one stack {S.nbytes} B"


def test_reaction_march_into_its_sources_holds_no_second_stack():
    # the known-a march overwrites its sources and keeps one (K, Nx) source
    # level aside; its peak is a few work levels and the finite check's
    # boolean array of one mode's rows.  K = 16, N = 128: a 2.15 MB stack
    g = grid_1d(Nx=128, Nt=128, T=0.5)
    rng = np.random.default_rng(11)
    S = rng.standard_normal((16,) + g.field_shape)
    phi = rng.standard_normal((16, g.Nx + 2))
    a = rng.random(g.field_shape)
    phi0 = phi.copy()
    fresh = march(g, S.copy(), phi, reaction=a)
    assert np.array_equal(phi, phi0)
    sources = mode_stack(g, S)
    tracemalloc.start()
    try:
        got = march_modes(sources, phi, reaction=a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.values is S and S.tobytes() == fresh.tobytes()
    assert np.array_equal(got.modes, sources.modes) and got.params == sources.params
    assert peak < 0.25 * S.nbytes, f"peak {peak} B, one stack {S.nbytes} B"


def test_spectral_march_holds_its_stack_and_one_transform_buffer():
    # the reaction-free march overwrites its sources; besides them it holds
    # one (Nt+1, K, Nx) transform buffer, a few (K, Nx) lane arrays, the
    # finite check's booleans of one mode and numpy's per-call buffers: a
    # fifth of a stack, where a second stack would double the peak.  K = 16,
    # N = 64: a 0.55 MB stack and a 0.53 MB buffer.  The cached sine matrix
    # is built before the trace
    g = grid_1d(Nx=64, Nt=64, T=0.5)
    rng = np.random.default_rng(17)
    S = rng.standard_normal((16,) + g.field_shape)
    phi = rng.standard_normal((16, g.Nx + 2))
    buffer = (g.Nt + 1) * len(S) * g.Nx * S.itemsize
    sources = mode_stack(g, S)
    _sine_matrix(g.Nx)
    tracemalloc.start()
    try:
        got = march_modes(sources, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.values is S
    assert peak < buffer + 0.25 * S.nbytes, f"peak {peak} B, buffer {buffer} B"


def test_empty_stack_marches_to_empty_stack():
    # nothing to march: no warning, not even for a reaction the march would
    # call under-resolved, and no error
    g = grid_1d(Nx=16, Nt=4, T=1.0)  # dt = 0.25
    params = SpectralParams(K=3)
    phi = np.zeros((0, g.Nx + 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for reaction in (None, np.full(g.field_shape, -1e6)):
            u = march_modes(ModeFieldSet.empty(g, params), phi, reaction=reaction)
            assert u.values.shape == (0,) + g.field_shape and len(u.modes) == 0


def test_march_finite_check_holds_one_mode_of_booleans():
    # the output check scans one mode's (Nt, Nx+2) rows at a time: a
    # boolean array of the whole stack, an eighth of a stack, would put the
    # peak of the in-place known-a march above 1/16 of a stack.  K = 16,
    # Nx = 64, Nt = 512: a 4.3 MB stack, one mode's booleans 34 kB
    g = grid_1d(Nx=64, Nt=512, T=0.5)
    rng = np.random.default_rng(13)
    S = rng.standard_normal((16,) + g.field_shape)
    phi = rng.standard_normal((16, g.Nx + 2))
    a = rng.random(g.field_shape)
    sources = mode_stack(g, S)
    tracemalloc.start()
    try:
        march_modes(sources, phi, reaction=a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < S.nbytes / 16, f"peak {peak} B, one stack {S.nbytes} B"


def test_solve_forward_writes_into_f_rows():
    g = grid_1d(Nx=16, Nt=8)
    params = SpectralParams(K=4, Ny=64)
    rng = np.random.default_rng(13)
    f = ModeFieldSet(g, params, rng.standard_normal((4,) + g.field_shape), np.arange(1, 5))
    phi = rng.standard_normal((4, g.Nx + 2))
    a = ScalarField(g, rng.random(g.field_shape))
    fresh = march(g, f.values.copy(), phi, reaction=a.values)
    u = solve_forward(a, f, phi)
    assert u.values is f.values and u.values.tobytes() == fresh.tobytes()
    # f holds other rows than the forced modes: the march gets its own stack
    f = ModeFieldSet(g, params, rng.standard_normal((1,) + g.field_shape), np.array([2]))
    f0 = f.values.copy()
    u = solve_forward(a, f, phi)
    assert u.modes.tolist() == [1, 2, 3, 4] and np.array_equal(f.values, f0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(Nt=st.integers(2, 16), data=st.data(),
       theta=st.floats(0.5, 1.0), value=st.sampled_from((np.inf, -np.inf, np.nan)))
def test_spectral_blowup_names_first_bad_step(Nt, data, theta, value):
    # the bad value sits in mode 3 of a K = 4 stack; mode 4 goes bad at an
    # earlier step, but the error names the first bad mode
    g = Grid(np.pi, 1.0, Nx=12, Nt=Nt)
    step = data.draw(st.integers(1, Nt))
    node = data.draw(st.integers(1, g.Nx))
    S = np.zeros((4,) + g.field_shape)
    S[2, step, node] = value
    S[3, 1, node] = value
    with pytest.raises(NumericalBlowupError,
                       match=rf"^mode 3: non-finite values at time step {step}$"):
        march(g, S, np.zeros((4, g.Nx + 2)), theta)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_march_of_mode_rows_matches_full_stack_and_names_true_mode():
    # rows for modes 3 and 5 march as rows 3 and 5 of a K = 5 stack do,
    # each from its own start row, and a blowup in the second row is
    # reported as mode 5
    g = grid_1d(Nx=16, Nt=8)
    rng = np.random.default_rng(5)
    S = rng.standard_normal((5,) + g.field_shape)
    phi = rng.standard_normal((5, g.Nx + 2))
    rows = np.array([3, 5])
    full = march(g, S.copy(), phi)
    assert np.array_equal(march(g, S[rows - 1], phi[rows - 1], modes=rows), full[rows - 1])
    bad = S[rows - 1]
    bad[1, 4, 7] = np.nan
    with pytest.raises(NumericalBlowupError, match=r"^mode 5: non-finite values at time step 4$"):
        march(g, bad, phi[rows - 1], modes=rows)
    with pytest.raises(ConfigurationError, match=r"start rows shape \(5, 18\) != \(2, 18\)"):
        march(g, S[rows - 1], phi, modes=rows)  # the dense stack, not one row per stack row


def test_march_modes_rejects_bad_theta_and_shapes():
    # the stack's own shape and mode numbers are ModeFieldSet's to check
    g = grid_1d(Nx=8, Nt=4)
    sources = mode_stack(g, np.zeros((3,) + g.field_shape))
    phi = np.zeros((3, g.Nx + 2))
    for theta in (0.4, 1.1):
        with pytest.raises(ConfigurationError, match="theta"):
            march_modes(sources, phi, theta)
    for bad_phi in (phi[:2],             # a row short
                    np.zeros((4, g.Nx + 2)),  # a row over
                    phi[:, :-1],         # Nx+2 columns off
                    phi[0]):             # no mode axis
        with pytest.raises(ConfigurationError, match="start rows shape"):
            march_modes(sources, bad_phi)
    # a compact stack starts from one row per stack row, not from the dense
    # (K, Nx+2) stack
    compact = mode_stack(g, np.zeros((2,) + g.field_shape), modes=[1, 3])
    with pytest.raises(ConfigurationError, match=r"start rows shape \(3, 10\) != \(2, 10\)"):
        march_modes(compact, phi)
    with pytest.raises(ConfigurationError, match="reaction"):
        march_modes(sources, phi, reaction=np.zeros(g.Nx + 2))
    # the march overwrites the stack it is given and returns that stack
    assert march_modes(sources, phi) is sources
