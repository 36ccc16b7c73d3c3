from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sps
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from diffid import (
    Domain,
    ModeFieldSet,
    ModeProblem,
    OmegaData,
    ScalarField,
    SpectralParams,
    build_grid,
    l2_norm_G,
    overdetermination_residual,
    solve_forward,
    solve_mode,
)
from diffid.errors import NumericalBlowupError
from diffid.tridiag import thomas_solve


def grid_1d(Nx=128, Nt=128, T=1.0):
    return build_grid(Domain((np.pi,), T), Nx=Nx, Nt=Nt)


def decay_error(Nx, Nt):
    """Max error against u = e^{-2t} sin x for v_t = v_xx - v, phi = sin x."""
    g = grid_1d(Nx=Nx, Nt=Nt, T=1.0)
    prob = ModeProblem(k=1, source=ScalarField.zeros(g), initial=np.sin(g.x))
    u = solve_mode(prob, g)
    exact = np.exp(-2.0 * g.t)[:, None] * np.sin(g.x)[None, :]
    return float(np.max(np.abs(u.values - exact)))


def test_analytic_decay():
    assert decay_error(128, 128) <= 2e-4


def test_zero_data_stays_zero():
    g = grid_1d(Nx=32, Nt=16)
    prob = ModeProblem(k=3, source=ScalarField.zeros(g), initial=np.zeros(g.space_shape))
    u = solve_mode(prob, g)
    assert np.max(np.abs(u.values)) == 0.0


def test_stationary_solution():
    # phi = sin x with S = (1 + lambda_1) sin x holds the profile steady;
    # the discrete fixed point is offset by ~hx^2/24, so a fine x-grid is used.
    g = grid_1d(Nx=1024, Nt=16, T=0.25)
    source = ScalarField.from_function(g, lambda t, x: 2.0 * np.sin(x))
    prob = ModeProblem(k=1, source=source, initial=np.sin(g.x))
    u = solve_mode(prob, g)
    assert np.max(np.abs(u.values - np.sin(g.x)[None, :])) <= 1e-6


def test_refinement_order():
    errs = [decay_error(n, n) for n in (64, 128)]
    assert np.log2(errs[0] / errs[1]) >= 1.8


def test_dirichlet_boundary_exact_zero():
    g = grid_1d(Nx=24, Nt=12)
    source = ScalarField.from_function(g, lambda t, x: np.cos(t) * x * (np.pi - x))
    prob = ModeProblem(k=2, source=source, initial=np.sin(2 * g.x))
    u = solve_mode(prob, g)
    assert np.all(u.values[:, 0] == 0.0)
    assert np.all(u.values[:, -1] == 0.0)


@pytest.mark.parametrize("theta", [0.5, 0.75, 1.0])
def test_l2_stability_nonnegative_reaction(theta):
    g = grid_1d(Nx=48, Nt=24, T=2.0)
    rng = np.random.default_rng(9)
    a_profile = rng.random(g.space_shape) * 2.0
    reaction = ScalarField(g, np.broadcast_to(a_profile, g.field_shape).copy())
    phi = rng.standard_normal(g.space_shape)
    phi[0] = phi[-1] = 0.0
    prob = ModeProblem(k=1, source=ScalarField.zeros(g), initial=phi,
                       reaction=reaction, theta=theta)
    u = solve_mode(prob, g)
    norms = [l2_norm_G(u.values[n], g) for n in range(g.Nt + 1)]
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
    f = ModeFieldSet.zeros(g, params)
    phi = np.zeros((2,) + g.space_shape)
    phi[1] = np.sin(g.x)
    u = solve_forward(None, f, phi, g, params)
    exact = np.exp(-5.0 * g.t)[:, None] * np.sin(g.x)[None, :]
    assert np.max(np.abs(u.values[1] - exact)) <= 5e-4
    assert np.max(np.abs(u.values[0])) == 0.0


def test_forward_with_reaction_manufactured():
    # a = 1, f_1 = 2 e^{-t} sin x, phi_1 = sin x  =>  u_1 = e^{-t} sin x
    g = grid_1d(Nx=128, Nt=128, T=1.0)
    params = SpectralParams(K=2, Ny=64)
    a = ScalarField(g, np.ones(g.field_shape))
    f_vals = np.zeros((2,) + g.field_shape)
    f_vals[0] = 2.0 * np.exp(-g.t)[:, None] * np.sin(g.x)[None, :]
    phi = np.zeros((2,) + g.space_shape)
    phi[0] = np.sin(g.x)
    u = solve_forward(a, ModeFieldSet(g, params, f_vals), phi, g, params)
    exact = np.exp(-g.t)[:, None] * np.sin(g.x)[None, :]
    assert np.max(np.abs(u.values[0] - exact)) <= 5e-4
    assert np.max(np.abs(u.values[1])) <= 1e-12


def test_negative_reaction_warning():
    g = grid_1d(Nx=16, Nt=4, T=1.0)  # dt = 0.25
    a = ScalarField(g, np.full(g.field_shape, -5.0))
    prob = ModeProblem(k=1, source=ScalarField.zeros(g), initial=np.sin(g.x), reaction=a)
    with pytest.warns(RuntimeWarning):
        solve_mode(prob, g)


def test_blowup_reported_with_step():
    # a negative reaction tuned so the implicit operator is singular: the
    # solve produces non-finite values, which must surface as a blowup error
    g = grid_1d(Nx=16, Nt=64, T=1.0)
    theta = 0.5
    a_sing = -(1.0 / (theta * g.dt) + 2.0 / g.hx**2 + 1.0)
    a = ScalarField(g, np.full(g.field_shape, a_sing))
    prob = ModeProblem(k=1, source=ScalarField.zeros(g), initial=np.sin(g.x),
                       reaction=a, theta=theta)
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NumericalBlowupError) as err:
            solve_mode(prob, g)
    assert err.value.step is not None


def test_2d_analytic_decay():
    dom = Domain((np.pi, np.pi), 0.5)
    g = build_grid(dom, Nx=24, Nt=32, Ny=24)
    xx, yy = np.meshgrid(g.x, g.y, indexing="ij")
    phi = np.sin(xx) * np.sin(yy)
    prob = ModeProblem(k=1, source=ScalarField.zeros(g), initial=phi)
    u = solve_mode(prob, g)
    exact = np.exp(-3.0 * g.t)[:, None, None] * phi[None, :, :]
    assert np.max(np.abs(u.values - exact)) <= 5e-3


def test_2d_decay_with_reaction():
    # constant reaction a = 1 adds one more unit to the decay rate
    dom = Domain((np.pi, np.pi), 0.5)
    g = build_grid(dom, Nx=20, Nt=32, Ny=20)
    xx, yy = np.meshgrid(g.x, g.y, indexing="ij")
    phi = np.sin(xx) * np.sin(yy)
    a = ScalarField(g, np.ones(g.field_shape))
    prob = ModeProblem(k=1, source=ScalarField.zeros(g), initial=phi, reaction=a)
    u = solve_mode(prob, g)
    exact = np.exp(-4.0 * g.t)[:, None, None] * phi[None, :, :]
    assert np.max(np.abs(u.values - exact)) <= 5e-3


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
    u = ModeFieldSet.zeros(g, params)
    zero = ScalarField.zeros(g)
    _, norm0 = overdetermination_residual(u, om, zero)
    assert norm0 == 0.0

    delta = ScalarField.from_function(g, lambda t, x: 0.01 * np.sin(x) * (1 + t))
    _, norm1 = overdetermination_residual(u, om, delta)
    from diffid import l2_norm_GT
    assert norm1 == pytest.approx(l2_norm_GT(delta), rel=1e-12)


def thomas_march(S, phi, g, k, theta):
    """Reaction-free theta march, one Thomas solve per step: the reference
    for the DST-I path."""
    dt, r, lam = g.dt, g.dt / g.hx**2, float(k * k)
    off = np.full(g.Nx - 1, -theta * r)
    diag = np.full(g.Nx, 1.0 + theta * (2.0 * r + dt * lam))
    out = np.zeros(g.field_shape)
    v = phi.copy()
    v[0] = v[-1] = 0.0
    out[0] = v
    for n in range(g.Nt):
        rhs = (v[1:-1] * (1.0 - (1.0 - theta) * (2.0 * r + dt * lam))
               + (1.0 - theta) * r * (v[:-2] + v[2:])
               + dt * (theta * S[n + 1, 1:-1] + (1.0 - theta) * S[n, 1:-1]))
        v = np.zeros_like(v)
        v[1:-1] = thomas_solve(off, diag, off, rhs)
        out[n + 1] = v
    return out


def splu_march_2d(S, phi, g, k, theta):
    """Reaction-free 2-d theta march, one sparse LU of the step operator:
    the reference for the DST-I path."""
    nx, ny, dt = g.Nx, g.Ny, g.dt
    Ax = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(nx, nx)) / g.hx**2
    Ay = sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(ny, ny)) / g.hy**2
    eye = sps.identity(nx * ny, format="csr")
    M = sps.kron(Ax, sps.eye(ny)) + sps.kron(sps.eye(nx), Ay) + k * k * eye
    lu = splu((eye + theta * dt * M).tocsc())
    explicit = (eye - (1.0 - theta) * dt * M).tocsr()
    out = np.zeros(g.field_shape)
    out[0, 1:-1, 1:-1] = phi[1:-1, 1:-1]
    for n in range(g.Nt):
        rhs = explicit @ out[n, 1:-1, 1:-1].ravel() + dt * (
            theta * S[n + 1, 1:-1, 1:-1] + (1.0 - theta) * S[n, 1:-1, 1:-1]).ravel()
        out[n + 1, 1:-1, 1:-1] = lu.solve(rhs).reshape(nx, ny)
    return out


def rel_max_diff(u, ref):
    return float(np.max(np.abs(u - ref)) / np.max(np.abs(ref)))


@settings(max_examples=40, deadline=None)
@given(Nx=st.integers(4, 200), Nt=st.integers(2, 48), k=st.integers(1, 16),
       theta=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
@example(Nx=96, Nt=48, k=16, theta=0.5, seed=1)   # Nx+1 = 97 is prime
@example(Nx=192, Nt=24, k=1, theta=1.0, seed=2)   # Nx+1 = 193 is prime
def test_spectral_march_matches_thomas_reference(Nx, Nt, k, theta, seed):
    g = grid_1d(Nx=Nx, Nt=Nt, T=0.5)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal(g.field_shape)
    phi = rng.standard_normal(g.space_shape)
    u = solve_mode(ModeProblem(k=k, source=ScalarField(g, S), initial=phi, theta=theta), g)
    assert rel_max_diff(u.values, thomas_march(S, phi, g, k, theta)) <= 1e-12
    assert np.all(u.values[:, 0] == 0.0) and np.all(u.values[:, -1] == 0.0)
    assert np.array_equal(u.values[0, 1:-1], phi[1:-1])


@settings(max_examples=30, deadline=None)
@given(Nx=st.integers(2, 24), Ny=st.integers(2, 24), Nt=st.integers(2, 16),
       Lx=st.floats(0.5, 4.0), Ly=st.floats(0.5, 4.0), k=st.integers(1, 16),
       theta=st.floats(0.5, 1.0), seed=st.integers(0, 2**32 - 1))
def test_spectral_march_2d_matches_splu_reference(Nx, Ny, Nt, Lx, Ly, k, theta, seed):
    g = build_grid(Domain((Lx, Ly), 0.5), Nx=Nx, Nt=Nt, Ny=Ny)
    rng = np.random.default_rng(seed)
    S = rng.standard_normal(g.field_shape)
    phi = rng.standard_normal(g.space_shape)
    u = solve_mode(ModeProblem(k=k, source=ScalarField(g, S), initial=phi, theta=theta), g)
    assert rel_max_diff(u.values, splu_march_2d(S, phi, g, k, theta)) <= 1e-12
    for edge in (u.values[:, 0], u.values[:, -1], u.values[:, :, 0], u.values[:, :, -1]):
        assert np.all(edge == 0.0)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from((1, 2)), Nt=st.integers(2, 16), data=st.data(),
       theta=st.floats(0.5, 1.0), value=st.sampled_from((np.inf, -np.inf, np.nan)))
def test_spectral_blowup_names_first_bad_step(dim, Nt, data, theta, value):
    # ScalarField rejects non-finite values, so a stand-in carries the source
    lengths = (np.pi,) * dim
    g = build_grid(Domain(lengths, 1.0), Nx=12, Nt=Nt, Ny=9 if dim == 2 else None)
    step = data.draw(st.integers(1, Nt))
    node = tuple(data.draw(st.integers(1, n)) for n in (g.Nx, g.Ny)[:dim])
    S = np.zeros(g.field_shape)
    S[(step,) + node] = value
    prob = ModeProblem(k=3, source=SimpleNamespace(grid=g, values=S),
                       initial=np.zeros(g.space_shape), theta=theta)
    with pytest.raises(NumericalBlowupError) as err:
        solve_mode(prob, g)
    assert err.value.step == step
    assert err.value.mode == 3
