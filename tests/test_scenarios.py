import warnings

import numpy as np
import pytest

from diffid import (
    CertifyOptions,
    ConfigurationError,
    Grid,
    ModeFieldSet,
    ScalarField,
    SpectralParams,
    build_scenario,
    compute_Psi,
    compute_certificate,
    convergence_study,
    recovery_error,
    run_inversion,
    strong_diagnostics,
    uniqueness_probe,
)
from diffid.errors import DataError
from diffid.grids import diff2, l2_sq_G
from diffid.inversion import InversionResult, solution_norms


def make_scenario(name, N=64, T=0.5, K=4):
    grid = Grid(np.pi, T, Nx=N, Nt=N)
    return build_scenario(name, grid, SpectralParams(K=K, Ny=256))


def test_unknown_scenario():
    grid = Grid(np.pi, 0.5, Nx=16, Nt=8)
    with pytest.raises(ConfigurationError):
        build_scenario("MMS-C", grid, SpectralParams(K=2, Ny=64))
    with pytest.raises(DataError):
        build_scenario("MMS-A", Grid(1.0, 0.5, Nx=16, Nt=8),
                       SpectralParams(K=2, Ny=64))


@pytest.mark.parametrize("name", ["MMS-A", "MMS-B"])
def test_compatibility_identity(name):
    scn = make_scenario(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = scn.data.compatibility()
    assert isinstance(residual, float) and residual <= 1e-10


@pytest.mark.parametrize("name, scale", [("NULL", 1.0), ("MMS-A", 2.0), ("MMS-B", 1e-3)])
def test_compatibility_warns_when_phi_and_psi_disagree(name, scale):
    """NULL is inconsistent on purpose, and a scaled scenario scales phi but
    keeps psi: each returns its residual as a float and warns once."""
    grid = Grid(np.pi, 0.5, Nx=32, Nt=32)
    data = build_scenario(name, grid, SpectralParams(K=3, Ny=128), scale=scale).data
    with pytest.warns(RuntimeWarning) as record:
        residual = data.compatibility()
    assert isinstance(residual, float) and residual > 0.0
    assert [str(w.message) for w in record] == [
        f"data compatibility residual {residual:.3e} exceeds 1e-06 * ||psi(0, .)|| = "
        f"{1e-6 * np.sqrt(l2_sq_G(data.psi.values[0], grid)):.3e}: phi and psi(0) disagree"]


def test_mmsa_numerator_identity():
    # -psi_t + psi_xx + (f, omega) + (u, omega'') collapses to psi, so a = 1:
    # checked through the discrete reconstruction path on fine grids elsewhere;
    # here the closed forms are verified directly on the grid
    scn = make_scenario("MMS-A", N=32)
    t, x = scn.data.grid.t, scn.data.grid.x
    psi = scn.data.psi.values
    assert np.max(np.abs(psi - (np.pi / 2) * np.exp(-t)[:, None] * np.sin(x)[None, :])) <= 1e-15
    # (f, omega) = 2 psi for omega = sin y
    w = scn.data.omega.omega_coeffs[: scn.data.params.K]
    f_om = (np.pi / 2.0) * np.tensordot(w, scn.data.f_modes.full().values, axes=(0, 0))
    assert np.max(np.abs(f_om - 2.0 * psi)) <= 1e-10
    # (u, omega'') = sum_j c_j u_j = -psi
    series = np.tensordot(scn.data.omega.couplings[:scn.data.params.K],
                          scn.truth_u_modes.full().values, axes=(0, 0))
    assert np.max(np.abs(series + psi)) <= 1e-10


def test_mmsb_truth_coefficient():
    scn = make_scenario("MMS-B", N=32)
    t, x = scn.data.grid.t, scn.data.grid.x
    expected = 1.0 + t[:, None] * np.sin(x)[None, :]
    assert np.max(np.abs(scn.truth_a.values - expected)) == 0.0


def test_truth_satisfies_discrete_forward_operator():
    prev = None
    for N in (64, 128):
        scn = make_scenario("MMS-A", N=N)
        grid = scn.data.grid
        u1 = scn.truth_u_modes.values[0]
        dudt = np.gradient(u1, grid.dt, axis=0, edge_order=2)
        lap = np.stack([diff2(u1[n], grid.hx) for n in range(grid.Nt + 1)])
        resid = dudt - lap + u1 + scn.truth_a.values * u1 - scn.data.f_modes.values[0]
        worst = np.max(np.abs(resid[:, 1:-1]))
        if prev is not None:
            assert worst <= prev / 3.0
        prev = worst
    assert worst <= 1e-3


def test_null_scenario_is_exact_fixed_point():
    scn = make_scenario("NULL", N=48)
    Psi = compute_Psi(scn.data, 1e-12)
    assert np.max(np.abs(Psi.values)) <= 1e-12
    res = run_inversion(scn.data, tol_F=1e-10, max_iters=5)
    assert res.converged
    assert res.iterations == 1
    assert np.max(np.abs(res.a.values)) <= 1e-12
    assert recovery_error(res, scn)[0] <= 1e-10


def test_recovery_error_basics():
    scn = make_scenario("MMS-A", N=32)
    grid = scn.data.grid
    cert = compute_certificate(scn.data, CertifyOptions(boundary_margin=2))
    # a result that equals the truth bitwise, a and u, has zero errors
    dummy = InversionResult(
        a=ScalarField(grid, scn.truth_a.values.copy()),
        u_modes=scn.truth_u_modes,
        certificate=cert,
        F_diff_history=(),
        stop_reason="converged",
        residual_norm=0.0,
        norms={},
    )
    assert recovery_error(dummy, scn) == (0.0, 0.0)

    shifted = InversionResult(
        a=ScalarField(grid, scn.truth_a.values + 0.01),
        u_modes=scn.truth_u_modes,
        certificate=cert,
        F_diff_history=(),
        stop_reason="converged",
        residual_norm=0.0,
        norms={},
    )
    # truth_a is identically 1, so a constant 0.01 shift is a 1% relative error
    assert recovery_error(shifted, scn)[0] == pytest.approx(0.01, rel=1e-12)


def test_recovery_error_rescale_invariance():
    scn = make_scenario("MMS-A", N=32)
    inner = scn.data.grid.interior(2)
    from diffid.scenarios import _rel_l2

    rng = np.random.default_rng(2)
    approx = scn.truth_a.values + 0.01 * rng.standard_normal(scn.data.grid.field_shape)
    e1 = _rel_l2(approx, scn.truth_a.values, inner)
    e2 = _rel_l2(5.0 * approx, 5.0 * scn.truth_a.values, inner)
    assert e2 == pytest.approx(e1, rel=1e-12)


def test_scaled_scenario_has_no_truth():
    scn = make_scenario("MMS-A", N=32)
    grid = scn.data.grid
    scaled = build_scenario("MMS-A", grid, scn.data.params, scale=0.01)
    assert scaled.truth_a is None
    assert np.max(np.abs(scaled.data.f_modes.values)) == pytest.approx(
        0.01 * np.max(np.abs(scn.data.f_modes.values)), rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(scaled.data, tol_F=1e-20, max_iters=10, force=True)
    with pytest.raises(DataError):
        recovery_error(res, scaled)


def test_convergence_study_monotone():
    params = SpectralParams(K=4, Ny=256)
    grid = Grid(np.pi, 0.5, Nx=64, Nt=32)
    with pytest.warns(RuntimeWarning, match="running despite failed certificate"):
        rows = convergence_study("MMS-A", grid, params)
    # levels Nx//4, Nx//2, Nx with Nt scaled in proportion
    assert [(row["N"], row["result"].a.grid.Nt) for row in rows] == [(16, 8), (32, 16), (64, 32)]
    assert all(row["scenario"].data.grid == row["result"].a.grid for row in rows)
    errs = [row["err_a"] for row in rows]
    assert errs[0] > errs[1] > errs[2]
    assert np.isnan(rows[0]["order_a"]) and rows[-1]["order_a"] >= 1.0
    with pytest.raises(ConfigurationError, match="grid.Nx = 16"):
        convergence_study("MMS-A", Grid(np.pi, 0.5, Nx=16, Nt=16), params)


def test_convergence_study_null_zero_error():
    params = SpectralParams(K=2, Ny=64)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rows = convergence_study("NULL", Grid(np.pi, 0.5, Nx=32, Nt=32),
                                 params)
    assert [row["N"] for row in rows] == [8, 16, 32]
    for row in rows:
        assert row["err_a"] <= 1e-10
        assert row["err_u"] == 0.0


def test_uniqueness_probe_mmsa():
    # the second start (2 u^1) is off the zero-start trajectory, so the two
    # runs reach the fixed point along different iterates
    scn = make_scenario("MMS-A", N=48, K=4)
    with pytest.warns(RuntimeWarning, match="running despite failed certificate"):
        distance = uniqueness_probe(scn.data, run_inversion(scn.data, force=True).a)
    assert 0.0 < distance <= 1e-8


def test_uniqueness_probe_null():
    scn = make_scenario("NULL", N=32, K=2)
    assert uniqueness_probe(scn.data, run_inversion(scn.data, force=True).a) == 0.0


def test_uniqueness_probe_reports_on_failing_certificate():
    # T > 1 fails the certificate outright; the probe still reports a distance
    scn = make_scenario("MMS-A", N=24, T=2.0, K=2)
    with pytest.warns(RuntimeWarning, match="running despite failed certificate"):
        d = uniqueness_probe(scn.data, run_inversion(scn.data, max_iters=8, force=True).a,
                             max_iters=8)
    assert np.isfinite(d)


def test_uniqueness_probe_reuses_zero_start_and_passes_theta(monkeypatch):
    import diffid.inversion as inversion
    import diffid.scenarios as scenarios

    scn = make_scenario("MMS-A", N=24, K=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        zero = run_inversion(scn.data, max_iters=8, theta=0.8, force=True)

    runs, thetas = [], []
    real_run, real_march = scenarios.run_inversion, inversion.march_modes

    def run_spy(*args, **kwargs):
        runs.append(kwargs.get("initial") is None)
        return real_run(*args, **kwargs)

    def march_spy(sources, phi_modes, theta=0.5, reaction=None):
        thetas.append(theta)
        return real_march(sources, phi_modes, theta, reaction)

    monkeypatch.setattr(scenarios, "run_inversion", run_spy)
    monkeypatch.setattr(inversion, "march_modes", march_spy)

    with pytest.warns(RuntimeWarning, match="running despite failed certificate"):
        uniqueness_probe(scn.data, zero.a, max_iters=8, theta=0.8)
    assert runs == [False]  # only the warm-start inversion is run
    assert thetas and set(thetas) == {0.8}


def single_mode_stack(grid, params, mode_field, row=0):
    """A dense stack with mode_field in one row, and its norms with a = 0."""
    vals = np.zeros((params.K,) + grid.field_shape)
    vals[row] = mode_field
    modes = ModeFieldSet(grid, params, vals)
    return modes, solution_norms(modes, ScalarField(grid, np.zeros(grid.field_shape)))


def test_strong_diagnostics_single_mode():
    grid = Grid(np.pi, 1.0, Nx=128, Nt=128)
    params = SpectralParams(K=1, Ny=64)
    field = np.exp(-grid.t)[:, None] * np.sin(grid.x)[None, :]
    u, norms = single_mode_stack(grid, params, field)
    d = strong_diagnostics(u, norms)
    exact = (np.pi / 2) ** 2 * (1 - np.exp(-2)) / 2
    assert d["u_sq_Q"] == pytest.approx(exact, abs=1e-3)
    assert d["u_yy_sq_Q"] == pytest.approx(exact, abs=1e-3)
    assert d["u_yy_sq_Q"] == pytest.approx(d["u_sq_Q"], rel=1e-12)


def test_strong_diagnostics_zero_solution():
    grid = Grid(np.pi, 1.0, Nx=16, Nt=8)
    params = SpectralParams(K=2, Ny=64)
    u, norms = single_mode_stack(grid, params, np.zeros(grid.field_shape))
    d = strong_diagnostics(u, norms)
    assert all(v == 0.0 for v in d.values())


def test_strong_diagnostics_weights_last_mode():
    # all energy in mode 2: u_yy carries lambda_2^2 = 16 times the u norm, and
    # no epsilon value makes the diagnostics warn
    grid = Grid(np.pi, 1.0, Nx=16, Nt=8)
    params = SpectralParams(K=2, epsilon=5.0, Ny=64)
    u, norms = single_mode_stack(grid, params, np.sin(grid.x)[None, :], row=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = strong_diagnostics(u, norms)
    assert d["u_yy_sq_Q"] == 16.0 * d["u_sq_Q"] > 0.0
