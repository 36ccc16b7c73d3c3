import tracemalloc
import warnings
from dataclasses import asdict, replace

import numpy as np
import pytest
from conftest import seeded_pair
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diffid import (
    CertifyOptions,
    F_functional,
    Grid,
    ModeFieldSet,
    OmegaData,
    ScalarField,
    SpectralParams,
    build_scenario,
    compute_Psi,
    compute_certificate,
    forced_modes,
    iterate,
    march_modes,
    overdetermination_residual,
    picard_source,
    reconstruct_a,
    recovery_error,
    run_inversion,
    strong_diagnostics,
)
from diffid.errors import CertificateFailure, ConfigurationError, DataError
from diffid.inversion import solution_norms
from diffid.problem import ProblemData


def mmsa(N=64, T=0.5, K=8, scale=1.0):
    grid = Grid(np.pi, T, Nx=N, Nt=N)
    params = SpectralParams(K=K, Ny=max(4 * K, 256))
    return build_scenario("MMS-A", grid, params, scale=scale)


def test_source_with_zero_previous_is_f():
    scn = mmsa(N=32, K=3)
    data = scn.data
    Psi = compute_Psi(data, 1e-12)
    prev = ModeFieldSet.empty(data.grid, data.params).full()
    S = picard_source(prev, data, Psi)
    assert np.array_equal(S, data.f_modes.full().values)


def test_source_single_mode_algebra():
    # with omega = sin y: S_1 = f_1 - Psi u_1 + (pi/(2 psi)) u_1^2 on the interior
    scn = mmsa(N=32, K=2)
    data, grid = scn.data, scn.data.grid
    Psi = compute_Psi(data, 1e-12)
    dense = np.arange(1, data.params.K + 1)
    prev = ModeFieldSet(grid, data.params, scn.truth_u_modes.full().values.copy(), dense)
    S = picard_source(prev, data, Psi)

    u1 = prev.values[0]
    interior = np.s_[:, 1:-1]
    expected = (
        data.f_modes.values[0][interior]
        - Psi.values[interior] * u1[interior]
        + (np.pi / (2.0 * data.psi.values[interior])) * u1[interior] ** 2
    )
    assert np.max(np.abs(S[0][interior] - expected)) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["MMS-A", "MMS-B"]), K=st.integers(1, 6),
       live=st.lists(st.booleans(), min_size=6, max_size=6), seed=st.integers(0, 2**32 - 1))
def test_source_lags_the_reported_coefficient(name, K, live, seed):
    # the sweep's source is f_k - a(u) u_k with a(u) the very coefficient
    # reconstruct_a reports for u, bit for bit on the interior columns
    grid = Grid(np.pi, 0.5, Nx=16, Nt=8)
    data = build_scenario(name, grid, SpectralParams(K=K)).data
    modes = np.arange(1, K + 1)[np.array(live[:K])]
    rng = np.random.default_rng(seed)
    u = ModeFieldSet(grid, data.params, rng.standard_normal((len(modes),) + grid.field_shape),
                     modes)
    Psi = compute_Psi(data, 1e-12)
    S = picard_source(u, data, Psi)
    lagged = (data.f_modes.rows(u.modes).values
              - reconstruct_a(u, data, Psi, 1).values[None] * u.values)
    assert np.array_equal(S[..., 1:-1], lagged[..., 1:-1])


def test_source_scaling_degrees():
    # doubling the previous iterate doubles the Psi term and quadruples the
    # coupling-series term
    scn = mmsa(N=24, K=2)
    data, grid = scn.data, scn.data.grid
    Psi = compute_Psi(data, 1e-12)
    dense = np.arange(1, data.params.K + 1)
    prev = ModeFieldSet(grid, data.params, scn.truth_u_modes.full().values.copy(), dense)
    double = ModeFieldSet(grid, data.params, 2.0 * prev.values, dense)

    f = data.f_modes.full().values
    lag1 = f - picard_source(prev, data, Psi)
    lag2 = f - picard_source(double, data, Psi)
    linear = Psi.values[None] * prev.values
    quadratic = lag1 - linear
    assert np.max(np.abs(lag2 - (2.0 * linear + 4.0 * quadratic))) <= 1e-10


def test_first_sweep_is_pure_linear_solve():
    scn = mmsa(N=32, K=3)
    data = scn.data
    Psi = compute_Psi(data, 1e-12)
    u1, _ = iterate(ModeFieldSet.empty(data.grid, data.params).full(), data, Psi)
    f = ModeFieldSet(data.grid, data.params, data.f_modes.full().values.copy(),
                     np.arange(1, data.params.K + 1))
    assert np.array_equal(u1.values, march_modes(f, data.phi_modes).values)


def test_zero_data_fixed_point_immediately():
    grid = Grid(np.pi, 0.5, Nx=24, Nt=12)
    scn = build_scenario("NULL", grid, SpectralParams(K=2, Ny=64))
    data = scn.data
    Psi = compute_Psi(data, 1e-12)
    _, f_diff = iterate(ModeFieldSet.empty(grid, data.params).full(), data, Psi)
    assert f_diff == 0.0


@settings(max_examples=30, deadline=None)
@given(Nx=st.integers(8, 200), Nt=st.integers(4, 64), K=st.integers(1, 16),
       T=st.floats(1e-150, 1.0))  # below ~1e-160, eps/dt roundoff overflows Psi_M**2
@example(Nx=8, Nt=4, K=1, T=0.5)
@example(Nx=96, Nt=40, K=16, T=1.0)
def test_null_is_a_one_sweep_fixed_point(Nx, Nt, K, T):
    # f = phi = 0: the first sweep returns u = 0 exactly, so a is Psi itself
    grid = Grid(np.pi, T, Nx=Nx, Nt=Nt)
    data = build_scenario("NULL", grid, SpectralParams(K=K)).data
    res = run_inversion(data, tol_F=1e-10, max_iters=5)
    assert res.stop_reason == "converged" and res.iterations == 1
    assert res.F_diff_history == (0.0,)
    assert not np.any(res.u_modes.values)
    Psi = compute_Psi(data, 1e-12)
    inner = grid.interior(res.margin)
    assert np.array_equal(res.a.values[:, inner], Psi.values[:, inner])


def _full_stack_loop(data, Psi, tol_F, max_iters, theta, initial, margin):
    """Reference: run_inversion's sweep loop marching all K rows at every
    sweep.  Returns (a, u, F_diff_history, stop_reason)."""
    u = (initial if initial is not None else ModeFieldSet.empty(data.grid, data.params)).full()
    F_diffs, stop_reason = [], "max_iters"
    for _ in range(max_iters):
        swept, f_diff = iterate(u, data, Psi, theta=theta)
        first = F_diffs[0] if F_diffs else f_diff
        if not (np.isfinite(f_diff) and f_diff <= 2.0**104 * first):
            stop_reason = "diverged"
            break
        F_diffs.append(f_diff)
        u = swept
        if f_diff <= tol_F:
            stop_reason = "converged"
            break
    a = reconstruct_a(u, data, Psi, margin)
    return a, u, tuple(F_diffs), stop_reason


@st.composite
def sparse_mode_problem(draw):
    """MMS-A's psi and omega with random f and phi rows, a random subset of
    them zero, and an optional starting iterate with its own nonzero rows."""
    K = draw(st.integers(1, 16))
    grid = Grid(np.pi, 0.5, Nx=draw(st.integers(8, 96)),
                Nt=draw(st.integers(4, 48)))
    params = SpectralParams(K=K)
    base = build_scenario("MMS-A", grid, params).data
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.floats(1e-4, 1e-2))

    def rows(shape):
        live = np.array(draw(st.lists(st.booleans(), min_size=K, max_size=K)))
        return scale * rng.standard_normal((K,) + shape) * live.reshape((K,) + (1,) * len(shape))

    f_modes = ModeFieldSet(grid, params, rows(grid.field_shape), np.arange(1, params.K + 1))
    data = ProblemData(psi=base.psi, f_modes=f_modes, phi_modes=rows((grid.Nx + 2,)),
                       omega=base.omega)
    initial = (ModeFieldSet(grid, params, rows(grid.field_shape), np.arange(1, params.K + 1))
               if draw(st.booleans()) else None)
    return data, initial, draw(st.floats(0.5, 1.0)), draw(st.integers(1, 6))


@settings(max_examples=40, deadline=None)
@given(problem=sparse_mode_problem())
def test_sweeping_excited_modes_matches_full_stack(problem):
    # the modes with zero f, phi and start stay exactly zero, so carrying only
    # the others gives exactly the full-stack result, not a close one
    data, initial, theta, max_iters = problem
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(data, tol_F=1e-20, max_iters=max_iters, theta=theta, force=True,
                            initial=initial)
    Psi = compute_Psi(data, 1e-12)
    a, u, F_diffs, stop_reason = _full_stack_loop(data, Psi, 1e-20, max_iters, theta, initial,
                                                  res.margin)
    assert res.F_diff_history == F_diffs
    assert res.stop_reason == stop_reason
    assert np.array_equal(res.u_modes.full().values, u.values)
    assert np.array_equal(res.a.values, a.values)
    start = initial if initial is not None else ModeFieldSet.empty(data.grid, data.params)
    excited = forced_modes(data.phi_modes, data.f_modes, start)
    assert np.array_equal(res.u_modes.modes, excited)
    quiet = np.setdiff1d(np.arange(1, data.params.K + 1), res.u_modes.modes)
    assert not np.any(u.values[quiet - 1])


def test_reconstruct_zero_modes_gives_Psi():
    scn = mmsa(N=48, K=2)
    data, grid = scn.data, scn.data.grid
    Psi = compute_Psi(data, 1e-12)
    a = reconstruct_a(ModeFieldSet.empty(grid, data.params).full(), data, Psi, 2)
    inner = grid.interior(2)
    assert np.array_equal(a.values[:, inner], Psi.values[:, inner])


def test_reconstruct_exact_mmsa_fields():
    scn = mmsa(N=128, T=1.0, K=4)
    data, grid = scn.data, scn.data.grid
    Psi = compute_Psi(data, 1e-12)
    a = reconstruct_a(scn.truth_u_modes, data, Psi, 2)
    inner = grid.interior(2)
    assert np.max(np.abs(a.values[:, inner] - 1.0)) <= 1e-2


def test_reconstruct_copies_the_nodes_outside_the_margin():
    # Nx = 16 has x-nodes 0..17, so a margin leaves a node up to (16 + 1) // 2 = 8
    scn = build_scenario("MMS-B", Grid(np.pi, 0.5, Nx=16, Nt=16), SpectralParams(K=2, Ny=64))
    Psi = compute_Psi(scn.data, 1e-12)
    for margin in (2, 8):
        a = reconstruct_a(scn.truth_u_modes, scn.data, Psi, margin).values
        assert np.array_equal(a[:, :margin], np.repeat(a[:, margin:margin + 1], margin, axis=1))
        assert np.array_equal(a[:, 18 - margin:], np.repeat(a[:, 17 - margin:18 - margin],
                                                            margin, axis=1))
    with pytest.raises(ConfigurationError,
                       match=r"certify\.boundary_margin = 9 .*Nx = 16.*\[0, 8\]"):
        reconstruct_a(scn.truth_u_modes, scn.data, Psi, 9)


def test_reconstruct_joint_rescale_invariance():
    scn = mmsa(N=32, K=2)
    data, grid = scn.data, scn.data.grid
    Psi = compute_Psi(data, 1e-12)
    a1 = reconstruct_a(scn.truth_u_modes, data, Psi, 2)

    s = 4.2
    data_s = replace(data, psi=ScalarField(grid, s * data.psi.values),
                     f_modes=ModeFieldSet(grid, data.params, s * data.f_modes.values,
                                          data.f_modes.modes))
    u_s = ModeFieldSet(grid, data.params, s * scn.truth_u_modes.values,
                       scn.truth_u_modes.modes)
    a2 = reconstruct_a(u_s, data_s, compute_Psi(data_s, 1e-12), 2)
    assert np.max(np.abs(a1.values - a2.values)) <= 1e-12


def test_reconstruction_extrapolation_is_constant():
    scn = mmsa(N=32, K=2)
    data, grid = scn.data, scn.data.grid
    Psi = compute_Psi(data, 1e-12)
    a = reconstruct_a(scn.truth_u_modes, data, Psi, 3)
    assert np.array_equal(a.values[:, 0], a.values[:, 3])
    assert np.array_equal(a.values[:, 2], a.values[:, 3])
    assert np.array_equal(a.values[:, -1], a.values[:, -4])


def test_certificate_gate_and_force():
    scn = mmsa(N=32, K=4)
    with pytest.raises(CertificateFailure) as err:
        run_inversion(scn.data, tol_F=1e-10, max_iters=10)
    assert err.value.certificate is not None
    with pytest.warns(RuntimeWarning):
        res = run_inversion(scn.data, tol_F=1e-10, max_iters=30, force=True)
    assert res.converged


def test_full_inversion_recovers_coefficient():
    scn = mmsa(N=64, K=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(scn.data, tol_F=1e-10, max_iters=30, force=True)
    assert res.converged
    assert res.iterations <= 30
    assert recovery_error(res, scn)[0] <= 5e-2
    assert res.residual_norm <= 1e-3


def test_fixed_point_one_extra_sweep():
    scn = mmsa(N=48, K=4)
    tol = 1e-10
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(scn.data, tol_F=tol, max_iters=30, force=True)
    data = scn.data
    Psi = compute_Psi(data, 1e-12)
    _, f_diff = iterate(res.u_modes, data, Psi)
    assert f_diff <= 10.0 * tol


def test_reconstruction_identity_bitwise():
    scn = mmsa(N=32, K=3)
    data, grid = scn.data, scn.data.grid
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(data, tol_F=1e-10, max_iters=30, force=True)
    Psi = compute_Psi(data, 1e-12)
    again = reconstruct_a(res.u_modes, data, Psi, res.margin)
    assert np.array_equal(again.values, res.a.values)


def test_contraction_on_certified_run():
    scn = mmsa(N=64, K=8, scale=3e-3)
    cert = compute_certificate(scn.data, CertifyOptions())
    assert cert.local_pass
    res = run_inversion(scn.data, tol_F=1e-30, max_iters=12)
    assert res.converged
    assert len(res.ratio_history) >= 2
    assert all(r <= cert.q_local for r in res.ratio_history)
    diffs = np.array(res.F_diff_history)
    assert np.all(np.diff(diffs) <= 0.0)


def test_zero_measurement_rejected():
    # f = 0, phi = 0 with psi identically zero is a division hazard, not a run
    grid = Grid(np.pi, 0.5, Nx=16, Nt=8)
    params = SpectralParams(K=2, Ny=64)
    from diffid import OmegaData, ProblemData
    from diffid.errors import DivisionHazardError

    om = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
    data = ProblemData(psi=ScalarField(grid, np.zeros(grid.field_shape)),
                       f_modes=ModeFieldSet.empty(grid, params),
                       phi_modes=np.zeros((2, grid.Nx + 2)), omega=om)
    with pytest.raises(DivisionHazardError):
        run_inversion(data, tol_F=1e-10, max_iters=5, force=True)


def test_nonconvergence_is_a_result():
    scn = mmsa(N=32, K=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(scn.data, tol_F=1e-30, max_iters=2, force=True)
    assert not res.converged
    assert res.iterations == 2
    assert len(res.F_diff_history) == 2
    assert np.all(np.isfinite(res.a.values))


def test_norm_bundle_finite_and_positive():
    scn = mmsa(N=32, K=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(scn.data, tol_F=1e-10, max_iters=30, force=True)
    assert set(res.norms) == {"u_sq_Q", "grad_u_sq_tau1", "u_t_sq_tau1",
                              "u_sq_tau2", "a_sq_GT"}
    for v in res.norms.values():
        assert np.isfinite(v) and v >= 0.0


@pytest.mark.parametrize("name, modes", [("MMS-A", [1]), ("MMS-B", [1]), ("NULL", [])])
def test_result_holds_only_the_excited_rows(name, modes):
    grid = Grid(np.pi, 0.5, Nx=24, Nt=12)
    scn = build_scenario(name, grid, SpectralParams(K=16))
    assert scn.data.f_modes.modes.tolist() == modes
    assert scn.truth_u_modes.modes.tolist() == modes
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(scn.data, tol_F=1e-10, max_iters=30, force=True)
    assert res.u_modes.modes.tolist() == modes
    dense = res.u_modes.full()
    assert dense.values.shape == (16,) + grid.field_shape
    assert not np.any(np.delete(dense.values, np.array(modes, dtype=int) - 1, axis=0))


def test_compact_and_dense_stacks_give_bitwise_equal_norms():
    # every sum over mode rows is a mode_sum, in ascending k with zero rows
    # skipped; np.sum's pairwise order or a BLAS contraction over 16 rows
    # would group them otherwise.  As a source or an iterate, the stacks give
    # the same certificate, Psi, measurement, residual, coefficient and source
    grid = Grid(np.pi, 0.5, Nx=24, Nt=12)
    params = SpectralParams(K=16, epsilon=0.7, Ny=64)
    rng = np.random.default_rng(10)
    a = ScalarField(grid, rng.random(grid.field_shape))
    phi = rng.standard_normal((16, grid.Nx + 2))
    psi = ScalarField(grid, 1.0 + rng.random(grid.field_shape))
    omega = OmegaData(rng.standard_normal(16))
    for _ in range(20):
        modes = np.sort(rng.choice(np.arange(1, 17), size=rng.integers(6, 10), replace=False))
        u = ModeFieldSet(grid, params, rng.standard_normal((len(modes),) + grid.field_shape)
                         * 10.0 ** rng.integers(-3, 4, size=(len(modes), 1, 1)), modes)
        dense = u.full()
        assert solution_norms(u, a) == solution_norms(dense, a)
        assert (strong_diagnostics(u, solution_norms(u, a))
                == strong_diagnostics(dense, solution_norms(dense, a)))
        zero = ModeFieldSet.empty(grid, params)
        assert F_functional(u, zero) == F_functional(dense, zero)
        assert F_functional(dense, u) == 0.0
        data = ProblemData(psi=psi, f_modes=u, phi_modes=phi, omega=omega)
        dense_data = replace(data, f_modes=dense)
        assert (asdict(compute_certificate(data, CertifyOptions()))
                == asdict(compute_certificate(dense_data, CertifyOptions())))
        Psi = compute_Psi(data, 1e-12)
        assert np.array_equal(Psi.values, compute_Psi(dense_data, 1e-12).values)
        assert np.array_equal(omega.measure(u.values, u.modes),
                              omega.measure(dense.values, dense.modes))
        res, res_norm = overdetermination_residual(u, omega, psi)
        dense_res, dense_res_norm = overdetermination_residual(dense, omega, psi)
        assert np.array_equal(res.values, dense_res.values) and res_norm == dense_res_norm
        assert np.array_equal(reconstruct_a(u, data, Psi, 2).values,
                              reconstruct_a(dense, dense_data, Psi, 2).values)
        assert np.array_equal(picard_source(u, data, Psi),
                              picard_source(dense, dense_data, Psi)[u.modes - 1])


def test_run_inversion_peaks_below_one_dense_stack():
    # MMS-B excites mode 1 only: no step of the run may build a dense
    # (K, Nt+1, Nx+2) stack, which at N = 96, K = 16 is 1.2 MB
    grid = Grid(np.pi, 0.5, Nx=96, Nt=96)
    params = SpectralParams(K=16, Ny=256)
    scn = build_scenario("MMS-B", grid, params)
    dense_bytes = params.K * np.prod(grid.field_shape) * 8
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_inversion(scn.data, tol_F=1e-10, max_iters=30, force=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    assert peak < dense_bytes, f"peak {peak} B, one dense stack {dense_bytes} B"


def test_run_inversion_peaks_near_three_stacks_above_the_data():
    # a sweep holds the iterate, the source stack the march overwrites with
    # the next iterate, and the march's transform buffer: no a * u product
    # beside the source and no difference stack for the energy (4.2 stacks
    # when it built both)
    data, _ = seeded_pair(1, 128)
    stack_bytes = data.f_modes.values.nbytes
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            res = run_inversion(data, force=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and res.iterations == 7
    assert peak <= 3.2 * stack_bytes, f"peak {peak / stack_bytes:.2f} stacks"


def test_dropped_sweep_leaves_the_last_kept_iterate_whole():
    # the loop keeps the iterate a runaway sweep started from, so the energy
    # of that sweep must not be formed in the iterate's storage
    grid = Grid(np.pi, 0.5, Nx=32, Nt=32)
    data = build_scenario("MMS-A", grid, SpectralParams(K=4, Ny=128), scale=10.0).data
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(data, tol_F=1e-10, max_iters=40, force=True)
    assert res.stop_reason == "diverged"
    Psi = compute_Psi(data, 1e-12)
    u = ModeFieldSet.empty(data.grid, data.params).rows(res.u_modes.modes)
    for f_diff in res.F_diff_history:
        u, replayed = iterate(u, data, Psi)
        assert replayed == f_diff
    assert np.array_equal(res.u_modes.modes, u.modes)
    assert np.array_equal(res.u_modes.values, u.values)
    _, dropped = iterate(u, data, Psi)
    assert dropped > 2.0**104 * res.F_diff_history[0]


def test_march_blowup_is_a_diverged_result():
    # the lagged product of a 1e160 start overflows inside the first march,
    # before any sweep energy exists: the run stops as diverged, from the start
    scn = mmsa(N=16, K=2)
    start = ModeFieldSet(scn.data.grid, scn.data.params, 1e160 * scn.truth_u_modes.values,
                         scn.truth_u_modes.modes)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = run_inversion(scn.data, tol_F=1e-10, max_iters=5, force=True, initial=start)
    assert res.stop_reason == "diverged" and not res.converged
    assert res.iterations == 0 and res.F_diff_history == ()
    assert res.u_modes is start


def test_initial_iterate_must_match_the_data():
    scn = mmsa(N=16, K=2)
    for grid, K in ((scn.data.grid, 4), (Grid(np.pi, 0.5, Nx=16, Nt=8), 2)):
        start = ModeFieldSet(grid, SpectralParams(K=K), np.ones((1,) + grid.field_shape),
                             np.array([K]))
        with pytest.raises(DataError, match="initial iterate"):
            run_inversion(scn.data, max_iters=2, force=True, initial=start)
