"""Acceptance gate: one test per criterion, each printing a pass/fail line,
plus unit tests of poincare_time_check, the quadrature criterion 8 runs on.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  The expensive inversions are shared through session fixtures.
"""

import time
import warnings

import numpy as np
import pytest
from conftest import smooth_weights

from diffid import (
    CertifyOptions,
    Grid,
    ModeFieldSet,
    OmegaData,
    ProblemData,
    ScalarField,
    SpectralParams,
    build_scenario,
    compute_Psi,
    compute_certificate,
    march_modes,
    reconstruct_a,
    recovery_error,
    run_inversion,
    sine_coeffs,
    strong_diagnostics,
    synthesize,
    uniqueness_probe,
)
from diffid.grids import diff


def report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_spectral_roundtrip():
    t0 = time.perf_counter()
    K, Ny = 32, 256
    params = SpectralParams(K=K, Ny=Ny)
    y = params.y
    rng = np.random.default_rng(1)
    worst_round = 0.0
    worst_parseval = 0.0
    for _ in range(20):
        coeffs = rng.standard_normal(K)
        v = synthesize(coeffs, y)
        back = sine_coeffs(v, K, y)
        worst_round = max(worst_round, float(np.max(np.abs(synthesize(back, y) - v))))
        parseval = abs(float(np.trapezoid(v**2, y)) - (np.pi / 2) * float(np.sum(coeffs**2)))
        worst_parseval = max(worst_parseval, parseval)
    elapsed = time.perf_counter() - t0
    ok = worst_round <= 1e-10 and worst_parseval <= 1e-8 and elapsed < 1.0
    report(1, ok, f"round-trip max err {worst_round:.2e}, Parseval gap "
                  f"{worst_parseval:.2e}, {elapsed:.2f}s")


def test_criterion_2_coupling_identity():
    t0 = time.perf_counter()
    K = 32
    y, cases = smooth_weights(K, 4096)
    worst = 0.0
    for omega, exact in cases:
        om = OmegaData.from_profiles(y, omega, K)
        worst = max(worst, float(np.max(np.abs(om.couplings - exact))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 1.0
    report(2, ok, f"max |c_j - exact c_j| = {worst:.2e} over 3 weights, "
                  f"{elapsed:.2f}s")


def test_criterion_3_mode_solver_order():
    t0 = time.perf_counter()
    errs = {}
    for N in (32, 64, 128):
        grid = Grid(np.pi, 1.0, Nx=N, Nt=N)
        sources = ModeFieldSet(grid, SpectralParams(K=1), np.zeros((1,) + grid.field_shape))
        u = march_modes(sources, np.sin(grid.x)[None, :]).values[0]
        exact = np.exp(-2.0 * grid.t)[:, None] * np.sin(grid.x)[None, :]
        errs[N] = float(np.max(np.abs(u - exact)))
    order = float(np.log2(errs[64] / errs[128]))
    elapsed = time.perf_counter() - t0
    ok = order >= 1.8 and errs[128] <= 2e-4 and elapsed < 5.0
    report(3, ok, f"errors {errs[32]:.2e}/{errs[64]:.2e}/{errs[128]:.2e}, "
                  f"observed order {order:.2f}, {elapsed:.2f}s")


def test_criterion_4_coefficient_formula():
    t0 = time.perf_counter()
    grid = Grid(np.pi, 1.0, Nx=128, Nt=128)
    scn = build_scenario("MMS-A", grid, SpectralParams(K=4, Ny=256))
    Psi = compute_Psi(scn.data, 1e-12)
    a = reconstruct_a(scn.truth_u_modes, scn.data, Psi, 2)
    inner = grid.interior(2)
    worst = float(np.max(np.abs(a.values[:, inner] - 1.0)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-2 and elapsed < 5.0
    report(4, ok, f"max |a - 1| on margin = {worst:.2e} at 128^2, {elapsed:.2f}s")


def test_criterion_5_full_inversion(mmsa_study):
    t0 = time.perf_counter()
    errs = {}
    for N, (scn, result) in mmsa_study.items():
        errs[N] = recovery_error(result, scn)[0]
    scn128, res128 = mmsa_study[128]
    monotone = errs[32] > errs[64] > errs[128]
    elapsed = time.perf_counter() - t0
    ok = (res128.converged and res128.iterations <= 30 and errs[128] <= 0.05
          and monotone and elapsed <= 60.0)
    report(5, ok, f"{res128.iterations} sweeps at 128^2, rel err(a) "
                  f"{errs[32]:.2e} > {errs[64]:.2e} > {errs[128]:.2e}, {elapsed:.1f}s")


def test_criterion_6_contraction_law():
    t0 = time.perf_counter()
    grid = Grid(np.pi, 0.5, Nx=64, Nt=64)
    params = SpectralParams(K=8, Ny=256)
    scn = build_scenario("MMS-A", grid, params, scale=3e-3)
    cert = compute_certificate(scn.data, CertifyOptions())
    result = run_inversion(scn.data, tol_F=1e-30, max_iters=12)

    ratios_ok = len(result.ratio_history) >= 2 and all(
        r <= cert.q_local for r in result.ratio_history)
    y = np.log(np.array(result.F_diff_history))
    xs = np.arange(1.0, len(y) + 1.0)
    A = np.vstack([np.ones_like(xs), xs]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    r2 = 1.0 - float(np.sum((y - pred) ** 2) / np.sum((y - np.mean(y)) ** 2))
    elapsed = time.perf_counter() - t0
    ok = cert.local_pass and ratios_ok and r2 >= 0.98 and elapsed <= 60.0
    report(6, ok, f"certified q_local = {cert.q_local:.3f}, max ratio "
                  f"{max(result.ratio_history):.2e}, log-fit R^2 = {r2:.4f}, "
                  f"{elapsed:.1f}s")


def test_criterion_7_uniqueness(mmsa_study):
    t0 = time.perf_counter()
    scn, result = mmsa_study[128]
    with pytest.warns(RuntimeWarning, match="running despite failed certificate"):
        distance = uniqueness_probe(scn.data, result.a)
    elapsed = time.perf_counter() - t0
    ok = distance <= 1e-8 and elapsed <= 120.0
    report(7, ok, f"rel-L2 distance between initializations = {distance:.2e}, "
                  f"{elapsed:.1f}s")


def poincare_time_check(g: np.ndarray, T: float) -> tuple[float, float]:
    """Both sides of the time inequality int g^2 <= T^2 int (g')^2 + 2T g(0)^2,
    realized with trapezoid quadrature and second-order differences."""
    g = np.asarray(g, dtype=float)
    n = len(g) - 1
    dt = T / n
    lhs = float(np.trapezoid(g**2, dx=dt))
    dg = diff(g, dt, axis=0)
    rhs = float(T**2 * np.trapezoid(dg**2, dx=dt) + 2.0 * T * g[0] ** 2)
    return lhs, rhs


def test_poincare_time_check_constant():
    g = np.full(101, 3.0)
    lhs, rhs = poincare_time_check(g, 1.0)
    assert lhs == pytest.approx(9.0, rel=1e-12)
    assert rhs == pytest.approx(18.0, rel=1e-12)


def test_poincare_time_check_linear():
    n = 4000
    t = np.linspace(0.0, 1.0, n + 1)
    lhs, rhs = poincare_time_check(t, 1.0)
    assert lhs == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert rhs == pytest.approx(1.0, rel=1e-12)


def test_poincare_time_check_random_cubics():
    rng = np.random.default_rng(100)
    for _ in range(200):
        T = float(rng.choice([0.5, 1.0, 2.0]))
        coefs = rng.standard_normal(4)
        t = np.linspace(0.0, T, 2001)
        lhs, rhs = poincare_time_check(np.polyval(coefs, t), T)
        assert lhs <= rhs + 1e-8


def test_criterion_8_time_poincare():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    violations = 0
    for _ in range(1000):
        T = float(rng.choice([0.5, 1.0, 2.0]))
        coefs = rng.standard_normal(4)
        t = np.linspace(0.0, T, 2001)
        lhs, rhs = poincare_time_check(np.polyval(coefs, t), T)
        if lhs > rhs + 1e-8:
            violations += 1
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 5.0
    report(8, ok, f"{violations} violations in 1000 randomized cubics, {elapsed:.1f}s")


def test_criterion_9_certificate_correctness():
    t0 = time.perf_counter()

    def constant_data(Lx, T, f_amp):
        grid = Grid(Lx, T, Nx=32, Nt=16)
        params = SpectralParams(K=2, Ny=64)
        om = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
        f_vals = np.zeros((2,) + grid.field_shape)
        f_vals[0] = f_amp
        return ProblemData(psi=ScalarField(grid, np.ones(grid.field_shape)),
                           f_modes=ModeFieldSet(grid, params, f_vals),
                           phi_modes=np.zeros((2, grid.Nx + 2)), omega=om)

    A_hand = np.pi * np.sqrt(0.75)

    # config 1: psi = 1, f_1 = 1 on (0, 4) with T = 1: every condition fails
    # except T <= 1 (hand: Psi_M = pi/2, R = 16, B = 1.5 pi^2, C_P = (4/pi)^2)
    c1 = compute_certificate(constant_data(4.0, 1.0, 1.0), CertifyOptions())
    A_ok = abs(c1.A_eps - A_hand) <= 1e-12
    hand1 = (abs(c1.Psi_M - np.pi / 2) <= 1e-12
             and abs(c1.R - 16.0) <= 1e-10
             and abs(c1.C_P - (4.0 / np.pi) ** 2) <= 1e-12
             and not c1.cond_local_T and c1.cond_T_le_1 and not c1.cond_local_q
             and not c1.cond_global_poincare and not c1.cond_global_q
             and not c1.local_pass and not c1.global_pass)

    # config 2: psi = 1, f_1 = 0.05 on (0, 2) with T = 0.5: both verdicts pass
    # (hand: R = 0.01, q = 0.06 pi^2 < 1)
    c2 = compute_certificate(constant_data(2.0, 0.5, 0.05), CertifyOptions())
    hand2 = (abs(c2.R - 0.01) <= 1e-12
             and abs(c2.q_local - 0.06 * np.pi**2) <= 1e-10
             and c2.local_pass and c2.global_pass)
    cp_int_ok = abs(c2.C_P - (2.0 / np.pi) ** 2) <= 1e-12

    # config 3: NULL scenario: R = 0, Psi_M ~ 0, both verdicts pass
    grid = Grid(np.pi, 0.5, Nx=32, Nt=16)
    scn = build_scenario("NULL", grid, SpectralParams(K=2, Ny=64))
    c3 = compute_certificate(scn.data, CertifyOptions())
    hand3 = c3.R == 0.0 and c3.Psi_M <= 1e-12 and c3.local_pass and c3.global_pass

    elapsed = time.perf_counter() - t0
    ok = cp_int_ok and A_ok and hand1 and hand2 and hand3
    report(9, ok, f"C_P interval exact, A_eps = {c1.A_eps:.12f} vs "
                  f"pi*sqrt(0.75), verdicts match hand checks on 3 configs, "
                  f"{elapsed:.1f}s")


def test_criterion_10_overdetermination_residual(mmsa_study):
    residuals = {N: result.residual_norm for N, (_, result) in mmsa_study.items()}
    shrink_32_64 = residuals[32] / residuals[64]
    shrink_64_128 = residuals[64] / residuals[128]
    ok = (residuals[128] <= 1e-3 and shrink_32_64 >= 3.0 and shrink_64_128 >= 3.0)
    report(10, ok, f"residual {residuals[32]:.2e} -> {residuals[64]:.2e} -> "
                   f"{residuals[128]:.2e} (shrink {shrink_32_64:.1f}x, "
                   f"{shrink_64_128:.1f}x)")


def test_criterion_11_strong_diagnostics(mmsa_eps5):
    t0 = time.perf_counter()
    diags = {}
    for N, (scn, result) in mmsa_eps5.items():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            diags[N] = strong_diagnostics(result.u_modes, result.norms)
    finite = all(np.isfinite(v) for d in diags.values() for v in d.values())
    rel_changes = {
        key: abs(diags[128][key] - diags[64][key]) / abs(diags[128][key])
        for key in diags[128]
    }
    stable = all(ch <= 0.05 for ch in rel_changes.values())
    elapsed = time.perf_counter() - t0
    worst_key = max(rel_changes, key=rel_changes.get)
    ok = finite and stable
    report(11, ok, f"five norms finite; worst relative change {worst_key} = "
                   f"{rel_changes[worst_key]:.2%} between 64^2 and 128^2, "
                   f"{elapsed:.1f}s")
