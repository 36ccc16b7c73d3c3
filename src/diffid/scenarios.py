"""Manufactured-solution scenarios and the verification studies built on them.

Each scenario fixes an exact pair (u*, a*) on G = (0, pi) and derives the
problem data by substituting u* into the equation u_t - u_xx - u_yy + a u = f
and into the measurement psi = int u* omega dy (the derivation was checked
symbolically; the identities are stated with each scenario below).  Truths
are single-mode in y so every y-integral is closed-form and the spectral
truncation error is exactly zero.  The source f and the truth u are stored as
compact mode stacks: the row of mode 1 for MMS-A and MMS-B, no rows for
NULL; every other mode is zero.

MMS-A   u* = e^{-t} sin x sin y, a* = 1
        => f = 2 e^{-t} sin x sin y, psi = (pi/2) e^{-t} sin x, Psi = 2.
MMS-B   u* = e^{-t} sin x sin y, a* = 1 + t sin x
        => f = (2 + t sin x) e^{-t} sin x sin y, Psi = 2 + t sin x.
NULL    f = 0, phi = 0 with the caloric measurement psi = 1 + x^2 + 2t
        (psi_t = psi_xx holds exactly for the discrete stencils too, so
        Psi == 0 to roundoff); the trivial pair (u, a) = (0, 0) is the fixed
        point.  NULL's measurement is deliberately inconsistent with phi = 0,
        so the compatibility identity applies to MMS-A/B only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .certificates import CertifyOptions, compute_Psi
from .errors import ConfigurationError, DataError
from .grids import Grid, ScalarField, build_grid, diff, interior_margin_mask, l2_sq_GT, laplacian_x
from .inversion import InversionResult, iterate, run_inversion
from .parabolic import forced_modes
from .problem import ProblemData
from .sinebasis import ModeFieldSet, OmegaData, SpectralParams, mode_sum

SCENARIO_NAMES = ("MMS-A", "MMS-B", "NULL")


@dataclass(frozen=True)
class Scenario:
    """Problem data plus the exact fields it was manufactured from.

    For scale != 1 the data is a certificate/contraction fixture (phi and f
    scaled, psi kept), so no truth pair exists and the truth fields are None.
    """

    name: str
    grid: Grid
    params: SpectralParams
    omega: OmegaData
    data: ProblemData
    truth_a: ScalarField | None
    truth_u_modes: ModeFieldSet | None
    scale: float = 1.0


def build_scenario(name: str, grid: Grid, params: SpectralParams,
                   scale: float = 1.0) -> Scenario:
    if name not in SCENARIO_NAMES:
        raise ConfigurationError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    if not math.isclose(grid.domain.Lx, math.pi, rel_tol=1e-9):
        raise DataError(f"scenario {name} is defined on G = (0, pi)")

    omega = OmegaData.from_callables(np.sin, lambda y: -np.sin(y), params)
    t, x = grid.t, grid.x
    decay = np.exp(-t)[:, None] * np.sin(x)[None, :]

    phi = np.zeros((params.K,) + grid.space_shape)
    if name == "NULL":
        psi = ScalarField(grid, 1.0 + x[None, :] ** 2 + 2.0 * t[:, None])
        truth_a = ScalarField(grid, np.zeros(grid.field_shape))
        f_modes = truth_u = ModeFieldSet.empty(grid, params)
    else:
        psi = ScalarField(grid, (np.pi / 2.0) * decay)
        a_star = (np.ones(grid.field_shape) if name == "MMS-A"
                  else 1.0 + t[:, None] * np.sin(x)[None, :])
        f_vals = (1.0 + a_star) * decay  # f = u*_t - u*_xx + u* + a* u*
        f_modes = ModeFieldSet(grid, params, f_vals[None], np.array([1]))
        phi[0] = np.sin(x)
        truth_a = ScalarField(grid, a_star)
        truth_u = ModeFieldSet(grid, params, decay[None], np.array([1]))

    data = ProblemData(grid=grid, psi=psi, f_modes=f_modes, phi_modes=phi,
                       omega=omega, params=params)
    if scale != 1.0:
        return Scenario(name, grid, params, omega, data.scaled(scale), None, None, scale)
    return Scenario(name, grid, params, omega, data, truth_a, truth_u, scale)


def _masked_rel_l2(values: np.ndarray, truth: np.ndarray, mask: np.ndarray,
                   count: int | None = None) -> float:
    """Relative RMS over masked space nodes (absolute when the truth vanishes).
    count is the number of nodes averaged over, when the arrays leave out
    zero rows; by default it is the number of masked nodes they hold."""
    dev = (values - truth)[..., mask]
    count = dev.size if count is None else count
    dev = np.sqrt(np.sum(dev**2) / count)
    ref = np.sqrt(np.sum(truth[..., mask] ** 2) / count)
    return float(dev / ref) if ref > 0 else float(dev)


def recovery_error(result: InversionResult, scenario: Scenario,
                   margin: int | None = None, which: str = "a") -> float:
    """Relative interior L2(G_T) error of the recovered field against truth;
    for u, over all K modes, of which only those either stack holds can be
    nonzero."""
    if scenario.truth_a is None:
        raise DataError(f"scenario {scenario.name!r} at scale {scenario.scale} has no truth fields")
    grid = result.a.grid
    mask = interior_margin_mask(grid, result.margin if margin is None else margin)
    if which == "a":
        return _masked_rel_l2(result.a.values, scenario.truth_a.values, mask)
    if which == "u":
        u, truth = result.u_modes, scenario.truth_u_modes
        # a set union, not np.union1d: np.unique imports numpy.ma (1.4 MB)
        modes = np.array(sorted({*u.modes.tolist(), *truth.modes.tolist()}), dtype=int)
        return _masked_rel_l2(u.rows(modes).values, truth.rows(modes).values, mask,
                              count=u.K * (grid.Nt + 1) * int(np.count_nonzero(mask)))
    raise ConfigurationError(f"which must be 'a' or 'u', got {which!r}")


def convergence_study(name: str, grid: Grid, params: SpectralParams, scale: float = 1.0,
                      options: CertifyOptions = CertifyOptions(), tol_F: float = 1e-10,
                      max_iters: int = 50, theta: float = 0.5) -> list[dict]:
    """Run the full inversion on grid and on coarser levels, Nx = N for N in
    Nx//4, Nx//2, Nx (at least 8, duplicates dropped) with Nt scaled in
    proportion.  Each level's row holds N, err_a, err_u, residual,
    iterations, converged, the observed order_a against the level before,
    and the level's scenario and result.  Errors are NaN for a scaled
    scenario, which has no truth.  A grid with fewer than three distinct
    levels (Nx < 18) is a ConfigurationError."""
    levels = sorted({max(8, grid.Nx // 4), max(8, grid.Nx // 2), grid.Nx})
    if len(levels) < 3 or levels[-1] > grid.Nx:
        raise ConfigurationError(
            f"a convergence study needs three distinct levels Nx//4, Nx//2, Nx of at "
            f"least 8; grid.Nx = {grid.Nx} gives {levels}")
    rows = []
    prev_err = float("nan")
    for N in levels:
        level = build_grid(grid.domain, Nx=N, Nt=max(8, round(grid.Nt * N / grid.Nx)))
        scn = build_scenario(name, level, params, scale=scale)
        result = run_inversion(scn.data, options, tol_F=tol_F, max_iters=max_iters,
                               theta=theta, force=True)
        if scn.truth_a is not None:
            err_a = recovery_error(result, scn, which="a")
            err_u = recovery_error(result, scn, which="u")
        else:
            err_a = err_u = float("nan")
        order = float(np.log2(prev_err / err_a)) if prev_err > 0 and err_a > 0 else float("nan")
        rows.append({
            "N": N,
            "err_a": err_a,
            "err_u": err_u,
            "residual": result.residual_norm,
            "iterations": result.iterations,
            "converged": result.converged,
            "order_a": order,
            "scenario": scn,
            "result": result,
        })
        prev_err = err_a
    return rows


def uniqueness_probe(scenario: Scenario, options: CertifyOptions = CertifyOptions(),
                     tol_F: float = 1e-10, max_iters: int = 50, theta: float = 0.5,
                     zero_start: InversionResult | None = None) -> float:
    """Distance between coefficients recovered from two different starting
    iterates: zero modes versus twice the result of one sweep from zero.
    The second start is off the zero-start trajectory (u^1 itself is on
    it, and would replay the same iterates to a distance of exactly 0).

    zero_start is the caller's finished zero-start inversion of this
    scenario with the same options, tol_F, max_iters and theta; it is run
    here when not given.
    """
    data = scenario.data
    if zero_start is None:
        zero_start = run_inversion(data, options, tol_F=tol_F, max_iters=max_iters,
                                   theta=theta, force=True)
    Psi = compute_Psi(data.psi, data.f_modes, data.omega, data.grid, floor=options.psi_floor)
    zero = ModeFieldSet.empty(data.grid, data.params)
    warm, _ = iterate(zero.rows(forced_modes(data.phi_modes, data.f_modes)), data, Psi,
                      theta=theta)
    start = ModeFieldSet(data.grid, data.params, 2.0 * warm.values, warm.modes)
    res_warm = run_inversion(data, options, tol_F=tol_F, max_iters=max_iters,
                             theta=theta, force=True, initial=start)
    mask = interior_margin_mask(data.grid, options.boundary_margin)
    return _masked_rel_l2(zero_start.a.values, res_warm.a.values, mask)


def strong_diagnostics(result: InversionResult, grid: Grid) -> dict:
    """Squared norms of the strong-solution quantities over the full cylinder:
    u, Lap_x u, u_t, u_yy (all spectrally via Parseval, over the result's
    mode rows), and the coefficient."""
    u = result.u_modes
    lam = u.eigenvalues
    sq_GT = l2_sq_GT(u.values, grid)
    dt_sq = l2_sq_GT(diff(u.values, grid.dt, axis=1), grid)
    lap_sq = l2_sq_GT(laplacian_x(u.values, grid), grid)

    half_pi = np.pi / 2.0
    return {
        "u_sq_Q": half_pi * mode_sum(sq_GT),
        "lap_u_sq_Q": half_pi * mode_sum(lap_sq),
        "u_t_sq_Q": half_pi * mode_sum(dt_sq),
        "u_yy_sq_Q": half_pi * mode_sum(sq_GT, lam, 2.0),
        "a_sq_GT": float(l2_sq_GT(result.a.values, grid)),
    }
