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
from dataclasses import dataclass, replace

import numpy as np

from .certificates import CertifyOptions, compute_Psi
from .errors import ConfigurationError, DataError
from .grids import Grid, ScalarField, diff, diff2, l2_sq_GT
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
    data: ProblemData
    truth_a: ScalarField | None
    truth_u_modes: ModeFieldSet | None
    scale: float = 1.0


def build_scenario(name: str, grid: Grid, params: SpectralParams,
                   scale: float = 1.0) -> Scenario:
    if name not in SCENARIO_NAMES:
        raise ConfigurationError(f"unknown scenario {name!r}; choose from {SCENARIO_NAMES}")
    if not math.isclose(grid.Lx, math.pi, rel_tol=1e-9):
        raise DataError(f"scenario {name} is defined on G = (0, pi)")

    omega = OmegaData.from_profiles(params.y, np.sin(params.y), params.K)
    t, x = grid.t, grid.x
    decay = np.exp(-t)[:, None] * np.sin(x)[None, :]

    phi = np.zeros((params.K, grid.Nx + 2))
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

    data = ProblemData(psi=psi, f_modes=f_modes, phi_modes=phi, omega=omega)
    if scale != 1.0:
        return Scenario(name, data.scaled(scale), None, None, scale)
    return Scenario(name, data, truth_a, truth_u, scale)


def _rel_l2(values: np.ndarray, truth: np.ndarray, x: slice, count: int | None = None) -> float:
    """Relative RMS over the x-nodes of the slice x (absolute when the truth
    vanishes).  count is the number of nodes averaged over, when the arrays
    leave out zero rows; by default it is the number of nodes they hold."""
    # integers, not the slice: np.sum reduces a copy and a view in different orders
    nodes = np.arange(values.shape[-1])[x]
    dev = (values - truth)[..., nodes]
    count = dev.size if count is None else count
    dev = np.sqrt(np.sum(dev**2) / count)
    ref = np.sqrt(np.sum(truth[..., nodes] ** 2) / count)
    return float(dev / ref) if ref > 0 else float(dev)


def recovery_error(result: InversionResult, scenario: Scenario) -> tuple[float, float]:
    """(err_a, err_u): the relative L2(G_T) errors of the recovered a and u
    against truth over the nodes inside the result's margin; err_u is taken
    over all K modes, of which only those either stack holds can be
    nonzero."""
    if scenario.truth_a is None:
        raise DataError(f"scenario {scenario.name!r} at scale {scenario.scale} has no truth fields")
    grid = result.a.grid
    x = grid.interior(result.margin)
    u, truth = result.u_modes, scenario.truth_u_modes
    # a set union, not np.union1d: np.unique imports numpy.ma (1.4 MB)
    modes = np.array(sorted({*u.modes.tolist(), *truth.modes.tolist()}), dtype=int)
    return (_rel_l2(result.a.values, scenario.truth_a.values, x),
            _rel_l2(u.rows(modes).values, truth.rows(modes).values, x,
                    count=u.K * (grid.Nt + 1) * len(range(grid.Nx + 2)[x])))


def convergence_study(name: str, grid: Grid, params: SpectralParams, scale: float = 1.0,
                      options: CertifyOptions = CertifyOptions(), tol_F: float = 1e-10,
                      max_iters: int = 50, theta: float = 0.5) -> list[dict]:
    """Run the full inversion on grid and on coarser levels, Nx = N for N in
    Nx//4, Nx//2, Nx with Nt = round(Nt * N / Nx).  Each level's row holds N,
    err_a, err_u, residual, iterations, converged, the observed order_a
    against the level before, and the level's scenario and result.  Errors
    are NaN for a scaled scenario, which has no truth.  A level with Nx or Nt
    below 8, or a margin that leaves the coarsest level no x-node, is a
    ConfigurationError naming grid.Nx, grid.Nt or certify.boundary_margin."""
    sizes = [(N, round(grid.Nt * N / grid.Nx)) for N in (grid.Nx // 4, grid.Nx // 2, grid.Nx)]
    for axis, counts in zip(("Nx", "Nt"), zip(*sizes)):
        if counts[0] < 8:
            raise ConfigurationError(
                f"a convergence study needs levels Nx//4, Nx//2, Nx with Nt scaled in "
                f"proportion, each at least 8; grid.{axis} = {counts[-1]} gives "
                f"{axis} = {list(counts)}")
    replace(grid, Nx=sizes[0][0], Nt=sizes[0][1]).interior(options.boundary_margin)
    rows = []
    prev_err = float("nan")
    for N, Nt in sizes:
        level = replace(grid, Nx=N, Nt=Nt)
        scn = build_scenario(name, level, params, scale=scale)
        result = run_inversion(scn.data, options, tol_F=tol_F, max_iters=max_iters,
                               theta=theta, force=True)
        if scn.truth_a is not None:
            err_a, err_u = recovery_error(result, scn)
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


def uniqueness_probe(data: ProblemData, a: ScalarField,
                     options: CertifyOptions = CertifyOptions(), tol_F: float = 1e-10,
                     max_iters: int = 50, theta: float = 0.5) -> float:
    """Distance between coefficients recovered from two different starting
    iterates: zero modes, whose finished inversion of data with the same
    options, tol_F, max_iters and theta recovered a, versus twice the result
    of one sweep from zero.  The second start is off the zero-start
    trajectory (u^1 itself is on it, and would replay the same iterates to a
    distance of exactly 0)."""
    zero = ModeFieldSet.empty(data.grid, data.params)
    # Psi is dropped after the sweep: run_inversion computes its own
    warm, _ = iterate(zero.rows(forced_modes(data.phi_modes, data.f_modes)), data,
                      compute_Psi(data, options.psi_floor), theta=theta)
    np.multiply(warm.values, 2.0, out=warm.values)  # in place, the bits of 2.0 * warm.values
    start = ModeFieldSet(data.grid, data.params, warm.values, warm.modes)
    res_warm = run_inversion(data, options, tol_F=tol_F, max_iters=max_iters,
                             theta=theta, force=True, initial=start)
    return _rel_l2(a.values, res_warm.a.values, data.grid.interior(options.boundary_margin))


def strong_diagnostics(u: ModeFieldSet, norms: dict) -> dict:
    """Squared norms of the strong-solution quantities over the full cylinder:
    u, Lap_x u, u_t, u_yy (all spectrally via Parseval, over u's mode rows),
    and the coefficient, in that order; u's and the coefficient's are taken
    from norms, the solution_norms bundle of u and its coefficient."""
    grid = u.grid
    sq_GT = l2_sq_GT(u.values, grid)
    dt_sq = l2_sq_GT(diff(u.values, grid.dt, axis=1), grid)
    lap_sq = l2_sq_GT(diff2(u.values, grid.hx), grid)

    half_pi = np.pi / 2.0
    return {
        "u_sq_Q": norms["u_sq_Q"],
        "lap_u_sq_Q": half_pi * mode_sum(lap_sq),
        "u_t_sq_Q": half_pi * mode_sum(dt_sq),
        "u_yy_sq_Q": half_pi * mode_sum(sq_GT, u.eigenvalues, 2.0),
        "a_sq_GT": norms["a_sq_GT"],
    }
