"""Successive-approximation inverse solver.

Each sweep advances every mode through the linear parabolic solve with the
coefficient fully lagged into the source:

    S_k = f_k - Psi * u_k^{i-1} - (sum_j c_j u_j^{i-1} / psi) * u_k^{i-1},

starting from u^0 = 0, and the recovered coefficient is defined (not fitted)
by a = Psi + (sum_j c_j u_j) / psi once the sweep-to-sweep energy
F(u^i - u^{i-1}) drops below tolerance.  Non-convergence is a result, not an
exception, so certificate-violating inputs can still be studied; a sweep
whose energy runs away (see _RUNAWAY) stops the loop as well.

The division by psi is guarded once per run: compute_Psi rejects psi below
the floor at every interior node, and the helpers below divide by the same
psi on those nodes only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .certificates import Certificate, CertifyOptions, compute_Psi, compute_certificate
from .errors import CertificateFailure
from .grids import ScalarField, interior_margin_mask, l2_sq_GT
from .parabolic import ModeProblem, overdetermination_residual, solve_mode
from .problem import ProblemData
from .sinebasis import F_functional, ModeFieldSet, eigenvalues

# F is a squared norm, so a sweep energy 2**104 times the first one means a
# sweep-to-sweep change 1/eps (2**52) times the first iterate: the data that
# set the first sweep are below the iterate's roundoff.  A contracting run
# never gets there (F falls every sweep); a diverging one overflows a few
# sweeps later, since the lagged product a*u makes F roughly square per sweep.
_RUNAWAY = 2.0**104


@dataclass(frozen=True)
class IterationState:
    """One rung of the sweep ladder: u^i and the recorded energies."""

    iteration: int
    current: ModeFieldSet
    F_diff_history: tuple[float, ...] = ()
    ratio_history: tuple[float, ...] = ()


def initial_state(data: ProblemData, initial: ModeFieldSet | None = None) -> IterationState:
    start = initial if initial is not None else ModeFieldSet.zeros(data.grid, data.params)
    return IterationState(iteration=0, current=start)


def _series_over_psi(modes: ModeFieldSet, psi: ScalarField, couplings: np.ndarray) -> np.ndarray:
    """(sum_j c_j u_j) / psi on interior nodes, zero on the spatial boundary;
    psi has passed compute_Psi's floor check on those nodes."""
    grid = modes.grid
    series = np.tensordot(couplings[: modes.K], modes.values, axes=(0, 0))
    interior = np.broadcast_to(interior_margin_mask(grid, 1), grid.field_shape)
    out = np.zeros_like(series)
    out[interior] = series[interior] / psi.values[interior]
    return out


def picard_source(prev: ModeFieldSet, Psi: ScalarField, psi: ScalarField,
                  f_modes: ModeFieldSet, couplings: np.ndarray) -> np.ndarray:
    """Per-mode source stack for the next sweep; the coupling series is
    evaluated once and reused for every k.  Psi comes from compute_Psi of
    this psi."""
    ratio = _series_over_psi(prev, psi, couplings)
    lag = Psi.values + ratio
    return f_modes.values - lag[None, ...] * prev.values


def iterate(state: IterationState, data: ProblemData, Psi: ScalarField | None = None,
            theta: float = 0.5, floor: float = 1e-12) -> IterationState:
    """Advance all modes by one sweep and append F(u^{i+1} - u^i).  Psi is
    computed (and psi checked against the floor) when not given."""
    grid, params = data.grid, data.params
    if Psi is None:
        Psi = compute_Psi(data.psi, data.f_modes, data.omega, grid, floor=floor)
    couplings = data.omega.couplings[: params.K]
    sources = picard_source(state.current, Psi, data.psi, data.f_modes, couplings)

    def advance(k: int) -> np.ndarray:
        problem = ModeProblem(k=k, source=ScalarField(grid, sources[k - 1]),
                              initial=data.phi_modes[k - 1], theta=theta)
        return solve_mode(problem, grid).values

    new = ModeFieldSet(grid, params, np.stack([advance(k) for k in range(1, params.K + 1)]))
    f_diff = F_functional(new - state.current)
    hist = state.F_diff_history + (f_diff,)
    ratios = state.ratio_history
    if len(hist) >= 2 and hist[-2] > 0.0:
        ratios = ratios + (f_diff / hist[-2],)
    return IterationState(
        iteration=state.iteration + 1,
        current=new,
        F_diff_history=hist,
        ratio_history=ratios,
    )


def reconstruct_a(u: ModeFieldSet, Psi: ScalarField, psi: ScalarField,
                  couplings: np.ndarray, margin: int = 2) -> ScalarField:
    """Coefficient formula a = Psi + (sum_j c_j u_j)/psi on the interior
    margin; nodes outside the margin copy the nearest margin node.  Psi
    comes from compute_Psi of this psi."""
    grid = u.grid
    ratio = _series_over_psi(u, psi, couplings)
    a_vals = Psi.values + ratio

    lo, hi_x = margin, grid.Nx + 2 - margin
    if grid.dim == 1:
        a_vals[:, :lo] = a_vals[:, lo:lo + 1]
        a_vals[:, hi_x:] = a_vals[:, hi_x - 1:hi_x]
    else:
        hi_y = grid.Ny + 2 - margin
        a_vals[:, :lo, :] = a_vals[:, lo:lo + 1, :]
        a_vals[:, hi_x:, :] = a_vals[:, hi_x - 1:hi_x, :]
        a_vals[:, :, :lo] = a_vals[:, :, lo:lo + 1]
        a_vals[:, :, hi_y:] = a_vals[:, :, hi_y - 1:hi_y]
    return ScalarField(grid, a_vals)


@dataclass(frozen=True)
class InversionResult:
    a: ScalarField
    u_modes: ModeFieldSet
    u_synth: np.ndarray = field(repr=False)
    synth_y: np.ndarray = field(repr=False)
    certificate: Certificate
    F_diff_history: tuple[float, ...]
    ratio_history: tuple[float, ...]
    iterations: int
    converged: bool
    residual_norm: float
    norms: dict
    margin: int


def solution_norms(u: ModeFieldSet, a: ScalarField) -> dict:
    """Weak-solution norm bundle: the quantities the solvability estimates
    bound (squared-norm convention throughout)."""
    grid, params = u.grid, u.params
    lam = eigenvalues(params.K)
    tau1, tau2 = params.tau1, params.tau2

    sq_GT = l2_sq_GT(u.values, grid)
    dt_sq = l2_sq_GT(np.gradient(u.values, grid.dt, axis=1, edge_order=2), grid)
    grad_sq_GT = l2_sq_GT(u.values, grid, grad=True)

    w1 = lam ** (2.0 * tau1)
    return {
        "u_sq_Q": float(np.pi / 2.0 * np.sum(sq_GT)),
        "grad_u_sq_tau1": float(np.sum(w1 * grad_sq_GT)),
        "u_t_sq_tau1": float(np.sum(w1 * dt_sq)),
        "u_sq_tau2": float(np.sum(lam ** (2.0 * tau2) * sq_GT)),
        "a_sq_GT": float(l2_sq_GT(a.values, grid)),
    }


def run_inversion(data: ProblemData, options: CertifyOptions = CertifyOptions(), *,
                  tol_F: float = 1e-10, max_iters: int = 50, theta: float = 0.5,
                  force: bool = False, initial: ModeFieldSet | None = None,
                  synth_y: np.ndarray | None = None) -> InversionResult:
    """Certificate check, sweep loop, coefficient reconstruction, and the
    residual/norm bundle.  A failing certificate aborts unless force=True,
    in which case the run continues with a warning and the verdict recorded.

    The loop stops with converged=False after max_iters sweeps, or earlier
    when a sweep energy is non-finite or exceeds _RUNAWAY times the first
    one; that sweep is dropped and the result is built from the iterate
    before it.
    """
    grid, params = data.grid, data.params
    Psi = compute_Psi(data.psi, data.f_modes, data.omega, grid, floor=options.psi_floor)
    cert = compute_certificate(data, options, Psi=Psi)
    if not cert.local_pass:
        if not force:
            raise CertificateFailure(
                f"local solvability certificate failed (q_local = {cert.q_local:.6g}); "
                "pass force=True to run anyway", certificate=cert)
        warnings.warn(
            f"running despite failed certificate (q_local = {cert.q_local:.6g})",
            RuntimeWarning)

    state = initial_state(data, initial)
    converged = False
    for _ in range(max_iters):
        swept = iterate(state, data, Psi=Psi, theta=theta)
        f_diff = swept.F_diff_history[-1]
        if not (np.isfinite(f_diff) and f_diff <= _RUNAWAY * swept.F_diff_history[0]):
            break
        state = swept
        if f_diff <= tol_F:
            converged = True
            break

    couplings = data.omega.couplings[: params.K]
    a = reconstruct_a(state.current, Psi, data.psi, couplings, margin=options.boundary_margin)
    if synth_y is None:
        synth_y = np.linspace(0.0, np.pi, 33)
    u_synth = state.current.synthesize_y(synth_y)
    _, residual_norm = overdetermination_residual(state.current, data.omega, data.psi)

    return InversionResult(
        a=a,
        u_modes=state.current,
        u_synth=u_synth,
        synth_y=np.asarray(synth_y, dtype=float),
        certificate=cert,
        F_diff_history=state.F_diff_history,
        ratio_history=state.ratio_history,
        iterations=state.iteration,
        converged=converged,
        residual_norm=residual_norm,
        norms=solution_norms(state.current, a),
        margin=options.boundary_margin,
    )
