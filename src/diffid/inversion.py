"""Successive-approximation inverse solver.

Each sweep advances the modes through the linear parabolic solve with the
coefficient fully lagged into the source:

    S_k = f_k - Psi * u_k^{i-1} - (sum_j c_j u_j^{i-1} / psi) * u_k^{i-1},

starting from u^0 = 0 (or a given iterate), and the recovered coefficient is
defined (not fitted) by a = Psi + (sum_j c_j u_j) / psi once the
sweep-to-sweep energy F(u^i - u^{i-1}) drops below tolerance.
Non-convergence is a result, not an exception, so certificate-violating
inputs can still be studied; a sweep whose energy runs away (see _RUNAWAY)
stops the loop as well.

The modes are coupled only through that series.  A mode whose f_k, phi_k and
starting u_k are all zero has S_k = 0 at every sweep and so stays exactly
zero; the loop sweeps only the other, excited modes (parabolic.forced_modes
of phi, f and the start), and its cost scales with their number.  The result
keeps that compact stack: the reconstruction, the measurement residual and
the norm bundle all run on the swept rows, and InversionResult.u_modes.full()
gives the dense stack.  The series is summed row by row in ascending k, so
the compact stack gives the same bits as the dense one would.

The division by psi is guarded once per run: compute_Psi rejects psi below
the floor at every interior node, and the helpers below divide by the same
psi on those nodes only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .certificates import Certificate, CertifyOptions, compute_Psi, compute_certificate
from .errors import CertificateFailure, DataError, NumericalBlowupError
from .grids import ScalarField, diff, l2_sq_GT
from .parabolic import forced_modes, march_modes, overdetermination_residual
from .problem import ProblemData
from .sinebasis import F_functional, ModeFieldSet, mode_sum

# F is a squared norm, so a sweep energy 2**104 times the first one means a
# sweep-to-sweep change 1/eps (2**52) times the first iterate: the data that
# set the first sweep are below the iterate's roundoff.  A contracting run
# never gets there (F falls every sweep); a diverging one overflows a few
# sweeps later, since the lagged product a*u makes F roughly square per sweep.
_RUNAWAY = 2.0**104


def _series_over_psi(u: ModeFieldSet, psi: ScalarField, couplings: np.ndarray) -> np.ndarray:
    """(sum_j c_j u_j) / psi over u's rows on interior nodes, zero on the
    spatial boundary; psi has passed compute_Psi's floor check on those
    nodes.  Summed one row at a time in ascending j: a zero row adds exactly
    0, whereas a BLAS contraction groups its terms by the row count."""
    series = np.zeros(u.grid.field_shape)
    for c_j, u_j in zip(couplings[u.modes - 1], u.values):
        series += c_j * u_j
    out = np.zeros_like(series)
    np.divide(series[:, 1:-1], psi.values[:, 1:-1], out=out[:, 1:-1])
    return out


def picard_source(prev: ModeFieldSet, Psi: ScalarField, psi: ScalarField,
                  f_modes: ModeFieldSet, couplings: np.ndarray) -> np.ndarray:
    """Source stack for the next sweep, one row per row of prev; the coupling
    series is evaluated once and reused for every k.  Psi comes from
    compute_Psi of this psi."""
    ratio = _series_over_psi(prev, psi, couplings)
    lag = Psi.values + ratio
    return f_modes.rows(prev.modes).values - lag[None, ...] * prev.values


def iterate(u: ModeFieldSet, data: ProblemData, Psi: ScalarField,
            theta: float = 0.5) -> tuple[ModeFieldSet, float]:
    """One sweep: u^{i+1} from u^i by one march of u's mode rows, and the
    energy F(u^{i+1} - u^i).  An empty stack (nothing excited) marches
    nothing.  Psi comes from compute_Psi of data.psi."""
    couplings = data.omega.couplings[: data.params.K]
    sources = picard_source(u, Psi, data.psi, data.f_modes, couplings)
    if len(u.modes):
        sources = march_modes(sources, data.phi_modes[u.modes - 1], data.grid,
                              theta=theta, modes=u.modes)
    # march_modes has checked every swept value finite
    new = ModeFieldSet(data.grid, data.params, sources, u.modes, check_finite=False)
    return new, F_functional(new - u)


def reconstruct_a(u: ModeFieldSet, Psi: ScalarField, psi: ScalarField,
                  couplings: np.ndarray, margin: int = 2) -> ScalarField:
    """Coefficient formula a = Psi + (sum_j c_j u_j)/psi on the interior
    margin; nodes outside the margin copy the nearest margin node.  Psi
    comes from compute_Psi of this psi."""
    grid = u.grid
    ratio = _series_over_psi(u, psi, couplings)
    a_vals = Psi.values + ratio

    lo, hi = margin, grid.Nx + 2 - margin
    a_vals[:, :lo] = a_vals[:, lo:lo + 1]
    a_vals[:, hi:] = a_vals[:, hi - 1:hi]
    return ScalarField(grid, a_vals)


@dataclass(frozen=True)
class InversionResult:
    """Outcome of run_inversion.  stop_reason is "converged" (F_diff fell
    below tol_F), "max_iters" (the sweep budget ran out) or "diverged" (a
    sweep ran away).  u_modes is the compact stack of the swept modes;
    u_modes.full() is the dense one."""

    a: ScalarField
    u_modes: ModeFieldSet
    certificate: Certificate
    F_diff_history: tuple[float, ...]
    ratio_history: tuple[float, ...]
    iterations: int
    stop_reason: str
    residual_norm: float
    norms: dict
    margin: int

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"


def solution_norms(u: ModeFieldSet, a: ScalarField) -> dict:
    """Weak-solution norm bundle: the quantities the solvability estimates
    bound (squared-norm convention throughout)."""
    grid, params = u.grid, u.params
    lam = u.eigenvalues
    tau1, tau2 = params.tau1, params.tau2

    sq_GT = l2_sq_GT(u.values, grid)
    dt_sq = l2_sq_GT(diff(u.values, grid.dt, axis=1), grid)
    grad_sq_GT = l2_sq_GT(u.values, grid, grad=True)

    return {
        "u_sq_Q": np.pi / 2.0 * mode_sum(sq_GT),
        "grad_u_sq_tau1": mode_sum(grad_sq_GT, lam, 2.0 * tau1),
        "u_t_sq_tau1": mode_sum(dt_sq, lam, 2.0 * tau1),
        "u_sq_tau2": mode_sum(sq_GT, lam, 2.0 * tau2),
        "a_sq_GT": float(l2_sq_GT(a.values, grid)),
    }


def run_inversion(data: ProblemData, options: CertifyOptions = CertifyOptions(), *,
                  tol_F: float = 1e-10, max_iters: int = 50, theta: float = 0.5,
                  force: bool = False, initial: ModeFieldSet | None = None) -> InversionResult:
    """Certificate check, sweep loop, coefficient reconstruction, and the
    residual/norm bundle.  A failing certificate aborts unless force=True,
    in which case the run continues with a warning and the verdict recorded.

    The loop stops with stop_reason "max_iters" after max_iters sweeps, or
    "diverged" earlier when a sweep energy is non-finite or exceeds _RUNAWAY
    times the first one; that sweep is dropped and the result is built from
    the iterate before it.

    The loop carries only the excited modes' rows, and so does the result:
    u_modes is that compact stack, and u_modes.full() the dense one.  A
    sweep whose march blows up (NumericalBlowupError) counts as a non-finite
    sweep energy.
    """
    grid, params = data.grid, data.params
    if initial is not None and (initial.grid != grid or initial.K != params.K):
        raise DataError(f"initial iterate (K = {initial.K}, {initial.grid}) does not match "
                        f"the data (K = {params.K}, {grid})")
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

    start = initial if initial is not None else ModeFieldSet.empty(grid, params)
    u = start.rows(forced_modes(data.phi_modes, data.f_modes, start))
    F_diffs: list[float] = []
    ratios: list[float] = []
    stop_reason = "max_iters"
    for _ in range(max_iters):
        try:
            swept, f_diff = iterate(u, data, Psi, theta=theta)
        except NumericalBlowupError:
            f_diff = np.inf
        first = F_diffs[0] if F_diffs else f_diff
        if not (np.isfinite(f_diff) and f_diff <= _RUNAWAY * first):
            stop_reason = "diverged"
            break
        if F_diffs and F_diffs[-1] > 0.0:
            ratios.append(f_diff / F_diffs[-1])
        F_diffs.append(f_diff)
        u = swept
        if f_diff <= tol_F:
            stop_reason = "converged"
            break

    couplings = data.omega.couplings[: params.K]
    a = reconstruct_a(u, Psi, data.psi, couplings, margin=options.boundary_margin)
    _, residual_norm = overdetermination_residual(u, data.omega, data.psi)

    return InversionResult(
        a=a,
        u_modes=u,
        certificate=cert,
        F_diff_history=tuple(F_diffs),
        ratio_history=tuple(ratios),
        iterations=len(F_diffs),
        stop_reason=stop_reason,
        residual_norm=residual_norm,
        norms=solution_norms(u, a),
        margin=options.boundary_margin,
    )
