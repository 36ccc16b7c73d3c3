"""Successive-approximation inverse solver.

Each sweep advances the modes through the linear parabolic solve with the
coefficient fully lagged into the source:

    S_k = f_k - a(u^{i-1}) u_k^{i-1},   a(u) = Psi + (sum_j c_j u_j) / psi,

starting from u^0 = 0 (or a given iterate).  The recovered coefficient is
defined (not fitted) by the same formula, a(u^i), once the sweep-to-sweep
energy F(u^i - u^{i-1}) drops below tolerance: picard_source and
reconstruct_a both evaluate it through one helper, _coefficient.
Non-convergence is a result, not an exception, so certificate-violating
inputs can still be studied; a sweep whose energy runs away (see _RUNAWAY)
stops the loop as well.

The modes are coupled only through that series.  A mode whose f_k, phi_k and
starting u_k are all zero has S_k = 0 at every sweep and so stays exactly
zero; the loop sweeps only the other, excited modes (parabolic.forced_modes
of phi, f and the start), and its cost scales with their number.  The result
keeps that compact stack: the reconstruction, the measurement residual and
the norm bundle all run on the swept rows, and InversionResult.u_modes.full()
gives the dense stack.  The series is a mode_sum, so the compact stack gives
the same bits as the dense one would.

A sweep holds three mode stacks: the iterate u^{i-1}, the fresh source
stack, which the march overwrites with u^i, and the march's transform
buffer.  picard_source forms a u_k in the source stack itself, and
F_functional(u^i, u^{i-1}) differences one row at a time, so neither the
product nor the difference is ever a stack of its own.  The iterate stays
whole, since a sweep that runs away is dropped and the loop keeps it.

The division by psi is guarded once per run: compute_Psi rejects psi below
the floor at every interior node, and _coefficient divides by the same psi on
those nodes only.
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


def _coefficient(u: ModeFieldSet, data: ProblemData, Psi: ScalarField) -> np.ndarray:
    """The coefficient formula a = Psi + (sum_j c_j u_j) / psi over u's rows,
    the series divided on interior nodes only (a = Psi on the spatial
    boundary); psi has passed compute_Psi's floor check on those nodes.
    The series is a mode_sum, so zero rows do not change a bit."""
    series = mode_sum(u.values, data.omega.couplings[u.modes - 1])
    a = Psi.values.copy()
    x = u.grid.interior(1)
    a[:, x] += series[:, x] / data.psi.values[:, x]
    return a


def picard_source(prev: ModeFieldSet, data: ProblemData, Psi: ScalarField) -> np.ndarray:
    """Source stack f_k - a(prev) * prev_k for the next sweep, one row per
    row of prev, with the coefficient of prev evaluated once for every k.
    The product a * prev_k fills the one fresh stack, and each of its rows
    is then subtracted in place from f's row (0 for a mode f does not hold).
    Psi comes from compute_Psi of data."""
    source = _coefficient(prev, data, Psi)[None] * prev.values
    for k, row in zip(prev.modes, source):
        np.subtract(data.f_modes.row(k), row, out=row)
    return source


def iterate(u: ModeFieldSet, data: ProblemData, Psi: ScalarField,
            theta: float = 0.5) -> tuple[ModeFieldSet, float]:
    """One sweep: u^{i+1} from u^i by one march of u's mode rows, in place in
    the fresh source stack, and the energy F(u^{i+1} - u^i), which
    F_functional(new, u) forms row by row and leaves u as it was.  Psi comes
    from compute_Psi of data."""
    # the march scans its output, which overwrites the sources
    sources = ModeFieldSet(data.grid, data.params, picard_source(u, data, Psi), u.modes,
                           check_finite=False)
    new = march_modes(sources, data.phi_modes[u.modes - 1], theta=theta)
    return new, F_functional(new, u)


def reconstruct_a(u: ModeFieldSet, data: ProblemData, Psi: ScalarField,
                  margin: int) -> ScalarField:
    """The coefficient of u, the one picard_source lags, on
    u.grid.interior(margin); nodes outside it copy the nearest node inside.
    Psi comes from compute_Psi of data."""
    a_vals = _coefficient(u, data, Psi)
    x = u.grid.interior(margin)
    a_vals[:, :x.start] = a_vals[:, x.start:x.start + 1]
    a_vals[:, x.stop:] = a_vals[:, x.stop - 1:x.stop]
    return ScalarField(u.grid, a_vals)


@dataclass(frozen=True)
class InversionResult:
    """Outcome of run_inversion.  stop_reason is "converged" (F_diff fell
    below tol_F), "max_iters" (the sweep budget ran out) or "diverged" (a
    sweep ran away).  u_modes is the compact stack of the swept modes;
    u_modes.full() is the dense one.  F_diff_history holds the energy of
    each kept sweep; the sweep count, the ratios and the margin derive from
    it and the certificate."""

    a: ScalarField
    u_modes: ModeFieldSet
    certificate: Certificate
    F_diff_history: tuple[float, ...]
    stop_reason: str
    residual_norm: float
    norms: dict

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def iterations(self) -> int:
        return len(self.F_diff_history)

    @property
    def ratio_history(self) -> tuple[float, ...]:
        """F_diff_i / F_diff_{i-1} of each kept sweep after the first whose
        predecessor is positive."""
        h = self.F_diff_history
        return tuple(cur / prev for prev, cur in zip(h, h[1:]) if prev > 0.0)

    @property
    def margin(self) -> int:
        """The certificate's boundary margin, which reconstruct_a used."""
        return self.certificate.boundary_margin


def solution_norms(u: ModeFieldSet, a: ScalarField) -> dict:
    """Weak-solution norm bundle: the quantities the solvability estimates
    bound (squared-norm convention throughout)."""
    grid, params = u.grid, u.params
    lam = u.eigenvalues
    tau1, tau2 = params.tau1, params.tau2

    sq_GT = l2_sq_GT(u.values, grid)
    dt_sq = l2_sq_GT(diff(u.values, grid.dt, axis=1), grid)
    grad_sq_GT = l2_sq_GT(diff(u.values, grid.hx, axis=-1), grid)

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
    cert = compute_certificate(data, options)
    if not cert.local_pass:
        if not force:
            raise CertificateFailure(
                f"local solvability certificate failed (q_local = {cert.q_local:.6g}); "
                "pass force=True to run anyway", certificate=cert)
        warnings.warn(
            f"running despite failed certificate (q_local = {cert.q_local:.6g})",
            RuntimeWarning)

    Psi = compute_Psi(data, options.psi_floor)
    start = initial if initial is not None else ModeFieldSet.empty(grid, params)
    u = start.rows(forced_modes(data.phi_modes, data.f_modes, start))
    F_diffs: list[float] = []
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
        F_diffs.append(f_diff)
        u = swept
        if f_diff <= tol_F:
            stop_reason = "converged"
            break

    a = reconstruct_a(u, data, Psi, options.boundary_margin)
    _, residual_norm = overdetermination_residual(u, data.omega, data.psi)

    return InversionResult(
        a=a,
        u_modes=u,
        certificate=cert,
        F_diff_history=tuple(F_diffs),
        stop_reason=stop_reason,
        residual_norm=residual_norm,
        norms=solution_norms(u, a),
    )
