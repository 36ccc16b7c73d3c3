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
from .parabolic import march_modes, overdetermination_residual
from .problem import ProblemData
from .sinebasis import F_functional, ModeFieldSet, eigenvalues

# F is a squared norm, so a sweep energy 2**104 times the first one means a
# sweep-to-sweep change 1/eps (2**52) times the first iterate: the data that
# set the first sweep are below the iterate's roundoff.  A contracting run
# never gets there (F falls every sweep); a diverging one overflows a few
# sweeps later, since the lagged product a*u makes F roughly square per sweep.
_RUNAWAY = 2.0**104


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


def iterate(u: ModeFieldSet, data: ProblemData, Psi: ScalarField,
            theta: float = 0.5) -> tuple[ModeFieldSet, float]:
    """One sweep: u^{i+1} from u^i by one march of the whole mode stack, and
    the energy F(u^{i+1} - u^i).  Psi comes from compute_Psi of data.psi."""
    couplings = data.omega.couplings[: data.params.K]
    sources = picard_source(u, Psi, data.psi, data.f_modes, couplings)
    new = ModeFieldSet(data.grid, data.params,
                       march_modes(sources, data.phi_modes, data.grid, theta=theta))
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
    sweep ran away)."""

    a: ScalarField
    u_modes: ModeFieldSet
    u_synth: np.ndarray = field(repr=False)
    synth_y: np.ndarray = field(repr=False)
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

    The loop stops with stop_reason "max_iters" after max_iters sweeps, or
    "diverged" earlier when a sweep energy is non-finite or exceeds _RUNAWAY
    times the first one; that sweep is dropped and the result is built from
    the iterate before it.
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

    u = initial if initial is not None else ModeFieldSet.zeros(grid, params)
    F_diffs: list[float] = []
    ratios: list[float] = []
    stop_reason = "max_iters"
    for _ in range(max_iters):
        swept, f_diff = iterate(u, data, Psi, theta=theta)
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
    if synth_y is None:
        synth_y = np.linspace(0.0, np.pi, 33)
    u_synth = u.synthesize_y(synth_y)
    _, residual_norm = overdetermination_residual(u, data.omega, data.psi)

    return InversionResult(
        a=a,
        u_modes=u,
        u_synth=u_synth,
        synth_y=np.asarray(synth_y, dtype=float),
        certificate=cert,
        F_diff_history=tuple(F_diffs),
        ratio_history=tuple(ratios),
        iterations=len(F_diffs),
        stop_reason=stop_reason,
        residual_norm=residual_norm,
        norms=solution_norms(u, a),
        margin=options.boundary_margin,
    )
