"""Bundled inverse-problem data: the measurement psi, source and initial
modes, and the weight omega, all on psi's grid; the spectral parameters are
the source stack's."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .grids import Grid, ScalarField, l2_sq_G
from .sinebasis import ModeFieldSet, OmegaData, SpectralParams


#: bound on the compatibility residual relative to ||psi(0, .)|| in L2(G), above
#: which the data's phi and psi(0) are reported as disagreeing
COMPATIBILITY_RTOL = 1e-6


@dataclass(frozen=True)
class ProblemData:
    """Its grid is psi's and its params are f_modes'; f must lie on that grid,
    phi hold K finite rows on it, and omega carry exactly K sine coefficients."""
    psi: ScalarField
    f_modes: ModeFieldSet  # compact: the modes it does not hold are zero
    phi_modes: np.ndarray = field(repr=False)  # (K, Nx+2)
    omega: OmegaData

    def __post_init__(self):
        if self.f_modes.grid != self.grid:
            raise DataError(f"f grid {self.f_modes.grid} does not match psi grid {self.grid}")
        phi = np.asarray(self.phi_modes, dtype=float)
        expected = (self.params.K, self.grid.Nx + 2)
        if phi.shape != expected:
            raise DataError(f"phi mode stack shape {phi.shape} != {expected}")
        if not np.all(np.isfinite(phi)):
            raise DataError("phi modes contain non-finite values")
        if self.omega.K != self.params.K:
            raise DataError(f"omega carries {self.omega.K} sine coefficients, need K = {self.params.K}")
        object.__setattr__(self, "phi_modes", phi)

    @property
    def grid(self) -> Grid:
        return self.psi.grid

    @property
    def params(self) -> SpectralParams:
        return self.f_modes.params

    def scaled(self, s: float) -> "ProblemData":
        """Scale phi and f by s, leaving psi and omega untouched; f keeps its
        rows."""
        f_scaled = ModeFieldSet(self.grid, self.params, s * self.f_modes.values,
                                self.f_modes.modes)
        return replace(self, f_modes=f_scaled, phi_modes=s * self.phi_modes)

    def compatibility(self) -> float:
        """The L2(G) norm of (pi/2) sum_k phi_k omega_k - psi(0, .), with a
        RuntimeWarning when it exceeds COMPATIBILITY_RTOL times ||psi(0, .)||.
        Never an error: NULL is inconsistent on purpose, and so are scaled
        scenarios (phi scaled, psi kept)."""
        modes = np.arange(1, self.params.K + 1)
        mismatch = self.omega.measure(self.phi_modes, modes) - self.psi.values[0]
        residual = float(np.sqrt(l2_sq_G(mismatch, self.grid)))
        bound = COMPATIBILITY_RTOL * float(np.sqrt(l2_sq_G(self.psi.values[0], self.grid)))
        if residual > bound:
            warnings.warn(f"data compatibility residual {residual:.3e} exceeds "
                          f"{COMPATIBILITY_RTOL:g} * ||psi(0, .)|| = {bound:.3e}: "
                          "phi and psi(0) disagree", RuntimeWarning)
        return residual
