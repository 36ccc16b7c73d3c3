"""Bundled inverse-problem data: the measurement psi, source and initial
modes, the weight omega, and the spectral parameters, all on one grid."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .grids import Grid, ScalarField, l2_norm_G
from .sinebasis import ModeFieldSet, OmegaData, SpectralParams


#: bound on compatibility_residual relative to ||psi(0, .)|| in L2(G), above
#: which the data's phi and psi(0) are reported as disagreeing
COMPATIBILITY_RTOL = 1e-6


@dataclass(frozen=True)
class ProblemData:
    grid: Grid
    psi: ScalarField
    f_modes: ModeFieldSet
    phi_modes: np.ndarray = field(repr=False)  # (K, Nx+2)
    omega: OmegaData
    params: SpectralParams

    def __post_init__(self):
        phi = np.asarray(self.phi_modes, dtype=float)
        expected = (self.params.K,) + self.grid.space_shape
        if phi.shape != expected:
            raise DataError(f"phi mode stack shape {phi.shape} != {expected}")
        if not np.all(np.isfinite(phi)):
            raise DataError("phi modes contain non-finite values")
        if self.psi.grid != self.grid or self.f_modes.grid != self.grid:
            raise DataError("psi/f grids do not match the problem grid")
        if self.f_modes.params.K != self.params.K:
            raise DataError("f mode count does not match spectral parameters")
        if self.omega.K < self.params.K:
            raise DataError(f"omega carries {self.omega.K} couplings, need {self.params.K}")
        object.__setattr__(self, "phi_modes", phi)

    def scaled(self, s: float) -> "ProblemData":
        """Scale phi and f by s, leaving psi and omega untouched."""
        f_scaled = ModeFieldSet(self.grid, self.params, s * self.f_modes.values)
        return replace(self, f_modes=f_scaled, phi_modes=s * self.phi_modes)

    def compatibility_residual(self) -> float:
        """L2(G) norm of (pi/2) sum_k phi_k omega_k - psi(0, .)."""
        return l2_norm_G(self.omega.measure(self.phi_modes) - self.psi.values[0], self.grid)

    def compatibility_warning(self) -> str | None:
        """The message reporting a compatibility residual above COMPATIBILITY_RTOL
        times ||psi(0, .)||, or None.  Never an error: NULL is inconsistent on
        purpose, and so are scaled scenarios (phi scaled, psi kept)."""
        residual = self.compatibility_residual()
        bound = COMPATIBILITY_RTOL * l2_norm_G(self.psi.values[0], self.grid)
        if residual > bound:
            return (f"data compatibility residual {residual:.3e} exceeds "
                    f"{COMPATIBILITY_RTOL:g} * ||psi(0, .)|| = {bound:.3e}: phi and psi(0) disagree")
        return None
