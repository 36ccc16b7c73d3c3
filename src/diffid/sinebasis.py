"""Sine eigenbasis on (0, pi): analysis/synthesis, weight couplings, and the
weighted mode norms used by the solvability certificates.

Mode k has eigenvalue k^2.  Fractional-power norms are evaluated as raw
weighted sums sum_k lambda_k^{2*tau} * (|v_k|^2 [+ |grad v_k|^2]) without the
pi/2 Parseval factor, so that the tau1 weight equals lambda_k^{(1+eps)/2}
exactly as it appears in the contraction estimates.  Reductions over k run in
ascending order for bit-reproducibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError
from .grids import Grid, _second_derivative, grad_sq, integrate_G, l2_sq_GT

#: default tolerance on |omega(0)|, |omega(pi)| relative to max|omega|
OMEGA_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class SpectralParams:
    """Truncation count K, free exponent parameter eps, y-quadrature resolution.

    Ny is the number of trapezoid subintervals on (0, pi); Ny >= 4K keeps the
    quadrature error of mode-K integrals below 1e-8.
    """

    K: int
    epsilon: float = 1.0
    Ny: int | None = None

    def __post_init__(self):
        if self.K < 1:
            raise ConfigurationError(f"K must be >= 1, got {self.K}")
        if self.epsilon <= 0:
            raise ConfigurationError(f"epsilon must be positive, got {self.epsilon}")
        if self.Ny is None:
            object.__setattr__(self, "Ny", max(4 * self.K, 64))
        elif self.Ny < 4 * self.K:
            raise ConfigurationError(f"Ny={self.Ny} under-resolves mode K={self.K}; need Ny >= 4K")

    @property
    def tau1(self) -> float:
        return (1.0 + self.epsilon) / 4.0

    @property
    def tau2(self) -> float:
        return (3.0 + self.epsilon) / 4.0

    @property
    def y(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.Ny + 1)


def eigenvalues(K: int) -> np.ndarray:
    """Dirichlet eigenvalues k^2 of -d^2/dy^2 on (0, pi), k = 1..K."""
    return np.arange(1, K + 1, dtype=float) ** 2


def _sine_table(K: int, y: np.ndarray) -> np.ndarray:
    """sin(k y) for k = 1..K on the nodes y, as a (K, len(y)) table."""
    return np.sin(np.outer(np.arange(1, K + 1, dtype=float), y))


def sine_coeffs(v: np.ndarray, K: int, y: np.ndarray) -> np.ndarray:
    """Coefficients of sin(k y), k = 1..K: (2/pi) * int_0^pi v(y) sin(k y) dy,
    trapezoidal."""
    v = np.asarray(v, dtype=float)
    return 2.0 / np.pi * np.trapezoid(v * _sine_table(K, y), y, axis=-1)


def synthesize(coeffs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Partial sum sum_k coeffs[k-1] * sin(k y) on the given nodes; coeffs of
    shape (K, ...) give a result of shape (..., len(y))."""
    coeffs = np.asarray(coeffs, dtype=float)
    return np.tensordot(coeffs, _sine_table(len(coeffs), np.asarray(y, dtype=float)),
                        axes=(0, 0))


@dataclass(frozen=True)
class OmegaData:
    """The measurement weight: samples of omega and omega'', its sine
    coefficients, and the couplings c_j = (sin(j y), omega'')."""

    y: np.ndarray = field(repr=False)
    omega: np.ndarray = field(repr=False)
    omega_dd: np.ndarray = field(repr=False)
    omega_coeffs: np.ndarray = field(repr=False)
    couplings: np.ndarray = field(repr=False)
    couplings_ibp: np.ndarray = field(repr=False)

    @property
    def K(self) -> int:
        return len(self.couplings)

    @property
    def omega_dd_l2(self) -> float:
        """||omega''|| in L2(0, pi)."""
        return float(np.sqrt(np.trapezoid(self.omega_dd**2, self.y)))

    def measure(self, stack: np.ndarray) -> np.ndarray:
        """The integral measurement (pi/2) sum_k omega_k v_k of a mode stack
        v_1..v_K along the leading axis."""
        return (np.pi / 2.0) * np.tensordot(self.omega_coeffs[: len(stack)], stack, axes=(0, 0))

    @classmethod
    def from_profiles(cls, y: np.ndarray, omega: np.ndarray, K: int,
                      omega_dd: np.ndarray | None = None) -> "OmegaData":
        """Build from sampled omega (and omega'' when available).

        Without omega'' samples the couplings come from the integration-by-parts
        identity c_j = -lambda_j (pi/2) omega_j, which needs only omega itself;
        omega'' (whose norm enters the certificate) is then rebuilt by second
        differences.  The y nodes must be uniform: those differences and the
        coupling quadrature's endpoint correction both assume one step.
        """
        y = np.asarray(y, dtype=float)
        omega = np.asarray(omega, dtype=float)
        scale = max(float(np.max(np.abs(omega))), 1.0)
        if abs(omega[0]) > OMEGA_BOUNDARY_TOL * scale or abs(omega[-1]) > OMEGA_BOUNDARY_TOL * scale:
            raise DataError(f"omega must vanish at y=0 and y=pi, got {omega[0]:.3e}, {omega[-1]:.3e}")
        h = np.diff(y)
        if not np.max(np.abs(h - h[0])) <= 1e-9 * max(abs(y[-1]), 1.0):
            raise DataError(
                f"omega's y nodes must be uniformly spaced for the y quadrature and for "
                f"rebuilding omega'' by second differences; steps range from "
                f"{h.min():.6g} to {h.max():.6g}")
        coeffs = sine_coeffs(omega, K, y)
        lam = eigenvalues(K)
        c_ibp = -lam * (np.pi / 2.0) * coeffs
        if omega_dd is None:
            dd = _second_derivative(omega, h[0], axis=0)
            return cls(y, omega, dd, coeffs, c_ibp.copy(), c_ibp)
        omega_dd = np.asarray(omega_dd, dtype=float)
        return cls(y, omega, omega_dd, coeffs, _coupling_quadrature(y, omega_dd, K), c_ibp)

    @classmethod
    def from_callables(cls, fn, fn_dd, params: SpectralParams) -> "OmegaData":
        y = params.y
        return cls.from_profiles(y, fn(y), params.K, omega_dd=fn_dd(y))


def _coupling_quadrature(y: np.ndarray, omega_dd: np.ndarray, K: int) -> np.ndarray:
    """Trapezoid of sin(j y) * omega'', j = 1..K, with the Euler-Maclaurin
    endpoint correction -h^2/12 [f'(pi) - f'(0)] on the uniform nodes y.

    Since sin(j y) vanishes at both ends, f' there is j * (+-1)^j * omega'',
    so the correction needs no derivatives of omega''.  Without it the bare
    trapezoid error grows like h^2 * j and the integration-by-parts identity
    cannot be met at 1e-8 for polynomial-type weights.
    """
    h = y[1] - y[0]
    j = np.arange(1, K + 1, dtype=float)
    t = np.trapezoid(_sine_table(K, y) * omega_dd, y, axis=-1)
    return t - h**2 / 12.0 * j * ((-1.0) ** j * omega_dd[-1] - omega_dd[0])


@dataclass(frozen=True)
class ModeFieldSet:
    """Stack of K mode fields u_k(t, x) sharing one grid."""

    grid: Grid
    params: SpectralParams
    values: np.ndarray = field(repr=False)  # shape (K, Nt+1, Nx+2)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        expected = (self.params.K,) + self.grid.field_shape
        if v.shape != expected:
            raise DataError(f"mode stack shape {v.shape} does not match {expected}")
        if not np.all(np.isfinite(v)):
            raise DataError("mode stack contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def K(self) -> int:
        return self.params.K

    @classmethod
    def zeros(cls, grid: Grid, params: SpectralParams) -> "ModeFieldSet":
        return cls(grid, params, np.zeros((params.K,) + grid.field_shape))

    def __sub__(self, other: "ModeFieldSet") -> "ModeFieldSet":
        return ModeFieldSet(self.grid, self.params, self.values - other.values)

    def synthesize_y(self, y: np.ndarray) -> np.ndarray:
        """Sample u(t, x, y) = sum_k u_k(t, x) sin(k y) on the given y nodes."""
        return synthesize(self.values, y)


def frac_norm(mode_values, grid: Grid, tau: float, level: int = 0,
              measure: str = "GT") -> float:
    """Weighted mode sum sum_k lambda_k^{2 tau} (|v_k|^2 [+ |grad v_k|^2]).

    mode_values is a ModeFieldSet or an array: (K, Nx+2) with measure="G",
    (K, Nt+1, Nx+2) with measure="GT"; level 1 adds the spatial-gradient
    term.  The value is the squared-norm convention used by the certificate
    formulas.
    """
    if isinstance(mode_values, ModeFieldSet):
        mode_values = mode_values.values
    v = np.asarray(mode_values, dtype=float)
    if measure == "G":
        parts = integrate_G(v**2, grid)
        if level == 1:
            parts = parts + integrate_G(grad_sq(v, grid), grid)
    elif measure == "GT":
        parts = l2_sq_GT(v, grid)
        if level == 1:
            parts = parts + l2_sq_GT(v, grid, grad=True)
    else:
        raise ConfigurationError(f"unknown measure {measure!r}")
    lam = eigenvalues(v.shape[0])
    total = 0.0
    for k in range(len(lam)):
        total += lam[k] ** (2.0 * tau) * parts[k]
    return float(total)


def F_functional(modes: ModeFieldSet) -> float:
    """Contraction energy: sum_k lambda_k^{(1+eps)/2} [ ||D_t u_k||^2_{GT}
    + sup_t ||grad u_k||^2_G + lambda_k sup_t ||u_k||^2_G ]."""
    grid, v = modes.grid, modes.values
    eps = modes.params.epsilon
    dt_term = l2_sq_GT(np.gradient(v, grid.dt, axis=1, edge_order=2), grid)
    grad_term = np.max(integrate_G(grad_sq(v, grid), grid), axis=1)
    l2_term = np.max(integrate_G(v**2, grid), axis=1)
    lam = eigenvalues(modes.K)
    total = 0.0
    for k in range(modes.K):
        total += lam[k] ** ((1.0 + eps) / 2.0) * (dt_term[k] + grad_term[k] + lam[k] * l2_term[k])
    return float(total)
