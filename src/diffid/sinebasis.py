"""Sine eigenbasis on (0, pi): analysis/synthesis, weight couplings, and the
weighted mode norms used by the solvability certificates.

Mode k has eigenvalue k^2.  Fractional-power norms are evaluated as raw
weighted sums sum_k lambda_k^{2*tau} * (|v_k|^2 [+ |grad v_k|^2]) without the
pi/2 Parseval factor, so that the tau1 weight equals lambda_k^{(1+eps)/2}
exactly as it appears in the contraction estimates.  Reductions over k run in
ascending order for bit-reproducibility.

A ModeFieldSet holds only the rows it carries, each labelled with its mode
number; the modes it does not hold are zero.  Every function here weights a
stack by its own rows' modes, so no zero row is ever built; full() builds the
dense (K, Nt+1, Nx+2) form for library callers, and the package itself never
does (write_modes_csv writes absent modes from one zero slice).  Every norm
sums over k through mode_sum, in ascending order, where a zero row adds
exactly 0: the norms of a compact stack have the bits of its dense form.  A
BLAS contraction over several nonzero rows (measure, synthesize) may group
them otherwise, which moves last bits only.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError
from .grids import Grid, _second_derivative, diff, grad_x, l2_sq_G, l2_sq_GT

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


def eigenvalues(modes) -> np.ndarray:
    """Dirichlet eigenvalues k^2 of -d^2/dy^2 on (0, pi): of k = 1..K for a
    count K, or of each mode number k in an array."""
    k = np.arange(1, modes + 1) if np.ndim(modes) == 0 else np.asarray(modes)
    return k.astype(float) ** 2


def _modes(modes, count: int) -> np.ndarray:
    """The mode numbers modes, or 1..count when modes is None."""
    return np.arange(1, count + 1) if modes is None else np.asarray(modes)


def _sine_table(modes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sin(k y) for each mode number k on the nodes y, as a (len(modes),
    len(y)) table."""
    return np.sin(np.outer(np.asarray(modes, dtype=float), y))


def sine_coeffs(v: np.ndarray, K: int, y: np.ndarray) -> np.ndarray:
    """Coefficients of sin(k y), k = 1..K: (2/pi) * int_0^pi v(y) sin(k y) dy,
    trapezoidal."""
    v = np.asarray(v, dtype=float)
    return 2.0 / np.pi * np.trapezoid(v * _sine_table(np.arange(1, K + 1), y), y, axis=-1)


def synthesize(coeffs: np.ndarray, y: np.ndarray, modes: np.ndarray | None = None) -> np.ndarray:
    """Partial sum sum_i coeffs[i] * sin(modes[i] y) on the given nodes, by
    default over modes 1..len(coeffs); coeffs of shape (E, ...) give a result
    of shape (..., len(y))."""
    coeffs = np.asarray(coeffs, dtype=float)
    table = _sine_table(_modes(modes, len(coeffs)), np.asarray(y, dtype=float))
    return np.tensordot(coeffs, table, axes=(0, 0))


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

    def measure(self, stack: np.ndarray, modes: np.ndarray | None = None) -> np.ndarray:
        """The integral measurement (pi/2) sum_i omega_{k_i} v_i of a stack of
        mode rows v_i along the leading axis, row i holding mode k_i =
        modes[i] (by default i+1)."""
        weights = self.omega_coeffs[_modes(modes, len(stack)) - 1]
        return (np.pi / 2.0) * np.tensordot(weights, stack, axes=(0, 0))

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
    t = np.trapezoid(_sine_table(j, y) * omega_dd, y, axis=-1)
    return t - h**2 / 12.0 * j * ((-1.0) ** j * omega_dd[-1] - omega_dd[0])


@dataclass(frozen=True)
class ModeFieldSet:
    """Stack of mode fields u_k(t, x) sharing one grid; row i holds mode
    modes[i], and every mode the stack does not hold is zero.  modes
    defaults to 1..K, the dense stack; a compact stack holds some of the
    modes in ascending order, and the empty stack (empty()) is the zero
    field.  rows() aligns a stack to other mode numbers, and full() gives the
    dense (K, Nt+1, Nx+2) stack.

    The values are checked finite unless check_finite is False, which is for
    a stack its producer has just checked (march_modes scans its output).
    """

    grid: Grid
    params: SpectralParams
    values: np.ndarray = field(repr=False)  # shape (len(modes), Nt+1, Nx+2)
    modes: np.ndarray | None = field(default=None, repr=False)
    check_finite: InitVar[bool] = True

    def __post_init__(self, check_finite: bool):
        v = np.asarray(self.values, dtype=float)
        K = self.params.K
        modes = _modes(self.modes, K)
        if (modes.ndim != 1 or modes.dtype.kind not in "iu"
                or np.any(modes < 1) or np.any(modes > K) or np.any(np.diff(modes) <= 0)):
            raise DataError(f"mode numbers {modes} are not ascending integers in 1..{K}")
        expected = (len(modes),) + self.grid.field_shape
        if v.shape != expected:
            raise DataError(f"mode stack shape {v.shape} does not match {expected}")
        if check_finite and not np.all(np.isfinite(v)):
            raise DataError("mode stack contains non-finite values")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "modes", modes)

    @property
    def K(self) -> int:
        return self.params.K

    @property
    def eigenvalues(self) -> np.ndarray:
        """k^2 of each row's mode k."""
        return eigenvalues(self.modes)

    @classmethod
    def empty(cls, grid: Grid, params: SpectralParams) -> "ModeFieldSet":
        """The stack of no rows: the zero field."""
        return cls(grid, params, np.zeros((0,) + grid.field_shape), np.zeros(0, dtype=int))

    def rows(self, modes: np.ndarray) -> "ModeFieldSet":
        """The stack of the given ascending mode numbers: this stack's row for
        each mode it holds, a zero row for each mode it does not.  This stack
        itself when the modes are its own."""
        modes = np.asarray(modes)
        if np.array_equal(modes, self.modes):
            return self
        values = np.zeros((len(modes),) + self.grid.field_shape)
        held = np.isin(modes, self.modes)
        values[held] = self.values[np.searchsorted(self.modes, modes[held])]
        return ModeFieldSet(self.grid, self.params, values, modes, check_finite=False)

    def full(self) -> "ModeFieldSet":
        """The dense (K, Nt+1, Nx+2) stack of modes 1..K, zero rows
        included."""
        return self.rows(np.arange(1, self.K + 1))

    def __sub__(self, other: "ModeFieldSet") -> "ModeFieldSet":
        if not np.array_equal(self.modes, other.modes):
            raise DataError(f"mode rows {self.modes} and {other.modes} differ")
        return ModeFieldSet(self.grid, self.params, self.values - other.values, self.modes)

    def synthesize_y(self, y: np.ndarray, level: int | None = None) -> np.ndarray:
        """Sample u(t, x, y) = sum_k u_k(t, x) sin(k y) on the given y nodes:
        the (Nt+1, Nx+2, len(y)) array, or its (Nx+2, len(y)) slice at one
        time level.  A one-row stack gives the same bits either way; with
        several rows a slice may group the BLAS sum over k otherwise than the
        whole array, which moves last bits only."""
        values = self.values if level is None else self.values[:, level]
        return synthesize(values, y, self.modes)


def mode_sum(terms: np.ndarray, lam: np.ndarray | None = None, power: float = 0.0) -> float:
    """sum_k lam_k^power * terms_k over a stack's rows (the plain sum when lam
    is None), one row at a time in ascending k.  Every norm's sum over k
    goes through here: a zero row then adds exactly 0, so a compact stack
    gives the bits of its full() stack, which np.sum's pairwise order does
    not."""
    total = 0.0
    for k in range(len(terms)):
        total += terms[k] if lam is None else lam[k] ** power * terms[k]
    return float(total)


def frac_norm(mode_values, grid: Grid, tau: float, level: int = 0,
              measure: str = "GT") -> float:
    """Weighted mode sum sum_k lambda_k^{2 tau} (|v_k|^2 [+ |grad v_k|^2]).

    mode_values is a ModeFieldSet, weighted by its rows' modes, or an array
    of modes 1..K: (K, Nx+2) with measure="G", (K, Nt+1, Nx+2) with
    measure="GT".  Level 1 adds the spatial-gradient term.  The value is the
    squared-norm convention used by the certificate formulas.
    """
    if isinstance(mode_values, ModeFieldSet):
        lam, v = mode_values.eigenvalues, mode_values.values
    else:
        v = np.asarray(mode_values, dtype=float)
        lam = eigenvalues(v.shape[0])
    if measure == "G":
        parts = l2_sq_G(v, grid)
        if level == 1:
            parts = parts + l2_sq_G(grad_x(v, grid), grid)
    elif measure == "GT":
        parts = l2_sq_GT(v, grid)
        if level == 1:
            parts = parts + l2_sq_GT(v, grid, grad=True)
    else:
        raise ConfigurationError(f"unknown measure {measure!r}")
    return mode_sum(parts, lam, 2.0 * tau)


def F_functional(modes: ModeFieldSet) -> float:
    """Contraction energy: sum_k lambda_k^{(1+eps)/2} [ ||D_t u_k||^2_{GT}
    + sup_t ||grad u_k||^2_G + lambda_k sup_t ||u_k||^2_G ] over the stack's
    rows, in ascending k.  A zero row adds exactly 0, so a compact stack
    gives the bits of its full() stack."""
    grid, v = modes.grid, modes.values
    eps = modes.params.epsilon
    buf = diff(v, grid.dt, axis=1)  # D_t v, then D_x v in the same buffer
    dt_term = l2_sq_GT(buf, grid)
    grad_term = np.max(l2_sq_G(diff(v, grid.hx, axis=-1, out=buf), grid), axis=1)
    l2_term = np.max(l2_sq_G(v, grid), axis=1)
    lam = modes.eigenvalues
    return mode_sum(dt_term + grad_term + lam * l2_term, lam, (1.0 + eps) / 2.0)
