"""Sine eigenbasis on (0, pi): analysis/synthesis, the weight omega, and the
weighted mode sums that every lambda-weighted norm is built from.

omega enters through its K sine coefficients omega_k alone: the
measurement is (pi/2) sum_k omega_k u_k, the couplings c_j = (sin(j y),
omega'') are -j^2 (pi/2) omega_j, since omega vanishes at y = 0 and y = pi,
and the certificate's ||omega''|| is the norm of the K-term series.  A
scenario's sin(y) and omega.csv share the grid.Ny_quad + 1 nodes.

Mode k has eigenvalue k^2.  Every lambda-weighted norm (F_functional here,
the certificate's R-terms, the inversion's norm bundle) is mode_sum over the
per-row squared norms of grids.l2_sq_G or l2_sq_GT.  F_functional(new, old)
is the energy of the difference new - old, which it forms one row at a time
in a row buffer, so a sweep's energy builds no difference stack.

A ModeFieldSet holds only the rows it carries, each labelled with its mode
number; the modes it does not hold are zero.  eigenvalues, synthesize and
ModeFieldSet take the mode numbers themselves, never a count, so a dense
stack passes np.arange(1, K + 1).  Every function here weights a
stack by its own rows' modes, so no zero row is ever built; full() builds the
dense (K, Nt+1, Nx+2) form for library callers, and the package itself never
does (write_modes_csv writes absent modes from one zero slice).  Every sum
over mode rows (each norm, the measurement, the coefficient series) is one
mode_sum, in ascending k with zero rows skipped, so a stack's numbers never
depend on the zero rows it holds; the one exception is synthesize (see there).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, check_integer, check_positive
from .grids import Grid, diff, l2_sq_G, l2_sq_GT

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
        check_integer("K", self.K, 1)
        check_positive("epsilon", self.epsilon)
        if self.Ny is None:
            object.__setattr__(self, "Ny", max(4 * self.K, 64))
        check_integer("Ny", self.Ny, 1)
        if self.Ny < 4 * self.K:
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


def eigenvalues(modes: np.ndarray) -> np.ndarray:
    """Dirichlet eigenvalues k^2 of -d^2/dy^2 on (0, pi), one for each mode
    number k in modes."""
    return np.asarray(modes, dtype=float) ** 2


def _sine_table(modes: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sin(k y) for each mode number k on the nodes y, as a (len(modes),
    len(y)) table."""
    return np.sin(np.outer(np.asarray(modes, dtype=float), y))


def sine_coeffs(v: np.ndarray, K: int, y: np.ndarray) -> np.ndarray:
    """Coefficients of sin(k y), k = 1..K: (2/pi) * int_0^pi v(y) sin(k y) dy,
    trapezoidal."""
    v = np.asarray(v, dtype=float)
    return 2.0 / np.pi * np.trapezoid(v * _sine_table(np.arange(1, K + 1), y), y, axis=-1)


def synthesize(coeffs: np.ndarray, y: np.ndarray, modes: np.ndarray) -> np.ndarray:
    """Partial sum sum_i coeffs[i] * sin(modes[i] y) on the given nodes;
    coeffs of shape (E, ...) give a result of shape (..., len(y)).  Not a
    mode_sum but a matrix product with the sine table: 3 ms against 25 ms
    for a row loop on the README config's u_synth.csv (16 rows, 2 cores);
    its grouping moves last bits only."""
    coeffs = np.asarray(coeffs, dtype=float)
    table = _sine_table(modes, np.asarray(y, dtype=float))
    return np.tensordot(coeffs, table, axes=(0, 0))


@dataclass(frozen=True)
class OmegaData:
    """The measurement weight as its K sine coefficients omega_k, from which
    the measurement, the couplings and the certificate's ||omega''|| derive."""

    omega_coeffs: np.ndarray = field(repr=False)

    @property
    def K(self) -> int:
        return len(self.omega_coeffs)

    @property
    def couplings(self) -> np.ndarray:
        """c_j = (sin(j y), omega'') = -lambda_j (pi/2) omega_j, j = 1..K,
        by parts, since omega vanishes at both ends."""
        return -eigenvalues(np.arange(1, self.K + 1)) * (np.pi / 2.0) * self.omega_coeffs

    @property
    def omega_dd_l2(self) -> float:
        """||omega''|| in L2(0, pi) of omega's K-term sine series, by Parseval:
        exact for a weight of at most K sine modes, below the continuous norm
        otherwise, and sharp for c_j = (sin(j y), P_K omega''), j <= K."""
        lam = eigenvalues(np.arange(1, self.K + 1))
        return float(np.sqrt(np.pi / 2.0 * np.sum((lam * self.omega_coeffs) ** 2)))

    def measure(self, stack: np.ndarray, modes: np.ndarray) -> np.ndarray:
        """The integral measurement (pi/2) sum_i omega_{k_i} v_i of a stack of
        mode rows v_i along the leading axis, row i holding mode k_i =
        modes[i]: a mode_sum, so zero rows do not change a bit."""
        return (np.pi / 2.0) * mode_sum(stack, self.omega_coeffs[np.asarray(modes) - 1])

    @classmethod
    def from_profiles(cls, y: np.ndarray, omega: np.ndarray, K: int) -> "OmegaData":
        """Build from omega sampled on the nodes y: its first K sine
        coefficients.  omega must vanish at both ends, relative to
        max|omega|, for the couplings' integration by parts to hold."""
        y = np.asarray(y, dtype=float)
        omega = np.asarray(omega, dtype=float)
        scale = float(np.max(np.abs(omega)))
        if abs(omega[0]) > OMEGA_BOUNDARY_TOL * scale or abs(omega[-1]) > OMEGA_BOUNDARY_TOL * scale:
            raise DataError(f"omega must vanish at y=0 and y=pi, got {omega[0]:.3e}, {omega[-1]:.3e}")
        return cls(sine_coeffs(omega, K, y))


@dataclass(frozen=True)
class ModeFieldSet:
    """Stack of mode fields u_k(t, x) sharing one grid; row i holds mode
    modes[i], and every mode the stack does not hold is zero.  modes lists
    the rows' mode numbers in ascending order: 1..K for the dense stack,
    some of them for a compact one, none for the empty stack (empty()), the
    zero field.  row(k) is one mode's row, rows() aligns a stack to other mode
    numbers, and full() gives the dense (K, Nt+1, Nx+2) stack.

    The values are checked finite unless check_finite is False, which is for
    a stack its producer has just checked (march_modes scans its output, and
    read_modes_csv's reader each row).
    """

    grid: Grid
    params: SpectralParams
    values: np.ndarray = field(repr=False)  # shape (len(modes), Nt+1, Nx+2)
    modes: np.ndarray = field(repr=False)
    check_finite: InitVar[bool] = True

    def __post_init__(self, check_finite: bool):
        v = np.asarray(self.values, dtype=float)
        K = self.params.K
        modes = np.asarray(self.modes)
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

    def row(self, k: int) -> np.ndarray | float:
        """Mode k's row, or 0.0 when the stack does not hold it."""
        i = int(np.searchsorted(self.modes, k))
        return self.values[i] if i < len(self.modes) and self.modes[i] == k else 0.0

    def synthesize_y(self, y: np.ndarray, level: int) -> np.ndarray:
        """Sample u(t, x, y) = sum_k u_k(t, x) sin(k y) at one time level on
        the given y nodes: the (Nx+2, len(y)) slice."""
        return synthesize(self.values[:, level], y, self.modes)


def mode_sum(terms: np.ndarray, weights: np.ndarray | None = None, power: float = 1.0):
    """sum_k weights_k^power * terms_k over a stack's rows, each a number or
    an array, added in ascending k (the plain sum when weights is None): every
    sum over mode rows but synthesize's.  A zero row is skipped, so its weight
    is never formed (no inf * 0 = NaN) and a compact stack gives the bits of
    its full() stack.  Each weight is a numpy scalar power: the vectorised
    power may differ in the last bit.  A float for rows of numbers, else an
    array of the row shape."""
    total = np.zeros(np.shape(terms)[1:])
    for k, row in enumerate(terms):
        if np.any(row):
            total += row if weights is None else weights[k] ** power * row
    return total if total.ndim else float(total)


def F_functional(new: ModeFieldSet, old: ModeFieldSet) -> float:
    """Contraction energy of the difference w = new - old: sum_k
    lambda_k^{2 tau1} [ ||D_t w_k||^2_{GT} + sup_t ||grad w_k||^2_G
    + lambda_k sup_t ||w_k||^2_G ] over new's rows, in ascending k.  A mode
    old does not hold is zero there, so F_functional(u, ModeFieldSet.empty(
    u.grid, u.params)) is the energy of u; a mode of old that new lacks is a
    DataError.  Each row's difference goes into one reused row buffer and
    its derivatives into another, so no stack is built.  A zero row adds
    exactly 0, so a compact stack gives the bits of its full() stack."""
    extra = sorted(set(old.modes.tolist()) - set(new.modes.tolist()))
    if extra:
        raise DataError(f"old holds mode rows {extra} that new ({new.modes}) does not")
    grid, lam = new.grid, new.eigenvalues
    w, buf = np.empty(grid.field_shape), np.empty(grid.field_shape)
    terms = np.empty(len(lam))
    for i, (k, row) in enumerate(zip(new.modes, new.values)):
        np.subtract(row, old.row(k), out=w)
        dt_term = l2_sq_GT(diff(w, grid.dt, axis=0, out=buf), grid)
        grad_term = np.max(l2_sq_G(diff(w, grid.hx, axis=-1, out=buf), grid))
        terms[i] = dt_term + grad_term + lam[i] * np.max(l2_sq_G(w, grid))
    return mode_sum(terms, lam, 2.0 * new.params.tau1)
