"""Uniform space-time grids, fields, quadrature, and finite differences.

The spatial domain is the interval (0, Lx); grids are uniform in x and t
with boundary nodes stored explicitly so homogeneous Dirichlet conditions
can be enforced and checked.  All integrals are composite trapezoidal,
consistent with the second-order difference stencils used everywhere else.

Batch axes: the quadrature and stencil functions act on the trailing space
axis and treat every leading axis as a batch axis, so a mode stack
(K, Nt+1, Nx+2) goes through one call.  l2_sq_GT also takes the axis just
before the space axis as time.  Each batched result is bitwise equal to the
per-slice one.

Two kernels carry every norm: diff, the second-order difference along any
axis (into a caller's buffer when one is given), and l2_sq_G, the squared
L2(G) norm of each space slice, which never forms v**2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class Domain:
    """Space-time box: (0, Lx) in space, (0, T) in time; lengths is (Lx,)."""

    lengths: tuple[float, ...]
    T: float

    def __post_init__(self):
        if len(self.lengths) != 1:
            raise ConfigurationError(f"domain must be 1-dimensional, got {len(self.lengths)} lengths")
        if any(L <= 0 for L in self.lengths):
            raise ConfigurationError(f"domain lengths must be positive, got {self.lengths}")
        if self.T <= 0:
            raise ConfigurationError(f"final time must be positive, got {self.T}")

    @property
    def Lx(self) -> float:
        return self.lengths[0]


@dataclass(frozen=True)
class Grid:
    """Uniform grid with Nx interior nodes and Nt time steps.

    Spatial node i sits at i*hx for i = 0..Nx+1, so hx = Lx/(Nx+1); time node
    n sits at n*dt for n = 0..Nt with dt = T/Nt.
    """

    domain: Domain
    Nx: int
    Nt: int

    def __post_init__(self):
        if self.Nx < 2 or self.Nt < 2:
            raise ConfigurationError(f"node/step counts must be >= 2, got Nx={self.Nx}, Nt={self.Nt}")

    @property
    def hx(self) -> float:
        return self.domain.Lx / (self.Nx + 1)

    @property
    def dt(self) -> float:
        return self.domain.T / self.Nt

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.domain.Lx, self.Nx + 2)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.domain.T, self.Nt + 1)

    @property
    def space_shape(self) -> tuple[int, ...]:
        return (self.Nx + 2,)

    @property
    def field_shape(self) -> tuple[int, ...]:
        return (self.Nt + 1,) + self.space_shape


def build_grid(domain: Domain, Nx: int, Nt: int) -> Grid:
    """Build a uniform grid; counts below 2 are configuration errors."""
    return Grid(domain=domain, Nx=Nx, Nt=Nt)


@dataclass(frozen=True)
class ScalarField:
    """A function of (t, x) on the grid, boundary values stored explicitly."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != self.grid.field_shape:
            raise DataError(f"field shape {v.shape} does not match grid shape {self.grid.field_shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("field contains non-finite values")
        object.__setattr__(self, "values", v)

    @classmethod
    def from_function(cls, grid: Grid, fn) -> "ScalarField":
        """Evaluate fn(t, x) on the tensor grid."""
        tt, xx = np.meshgrid(grid.t, grid.x, indexing="ij")
        return cls(grid, fn(tt, xx))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.field_shape))


def _check_space_axes(v: np.ndarray, grid: Grid) -> None:
    if v.shape[-1:] != grid.space_shape:
        raise DataError(f"trailing axis of shape {v.shape} does not match grid space shape {grid.space_shape}")


def l2_sq_G(values: np.ndarray, grid: Grid):
    """Squared L2(G) norm of each space slice: the trapezoid over G of v**2,
    computed as the dot product of the interior nodes plus half of the two
    end squares, so v**2 is never formed and no term cancels (an overflow
    reads inf, never nan).  It equals np.trapezoid(v**2, dx=hx) within
    1e-14 relative."""
    v = np.asarray(values, dtype=float)
    _check_space_axes(v, grid)
    inner = v[..., 1:-1]
    ends = v[..., 0] * v[..., 0] + v[..., -1] * v[..., -1]
    out = (np.einsum("...i,...i->...", inner, inner) + 0.5 * ends) * grid.hx
    return float(out) if np.ndim(out) == 0 else out


def l2_norm_G(slice_values: np.ndarray, grid: Grid) -> float:
    """L2(G) norm of a space slice."""
    return float(np.sqrt(l2_sq_G(slice_values, grid)))


def l2_norm_GT(fld: ScalarField) -> float:
    """L2(G_T) norm, trapezoidal in time as well."""
    return float(np.sqrt(l2_sq_GT(fld.values, fld.grid)))


def l2_sq_GT(values: np.ndarray, grid: Grid, grad: bool = False):
    """Squared L2 norm over the space-time cylinder of v, or of |grad_x v|
    with grad=True; values are (..., Nt+1, Nx+2), trapezoidal in time."""
    v = np.asarray(values, dtype=float)
    per_t = l2_sq_G(grad_x(v, grid) if grad else v, grid)
    out = np.trapezoid(per_t, dx=grid.dt, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def diff(values: np.ndarray, h: float, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """First derivative along one axis with step h: second-order central inside,
    one-sided second-order at the two end nodes.  Bitwise equal to
    np.gradient(values, h, axis=axis, edge_order=2); out, when given, is a
    float array of the values' shape that receives the result."""
    f = np.asarray(values, dtype=float)
    if out is None:
        out = np.empty_like(f)
    f0, o = np.moveaxis(f, axis, 0), np.moveaxis(out, axis, 0)
    np.subtract(f0[2:], f0[:-2], out=o[1:-1])
    o[1:-1] /= 2.0 * h
    first, last = o[0, ...], o[-1, ...]  # views, also for 1-d values
    np.multiply(f0[0], -1.5 / h, out=first)
    first += (2.0 / h) * f0[1]
    first += (-0.5 / h) * f0[2]
    np.multiply(f0[-3], 0.5 / h, out=last)
    last += (-2.0 / h) * f0[-2]
    last += (1.5 / h) * f0[-1]
    return out


def grad_x(values: np.ndarray, grid: Grid) -> np.ndarray:
    """d/dx along the trailing space axis: second-order central in the
    interior, one-sided second-order at boundary nodes."""
    return diff(values, grid.hx, axis=-1)


def _second_derivative(v: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second derivative along one axis: central inside, one-sided second-order
    (exact for cubics) at the two boundary nodes."""
    v = np.moveaxis(np.asarray(v, dtype=float), axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


def laplacian_x(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Spatial Laplacian along the trailing space axis via second differences."""
    v = np.asarray(values, dtype=float)
    _check_space_axes(v, grid)
    return _second_derivative(v, grid.hx, axis=-1)


def interior_margin_mask(grid: Grid, margin: int) -> np.ndarray:
    """Boolean mask over space nodes at distance >= margin cells from the boundary."""
    if margin < 0:
        raise ConfigurationError(f"margin must be nonnegative, got {margin}")
    mask = np.zeros(grid.space_shape, dtype=bool)
    hi_x = grid.Nx + 2 - margin
    if margin >= hi_x:
        raise ConfigurationError(f"margin {margin} leaves no interior nodes on the x axis")
    mask[margin:hi_x] = True
    return mask
