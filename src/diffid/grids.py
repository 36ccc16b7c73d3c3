"""Uniform space-time grids, fields, quadrature, and finite differences.

The spatial domain is an interval (0, Lx) or a rectangle (0, Lx) x (0, Ly);
grids are uniform tensor products with boundary nodes stored explicitly so
homogeneous Dirichlet conditions can be enforced and checked.  All integrals
are composite trapezoidal, consistent with the second-order difference
stencils used everywhere else.

Batch axes: the quadrature and stencil functions act on the trailing space
axes (one in 1-d, two in 2-d) and treat every leading axis as a batch axis,
so a mode stack (K, Nt+1, <space>) goes through one call.  l2_sq_GT also
takes the axis just before the space axes as time.  Each batched result is
bitwise equal to the per-slice one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class Domain:
    """Space-time box: (0, Lx) [x (0, Ly)] in space, (0, T) in time."""

    lengths: tuple[float, ...]
    T: float

    def __post_init__(self):
        if len(self.lengths) not in (1, 2):
            raise ConfigurationError(f"domain must be 1- or 2-dimensional, got {len(self.lengths)} lengths")
        if any(L <= 0 for L in self.lengths):
            raise ConfigurationError(f"domain lengths must be positive, got {self.lengths}")
        if self.T <= 0:
            raise ConfigurationError(f"final time must be positive, got {self.T}")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def Lx(self) -> float:
        return self.lengths[0]

    @property
    def Ly(self) -> float:
        if self.dim < 2:
            raise ConfigurationError("Ly requested for a 1-d domain")
        return self.lengths[1]


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid with Nx (and Ny) interior nodes and Nt time steps.

    Spatial node i sits at i*hx for i = 0..Nx+1, so hx = Lx/(Nx+1); time node
    n sits at n*dt for n = 0..Nt with dt = T/Nt.
    """

    domain: Domain
    Nx: int
    Nt: int
    Ny: int | None = None

    def __post_init__(self):
        if self.Nx < 2 or self.Nt < 2:
            raise ConfigurationError(f"node/step counts must be >= 2, got Nx={self.Nx}, Nt={self.Nt}")
        if self.domain.dim == 2:
            if self.Ny is None or self.Ny < 2:
                raise ConfigurationError(f"2-d grid needs Ny >= 2, got {self.Ny}")
        elif self.Ny is not None:
            raise ConfigurationError("Ny given for a 1-d domain")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def hx(self) -> float:
        return self.domain.Lx / (self.Nx + 1)

    @property
    def hy(self) -> float:
        return self.domain.Ly / (self.Ny + 1)

    @property
    def dt(self) -> float:
        return self.domain.T / self.Nt

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.domain.Lx, self.Nx + 2)

    @property
    def y(self) -> np.ndarray:
        if self.dim < 2:
            raise ConfigurationError("y nodes requested for a 1-d grid")
        return np.linspace(0.0, self.domain.Ly, self.Ny + 2)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.domain.T, self.Nt + 1)

    @property
    def space_shape(self) -> tuple[int, ...]:
        if self.dim == 1:
            return (self.Nx + 2,)
        return (self.Nx + 2, self.Ny + 2)

    @property
    def field_shape(self) -> tuple[int, ...]:
        return (self.Nt + 1,) + self.space_shape


def build_grid(domain: Domain, Nx: int, Nt: int, Ny: int | None = None) -> Grid:
    """Build a uniform grid; counts below 2 are configuration errors."""
    return Grid(domain=domain, Nx=Nx, Nt=Nt, Ny=Ny)


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
        """Evaluate fn(t, x[, y]) on the tensor grid."""
        if grid.dim == 1:
            tt, xx = np.meshgrid(grid.t, grid.x, indexing="ij")
            return cls(grid, fn(tt, xx))
        tt, xx, yy = np.meshgrid(grid.t, grid.x, grid.y, indexing="ij")
        return cls(grid, fn(tt, xx, yy))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.field_shape))


def _check_space_axes(v: np.ndarray, grid: Grid) -> None:
    if v.shape[v.ndim - grid.dim:] != grid.space_shape:
        raise DataError(f"trailing axes of shape {v.shape} do not match grid space shape {grid.space_shape}")


def integrate_G(values: np.ndarray, grid: Grid):
    """Composite trapezoidal integral over G of the trailing space axes: a
    float for one slice, an array over the leading axes for a batch."""
    v = np.asarray(values, dtype=float)
    _check_space_axes(v, grid)
    if grid.dim == 2:
        v = np.trapezoid(v, dx=grid.hy, axis=-1)
    out = np.trapezoid(v, dx=grid.hx, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def l2_norm_G(slice_values: np.ndarray, grid: Grid) -> float:
    """L2(G) norm of a space slice."""
    return float(np.sqrt(integrate_G(np.asarray(slice_values) ** 2, grid)))


def l2_norm_GT(fld: ScalarField) -> float:
    """L2(G_T) norm, trapezoidal in time as well."""
    return float(np.sqrt(l2_sq_GT(fld.values, fld.grid)))


def l2_sq_GT(values: np.ndarray, grid: Grid, grad: bool = False):
    """Squared L2 norm over the space-time cylinder of v, or of |grad_x v|
    with grad=True; values are (..., Nt+1, <space>), trapezoidal in time."""
    v = np.asarray(values, dtype=float)
    per_t = integrate_G(grad_sq(v, grid) if grad else v**2, grid)
    out = np.trapezoid(per_t, dx=grid.dt, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def grad_x(values: np.ndarray, grid: Grid) -> tuple[np.ndarray, ...]:
    """Spatial gradient over the trailing space axes: second-order central in
    the interior, one-sided second-order at boundary nodes.  Returns one
    array per space axis."""
    v = np.asarray(values, dtype=float)
    if grid.dim == 1:
        return (np.gradient(v, grid.hx, axis=-1, edge_order=2),)
    return (
        np.gradient(v, grid.hx, axis=-2, edge_order=2),
        np.gradient(v, grid.hy, axis=-1, edge_order=2),
    )


def grad_sq(values: np.ndarray, grid: Grid) -> np.ndarray:
    """|grad v|^2 pointwise over the trailing space axes."""
    parts = grad_x(values, grid)
    out = parts[0] ** 2
    for p in parts[1:]:
        out = out + p**2
    return out


def dt_derivative(fld: ScalarField) -> ScalarField:
    """Time derivative along axis 0, forward/backward second-order at the ends."""
    dv = np.gradient(fld.values, fld.grid.dt, axis=0, edge_order=2)
    return ScalarField(fld.grid, dv)


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
    """Spatial Laplacian over the trailing space axes via second differences."""
    v = np.asarray(values, dtype=float)
    _check_space_axes(v, grid)
    out = _second_derivative(v, grid.hx, axis=-grid.dim)
    if grid.dim == 2:
        out = out + _second_derivative(v, grid.hy, axis=-1)
    return out


def interior_margin_mask(grid: Grid, margin: int) -> np.ndarray:
    """Boolean mask over space nodes at distance >= margin cells from the boundary."""
    if margin < 0:
        raise ConfigurationError(f"margin must be nonnegative, got {margin}")
    mask = np.zeros(grid.space_shape, dtype=bool)
    hi_x = grid.Nx + 2 - margin
    if margin >= hi_x:
        raise ConfigurationError(f"margin {margin} leaves no interior nodes on the x axis")
    if grid.dim == 1:
        mask[margin:hi_x] = True
        return mask
    hi_y = grid.Ny + 2 - margin
    if margin >= hi_y:
        raise ConfigurationError(f"margin {margin} leaves no interior nodes on the y axis")
    mask[margin:hi_x, margin:hi_y] = True
    return mask
