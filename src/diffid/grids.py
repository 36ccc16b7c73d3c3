"""Uniform space-time grids, fields, quadrature, and finite differences.

Grid(Lx, T, Nx, Nt) covers the cylinder (0, T) x G, G = (0, Lx), uniform in
x and t with boundary nodes stored explicitly so homogeneous Dirichlet
conditions can be enforced and checked; Grid.interior(margin) alone turns a
boundary margin into x-nodes.  All integrals are composite trapezoidal,
consistent with the second-order difference stencils used everywhere else.

Four kernels carry every derivative and norm: diff, the first derivative
along any axis (into a caller's C-contiguous buffer when one is given), and
diff2, the second derivative along x, each one flat pass over the values,
and two squared L2 norms, l2_sq_G of each space slice, which never forms
v**2, and l2_sq_GT over the space-time cylinder.  Each acts on its axes and
treats every other axis as a batch axis, so a mode stack (K, Nt+1, Nx+2)
goes through one call, and each batched result is bitwise equal to the
per-slice one.  A gradient norm is the norm of diff(v, grid.hx, axis=-1),
and a norm is the square root of its square.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError, check_integer, check_positive


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0, T) x (0, Lx) with Nx interior nodes and Nt time steps.

    Spatial node i sits at i*hx for i = 0..Nx+1, so hx = Lx/(Nx+1); time node
    n sits at n*dt for n = 0..Nt with dt = T/Nt.
    """

    Lx: float
    T: float
    Nx: int
    Nt: int

    def __post_init__(self):
        check_positive("Lx", self.Lx)
        check_positive("T", self.T)
        check_integer("Nx", self.Nx, 2)
        check_integer("Nt", self.Nt, 2)

    @property
    def hx(self) -> float:
        return self.Lx / (self.Nx + 1)

    @property
    def dt(self) -> float:
        return self.T / self.Nt

    @property
    def x(self) -> np.ndarray:
        return np.linspace(0.0, self.Lx, self.Nx + 2)

    @property
    def t(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.Nt + 1)

    @property
    def field_shape(self) -> tuple[int, int]:
        return (self.Nt + 1, self.Nx + 2)

    def interior(self, margin: int) -> slice:
        """The x-nodes at least margin cells from both ends of G; a margin
        must leave one, so it lies in [0, (Nx + 1) // 2]."""
        largest = (self.Nx + 1) // 2
        if not 0 <= margin <= largest:
            raise ConfigurationError(
                f"certify.boundary_margin = {margin} leaves no x-node on a grid with "
                f"Nx = {self.Nx}; it must lie in [0, {largest}]")
        return slice(margin, self.Nx + 2 - margin)


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


def l2_sq_G(values: np.ndarray, grid: Grid):
    """Squared L2(G) norm of each space slice: the trapezoid over G of v**2,
    computed as the dot product of the interior nodes plus half of the two
    end squares, so v**2 is never formed and no term cancels (an overflow
    reads inf, never nan).  It equals np.trapezoid(v**2, dx=hx) within
    1e-14 relative."""
    v = np.asarray(values, dtype=float)
    if v.shape[-1:] != (grid.Nx + 2,):
        raise DataError(f"shape {v.shape} does not end in the grid's {grid.Nx + 2} x-nodes")
    inner = v[..., 1:-1]
    ends = v[..., 0] * v[..., 0] + v[..., -1] * v[..., -1]
    out = (np.einsum("...i,...i->...", inner, inner) + 0.5 * ends) * grid.hx
    return float(out) if np.ndim(out) == 0 else out


def l2_sq_GT(values: np.ndarray, grid: Grid):
    """Squared L2 norm over the space-time cylinder of each (Nt+1, Nx+2)
    block of the (..., Nt+1, Nx+2) values: l2_sq_G of each time level,
    trapezoidal in time."""
    per_t = l2_sq_G(values, grid)
    out = np.trapezoid(per_t, dx=grid.dt, axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def diff(values: np.ndarray, h: float, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """First derivative along one axis with step h, bitwise equal to
    np.gradient(values, h, axis=axis, edge_order=2): one flat pass over the
    C-contiguous values takes the central differences at offsets +-S, S the
    product of the axes after axis, and the one-sided end formulas then
    overwrite the first and last slice along the axis, cross-row values
    included.  out, when given, must be a C-contiguous float array of the
    values' shape (ValueError otherwise: its reshape could be a copy)."""
    f = np.ascontiguousarray(values, dtype=float)
    out = np.empty_like(f) if out is None else out
    if out.shape != f.shape or not out.flags.c_contiguous:
        raise ValueError(f"diff: out must be a C-contiguous array of shape {f.shape}")
    n, S = f.shape[axis], np.prod(f.shape[axis:][1:], dtype=int)  # IndexError for an axis f lacks
    flat, inside = f.reshape(-1), out.reshape(-1)[S:f.size - S]
    np.subtract(flat[2 * S:], flat[:f.size - 2 * S], out=inside)
    inside /= 2.0 * h
    f, out3 = f.reshape(-1, n, S), out.reshape(-1, n, S)
    first, last = out3[:, 0], out3[:, -1]
    np.multiply(f[:, 0], -1.5 / h, out=first)
    first += (2.0 / h) * f[:, 1]
    first += (-0.5 / h) * f[:, 2]
    np.multiply(f[:, -3], 0.5 / h, out=last)
    last += (-2.0 / h) * f[:, -2]
    last += (1.5 / h) * f[:, -1]
    return out


def diff2(v: np.ndarray, h: float) -> np.ndarray:
    """Second derivative along x, the last axis, with step h, in one flat pass
    as diff: central inside, one-sided second-order (exact for cubics) at the
    two end nodes; the central formula is staged in the output."""
    v = np.ascontiguousarray(v, dtype=float)
    out, flat = np.empty_like(v), v.reshape(-1)
    inner = np.multiply(flat[1:-1], -2.0, out=out.reshape(-1)[1:-1])
    inner += flat[:-2]
    inner += flat[2:]
    inner /= h**2
    v, out2 = v.reshape(-1, v.shape[-1]), out.reshape(-1, v.shape[-1])
    out2[:, 0] = (2.0 * v[:, 0] - 5.0 * v[:, 1] + 4.0 * v[:, 2] - v[:, 3]) / h**2
    out2[:, -1] = (2.0 * v[:, -1] - 5.0 * v[:, -2] + 4.0 * v[:, -3] - v[:, -4]) / h**2
    return out
