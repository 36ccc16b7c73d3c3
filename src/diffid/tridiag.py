"""Tridiagonal direct solve (Thomas algorithm), O(n) per system.

Storage convention:
    lower = [b_1, ..., b_{n-1}]   (sub-diagonal)
    diag  = [a_0, ..., a_{n-1}]
    upper = [c_0, ..., c_{n-2}]   (super-diagonal)

Batch axes: each system lies along the trailing axis and every leading axis
is a batch axis, broadcast between the arguments.  Every lane goes through
the same operations in the same order as a lone system, so a batched solve
is bitwise equal to the per-system ones.  thomas_factor does the part of the
elimination that depends on the matrix alone: a march whose matrices are
known up front factors them once and then only substitutes.
"""

from __future__ import annotations

import numpy as np


def _rows(a: np.ndarray) -> np.ndarray:
    """(..., n) as an (n, ..., 1) view, row i holding entry i of every system;
    the unit axis keeps each row an array, so in-place updates write through."""
    return np.moveaxis(np.asarray(a, dtype=float), -1, 0)[..., None]


def thomas_factor(lower: np.ndarray, diag: np.ndarray,
                  upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elimination factors (cp, m), shaped (..., n-1) and (..., n): pivots
    m_0 = a_0, m_i = a_i - b_i cp_{i-1}, and cp_i = c_i / m_i.

    No pivoting, which suits the diagonally dominant matrices of implicit
    diffusion steps; a zero pivot surfaces as inf/nan in the solution.
    """
    b, a, c = _rows(lower), _rows(diag), _rows(upper)
    # system-major work arrays, walked through lists of row views (cheaper to index)
    m = np.empty((len(a),) + np.broadcast_shapes(b.shape[1:], a.shape[1:], c.shape[1:]))
    m[:] = a
    cp = np.empty((len(a) - 1,) + m.shape[1:])
    ms, cps = list(m), list(cp)
    for i in range(len(a) - 1):
        np.divide(c[i], ms[i], out=cps[i])
        ms[i + 1] -= b[i] * cps[i]
    return np.moveaxis(cp[..., 0], 0, -1), np.moveaxis(m[..., 0], 0, -1)


def thomas_substitute(lower: np.ndarray, cp: np.ndarray, m: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Solve the factored systems for rhs (..., n)."""
    b, cp, m, d = _rows(lower), _rows(cp), _rows(m), _rows(rhs)
    x = np.empty((len(m),) + np.broadcast_shapes(b.shape[1:], cp.shape[1:], m.shape[1:],
                                                  d.shape[1:]))
    x[:] = d
    xs, b, cp, m = list(x), list(b), list(cp), list(m)
    xs[0] /= m[0]
    for i in range(1, len(m)):
        xs[i] -= b[i - 1] * xs[i - 1]
        xs[i] /= m[i]
    for i in range(len(m) - 2, -1, -1):
        xs[i] -= cp[i] * xs[i + 1]
    return np.moveaxis(x[..., 0], 0, -1)


def thomas_solve(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal systems A x = rhs by LU sweep without pivoting."""
    return thomas_substitute(lower, *thomas_factor(lower, diag, upper), rhs)
