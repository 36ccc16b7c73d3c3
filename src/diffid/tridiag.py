"""Batched tridiagonal solve by parallel cyclic reduction (Hockney, 1965).

Storage convention:
    lower = [b_1, ..., b_{n-1}]   (sub-diagonal)
    diag  = [a_0, ..., a_{n-1}]
    upper = [c_0, ..., c_{n-2}]   (super-diagonal)

Batch axes: each system lies along the trailing axis and every leading axis
is a batch axis.  Every lane goes through the same elementwise operations
in the same order as a lone system, so a batched solve is bitwise equal to
the per-system ones.

A pass at stride s = 1, 2, 4, ... lets every row i eliminate its couplings
to rows i-s and i+s with those two rows, which leaves it coupled to rows
i-2s and i+2s.  Once s reaches n no row has a neighbour left, so after
ceil(log2 n) passes each unknown is its right-hand side over its diagonal.
A pass is a dozen vectorised operations over all rows of every system, with
no loop over the rows.  The solve works in place: its memory is six arrays
the size of the batch, and nothing is factored ahead or kept between calls.
No pivoting, which suits the diagonally dominant matrices of implicit
diffusion steps, for which the reduction is stable and the couplings shrink
pass by pass; a zero pivot surfaces as inf/nan in the solution.
"""

from __future__ import annotations

import numpy as np


def solve_in_place(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                   rhs: np.ndarray) -> None:
    """Overwrite rhs with the solution x of the systems (lower, diag, upper)
    x = rhs.  diag and rhs are float arrays of the batch's full shape
    (..., n), and diag is overwritten too; lower and upper broadcast
    against them."""
    shape, n = rhs.shape, rhs.shape[-1]
    # row i reads diag_i x_i - lo_i x_{i-s} - up_i x_{i+s} = rhs_i, a missing
    # neighbour having a zero coupling
    lo = np.zeros(shape)
    np.negative(lower, out=lo[..., 1:])
    up = np.zeros(shape)
    np.negative(upper, out=up[..., :-1])
    alpha, gamma, work, work2 = (np.empty(shape) for _ in range(4))
    s = 1
    while s < n:
        # pass buffers, n-s long: row i >= s takes alpha times row i-s, and
        # row i < n-s takes gamma times row i+s
        al, ga, w, w2 = alpha[..., s:], gamma[..., s:], work[..., s:], work2[..., s:]
        np.divide(lo[..., s:], diag[..., :-s], out=al)
        np.divide(up[..., :-s], diag[..., s:], out=ga)
        diag[..., s:] -= np.multiply(al, up[..., :-s], out=w)
        diag[..., :-s] -= np.multiply(ga, lo[..., s:], out=w)
        np.multiply(al, rhs[..., :-s], out=w)
        np.multiply(ga, rhs[..., s:], out=w2)
        rhs[..., s:] += w
        rhs[..., :-s] += w2
        if 2 * s < n:   # else the new couplings, to rows i -+ 2s, are all absent
            lo[..., s:] = np.multiply(al, lo[..., :-s], out=w)
            up[..., :-s] = np.multiply(ga, up[..., s:], out=w)
        s *= 2
    rhs /= diag
