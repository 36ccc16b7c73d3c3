"""Batched symmetric tridiagonal solve by parallel cyclic reduction (Hockney, 1965).

Storage convention, one coupling on both sides of the diagonal:
    diag = [a_0, ..., a_{n-1}]
    off  = [b_1, ..., b_{n-1}]   (A[i, i-1] = A[i-1, i] = b_i)
The known-reaction theta step's operator -d^2/dx^2 + k^2 + a is self-adjoint,
and on the uniform grid its coupling is the one number -theta dt/hx^2.

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


def solve_in_place(off: float | np.ndarray, diag: np.ndarray, rhs: np.ndarray) -> None:
    """Overwrite rhs with the solution x of the symmetric systems (off, diag,
    off) x = rhs.  diag and rhs are float arrays of the batch's full shape
    (..., n), and diag is overwritten too; off, a number or an array of the
    n - 1 couplings, broadcasts against them."""
    shape, n = rhs.shape, rhs.shape[-1]
    # row i reads diag_i x_i - lo_i x_{i-s} - up_i x_{i+s} = rhs_i, a missing
    # neighbour having a zero coupling; the reduction makes lo and up differ
    lo = np.zeros(shape)
    np.negative(off, out=lo[..., 1:])
    up = np.zeros(shape)
    np.negative(off, out=up[..., :-1])
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
