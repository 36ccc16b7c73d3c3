import numpy as np
import pytest

from diffid.tridiag import solve_in_place


def solve(off, diag, rhs):
    shape = np.broadcast_shapes(np.shape(diag), np.shape(rhs))
    diag = np.array(np.broadcast_to(diag, shape), dtype=float)
    x = np.array(np.broadcast_to(rhs, shape), dtype=float)
    solve_in_place(off, diag, x)
    return x


def dense(off, diag):
    off = np.broadcast_to(off, len(diag) - 1)
    return np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)


def symmetric_system(rng, shape):
    """Random couplings of the trailing axis and a diagonal that dominates
    them: |diag_i| > |off_{i-1}| + |off_i|, like an implicit diffusion step."""
    off = rng.standard_normal(shape[:-1] + (shape[-1] - 1,))
    diag = 2.0 * np.max(np.abs(off), initial=0.0) + 1.0 + rng.random(shape)
    return off, diag


@pytest.mark.parametrize("n", [2, 3, 4, 17, 128, 129, 200])
def test_solve_matches_dense_solve(n):
    rng = np.random.default_rng(42 + n)
    off, diag = symmetric_system(rng, (n,))
    rhs = rng.standard_normal(n)
    x = solve(off, diag, rhs)
    expected = np.linalg.solve(dense(off, diag), rhs)
    assert np.max(np.abs(x - expected)) < 1e-12


def test_solve_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    assert np.array_equal(solve(0.0, np.ones(3), rhs), rhs)
    assert np.array_equal(solve(np.zeros(2), np.ones(3), rhs), rhs)


def test_solve_batch_equals_per_system_solves():
    rng = np.random.default_rng(7)
    B, n = 6, 33
    off, diag = symmetric_system(rng, (B, n))
    rhs = rng.standard_normal((B, n))
    x = solve(off, diag, rhs)
    assert x.shape == (B, n)
    for i in range(B):
        assert x[i].tobytes() == solve(off[i], diag[i], rhs[i]).tobytes()
        expected = np.linalg.solve(dense(off[i], diag[i]), rhs[i])
        assert np.max(np.abs(x[i] - expected)) < 1e-12
    # couplings shared by the whole batch broadcast against it
    x = solve(off[0], diag, rhs)
    for i in range(B):
        assert x[i].tobytes() == solve(off[0], diag[i], rhs[i]).tobytes()
        expected = np.linalg.solve(dense(off[0], diag[i]), rhs[i])
        assert np.max(np.abs(x[i] - expected)) < 1e-12


@pytest.mark.parametrize("shape", [(2,), (17,), (4, 129), (3, 2, 64)])
def test_scalar_off_gives_the_bits_of_its_array(shape):
    # the theta step passes its one coupling -theta dt/hx^2 as a number
    rng = np.random.default_rng(11)
    c = -0.5 * rng.random()
    diag = 1.0 + 2.0 * abs(c) + rng.random(shape)
    rhs = rng.standard_normal(shape)
    x = solve(c, diag, rhs)
    assert x.tobytes() == solve(np.full(shape[-1] - 1, c), diag, rhs).tobytes()
    assert x.tobytes() == solve(np.full(shape[:-1] + (shape[-1] - 1,), c), diag, rhs).tobytes()


def test_solve_in_place_writes_its_arguments_only():
    # the solution lands in rhs, which may be a strided view, and only diag
    # is also overwritten
    rng = np.random.default_rng(3)
    K, n = 4, 9
    off = np.full(n - 1, -0.5)
    diag = 3.0 + rng.random((K, n))
    stack = rng.standard_normal((K, 3, n + 2))
    x = stack[:, 1, 1:-1]
    expected = [np.linalg.solve(dense(off, diag[k]), x[k]) for k in range(K)]
    before = stack.copy()
    solve_in_place(off, diag.copy(), x)
    assert np.max(np.abs(x - np.array(expected))) < 1e-14
    assert np.array_equal(stack[:, [0, 2]], before[:, [0, 2]])
    assert np.array_equal(stack[:, 1, [0, -1]], before[:, 1, [0, -1]])
    assert np.array_equal(off, np.full(n - 1, -0.5))
