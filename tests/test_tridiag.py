import numpy as np
import pytest

from diffid.tridiag import solve_in_place


def solve(lower, diag, upper, rhs):
    shape = np.broadcast_shapes(np.shape(diag), np.shape(rhs))
    diag = np.array(np.broadcast_to(diag, shape), dtype=float)
    x = np.array(np.broadcast_to(rhs, shape), dtype=float)
    solve_in_place(lower, diag, upper, x)
    return x


def dense(lower, diag, upper):
    A = np.diag(diag)
    A += np.diag(lower, -1)
    A += np.diag(upper, 1)
    return A


@pytest.mark.parametrize("n", [2, 3, 4, 17, 128, 129, 200])
def test_solve_matches_dense_solve(n):
    rng = np.random.default_rng(42 + n)
    diag = 4.0 + rng.random(n)
    lower = rng.standard_normal(n - 1)
    upper = rng.standard_normal(n - 1)
    rhs = rng.standard_normal(n)
    x = solve(lower, diag, upper, rhs)
    expected = np.linalg.solve(dense(lower, diag, upper), rhs)
    assert np.max(np.abs(x - expected)) < 1e-12


def test_solve_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    x = solve(np.zeros(2), np.ones(3), np.zeros(2), rhs)
    assert np.array_equal(x, rhs)


def test_solve_batch_equals_per_system_solves():
    rng = np.random.default_rng(7)
    B, n = 6, 33
    diag = 4.0 + rng.random((B, n))
    lower = rng.standard_normal((B, n - 1))
    upper = rng.standard_normal((B, n - 1))
    rhs = rng.standard_normal((B, n))
    x = solve(lower, diag, upper, rhs)
    assert x.shape == (B, n)
    for i in range(B):
        assert x[i].tobytes() == solve(lower[i], diag[i], upper[i], rhs[i]).tobytes()
        expected = np.linalg.solve(dense(lower[i], diag[i], upper[i]), rhs[i])
        assert np.max(np.abs(x[i] - expected)) < 1e-12
    # off-diagonals shared by the whole batch broadcast against it
    x = solve(lower[0], diag, upper[0], rhs)
    for i in range(B):
        assert x[i].tobytes() == solve(lower[0], diag[i], upper[0], rhs[i]).tobytes()
        expected = np.linalg.solve(dense(lower[0], diag[i], upper[0]), rhs[i])
        assert np.max(np.abs(x[i] - expected)) < 1e-12


def test_solve_in_place_writes_its_arguments_only():
    # the solution lands in rhs, which may be a strided view, and only diag
    # is also overwritten
    rng = np.random.default_rng(3)
    K, n = 4, 9
    off = np.full(n - 1, -0.5)
    diag = 3.0 + rng.random((K, n))
    stack = rng.standard_normal((K, 3, n + 2))
    x = stack[:, 1, 1:-1]
    expected = [np.linalg.solve(dense(off, diag[k], off), x[k]) for k in range(K)]
    before = stack.copy()
    solve_in_place(off, diag.copy(), off, x)
    assert np.max(np.abs(x - np.array(expected))) < 1e-14
    assert np.array_equal(stack[:, [0, 2]], before[:, [0, 2]])
    assert np.array_equal(stack[:, 1, [0, -1]], before[:, 1, [0, -1]])
    assert np.array_equal(off, np.full(n - 1, -0.5))
