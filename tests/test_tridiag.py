import numpy as np

from diffid.tridiag import thomas_factor, thomas_substitute


def thomas_solve(lower, diag, upper, rhs):
    return thomas_substitute(lower, *thomas_factor(lower, diag, upper), rhs)


def dense(lower, diag, upper):
    n = len(diag)
    A = np.diag(diag)
    A += np.diag(lower, -1)
    A += np.diag(upper, 1)
    return A


def test_thomas_matches_dense_solve():
    rng = np.random.default_rng(42)
    for n in (2, 3, 17, 128):
        diag = 4.0 + rng.random(n)
        lower = rng.standard_normal(n - 1)
        upper = rng.standard_normal(n - 1)
        rhs = rng.standard_normal(n)
        x = thomas_solve(lower, diag, upper, rhs)
        expected = np.linalg.solve(dense(lower, diag, upper), rhs)
        assert np.max(np.abs(x - expected)) < 1e-12


def test_thomas_identity():
    rhs = np.array([1.0, -2.0, 3.0])
    x = thomas_solve(np.zeros(2), np.ones(3), np.zeros(2), rhs)
    assert np.array_equal(x, rhs)


def test_thomas_batch_equals_per_system_solves():
    rng = np.random.default_rng(7)
    B, n = 6, 33
    diag = 4.0 + rng.random((B, n))
    lower = rng.standard_normal((B, n - 1))
    upper = rng.standard_normal((B, n - 1))
    rhs = rng.standard_normal((B, n))
    x = thomas_solve(lower, diag, upper, rhs)
    assert x.shape == (B, n)
    for i in range(B):
        assert x[i].tobytes() == thomas_solve(lower[i], diag[i], upper[i], rhs[i]).tobytes()
        expected = np.linalg.solve(dense(lower[i], diag[i], upper[i]), rhs[i])
        assert np.max(np.abs(x[i] - expected)) < 1e-12
    # off-diagonals shared by the whole batch broadcast against it
    x = thomas_solve(lower[0], diag, upper[0], rhs)
    for i in range(B):
        assert x[i].tobytes() == thomas_solve(lower[0], diag[i], upper[0], rhs[i]).tobytes()
