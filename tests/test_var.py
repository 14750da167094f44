"""Autoregressive block tests against ridge, GLS and dense-precision oracles."""

import numpy as np
from numpy.testing import assert_allclose

from mssvar.data import Dataset, build_design, empty_dataset
from mssvar.var import autoregressive_posterior, draw_autoregressive, minnesota_moments


def _random_dataset(rng, N, p, T_raw, d_dim=1):
    y = rng.normal(size=(T_raw, N))
    d = np.ones((T_raw, d_dim))
    return build_design(y, d, p)


def test_minnesota_moments_layout():
    mean, scale = minnesota_moments(2, 2, 1)
    assert_allclose(scale, [1.0, 1.0, 0.25, 0.25, 100.0])
    assert_allclose(mean, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])


def test_minnesota_moments_single_lag():
    mean, scale = minnesota_moments(2, 1, 1)
    assert_allclose(mean[0], [1.0, 0.0, 0.0])
    assert_allclose(mean[1], [0.0, 1.0, 0.0])
    assert_allclose(scale, [1.0, 1.0, 100.0])


def test_prior_only_posterior_is_the_prior():
    ds = empty_dataset(2, 1)
    gamma_A = np.array([2.0, 0.5])
    mean, L = autoregressive_posterior(
        ds, np.eye(2)[None], np.zeros(0, dtype=int), np.zeros((2, 0)), gamma_A
    )
    prior_mean, omega = minnesota_moments(2, 1, 1)
    assert_allclose(mean, prior_mean)
    prec = L @ L.T
    want = np.diag((1.0 / (gamma_A[:, None] * omega[None, :])).T.reshape(-1))
    assert_allclose(prec, want, atol=1e-12)


def test_flat_prior_recovers_least_squares():
    rng = np.random.default_rng(21)
    ds = _random_dataset(rng, 2, 1, 501)
    sigma2 = np.ones((2, ds.T))
    s = np.zeros(ds.T, dtype=int)
    mean, _ = autoregressive_posterior(ds, np.eye(2)[None], s, sigma2, np.full(2, 1e6))
    ols = np.linalg.lstsq(ds.x, ds.y, rcond=None)[0].T
    assert np.max(np.abs(mean - ols)) < 1e-4


def test_informative_prior_matches_per_equation_ridge():
    rng = np.random.default_rng(22)
    ds = _random_dataset(rng, 2, 2, 60)
    gamma_A = np.array([0.7, 1.4])
    sigma2 = np.ones((2, ds.T))
    s = np.zeros(ds.T, dtype=int)
    mean, _ = autoregressive_posterior(ds, np.eye(2)[None], s, sigma2, gamma_A)
    prior_mean, omega = minnesota_moments(2, 2, 1)
    xtx = ds.x.T @ ds.x
    for i in range(2):
        ridge = np.diag(1.0 / (gamma_A[i] * omega))
        want = np.linalg.solve(xtx + ridge, ds.x.T @ ds.y[:, i] + ridge @ prior_mean[i])
        assert_allclose(mean[i], want, atol=1e-8)


def test_heteroskedastic_diagonal_case_factorizes_per_equation():
    rng = np.random.default_rng(23)
    ds = _random_dataset(rng, 2, 1, 40)
    gamma_A = np.array([1.0, 3.0])
    sigma2 = rng.uniform(0.5, 2.0, size=(2, ds.T))
    s = np.zeros(ds.T, dtype=int)
    mean, _ = autoregressive_posterior(ds, np.eye(2)[None], s, sigma2, gamma_A)
    prior_mean, omega = minnesota_moments(2, 1, 1)
    for i in range(2):
        wts = 1.0 / sigma2[i]
        ridge = np.diag(1.0 / (gamma_A[i] * omega))
        lhs = (ds.x * wts[:, None]).T @ ds.x + ridge
        rhs = ds.x.T @ (wts * ds.y[:, i]) + ridge @ prior_mean[i]
        assert_allclose(mean[i], np.linalg.solve(lhs, rhs), atol=1e-8)


def test_posterior_matches_dense_kron_assembly():
    # regime-switching B and free variances, checked against an explicit
    # per-observation Kronecker build of the stacked precision
    rng = np.random.default_rng(24)
    N, p = 2, 1
    ds = _random_dataset(rng, N, p, 25)
    J = ds.n_coefficients
    B = rng.normal(size=(2, N, N)) + 2.0 * np.eye(N)
    s = rng.integers(0, 2, size=ds.T)
    sigma2 = rng.uniform(0.3, 3.0, size=(N, ds.T))
    gamma_A = rng.uniform(0.5, 2.0, size=N)

    prior_mean, omega = minnesota_moments(N, p, 1)
    prec = np.diag((1.0 / (gamma_A[:, None] * omega[None, :])).T.reshape(-1))
    rhs = prec @ prior_mean.T.reshape(-1)
    for t in range(ds.T):
        W = B[s[t]].T @ np.diag(1.0 / sigma2[:, t]) @ B[s[t]]
        prec += np.kron(np.outer(ds.x[t], ds.x[t]), W)
        rhs += np.kron(ds.x[t], W @ ds.y[t])
    want_mean = np.linalg.solve(prec, rhs).reshape(J, N).T

    mean, L = autoregressive_posterior(ds, B, s, sigma2, gamma_A)
    assert_allclose(mean, want_mean, atol=1e-10)
    assert_allclose(L @ L.T, prec, atol=1e-8)


def test_draw_covariance_matches_inverse_precision():
    rng = np.random.default_rng(25)
    N, p = 2, 1
    ds = _random_dataset(rng, N, p, 31)
    B = np.eye(N)[None]
    s = np.zeros(ds.T, dtype=int)
    sigma2 = np.ones((N, ds.T))
    gamma_A = np.ones(N)
    mean, L = autoregressive_posterior(ds, B, s, sigma2, gamma_A)
    cov = np.linalg.inv(L @ L.T)

    n = 30_000
    draws = np.empty((n, N * ds.n_coefficients))
    for k in range(n):
        draws[k] = draw_autoregressive(ds, B, s, sigma2, gamma_A, rng).T.reshape(-1)
    got = np.cov(draws.T)
    se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.max(np.abs(got - cov) / se) < 5.0
    mean_se = np.sqrt(np.diag(cov) / n)
    assert np.max(np.abs(draws.mean(axis=0) - mean.T.reshape(-1)) / mean_se) < 5.0


def test_draw_is_reproducible_and_finite():
    rng = np.random.default_rng(3)
    ds = _random_dataset(rng, 2, 2, 30)
    args = (ds, np.eye(2)[None], np.zeros(ds.T, dtype=int), np.ones((2, ds.T)), np.ones(2))
    a = draw_autoregressive(*args, np.random.default_rng(99))
    b = draw_autoregressive(*args, np.random.default_rng(99))
    assert a.shape == (2, ds.n_coefficients)
    assert np.array_equal(a, b)


def test_singular_precision_takes_the_ridge():
    # the lag column repeats the intercept and the prior is flat to rounding,
    # so the precision is exactly [[4, 4], [4, 4]] and factors only after
    # the ridge of 1e-10 times its mean diagonal
    ds = Dataset(y=np.array([[1.0], [2.0], [0.0], [1.0]]), x=np.ones((4, 2)), p=1,
                 presample=np.zeros((1, 1)))
    mean, L = autoregressive_posterior(
        ds, np.ones((1, 1, 1)), np.zeros(4, dtype=int), np.ones((1, 4)), np.array([1e300])
    )
    assert_allclose(L @ L.T, np.full((2, 2), 4.0) + 4e-10 * np.eye(2), rtol=0, atol=1e-15)
    assert np.all(np.isfinite(mean))
