"""Stochastic-volatility block: mixture table, path draws, loading draws."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import linalg, special, stats

from mssvar.priors import sample_gig
from mssvar.sv import (
    MIXTURE,
    conditional_variances,
    draw_log_volatilities,
    draw_mixture_indicators,
    draw_omega,
    draw_omega_variance,
    draw_rho,
    linearize,
    log_squared,
)

KS_SLOPE = 1.63  # 1% critical value of sqrt(n) * D_n


def test_mixture_table_is_a_proper_log_chi2_approximation():
    assert MIXTURE.probs.size == 10
    assert abs(MIXTURE.probs.sum() - 1.0) < 1e-12
    mean = (MIXTURE.probs * MIXTURE.means).sum()
    var = (MIXTURE.probs * (MIXTURE.variances + MIXTURE.means**2)).sum() - mean**2
    assert abs(mean - (special.digamma(0.5) + np.log(2.0))) < 5e-4
    assert abs(var - np.pi**2 / 2.0) < 5e-3


def test_mixture_draws_match_log_chi2_samples():
    rng = np.random.default_rng(31)
    n = 50_000
    comp = rng.choice(10, size=n, p=MIXTURE.probs)
    mix = MIXTURE.means[comp] + np.sqrt(MIXTURE.variances[comp]) * rng.standard_normal(n)
    direct = np.log(rng.chisquare(1.0, size=n))
    stat = stats.ks_2samp(mix, direct).statistic
    assert stat < KS_SLOPE * np.sqrt(2.0 / n)


def test_conditional_variances_values():
    s = np.array([0, 1, 0])
    omega = np.array([[0.0, 0.0]])
    h = np.zeros((1, 3))
    assert_allclose(conditional_variances(omega, h, s), np.ones((1, 3)))
    omega = np.array([[2.0, -1.0]])
    h = np.array([[0.5, 0.5, 1.0]])
    assert_allclose(conditional_variances(omega, h, s), [[np.e, np.exp(-0.5), np.exp(2.0)]])
    with pytest.raises(ValueError):
        conditional_variances(omega, h, np.array([0, 1]))


def test_log_squared_floor():
    out = log_squared(np.array([0.0, 2.0]))
    assert_allclose(out, [np.log(1e-10), np.log(4.0)])


def test_indicator_frequencies_match_exact_posterior():
    # identical cells: one vectorized call yields iid draws from one posterior
    rng = np.random.default_rng(33)
    z = -0.7
    T = 100_000
    logu2 = np.full((1, T), z)
    draws = draw_mixture_indicators(
        logu2, np.zeros((1, 1)), np.zeros((1, T)), np.zeros(T, dtype=int), rng
    )
    logp = (
        np.log(MIXTURE.probs)
        - 0.5 * np.log(2.0 * np.pi * MIXTURE.variances)
        - 0.5 * (z - MIXTURE.means) ** 2 / MIXTURE.variances
    )
    post = np.exp(logp - logp.max())
    post /= post.sum()
    freq = np.bincount(draws[0], minlength=10) / T
    assert np.max(np.abs(freq - post)) < 0.01


def test_indicator_posterior_shifts_with_volatility():
    # subtracting omega*h recenters the noise; far-negative tail favors the
    # widest, most negative component
    rng = np.random.default_rng(34)
    T = 20_000
    logu2 = np.full((1, T), -25.0)
    draws = draw_mixture_indicators(
        logu2, np.zeros((1, 1)), np.zeros((1, T)), np.zeros(T, dtype=int), rng
    )
    assert (draws[0] == 9).mean() > 0.95
    # the same observation explained by volatility is ordinary noise again
    omega = np.array([[1.0]])
    h = np.full((1, T), -25.0)
    shifted = draw_mixture_indicators(logu2, omega, h, np.zeros(T, dtype=int), rng)
    assert (shifted[0] == 9).mean() < 0.05


def _dense_path_moments(indicators_row, omega_row, rho, s, logu2_row):
    T = logu2_row.shape[0]
    a = omega_row[s]
    v = MIXTURE.variances[indicators_row]
    ytil = logu2_row - MIXTURE.means[indicators_row]
    prec = np.zeros((T, T))
    idx = np.arange(T)
    prec[idx, idx] = 1.0 + rho * rho
    prec[T - 1, T - 1] = 1.0
    prec[idx[:-1], idx[:-1] + 1] = -rho
    prec[idx[:-1] + 1, idx[:-1]] = -rho
    prec[idx, idx] += a * a / v
    mean = np.linalg.solve(prec, a * ytil / v)
    return mean, np.linalg.inv(prec)


def test_path_draw_matches_dense_moments():
    rng = np.random.default_rng(35)
    T = 6
    s = np.array([0, 1, 1, 0, 1, 0])
    indicators = rng.integers(0, 10, size=T)
    omega = np.array([0.9, -0.4])
    logu2 = rng.normal(size=T)
    mean, cov = _dense_path_moments(indicators, omega, 0.7, s, logu2)

    n = 40_000
    draws = np.empty((n, T))
    for k in range(n):
        draws[k] = draw_log_volatilities(*linearize(logu2[None], indicators[None]), omega[None],
                                         np.array([0.7]), s, rng)[0]
    se_mean = np.sqrt(np.diag(cov) / n)
    assert np.max(np.abs(draws.mean(axis=0) - mean) / se_mean) < 5.0
    got = np.cov(draws.T)
    se_cov = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
    assert np.max(np.abs(got - cov) / se_cov) < 5.0


def test_path_draw_replays_the_banded_solve():
    # deterministic: same seed, dense reconstruction of mean + U^{-1} z
    T = 5
    s = np.zeros(T, dtype=int)
    indicators = np.array([3, 5, 1, 7, 4])
    omega = np.array([1.2])
    logu2 = np.array([-2.0, 0.5, -1.0, -4.0, 1.5])
    rho = -0.3
    mean, cov = _dense_path_moments(indicators, omega, rho, s, logu2)
    U = np.linalg.cholesky(np.linalg.inv(cov)).T  # scipy banded uses upper form
    z = np.random.default_rng(77).standard_normal(T)
    want = mean + linalg.solve_triangular(U, z, lower=False)
    got = draw_log_volatilities(*linearize(logu2[None], indicators[None]), omega[None],
                                np.array([rho]), s, np.random.default_rng(77))[0]
    assert_allclose(got, want, atol=1e-10)


def _draw_log_volatility_row(ytil, v, omega_row, rho, s, rng):
    # one equation's draw as the sampler made it before the N bands were joined
    T = ytil.shape[0]
    a = omega_row[s]
    band = np.zeros((2, T))
    band[1, :] = 1.0 + rho * rho
    band[1, -1:] = 1.0
    band[0, 1:] = -rho
    band[1, :] += a * a / v
    U = linalg.cholesky_banded(band, lower=False)
    mean = linalg.cho_solve_banded((U, False), a * ytil / v)
    z = rng.standard_normal(T)
    return mean + linalg.solve_banded((0, 1), U, z)


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("T", [0, 1, 2, 30, 600])
def test_joined_path_draw_replays_one_draw_per_equation(N, T):
    rng = np.random.default_rng(1000 * N + T)
    for _ in range(5):
        M = int(rng.integers(1, 4))
        s = rng.integers(0, M, size=T)
        ytil, v = linearize(rng.normal(-1.0, 2.0, size=(N, T)), rng.integers(0, 10, size=(N, T)))
        omega = rng.normal(size=(N, M))
        rho = rng.uniform(-0.99, 0.99, size=N)
        seed = int(rng.integers(2**32))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = draw_log_volatilities(ytil, v, omega, rho, s, ours)
        want = np.array([_draw_log_volatility_row(ytil[n], v[n], omega[n], rho[n], s, theirs)
                         for n in range(N)]).reshape(N, T)
        assert got.tobytes() == want.tobytes()
        assert ours.bit_generator.state == theirs.bit_generator.state

def test_path_prior_when_loading_is_zero():
    # omega = 0 cuts the data out; lag-one autocovariance of the
    # zero-anchored AR(1) is rho * var(h_t)
    rng = np.random.default_rng(36)
    T, rho = 4, 0.6
    n = 60_000
    draws = np.empty((n, T))
    args = (*linearize(np.zeros((1, T)), np.zeros((1, T), dtype=int)), np.zeros((1, 1)),
            np.array([rho]), np.zeros(T, dtype=int))
    for k in range(n):
        draws[k] = draw_log_volatilities(*args, rng)[0]
    var_t = np.cumsum(rho ** (2 * np.arange(T)))  # (1 - rho^(2t)) / (1 - rho^2)
    assert_allclose(draws.var(axis=0, ddof=1), var_t, rtol=0.05)
    lag1 = (draws[:, :-1] * draws[:, 1:]).mean(axis=0)
    assert_allclose(lag1, rho * var_t[:-1], rtol=0.08)


def test_path_draw_empty_series():
    # the general banded code at T = 0: an empty path, and no variate drawn
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    out = draw_log_volatilities(
        *linearize(np.zeros((1, 0)), np.zeros((1, 0), dtype=int)), np.zeros((1, 1)),
        np.array([0.5]), np.zeros(0, dtype=int), rng,
    )
    assert out.shape == (1, 0)
    assert rng.bit_generator.state == before


def test_loading_draw_matches_conjugate_formula():
    h = np.array([1.0, -0.5, 2.0])
    logu2 = np.array([0.3, -1.2, 0.9])
    indicators = np.array([2, 6, 4])
    s = np.array([0, 1, 0])
    sigma2_omega = 0.8
    omega, post_mean, post_var = draw_omega(
        h, *linearize(logu2, indicators), s, 2, sigma2_omega, np.random.default_rng(55)
    )
    v = MIXTURE.variances[indicators]
    ytil = logu2 - MIXTURE.means[indicators]
    for m in range(2):
        sel = s == m
        prec = 1.0 / sigma2_omega + np.sum(h[sel] ** 2 / v[sel])
        want_var = 1.0 / prec
        want_mean = want_var * np.sum(h[sel] * ytil[sel] / v[sel])
        assert_allclose(post_var[m], want_var, rtol=1e-14)
        assert_allclose(post_mean[m], want_mean, rtol=1e-14)
    z = np.random.default_rng(55).standard_normal(2)
    assert_allclose(omega, post_mean + np.sqrt(post_var) * z, rtol=1e-14)


def test_loading_draw_empty_regime_returns_prior():
    omega, post_mean, post_var = draw_omega(
        np.array([1.0]), *linearize(np.array([0.2]), np.array([3])), np.array([0]), 2, 2.5,
        np.random.default_rng(56),
    )
    assert post_mean[1] == 0.0
    assert post_var[1] == 2.5


def test_loading_draw_sd_inflation_hook():
    args = (np.array([1.0, 2.0]), *linearize(np.array([0.1, -0.3]), np.array([4, 4])),
            np.array([0, 0]), 1, 1.0)
    base, mean, var = draw_omega(*args, np.random.default_rng(9))
    wide, _, _ = draw_omega(*args, np.random.default_rng(9), sd_inflation=3.0)
    assert_allclose(wide - mean, 3.0 * (base - mean), rtol=1e-12)


def test_loading_variance_rejects_vanishing_loadings():
    # omega = 0 would be the GIG's gamma limit, which the draw does not take:
    # the sweep's loadings are a continuous normal draw, and with
    # fix_omega_at_zero the sweep draws the variance from its gamma prior
    with pytest.raises(ValueError, match="positive chi and psi"):
        draw_omega_variance(np.zeros(2), 2.0, 3.0, np.random.default_rng(37))


def test_loading_variance_replays_gig_sampler():
    omega_row = np.array([0.7, -1.1, 0.4])
    a = draw_omega_variance(omega_row, 2.0, 3.0, np.random.default_rng(58))
    b = sample_gig(2.0 - 1.5, float(omega_row @ omega_row), 2.0 / 3.0, np.random.default_rng(58))
    assert a == b


def test_rho_flat_when_path_is_degenerate():
    rng = np.random.default_rng(38)
    n = 20_000
    flat = np.array([draw_rho(np.zeros(5), rng) for _ in range(n)])
    stat = stats.kstest(flat, stats.uniform(loc=-1.0, scale=2.0).cdf).statistic
    assert stat < KS_SLOPE / np.sqrt(n)
    short = np.array([draw_rho(np.array([3.0]), rng) for _ in range(n)])
    stat = stats.kstest(short, stats.uniform(loc=-1.0, scale=2.0).cdf).statistic
    assert stat < KS_SLOPE / np.sqrt(n)


def test_rho_short_path_truncated_normal_law():
    rng = np.random.default_rng(39)
    h = np.array([2.0, 1.0])  # mean 0.5, sd 0.5, visible truncation at 1
    n = 20_000
    draws = np.array([draw_rho(h, rng) for _ in range(n)])
    dist = stats.truncnorm(-3.0, 1.0, loc=0.5, scale=0.5)
    stat = stats.kstest(draws, dist.cdf).statistic
    assert stat < KS_SLOPE / np.sqrt(n)
    assert np.all((draws > -1.0) & (draws < 1.0))


def test_rho_recovers_persistent_path():
    rng = np.random.default_rng(40)
    T, rho = 5000, 0.9
    h = np.empty(T)
    h[0] = rng.standard_normal()
    for t in range(1, T):
        h[t] = rho * h[t - 1] + rng.standard_normal()
    draws = np.array([draw_rho(h, rng) for _ in range(50)])
    assert np.max(np.abs(draws - rho)) < 0.05


def test_sign_flip_leaves_variances_invariant():
    rng = np.random.default_rng(41)
    omega = rng.normal(size=(2, 2))
    h = rng.normal(size=(2, 6))
    s = rng.integers(0, 2, size=6)
    assert_allclose(
        conditional_variances(omega, h, s), conditional_variances(-omega, -h, s)
    )
