"""Distribution primitives: samplers against densities, frozen conjugacy examples.

Sampler/density agreement is checked with Kolmogorov-Smirnov statistics
against independently integrated CDFs, conjugate updates against direct
sampling of the hand-derived posterior family.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from mssvar.priors import (
    ShrinkageChain,
    categorical,
    gig_log_density,
    omega_prior_density_at_zero,
    sample_gamma,
    sample_gig,
    sample_ig2,
    sample_truncated_normal,
    update_shrinkage_chain,
)

KS_SLOPE = 1.63  # asymptotic 1% critical value of sqrt(n) * D_n


def _ks(draws, cdf):
    return stats.kstest(draws, cdf).statistic


# ---------------------------------------------------------------------------
# scale-parameter family


def test_ig2_scaling_family():
    d1 = sample_ig2(4.0, 3.0, np.random.default_rng(5), size=1000)
    d2 = sample_ig2(2.0, 3.0, np.random.default_rng(5), size=1000)
    assert_allclose(d1, 2.0 * d2)


def test_ig2_monte_carlo_mean():
    # IG2(10, 12) has mean 10 / (12 - 2) = 1
    rng = np.random.default_rng(17)
    draws = sample_ig2(10.0, 12.0, rng, size=1_000_000)
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - 1.0) < 3.0 * se


def test_ig2_sampler_matches_density():
    rng = np.random.default_rng(3)
    n = 100_000
    draws = sample_ig2(3.0, 7.0, rng, size=n)
    # P(X <= x) = P(chi2_7 >= 3/x)
    stat = _ks(draws, lambda x: stats.chi2.sf(3.0 / x, 7.0))
    assert stat < KS_SLOPE / np.sqrt(n)


def test_ig2_rejects_bad_parameters():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_ig2(-1.0, 2.0, rng)
    with pytest.raises(ValueError):
        sample_ig2(1.0, 0.0, rng)


# ---------------------------------------------------------------------------
# gamma, truncated normal


def test_gamma_mean_and_density():
    rng = np.random.default_rng(11)
    n = 200_000
    draws = sample_gamma(2.5, 1.7, rng, size=n)
    se = draws.std(ddof=1) / np.sqrt(n)
    assert abs(draws.mean() - 2.5 * 1.7) < 3.0 * se
    stat = _ks(draws, lambda x: stats.gamma.cdf(x, 2.5, scale=1.7))
    assert stat < KS_SLOPE / np.sqrt(n)


def test_truncated_normal_wide_window_is_normal():
    rng = np.random.default_rng(4)
    draws = np.array(
        [sample_truncated_normal(0.0, 1.0, -50.0, 50.0, rng) for _ in range(50_000)]
    )
    assert abs(draws.mean()) < 3.0 / np.sqrt(draws.size)
    assert abs(draws.var(ddof=1) - 1.0) < 0.02


def test_truncated_normal_matches_reference():
    rng = np.random.default_rng(9)
    n = 20_000
    mean, var, lo, hi = 0.4, 2.0, -1.0, 1.0
    draws = np.array([sample_truncated_normal(mean, var, lo, hi, rng) for _ in range(n)])
    sd = np.sqrt(var)
    a, b = (lo - mean) / sd, (hi - mean) / sd
    stat = _ks(draws, lambda x: stats.truncnorm.cdf(x, a, b, loc=mean, scale=sd))
    assert stat < KS_SLOPE / np.sqrt(n)


def test_truncated_normal_far_tail_clamps():
    rng = np.random.default_rng(1)
    out = sample_truncated_normal(1e6, 1.0, -1.0, 1.0, rng)
    assert -1.0 <= out <= 1.0


# ---------------------------------------------------------------------------
# categorical


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_categorical_frequencies_match_probabilities(K):
    rng = np.random.default_rng(60 + K)
    probs = rng.dirichlet(np.ones(K))
    n = 200_000
    draws = categorical(probs, rng.random(n))
    assert draws.shape == (n,) and draws.min() >= 0 and draws.max() <= K - 1
    freq = np.bincount(draws, minlength=K) / n
    se = np.sqrt(probs * (1.0 - probs) / n)
    assert np.all(np.abs(freq - probs) <= 4.0 * se + 1e-12)


def test_categorical_skips_zero_probability_categories():
    probs = np.array([0.0, 0.3, 0.0, 0.0, 0.7, 0.0])
    u = np.concatenate([np.random.default_rng(66).random(50_000), [0.0, 0.3, 0.7]])
    draws = categorical(probs, u)
    assert set(np.unique(draws)) == {1, 4}
    assert categorical(probs, 0.0) == 1  # the cumulative 0.0 of category 0 is at or below u
    assert categorical(probs, 0.3) == 4  # a tie goes to the next category


def test_categorical_caps_at_the_last_category():
    probs = np.full(10, 0.1)
    u = np.nextafter(1.0, 0.0)  # the largest uniform a generator can return
    assert np.cumsum(probs)[-1] <= u  # the rounded total falls short of one
    assert categorical(probs, u) == 9
    assert categorical(np.array([0.2, 0.3]), 0.9) == 1  # a short total still lands in range


def test_categorical_broadcasts_over_leading_axes():
    rng = np.random.default_rng(67)
    probs = rng.dirichlet(np.ones(4), size=(3, 5))
    u = rng.random((2, 3, 5))
    draws = categorical(probs, u)
    assert draws.shape == (2, 3, 5)
    for idx in np.ndindex(2, 3, 5):
        cum = np.cumsum(probs[idx[1:]])
        assert draws[idx] == min(np.searchsorted(cum, u[idx], side="right"), 3)
    # one probability vector shared by a batch of uniforms
    shared = np.broadcast_to(probs[0, 0], (2, 3, 5, 4))
    assert np.array_equal(categorical(probs[0, 0], u), categorical(shared, u))


# ---------------------------------------------------------------------------
# generalized inverse gaussian


def test_gig_monte_carlo_mean_vs_bessel():
    from scipy.special import kv

    lam, chi, psi = -0.5, 1.0, 1.0
    root = np.sqrt(chi * psi)
    analytic = np.sqrt(chi) * kv(lam + 1.0, root) / (np.sqrt(psi) * kv(lam, root))
    rng = np.random.default_rng(21)
    draws = np.array([sample_gig(lam, chi, psi, rng) for _ in range(40_000)])
    se = draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - analytic) < 3.0 * se


def test_gig_sampler_matches_density():
    rng = np.random.default_rng(23)
    n = 10_000
    draws = np.array([sample_gig(0.5, 2.0, 3.0, rng) for _ in range(n)])
    grid = np.linspace(1e-6, draws.max() * 1.5, 4000)
    pdf = np.exp(gig_log_density(grid, 0.5, 2.0, 3.0))
    cdf = integrate.cumulative_trapezoid(pdf, grid, initial=0.0)
    cdf /= cdf[-1]
    stat = _ks(draws, lambda x: np.interp(x, grid, cdf))
    assert stat < KS_SLOPE / np.sqrt(n)


def test_gig_density_normalizes():
    val, _ = integrate.quad(lambda x: np.exp(gig_log_density(x, -1.2, 2.0, 0.7)), 0.0, np.inf)
    assert abs(val - 1.0) < 1e-6


def test_gig_edge_branches():
    # chi = 0 degenerates to Gamma(lam, 2/psi)
    rng = np.random.default_rng(31)
    n = 20_000
    draws = np.array([sample_gig(2.0, 0.0, 3.0, rng) for _ in range(n)])
    stat = _ks(draws, lambda x: stats.gamma.cdf(x, 2.0, scale=2.0 / 3.0))
    assert stat < KS_SLOPE / np.sqrt(n)
    # psi = 0 degenerates to IG2(chi, -2 lam)
    draws = np.array([sample_gig(-2.5, 4.0, 0.0, rng) for _ in range(n)])
    stat = _ks(draws, lambda x: stats.chi2.sf(4.0 / x, 5.0))
    assert stat < KS_SLOPE / np.sqrt(n)
    with pytest.raises(ValueError):
        sample_gig(-1.0, 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        sample_gig(1.0, 1.0, -1.0, rng)


# ---------------------------------------------------------------------------
# the loading prior at zero


def test_omega_prior_at_zero_closed_form():
    # shape=scale=1: Gamma(1/2)/Gamma(1)/sqrt(2 pi) = 1/sqrt(2)
    assert_allclose(omega_prior_density_at_zero(1.0, 1.0), 1.0 / np.sqrt(2.0), rtol=1e-14)
    # density scales with scale^{-1/2}
    assert_allclose(
        omega_prior_density_at_zero(1.0, 4.0),
        omega_prior_density_at_zero(1.0, 1.0) / 2.0,
        rtol=1e-14,
    )
    with pytest.raises(ValueError):
        omega_prior_density_at_zero(0.4, 1.0)


def test_omega_prior_at_zero_quadrature():
    # integrate N(0; 0, v) against the Gamma(shape, scale) law of v
    shape, scale = 1.3, 0.8

    def integrand(v):
        return (
            np.exp(-0.5 * np.log(2.0 * np.pi * v))
            * stats.gamma.pdf(v, shape, scale=scale)
        )

    val, _ = integrate.quad(integrand, 0.0, np.inf)
    assert_allclose(omega_prior_density_at_zero(shape, scale), val, rtol=1e-9)


# ---------------------------------------------------------------------------
# shrinkage hierarchy


def test_shrinkage_prior_center():
    chain = ShrinkageChain.at_prior_center(2, nu=10.0, nu_gamma=10.0, s_s=10.0, nu_s=10.0)
    assert_allclose(chain.s_gamma, 10.0 / 8.0)
    assert_allclose(chain.s, 10.0 * 10.0 / 8.0)
    assert_allclose(chain.gamma, (10.0 * 10.0 / 8.0) / 8.0)
    # heavy-tailed top level falls back to the mode
    chain = ShrinkageChain.at_prior_center(2, nu=10.0, nu_gamma=10.0, s_s=100.0, nu_s=1.0)
    assert_allclose(chain.s_gamma, 100.0 / 3.0)


def test_gamma_update_is_conjugate():
    # coefficients (1, 1) with prior IG2(1, 10) give posterior IG2(3, 12)
    rng = np.random.default_rng(7)
    n = 20_000
    draws = np.empty(n)
    for i in range(n):
        chain = ShrinkageChain(
            gamma=np.array([1.0]), s=np.array([1.0]), s_gamma=1.0,
            nu=10.0, nu_gamma=10.0, s_s=10.0, nu_s=10.0,
        )
        out = update_shrinkage_chain(chain, np.array([2.0]), np.array([2.0]), rng)
        draws[i] = out.gamma[0]
    stat = _ks(draws, lambda x: stats.chi2.sf(3.0 / x, 12.0))
    assert stat < KS_SLOPE / np.sqrt(n)


def test_empty_update_draws_from_prior():
    # zero sums leave each gamma[n] at its conditional prior IG2(s[n], nu)
    rng = np.random.default_rng(13)
    n = 20_000
    draws = np.empty(n)
    for i in range(n):
        chain = ShrinkageChain(
            gamma=np.array([1.0]), s=np.array([2.0]), s_gamma=1.0,
            nu=6.0, nu_gamma=10.0, s_s=10.0, nu_s=10.0,
        )
        out = update_shrinkage_chain(chain, np.array([0.0]), np.array([0.0]), rng)
        draws[i] = out.gamma[0]
    stat = _ks(draws, lambda x: stats.chi2.sf(2.0 / x, 6.0))
    assert stat < KS_SLOPE / np.sqrt(n)


def test_update_replays_the_hand_derived_conditionals():
    # one pass = IG2 draw of gamma, Gamma draw of s, IG2 draw of s_gamma,
    # with the hand-computed parameters; replay the stream independently
    rng = np.random.default_rng(19)
    n = 5_000
    got = np.empty((n, 3))
    for i in range(n):
        chain = ShrinkageChain(
            gamma=np.array([0.7]), s=np.array([1.0]), s_gamma=2.0,
            nu=4.0, nu_gamma=3.0, s_s=10.0, nu_s=10.0,
        )
        out = update_shrinkage_chain(chain, np.array([1.5]), np.array([2.0]), rng)
        got[i] = (out.gamma[0], out.s[0], out.s_gamma)

    rng2 = np.random.default_rng(19)
    expected = np.empty((n, 3))
    for i in range(n):
        g = sample_ig2(1.0 + 1.5, 4.0 + 2.0, rng2)
        rate = 1.0 / 2.0 + 0.5 / g
        s = sample_gamma(3.0 + 0.5 * 4.0, 1.0 / rate, rng2)
        sg = sample_ig2(10.0 + 2.0 * s, 10.0 + 2.0 * 3.0, rng2)
        expected[i] = (g, s, sg)
    assert_allclose(got, expected, rtol=1e-12)


def test_shrinkage_chain_validates():
    with pytest.raises(ValueError):
        ShrinkageChain(
            gamma=np.array([-1.0]), s=np.array([1.0]), s_gamma=1.0,
            nu=10.0, nu_gamma=10.0, s_s=10.0, nu_s=10.0,
        )
    chain = ShrinkageChain.at_prior_center(2, nu=10.0, nu_gamma=10.0, s_s=10.0, nu_s=10.0)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        update_shrinkage_chain(chain, np.array([1.0]), np.array([1.0]), rng)
    with pytest.raises(ValueError):
        update_shrinkage_chain(chain, np.array([-1.0, 0.0]), np.array([0.0, 0.0]), rng)


def test_from_prior_matches_hierarchy():
    # top-level scale distribution: s_gamma ~ IG2(s_s, nu_s)
    rng = np.random.default_rng(29)
    n = 20_000
    draws = np.array([
        ShrinkageChain.from_prior(1, rng, nu=10.0, nu_gamma=10.0, s_s=9.0, nu_s=7.0).s_gamma
        for _ in range(n)
    ])
    stat = _ks(draws, lambda x: stats.chi2.sf(9.0 / x, 7.0))
    assert stat < KS_SLOPE / np.sqrt(n)
