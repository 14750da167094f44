"""Structural-row machinery: cofactors, pattern marginals, exact row draws.

The closed-form marginal is checked against the quadrature oracle of
``selfcheck``, the row sampler against the laws its construction implies
(chi-square magnitude along the determinant direction, Gaussian elsewhere).
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats

from mssvar.patterns import cofactor_gather
from mssvar.selfcheck import quadrature_log_marginal
from mssvar.structural import (
    draw_row_coefficients,
    draw_tvi_indicator,
    factor_candidate,
    pattern_log_marginal,
    row_cofactors,
    row_posterior_precision,
)


# ---------------------------------------------------------------------------
# cofactors


def test_identity_cofactors():
    w = row_cofactors(np.eye(2), cofactor_gather(2, 0))
    assert_allclose(w, [1.0, 0.0])
    w = row_cofactors(np.eye(2), cofactor_gather(2, 1))
    assert_allclose(w, [0.0, 1.0])


def test_cofactors_reconstruct_determinant():
    rng = np.random.default_rng(8)
    for _ in range(25):
        B = rng.normal(size=(4, 4))
        for n in range(4):
            c = row_cofactors(B, cofactor_gather(4, n))
            assert abs(B[n] @ c - np.linalg.det(B)) < 1e-10
            # replacing row n by any v gives det via the same cofactors
            v = rng.normal(size=4)
            B2 = B.copy()
            B2[n] = v
            assert abs(v @ c - np.linalg.det(B2)) < 1e-10


def test_cofactors_vanish_when_other_rows_collide():
    B = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [4.0, 5.0, 6.0]])
    assert_allclose(row_cofactors(B, cofactor_gather(3, 0)), np.zeros(3), atol=1e-14)


def test_scalar_system_cofactor():
    # the determinant of the empty minor is exactly one
    w = row_cofactors(np.array([[3.0]]), cofactor_gather(1, 0))
    assert w.dtype == np.float64
    assert np.array_equal(w, [1.0])



@pytest.mark.parametrize("N", [1, 2, 3, 4, 5])
def test_gathered_cofactors_are_the_deleted_minors_bit_for_bit(N):
    # the construction the gather replaced: N + 1 np.delete calls per row
    def deleted(B, n):
        rest = np.delete(B, n, axis=0)
        minors = np.stack([np.delete(rest, i, axis=1) for i in range(N)])
        return (-1.0) ** (n + np.arange(N)) * np.linalg.det(minors)

    rng = np.random.default_rng(50 + N)
    for _ in range(60):
        B = rng.normal(size=(N, N)) * 10.0 ** rng.uniform(-2, 2, size=(N, 1))
        for n in range(N):
            assert row_cofactors(B, cofactor_gather(N, n)).tobytes() == deleted(B, n).tobytes()

# ---------------------------------------------------------------------------
# row posterior precision


def test_precision_prior_only():
    S = row_posterior_precision(np.zeros((3, 3)), np.array([0, 2]), gamma=2.0)
    assert_allclose(S, 0.5 * np.eye(2))


def test_precision_single_observation():
    # one observation eps = (2,), sigma2 = 1, gamma = 1: S = 1 + 4
    crossprod = np.array([[4.0]])
    S = row_posterior_precision(crossprod, np.array([0]), gamma=1.0)
    assert_allclose(S, [[5.0]])


def test_precision_is_pd_for_random_regimes():
    rng = np.random.default_rng(14)
    for _ in range(40):
        N = int(rng.integers(1, 5))
        T_m = int(rng.integers(0, 8))
        eps = rng.normal(size=(T_m, N))
        weights = rng.uniform(0.2, 3.0, size=T_m)
        crossprod = (eps * weights[:, None]).T @ eps if T_m else np.zeros((N, N))
        free = np.flatnonzero(rng.random(N) < 0.7)
        if free.size == 0:
            free = np.array([0])
        S = row_posterior_precision(crossprod, free, gamma=float(rng.uniform(0.2, 4.0)))
        assert_allclose(S, S.T, atol=1e-12)
        np.linalg.cholesky(S)  # raises if not PD
    with pytest.raises(ValueError):
        row_posterior_precision(np.zeros((2, 2)), np.array([0]), gamma=0.0)


# ---------------------------------------------------------------------------
# pattern marginal


def test_equal_inputs_give_equal_weights():
    S = np.array([[2.0, 0.3], [0.3, 1.5]])
    w = np.array([0.7, -0.2])
    a = pattern_log_marginal(*factor_candidate(S, w, 5), 1.3, 5)
    b = pattern_log_marginal(*factor_candidate(S.copy(), w.copy(), 5), 1.3, 5)
    assert a == b


def test_no_data_reduces_to_flat_prior():
    # T_m = 0 gives log marginal 0 for every pattern dimension:
    # the prior normalization cancels the Gaussian integral exactly
    for r in (1, 2, 3):
        S = np.eye(r) / 1.7
        val = pattern_log_marginal(*factor_candidate(S, np.ones(r), 0), 1.7, 0)
        assert abs(val) < 1e-12


def test_marginal_matches_quadrature_r2():
    rng = np.random.default_rng(5)
    G = rng.normal(size=(2, 2))
    S = G @ G.T + np.eye(2)
    w = rng.normal(size=2)
    got = pattern_log_marginal(*factor_candidate(S, w, 6), 0.9, 6)
    want = quadrature_log_marginal(S, w, 0.9, 6)
    assert abs(got - want) < 1e-6


def test_marginal_matches_quadrature_r1_odd_power():
    got = pattern_log_marginal(*factor_candidate(np.array([[2.0]]), np.array([-1.5]), 3), 2.0, 3)
    want = quadrature_log_marginal(np.array([[2.0]]), np.array([-1.5]), 2.0, 3)
    assert abs(got - want) < 1e-8


def test_marginal_zero_cofactor_with_data_is_impossible():
    S = np.eye(2)
    assert pattern_log_marginal(*factor_candidate(S, np.zeros(2), 4), 1.0, 4) == -np.inf
    # but with no data the pattern stays admissible
    assert np.isfinite(pattern_log_marginal(*factor_candidate(S, np.zeros(2), 0), 1.0, 0))


def test_marginal_input_validation():
    with pytest.raises(ValueError):
        pattern_log_marginal(*factor_candidate(np.eye(2), np.ones(3), 2), 1.0, 2)
    with pytest.raises(ValueError):
        pattern_log_marginal(*factor_candidate(np.eye(2), np.ones(2), -1), 1.0, -1)


# ---------------------------------------------------------------------------
# indicator draw


def test_indicator_degenerate_weights():
    rng = np.random.default_rng(0)
    lm = np.array([0.0, -np.inf, -np.inf, -np.inf])
    assert all(draw_tvi_indicator(lm, rng) == 0 for _ in range(100))


def test_indicator_frequencies_match_weights():
    rng = np.random.default_rng(3)
    lm = np.array([np.log(2.0), np.log(1.0)])
    draws = np.array([draw_tvi_indicator(lm, rng) for _ in range(30_000)])
    freq = (draws == 0).mean()
    assert abs(freq - 2.0 / 3.0) < 0.01


def test_indicator_uniform_case():
    rng = np.random.default_rng(4)
    lm = np.zeros(4)
    draws = np.array([draw_tvi_indicator(lm, rng) for _ in range(40_000)])
    for k in range(4):
        assert abs((draws == k).mean() - 0.25) < 0.01


def test_indicator_rejects_degenerate_inputs():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        draw_tvi_indicator(np.array([-np.inf, -np.inf]), rng)
    with pytest.raises(ValueError):
        draw_tvi_indicator(np.array([0.0, np.nan]), rng)


# ---------------------------------------------------------------------------
# row coefficient draw


def test_prior_draw_is_standard_normal():
    rng = np.random.default_rng(6)
    n = 30_000
    factor = factor_candidate(np.eye(2), np.ones(2), 0)
    draws = np.array([draw_row_coefficients(*factor, 0, rng) for _ in range(n)])
    for j in range(2):
        stat = stats.kstest(draws[:, j], stats.norm.cdf).statistic
        assert stat < 1.63 / np.sqrt(n)
    assert abs(np.corrcoef(draws.T)[0, 1]) < 0.02


def test_scalar_row_draw_is_signed_root_chi2():
    # r=1, S=1, w=1, T_m=2: b^2 ~ chi2(3), sign symmetric
    rng = np.random.default_rng(7)
    n = 40_000
    factor = factor_candidate(np.eye(1), np.ones(1), 2)
    draws = np.array([draw_row_coefficients(*factor, 2, rng)[0] for _ in range(n)])
    stat = stats.kstest(draws**2, lambda x: stats.chi2.cdf(x, 3.0)).statistic
    assert stat < 1.63 / np.sqrt(n)
    assert abs((draws > 0).mean() - 0.5) < 0.01
    assert abs(draws.mean()) < 3.0 * draws.std(ddof=1) / np.sqrt(n)


def test_scalar_row_draw_histogram_matches_kernel():
    # direct check of the r=1 density |b w|^T exp(-S b^2 / 2) by quadrature
    S, w, T_m = 1.8, -0.6, 4
    rng = np.random.default_rng(11)
    n = 40_000
    factor = factor_candidate(np.array([[S]]), np.array([w]), T_m)
    draws = np.array([draw_row_coefficients(*factor, T_m, rng)[0] for _ in range(n)])
    grid = np.linspace(-6.0, 6.0, 2001)
    kernel = np.abs(grid * w) ** T_m * np.exp(-0.5 * S * grid**2)
    cdf = integrate.cumulative_trapezoid(kernel, grid, initial=0.0)
    cdf /= cdf[-1]
    stat = stats.kstest(draws, lambda x: np.interp(x, grid, cdf)).statistic
    assert stat < 1.63 / np.sqrt(n)


def test_determinant_direction_law_r3():
    # |b' w| scaled by the whitened norm is a chi(T_m + 1) magnitude
    rng = np.random.default_rng(9)
    G = rng.normal(size=(3, 3))
    S = G @ G.T + 0.5 * np.eye(3)
    w = rng.normal(size=3)
    T_m = 5
    L = np.linalg.cholesky(S)
    tau2 = float(np.linalg.solve(L, w) @ np.linalg.solve(L, w))
    n = 40_000
    factor = factor_candidate(S, w, T_m)
    draws = np.array([draw_row_coefficients(*factor, T_m, rng) @ w for _ in range(n)])
    stat = stats.kstest(draws**2 / tau2, lambda x: stats.chi2.cdf(x, T_m + 1)).statistic
    assert stat < 1.63 / np.sqrt(n)
    assert abs((draws > 0).mean() - 0.5) < 0.01


def test_row_draw_second_moment_vs_quadrature():
    # E[b b'] against 2-D quadrature of the exact kernel
    S = np.array([[1.6, 0.4], [0.4, 1.1]])
    w = np.array([0.8, -0.5])
    T_m = 4

    def moment(i, j):
        def integrand(b1, b2):
            b = np.array([b1, b2])
            return b[i] * b[j] * np.abs(b @ w) ** T_m * np.exp(-0.5 * b @ S @ b)

        val, _ = integrate.dblquad(integrand, -8, 8, -8, 8, epsabs=1e-12, epsrel=1e-9)
        return val

    norm = integrate.dblquad(
        lambda b1, b2: np.abs(np.array([b1, b2]) @ w) ** T_m
        * np.exp(-0.5 * np.array([b1, b2]) @ S @ np.array([b1, b2])),
        -8, 8, -8, 8, epsabs=1e-12, epsrel=1e-9,
    )[0]
    target = np.array([[moment(i, j) for j in range(2)] for i in range(2)]) / norm

    rng = np.random.default_rng(12)
    n = 60_000
    factor = factor_candidate(S, w, T_m)
    draws = np.array([draw_row_coefficients(*factor, T_m, rng) for _ in range(n)])
    got = draws.T @ draws / n
    se = np.abs(draws[:, :, None] * draws[:, None, :]).std(axis=0).max() / np.sqrt(n)
    assert np.max(np.abs(got - target)) < 4.0 * se


def test_row_draw_singular_direction_errors():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="singular"):
        draw_row_coefficients(*factor_candidate(np.eye(2), np.zeros(2), 3), 3, rng)


def test_jitter_handles_semidefinite_precision():
    # rank-deficient by construction; the ridge restores a usable factor
    S = np.array([[1.0, 1.0], [1.0, 1.0]])
    rng = np.random.default_rng(2)
    out = draw_row_coefficients(*factor_candidate(S, np.array([1.0, 0.0]), 1), 1, rng)
    assert out.shape == (2,)
    assert np.all(np.isfinite(out))
