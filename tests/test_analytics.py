"""Post-processing tests: normalization, probabilities, IRFs, density ratios,
summaries."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mssvar.analytics import (
    _hdi_columns,
    heteroskedasticity_sddr,
    impulse_response_draws,
    impulse_responses,
    joint_tvi_change_probability,
    normalize_draws,
    regime_moments,
    regime_probabilities,
    summarize,
    tvi_probabilities,
)
from mssvar.config import ModelConfig
from mssvar.data import build_design
from mssvar.engine import run_chain
from mssvar.patterns import build_pattern_set
from mssvar.regimes import regime_loglik_matrix
from mssvar.simulate import lag_recursion
from mssvar.store import allocate_store


def _blank_store(config, T=4, n_draws=4):
    store = allocate_store(config, T, n_draws)
    for arr in store.blocks.values():
        arr[:] = 0.0
    store.blocks["B"][:] = np.eye(config.N)
    store.blocks["P"][:] = np.eye(config.M)
    store.blocks["pi0"][:] = 1.0 / config.M
    store.blocks["omega_var"][:] = 1.0
    return store


@pytest.fixture(scope="module")
def posterior_store():
    rng = np.random.default_rng(110)
    ds = build_design(rng.normal(size=(41, 2)), np.ones((41, 1)), 1)
    config = ModelConfig(N=2, p=1, M=2, draws=20, burnin=5, seed=8,
                         patterns=build_pattern_set({0: ["**", "*0"]}, 2))
    return ds, run_chain(config, ds)


# ---------------------------------------------------------------------------
# normalization


def test_sign_normalization_is_idempotent(posterior_store):
    _, store = posterior_store
    normalize_draws(store)
    B = store.block("B")
    diag = np.diagonal(B, axis1=2, axis2=3)
    assert np.all(diag >= 0.0)
    before = B.copy()
    normalize_draws(store)
    assert np.array_equal(store.block("B"), before)


def test_sign_normalization_preserves_likelihood(posterior_store):
    ds, store = posterior_store
    i = 3
    A = store.block("A")[i]
    omega = store.block("omega")[i]
    h = store.block("h")[i]
    B_raw = store.block("B")[i].copy()
    flipped = B_raw.copy()
    flipped[:, 0, :] *= -1.0  # re-flip one row in every regime
    eps = ds.y - ds.x @ A.T
    a = regime_loglik_matrix(eps, B_raw, omega, h)
    b = regime_loglik_matrix(eps, flipped, omega, h)
    assert_allclose(a, b, atol=1e-12)


def test_zero_diagonal_is_flagged():
    config = ModelConfig(N=2, p=1, M=1, draws=1)
    store = _blank_store(config)
    store.blocks["B"][0, 0, 0, 0] = 0.0
    store.blocks["B"][0, 0, 0, 1] = 1.0
    with pytest.warns(UserWarning, match="zero diagonal"):
        normalize_draws(store)


def test_label_normalization_aligns_swapped_regimes():
    config = ModelConfig(N=2, p=1, M=2, draws=1)
    store = _blank_store(config, T=6, n_draws=3)
    b = store.blocks
    base = np.array([0, 0, 1, 1, 0, 1])
    b["s"][0] = base
    b["s"][1] = 1 - base  # same partition, swapped labels
    b["s"][2] = base
    b["logml"][:, 0] = [3.0, 1.0, 2.0]  # draw 0 is the reference
    b["omega"][1, :, 0] = 9.0  # mark regime 1 of the swapped draw
    b["B"][1, 0] = 5.0 * np.eye(2)
    normalize_draws(store, policy="labels")
    assert np.array_equal(b["s"][1], base)
    assert_allclose(b["omega"][1, :, 1], 9.0)  # marker moved to regime 2
    assert_allclose(b["B"][1, 1], 5.0 * np.eye(2))
    assert np.array_equal(b["s"][2], base)


def test_unknown_policy_rejected(posterior_store):
    _, store = posterior_store
    with pytest.raises(ValueError):
        normalize_draws(store, policy="sort")


# ---------------------------------------------------------------------------
# probabilities


def test_tvi_probabilities_counts():
    config = ModelConfig(N=2, p=1, M=2, draws=1,
                         patterns=build_pattern_set({0: ["**", "*0"]}, 2))
    store = _blank_store(config, n_draws=4)
    store.blocks["kappa"][:, 0, 0] = [0, 0, 1, 0]
    store.blocks["kappa"][:, 0, 1] = [1, 1, 1, 0]
    probs = tvi_probabilities(store, 0)
    assert_allclose(probs, [[0.75, 0.25], [0.25, 0.75]])
    # fixed equation: single pattern, probability one
    assert_allclose(tvi_probabilities(store, 1), [[1.0], [1.0]])


def test_regime_probabilities(posterior_store):
    _, store = posterior_store
    probs = regime_probabilities(store)
    assert probs.shape == (store.T, 2)
    assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    config = ModelConfig(N=2, p=1, M=2, draws=1)
    tiny = _blank_store(config, T=3, n_draws=5)
    tiny.blocks["s"][:] = [0.0, 1.0, 1.0]
    assert_allclose(regime_probabilities(tiny), [[1, 0], [0, 1], [0, 1]])


def test_joint_change_probability_hand_count():
    config = ModelConfig(N=2, p=1, M=2, draws=1,
                         patterns=build_pattern_set({0: ["**", "*0"]}, 2))
    store = _blank_store(config, n_draws=4)
    store.blocks["kappa"][:, 0, 0] = [0, 0, 1, 1]
    store.blocks["kappa"][:, 0, 1] = [0, 1, 1, 0]
    assert joint_tvi_change_probability(store) == 0.5
    config1 = ModelConfig(N=2, p=1, M=2, draws=1)  # no multi-pattern equations
    assert joint_tvi_change_probability(_blank_store(config1)) == 0.0


# ---------------------------------------------------------------------------
# impulse responses


def test_irf_without_dynamics_is_impact_only():
    B = np.array([[2.0, 0.0], [1.0, 4.0]])
    out = impulse_responses(np.zeros((2, 3)), B, 5, 0, p=1)
    assert_allclose(out[0], np.linalg.inv(B)[:, 0])
    assert_allclose(out[1:], 0.0, atol=1e-15)


def test_irf_scalar_geometric_decay():
    A = np.array([[0.5, 0.0]])
    out = impulse_responses(A, np.eye(1), 6, 0, p=1)
    assert_allclose(out[:, 0], 0.5 ** np.arange(7))


def test_irf_normalization_is_exact():
    rng = np.random.default_rng(111)
    A = rng.normal(size=(2, 3)) * 0.2
    B = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    out = impulse_responses(A, B, 4, 1, p=1, normalize=-0.25)
    assert out[0, 1] == -0.25
    out0 = impulse_responses(A, B, 4, 0, p=1, normalize=0.5)
    assert out0[0, 0] == 0.5
    # B^{-1} of a swap has a zero diagonal: no own-variable impact to scale by
    with pytest.raises(ValueError, match="zero"):
        impulse_responses(np.zeros((2, 3)), np.array([[0.0, 1.0], [1.0, 0.0]]), 2, 0,
                          p=1, normalize=1.0)


def test_irf_matches_simulated_difference():
    A = np.array([[0.4, 0.1, 0.0], [-0.2, 0.6, 0.0]])
    B = np.array([[1.5, 0.0], [0.7, 2.0]])
    H = 10
    pres = np.zeros((1, 2))
    # reduced-form shocks B^{-1} u of a unit structural shock and of none
    eps0 = np.zeros((H + 1, 2))
    base = lag_recursion(A, pres, eps0)
    eps1 = eps0.copy()
    eps1[0] = np.linalg.inv(B) @ np.array([1.0, 0.0])
    shocked = lag_recursion(A, pres, eps1)
    want = shocked - base
    got = impulse_responses(A, B, H, 0, p=1)
    assert np.max(np.abs(got - want)) < 1e-8


@pytest.mark.parametrize("p", [1, 2])
def test_irf_skips_every_deterministic_column(p):
    # d_dim = 3: an intercept and two more deterministic columns after the
    # N*p lag columns, none of which may enter the response
    rng = np.random.default_rng(116)
    N, H = 2, 6
    A_lags = rng.normal(scale=0.3, size=(N, N * p))
    A = np.hstack([A_lags, rng.normal(size=(N, 3)) + 1.0])
    B = rng.normal(size=(N, N)) + 2.0 * np.eye(N)
    want = np.zeros((H + 1 + p, N))  # p zero rows before the impact
    want[p] = np.linalg.solve(B, np.eye(N)[:, 1])
    for t in range(p + 1, H + 1 + p):
        want[t] = A_lags @ want[t - p : t][::-1].ravel()
    got = impulse_responses(A, B, H, 1, p=p)
    assert np.max(np.abs(got - want[p:])) < 1e-12


def test_irf_draws_shape(posterior_store):
    _, store = posterior_store
    out = impulse_response_draws(store, 0, 3, 1)
    assert out.shape == (20, 4, 2)
    assert np.all(np.isfinite(out))


# ---------------------------------------------------------------------------
# heteroskedasticity evidence


def test_sddr_single_atom_arithmetic():
    config = ModelConfig(N=1, p=1, M=1, draws=1)  # omega prior Gamma(1, 1)
    store = _blank_store(config, n_draws=1)
    store.blocks["omega_mean"][:] = 0.0
    store.blocks["omega_var"][:] = 1.0
    got = heteroskedasticity_sddr(store, 0, 0)
    want = -0.5 * np.log(2.0 * np.pi) - np.log(1.0 / np.sqrt(2.0))
    assert_allclose(got, want, rtol=1e-12)


def test_sddr_averages_over_draws():
    config = ModelConfig(N=1, p=1, M=1, draws=1)
    store = _blank_store(config, n_draws=2)
    store.blocks["omega_mean"][:, 0, 0] = [0.0, 1.0]
    store.blocks["omega_var"][:, 0, 0] = [1.0, 0.5]
    d0 = np.exp(-0.5 * np.log(2 * np.pi))
    d1 = np.exp(-0.5 * np.log(2 * np.pi * 0.5) - 0.5 / 0.5)
    want = np.log(0.5 * (d0 + d1)) + 0.5 * np.log(2.0)
    assert_allclose(heteroskedasticity_sddr(store, 0, 0), want, rtol=1e-12)


def test_sddr_rejects_bad_variances():
    config = ModelConfig(N=1, p=1, M=1, draws=1)
    store = _blank_store(config, n_draws=1)
    store.blocks["omega_var"][:] = 0.0
    with pytest.raises(ValueError):
        heteroskedasticity_sddr(store, 0, 0)


# ---------------------------------------------------------------------------
# summaries


def test_summarize_constant_draws_zero_width():
    out = summarize(np.full((50, 3), 2.5))
    assert_allclose(out.median, 2.5)
    assert_allclose(out.hdi_upper - out.hdi_lower, 0.0, atol=1e-15)


def test_summarize_hdi_matches_each_column_alone():
    rng = np.random.default_rng(115)
    draws = np.round(rng.normal(size=(100, 5, 3)), 1)  # rounding makes tied widths
    draws[:, 0, 0] = 0.0
    out = summarize(draws)
    for i, j in np.ndindex(5, 3):
        alone = summarize(draws[:, i, j])
        assert (out.hdi_lower[i, j], out.hdi_upper[i, j]) == (alone.hdi_lower[0],
                                                              alone.hdi_upper[0])
    flat = draws.reshape(100, 15)
    for coverage in (0.01, 0.68, 0.995):
        lo, hi = _hdi_columns(flat, coverage)
        for c in range(15):
            col_lo, col_hi = _hdi_columns(flat[:, c:c + 1], coverage)
            assert (lo[c], hi[c]) == (col_lo[0], col_hi[0])


def test_hdi_matches_normal_quantiles():
    rng = np.random.default_rng(113)
    draws = rng.standard_normal(200_000)
    out = summarize(draws)
    lo, hi = out.hdi_lower[0], out.hdi_upper[0]
    assert abs(lo + 1.0) < 0.02 and abs(hi - 1.0) < 0.02
    inside = np.mean((draws >= lo) & (draws <= hi))
    assert abs(inside - 0.68) < 0.005


def test_hdi_prefers_the_dense_side():
    rng = np.random.default_rng(114)
    draws = rng.exponential(size=100_000)
    lo, hi = (v[0] for v in _hdi_columns(draws[:, None], 0.5))
    assert lo < 0.01  # mass piles up at zero
    assert hi < np.quantile(draws, 0.75)
    with pytest.raises(ValueError):
        _hdi_columns(np.zeros((0, 1)), 0.5)


def test_regime_moments_hard_assignment_and_empty_regime():
    y = np.array([[1.0, 0.0], [3.0, 0.0], [10.0, 10.0]])
    probs = np.array([[0.9, 0.1], [0.8, 0.2], [0.6, 0.4]])  # all argmax to 0
    out = regime_moments(y, probs)
    assert_allclose(out[0]["mean"], y.mean(axis=0))
    assert out[0]["weight"] == 3.0
    assert np.all(np.isnan(out[1]["mean"]))
    assert out[1]["weight"] == 0.0


def test_regime_moments_rejects_probabilities_of_another_length():
    y = np.ones((58, 2))
    probs = np.full((200, 2), 0.5)
    with pytest.raises(ValueError, match="58 periods .* cover 200"):
        regime_moments(y, probs)
