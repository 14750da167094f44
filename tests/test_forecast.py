"""Predictive simulation and forecast scoring tests.

Scoring identities are frozen numbers; the horizon-one density has a
closed Gaussian-mixture form that scipy can verify directly.
"""

import copy
import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from mssvar.analytics import normalize_draws
from mssvar.config import ModelConfig
from mssvar.data import build_design, empty_dataset
from mssvar.engine import run_chain
from mssvar.forecast import (
    EvaluationRow,
    ForecastReport,
    log_predictive_score,
    predictive_draws,
    predictive_log_densities,
    rmsfe,
    rolling_evaluation,
)
from mssvar.store import allocate_store


def _manual_store(config, ds, n_draws):
    store = allocate_store(config, ds.T, n_draws)
    for arr in store.blocks.values():
        arr[:] = 0.0
    store.blocks["B"][:] = np.eye(config.N)
    store.blocks["P"][:] = np.eye(config.M)
    store.blocks["pi0"][:] = 1.0 / config.M
    store.blocks["omega_var"][:] = 1.0
    return store


def _small_dataset(rng, N=2, T_raw=21):
    return build_design(rng.normal(size=(T_raw, N)), np.ones((T_raw, 1)), 1)


# ---------------------------------------------------------------------------
# scoring identities


def test_log_score_single_standard_normal_draw():
    score = log_predictive_score(np.array([stats.norm.logpdf(0.0)]))
    assert abs(score - (-0.91894)) < 1e-5


def test_log_score_two_draw_mixture():
    ld = np.array([stats.norm.logpdf(0.0), stats.norm.logpdf(1.0)])
    # log(0.5 * (0.39894 + 0.24197))
    assert abs(log_predictive_score(ld) - (-1.13801)) < 1e-5


def test_log_score_identical_draws_collapse():
    one = log_predictive_score(np.array([-1.3]))
    many = log_predictive_score(np.full(50, -1.3))
    assert_allclose(one, many, rtol=1e-15)
    assert_allclose(one, -1.3)


def test_log_score_underflow_and_empty():
    with pytest.raises(ValueError, match="underflow"):
        log_predictive_score(np.array([-np.inf, -np.inf]))
    with pytest.raises(ValueError, match="no per-draw"):
        log_predictive_score(np.zeros(0))


def test_rmsfe_hand_values():
    f = np.array([[1.0], [2.0]])
    z = np.array([[1.0], [4.0]])
    assert_allclose(rmsfe(f, z), [np.sqrt(2.0)])
    assert_allclose(rmsfe(z, z), [0.0])
    with pytest.raises(ValueError):
        rmsfe(f, z[:1])


# ---------------------------------------------------------------------------
# exact horizon-one densities


def test_horizon_one_density_matches_multivariate_normal():
    rng = np.random.default_rng(120)
    ds = _small_dataset(rng)
    config = ModelConfig(N=2, p=1, M=1, draws=1)
    store = _manual_store(config, ds, n_draws=1)
    A = np.array([[0.5, 0.1, 0.3], [-0.2, 0.4, -0.1]])
    B = np.array([[1.5, 0.0], [0.7, 2.0]])
    store.blocks["A"][0] = A
    store.blocks["B"][0, 0] = B
    y_real = np.array([0.3, -0.8])
    ld = predictive_log_densities(store, ds, y_real, 1, seed=4)
    x_next = np.concatenate([ds.y[-1], [1.0]])
    Binv = np.linalg.inv(B)
    want = stats.multivariate_normal(mean=A @ x_next, cov=Binv @ Binv.T).logpdf(y_real)
    assert_allclose(ld[0], want, rtol=1e-12)


def test_horizon_one_marginal_density():
    rng = np.random.default_rng(121)
    ds = _small_dataset(rng)
    config = ModelConfig(N=2, p=1, M=1, draws=1)
    store = _manual_store(config, ds, n_draws=1)
    B = np.array([[1.5, 0.0], [0.7, 2.0]])
    store.blocks["B"][0, 0] = B
    y_real = np.array([0.3, -0.8])
    ld = predictive_log_densities(store, ds, y_real, 1, seed=4, variable=1)
    cov = np.linalg.inv(B) @ np.linalg.inv(B).T
    want = stats.norm(loc=0.0, scale=np.sqrt(cov[1, 1])).logpdf(y_real[1])
    assert_allclose(ld[0], want, rtol=1e-12)


def test_horizon_one_regime_mixture_density():
    rng = np.random.default_rng(122)
    ds = _small_dataset(rng)
    config = ModelConfig(N=2, p=1, M=2, draws=1)
    store = _manual_store(config, ds, n_draws=1)
    B2 = np.stack([np.eye(2), 0.5 * np.eye(2)])
    store.blocks["B"][0] = B2
    store.blocks["P"][0] = [[0.7, 0.3], [0.4, 0.6]]
    store.blocks["s"][0, -1] = 0.0
    y_real = np.array([1.0, -0.5])
    ld = predictive_log_densities(store, ds, y_real, 1, seed=4)
    d1 = stats.multivariate_normal(mean=np.zeros(2), cov=np.eye(2)).pdf(y_real)
    d2 = stats.multivariate_normal(mean=np.zeros(2), cov=4.0 * np.eye(2)).pdf(y_real)
    assert_allclose(ld[0], np.log(0.7 * d1 + 0.3 * d2), rtol=1e-12)


def test_prior_only_store_starts_from_regime_one_and_the_presample():
    # a store with T = 0 has no last regime or volatility: paths start in
    # regime 1 with h = 0, and the lags come from the dataset's presample
    config = ModelConfig(N=2, p=1, M=2, draws=1)
    ds = empty_dataset(2, 1)
    store = _manual_store(config, ds, n_draws=1)
    store.blocks["A"][0] = [[0.5, 0.0, 1.0], [0.0, 0.5, -1.0]]
    store.blocks["B"][0] = np.stack([np.eye(2), 0.5 * np.eye(2)])
    store.blocks["P"][0] = [[0.7, 0.3], [0.4, 0.6]]
    y_real = np.array([1.0, -0.5])
    ld = predictive_log_densities(store, ds, y_real, 1, seed=4)
    mean = np.array([1.0, -1.0])  # the intercept, as the presample is zero
    d1 = stats.multivariate_normal(mean=mean, cov=np.eye(2)).pdf(y_real)
    d2 = stats.multivariate_normal(mean=mean, cov=4.0 * np.eye(2)).pdf(y_real)
    assert_allclose(ld[0], np.log(0.7 * d1 + 0.3 * d2), rtol=1e-12)
    assert predictive_draws(store, ds, 2, seed=4).shape == (1, 2, 2)


# ---------------------------------------------------------------------------
# ancestral simulation


def test_predictive_draws_white_noise_moments():
    rng = np.random.default_rng(123)
    ds = _small_dataset(rng)
    config = ModelConfig(N=2, p=1, M=1, draws=1)
    store = _manual_store(config, ds, n_draws=3000)
    sims = predictive_draws(store, ds, 2, seed=5)
    assert sims.shape == (3000, 2, 2)
    flat = sims.reshape(-1, 2)
    n = flat.shape[0]
    assert np.max(np.abs(flat.mean(axis=0))) < 4.0 / np.sqrt(n)
    assert np.max(np.abs(np.cov(flat.T) - np.eye(2))) < 5.0 / np.sqrt(n)


def test_predictive_draws_follow_the_frozen_regime():
    rng = np.random.default_rng(124)
    ds = _small_dataset(rng)
    config = ModelConfig(N=2, p=1, M=2, draws=1)
    store = _manual_store(config, ds, n_draws=2000)
    store.blocks["B"][:, 1] = 10.0 * np.eye(2)  # regime 2 shrinks shocks 10x
    store.blocks["s"][:, -1] = 1.0  # identity P keeps every path there
    sims = predictive_draws(store, ds, 1, seed=6)
    sd = sims[:, 0, :].std(axis=0)
    assert np.max(np.abs(sd - 0.1)) < 0.01


def test_predictive_draws_deterministic_in_seed():
    rng = np.random.default_rng(125)
    ds = _small_dataset(rng)
    config = ModelConfig(N=2, p=1, M=1, draws=1)
    store = _manual_store(config, ds, n_draws=10)
    a = predictive_draws(store, ds, 3, seed=9)
    b = predictive_draws(store, ds, 3, seed=9)
    c = predictive_draws(store, ds, 3, seed=10)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def _var1_store(ds, n_draws):
    """Identical draws of a homoskedastic one-regime VAR(1) with an intercept."""
    config = ModelConfig(N=2, p=1, M=1, draws=1)
    store = _manual_store(config, ds, n_draws)
    A = np.array([[0.5, 0.2, 0.3], [-0.1, 0.4, -0.2]])
    B = np.array([[1.5, 0.0], [0.7, 2.0]])
    store.blocks["A"][:] = A
    store.blocks["B"][:, 0] = B
    Binv = np.linalg.inv(B)
    return store, A[:, :2], A[:, 2], Binv @ Binv.T


def _var1_moments(A1, c, sigma, y_last, horizon):
    """Closed-form mean and covariance of the horizon-step forecast."""
    mean, cov = y_last, np.zeros_like(sigma)
    for _ in range(horizon):
        mean = A1 @ mean + c
        cov = A1 @ cov @ A1.T + sigma  # sum over k of A1^k sigma A1^k'
    return mean, cov


def test_predictive_draws_multi_step_moments():
    rng = np.random.default_rng(129)
    ds = _small_dataset(rng)
    n = 4000
    store, A1, c, sigma = _var1_store(ds, n)
    sims = predictive_draws(store, ds, 3, seed=7)
    assert sims.shape == (n, 3, 2)
    for k in range(1, 4):
        mean, cov = _var1_moments(A1, c, sigma, ds.y[-1], k)
        step = sims[:, k - 1]
        mean_se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(step.mean(axis=0) - mean) < 4.0 * mean_se)
        # sampling sd of a covariance entry: sqrt((s_ii s_jj + s_ij^2) / n)
        cov_se = np.sqrt((np.outer(np.diag(cov), np.diag(cov)) + cov**2) / n)
        assert np.all(np.abs(np.cov(step.T) - cov) < 5.0 * cov_se)


@pytest.mark.parametrize("variable", [None, 0, 1])
def test_two_step_log_score_matches_closed_form(variable):
    rng = np.random.default_rng(130)
    ds = _small_dataset(rng)
    store, A1, c, sigma = _var1_store(ds, 4000)
    mean, cov = _var1_moments(A1, c, sigma, ds.y[-1], 2)
    y_real = mean + np.array([0.6, -0.4])
    ld = predictive_log_densities(store, ds, y_real, 2, seed=8, variable=variable)
    if variable is None:
        want = stats.multivariate_normal(mean=mean, cov=cov).logpdf(y_real)
    else:
        want = stats.norm(mean[variable], np.sqrt(cov[variable, variable])).logpdf(
            y_real[variable])
    # delta-method standard error of the log of the draw-averaged density
    dens = np.exp(ld)
    se = dens.std(ddof=1) / (np.sqrt(dens.size) * dens.mean())
    assert abs(log_predictive_score(ld) - want) < 4.0 * se


@pytest.mark.parametrize("simulate", [
    lambda store, ds: predictive_draws(store, ds, 1),
    lambda store, ds: predictive_log_densities(store, ds, np.zeros(2), 1),
], ids=["predictive_draws", "predictive_log_densities"])
def test_predictive_rejects_extra_deterministic_columns(simulate):
    rng = np.random.default_rng(126)
    y = rng.normal(size=(21, 2))
    d = np.column_stack([np.ones(21), np.arange(21.0)])
    ds = build_design(y, d, 1)
    config = ModelConfig(N=2, p=1, M=1, d_dim=2, draws=1)
    store = _manual_store(config, ds, n_draws=2)
    with pytest.raises(ValueError, match="intercept-only"):
        simulate(store, ds)


# ---------------------------------------------------------------------------
# invariance and evaluation plumbing


def test_scores_invariant_to_sign_normalization():
    rng = np.random.default_rng(127)
    ds = _small_dataset(rng, T_raw=31)
    config = ModelConfig(N=2, p=1, M=2, draws=12, burnin=4, seed=21)
    store = run_chain(config, ds)
    y_real = np.array([0.2, 0.1])
    before = predictive_log_densities(store, ds, y_real, 1, seed=3)
    flipped = copy.deepcopy(store)
    normalize_draws(flipped)
    assert not np.array_equal(flipped.block("B"), store.block("B"))  # flips happened
    after = predictive_log_densities(flipped, ds, y_real, 1, seed=3)
    assert_allclose(after, before, rtol=1e-12)
    assert_allclose(
        log_predictive_score(after), log_predictive_score(before), rtol=1e-12
    )


def test_report_tables_and_csv(tmp_path):
    rows = [
        EvaluationRow("tvi", 10, 1, np.array([1.0]), np.array([1.0]), -1.0),
        EvaluationRow("tvi", 11, 1, np.array([2.0]), np.array([4.0]), -2.0),
        EvaluationRow("fixed", 10, 1, np.array([1.0]), np.array([2.0]), -1.5),
        EvaluationRow("fixed", 11, 1, np.array([4.0]), np.array([4.0]), -2.5),
    ]
    report = ForecastReport(rows=rows)
    assert report.models() == ["tvi", "fixed"]
    table = report.rmsfe_table(1)
    assert_allclose(table["tvi"], [np.sqrt(2.0)])
    assert_allclose(table["fixed"], [np.sqrt(0.5)])
    rel = report.relative_rmsfe(1, "tvi")
    assert_allclose(rel["tvi"], [1.0])
    assert_allclose(rel["fixed"], [0.5])
    scores = report.mean_log_score(1)
    assert_allclose(scores["tvi"], -1.5)
    assert_allclose(scores["fixed"], -2.0)

    path = tmp_path / "report.csv"
    report.write_csv(str(path))
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["model", "origin", "horizon", "log_score", "point_1", "realized_1"]
    assert got[1] == ["tvi", "10", "1", "-1.0", "1.0", "1.0"]
    assert len(got) == 5


def test_rolling_evaluation_end_to_end():
    rng = np.random.default_rng(128)
    y_raw = rng.normal(size=(46, 2))
    models = {
        "a": ModelConfig(N=2, p=1, M=1, draws=8, burnin=3),
        "b": ModelConfig(N=2, p=1, M=1, draws=8, burnin=3, fix_omega_at_zero=True),
    }
    report = rolling_evaluation(models, y_raw, origins=[40, 42], horizons=[1, 2], seed=2)
    assert len(report.rows) == 8
    assert set(report.models()) == {"a", "b"}
    for r in report.rows:
        assert np.isfinite(r.log_score)
        assert_allclose(r.realized, y_raw[r.origin + r.horizon])
    with pytest.raises(ValueError, match="origin"):
        rolling_evaluation(models, y_raw, origins=[45], horizons=[1], seed=2)


@pytest.mark.parametrize("origins, horizons, message", [
    ([40], [0], "horizons must be at least 1, got 0"),
    ([40], [2, -1], "horizons must be at least 1, got -1"),
    ([40, -5], [1], "origins must be at least 0, got -5"),
])
def test_rolling_evaluation_rejects_out_of_range_before_any_chain(
    monkeypatch, origins, horizons, message
):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran")

    monkeypatch.setattr("mssvar.engine.run_chain", no_chain)
    models = {"a": ModelConfig(N=2, p=1, M=1, draws=8, burnin=3)}
    y_raw = np.random.default_rng(129).normal(size=(46, 2))
    with pytest.raises(ValueError, match=message):
        rolling_evaluation(models, y_raw, origins=origins, horizons=horizons)


def test_log_density_rejects_horizon_zero():
    ds = _small_dataset(np.random.default_rng(130))
    store = _manual_store(ModelConfig(N=2, p=1, M=1, draws=1), ds, 3)
    with pytest.raises(ValueError, match="horizon must be at least 1, got 0"):
        predictive_log_densities(store, ds, np.zeros(2), 0)
