"""Sampler orchestration: initialization, sweep invariants, chain bookkeeping."""

import copy

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mssvar import engine
from mssvar.config import ModelConfig
from mssvar.data import Dataset, build_design, empty_dataset
from mssvar.engine import chain_rng, gibbs_sweep, initialize_state, run_chain
from mssvar.patterns import build_pattern_set
from mssvar.priors import update_shrinkage_chain
from mssvar.store import allocate_store, record_draw


def _small_config(**kw):
    base = dict(N=2, p=1, M=2, draws=5, burnin=2, seed=7,
                patterns=build_pattern_set({0: ["**", "*0"]}, 2))
    base.update(kw)
    return ModelConfig(**base)


def _dataset(rng, N=2, T_raw=41, p=1):
    return build_design(rng.normal(size=(T_raw, N)), np.ones((T_raw, 1)), p)


def test_initialize_matches_least_squares():
    rng = np.random.default_rng(70)
    ds = _dataset(rng)
    config = _small_config()
    state = initialize_state(config, ds, np.random.default_rng(1))
    ols = np.linalg.lstsq(ds.x, ds.y, rcond=None)[0].T
    assert_allclose(state.A, ols, atol=1e-10)
    state.validate(config, ds.T)
    again = initialize_state(config, ds, np.random.default_rng(1))
    assert np.array_equal(state.s, again.s)
    assert np.array_equal(state.B, again.B)


def test_initialize_structural_factor_matches_residual_covariance():
    rng = np.random.default_rng(71)
    C = np.array([[2.0, 0.7], [0.7, 1.5]])
    y = rng.multivariate_normal(np.zeros(2), C, size=1001)
    ds = build_design(y, np.ones((1001, 1)), 1)
    config = ModelConfig(N=2, p=1, M=2, draws=1)
    state = initialize_state(config, ds, np.random.default_rng(2))
    eps = ds.y - ds.x @ state.A.T
    cov = eps.T @ eps / ds.T
    Binv = np.linalg.inv(state.B[0])
    assert_allclose(Binv @ Binv.T, cov, atol=1e-6)
    assert np.max(np.abs(Binv @ Binv.T - C) / np.abs(C)) < 0.1
    assert np.array_equal(state.B[0], state.B[1])


def test_initialize_rank_deficient_design_errors():
    rng = np.random.default_rng(72)
    y = rng.normal(size=(20, 2))
    x = np.column_stack([y[:, :1], y[:, :1], np.ones(20)])  # duplicated column
    ds = Dataset(y=y, x=x, p=1, presample=np.zeros((1, 2)))
    with pytest.raises(ValueError, match="rank"):
        initialize_state(ModelConfig(N=2, p=1, draws=1), ds, np.random.default_rng(0))


def test_initialize_prior_mode_uses_unit_root_center():
    config = _small_config()
    ds = empty_dataset(2, 1)
    state = initialize_state(config, ds, np.random.default_rng(3))
    assert_allclose(state.A, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    assert_allclose(state.B[0], np.eye(2))
    assert state.s.shape == (0,)
    state.validate(config, 0)


def test_sweep_preserves_invariants():
    rng = np.random.default_rng(73)
    ds = _dataset(rng, T_raw=41)
    config = _small_config()
    state = initialize_state(config, ds, rng)
    for _ in range(200):
        gibbs_sweep(state, ds, config, rng)
        state.validate(config, ds.T)
    assert np.isfinite(state.logml)


def test_sweep_prior_mode_runs_and_validates():
    config = _small_config()
    ds = empty_dataset(2, 1)
    rng = np.random.default_rng(74)
    state = initialize_state(config, ds, rng)
    for _ in range(50):
        gibbs_sweep(state, ds, config, rng)
        state.validate(config, 0)
    assert state.logml == 0.0


def test_sweep_prior_mode_indicator_is_uniform():
    config = _small_config()
    ds = empty_dataset(2, 1)
    rng = np.random.default_rng(75)
    state = initialize_state(config, ds, rng)
    hits = 0
    n = 4000
    for _ in range(n):
        gibbs_sweep(state, ds, config, rng)
        hits += int(state.kappa[0, 0] == 1)
    assert abs(hits / n - 0.5) < 0.03


def test_sweep_fixed_loadings_stay_zero():
    rng = np.random.default_rng(76)
    ds = _dataset(rng)
    config = _small_config(fix_omega_at_zero=True)
    state = initialize_state(config, ds, rng)
    for _ in range(20):
        gibbs_sweep(state, ds, config, rng)
        assert np.all(state.omega == 0.0)
        assert np.all(state.sigma2_omega > 0.0)
        state.validate(config, ds.T)


@pytest.mark.parametrize("M", [2, 3])
def test_structural_shrinkage_sums_every_drawn_row_once(M, monkeypatch):
    # step (7) must see, per equation, the squared free coefficients and the
    # pattern sizes of the rows that step (6) drew, one term per regime
    calls = []

    def spy(chain, sum_sq, counts, rng):
        calls.append((sum_sq.copy(), counts.copy()))
        return update_shrinkage_chain(chain, sum_sq, counts, rng)

    monkeypatch.setattr(engine, "update_shrinkage_chain", spy)
    rng = np.random.default_rng(78)
    ds = _dataset(rng, N=3, T_raw=61)
    config = ModelConfig(N=3, p=1, M=M, draws=1, patterns=build_pattern_set(
        {0: ["***", "*0*", "**0"], 2: ["***", "0**"]}, 3))
    state = initialize_state(config, ds, rng)
    for _ in range(30):
        calls.clear()
        gibbs_sweep(state, ds, config, rng)
        sum_sq, counts = calls[0]  # the second call is the autoregressive chain's
        pats = [[config.patterns.equations[n][state.kappa[n, m]] for m in range(M)]
                for n in range(3)]
        want_sq = [sum(np.sum(state.B[m, n, pats[n][m].free_idx] ** 2) for m in range(M))
                   for n in range(3)]
        assert_allclose(sum_sq, want_sq, rtol=1e-13)
        assert counts.tolist() == [sum(pat.r for pat in pats[n]) for n in range(3)]
    assert len(calls) == 2


def test_run_chain_bookkeeping_matches_manual_loop():
    rng = np.random.default_rng(77)
    ds = _dataset(rng, T_raw=31)
    config = _small_config(draws=5, burnin=4, thin=2, seed=11)
    store = run_chain(config, ds)

    manual_rng = chain_rng(config.seed, 0)
    state = initialize_state(config, ds, manual_rng)
    manual = allocate_store(config, ds.T, config.draws, chain_id=0)
    kept = 0
    for it in range(config.burnin + config.draws * config.thin):
        gibbs_sweep(state, ds, config, manual_rng)
        if it >= config.burnin and (it - config.burnin) % config.thin == 0:
            record_draw(manual, kept, state)
            kept += 1
    assert kept == config.draws
    for name in store.blocks:
        assert np.array_equal(store.blocks[name], manual.blocks[name]), name


def test_run_chain_same_seed_is_bit_identical():
    rng = np.random.default_rng(78)
    ds = _dataset(rng, T_raw=31)
    config = _small_config(draws=4, burnin=2, seed=19)
    a = run_chain(config, ds)
    b = run_chain(config, ds)
    for name in a.blocks:
        assert np.array_equal(a.blocks[name], b.blocks[name]), name


def test_run_chain_distinct_chains_differ():
    rng = np.random.default_rng(79)
    ds = _dataset(rng, T_raw=31)
    config = _small_config(draws=4, burnin=2, seed=19)
    a = run_chain(config, ds, chain_id=0)
    b = run_chain(config, ds, chain_id=1)
    assert not np.array_equal(a.blocks["A"], b.blocks["A"])


def test_run_chain_rejects_dataset_config_mismatch():
    rng = np.random.default_rng(73)
    config = _small_config()
    for ds in (_dataset(rng, p=2), _dataset(rng, N=3),
               build_design(rng.normal(size=(41, 2)), np.ones((41, 2)), 1)):
        with pytest.raises(ValueError) as exc:
            run_chain(config, ds)
        msg = str(exc.value)
        assert f"dataset has N={ds.N}, p={ds.p}, d_dim={ds.d_dim}" in msg
        assert "config declares N=2, p=1, d_dim=1" in msg


def test_validate_rejects_broken_states():
    rng = np.random.default_rng(80)
    ds = _dataset(rng)
    config = _small_config()
    good = initialize_state(config, ds, rng)

    bad = copy.deepcopy(good)
    bad.h = np.zeros((2, ds.T + 1))
    with pytest.raises(ValueError, match="shape"):
        bad.validate(config, ds.T)

    bad = copy.deepcopy(good)
    bad.P = np.array([[0.9, 0.2], [0.3, 0.7]])
    with pytest.raises(ValueError, match="sum to one"):
        bad.validate(config, ds.T)

    bad = copy.deepcopy(good)
    bad.B[0, 0, 1] = 0.5
    bad.kappa[0, 0] = 1  # pattern *0 restricts that entry
    with pytest.raises(ValueError, match="restricted"):
        bad.validate(config, ds.T)

    bad = copy.deepcopy(good)
    bad.rho = np.array([0.5, 1.0])
    with pytest.raises(ValueError, match="persistence"):
        bad.validate(config, ds.T)

    bad = copy.deepcopy(good)
    bad.B[1] = 0.0
    bad.B[1, 0, 0] = 1.0
    with pytest.raises(ValueError, match="singular"):
        bad.validate(config, ds.T)

    bad = copy.deepcopy(good)
    bad.A = bad.A * np.nan
    with pytest.raises(ValueError, match="non-finite"):
        bad.validate(config, ds.T)
