"""Joint-distribution harness: prior sampler sanity and z-score panel."""

import numpy as np
import pytest

from mssvar import geweke
from mssvar.geweke import geweke_joint_test, prior_draw
from mssvar.selfcheck import GEWEKE_CONFIG


def _config(**kw):
    return GEWEKE_CONFIG.with_updates(draws=5, burnin=2, seed=7, **kw)


def test_prior_draw_shapes_and_validity():
    config = _config()
    state = prior_draw(config, 25, np.random.default_rng(0))
    state.validate(config, 25)
    assert state.s.shape == (25,)
    assert state.h.shape == (2, 25)


def test_prior_draw_respects_pattern_masks():
    config = _config()
    mask = np.asarray(config.patterns.equations[0][1].mask)
    hits = 0
    rng = np.random.default_rng(1)
    for _ in range(50):
        state = prior_draw(config, 0, rng)
        for m in range(config.M):
            if state.kappa[0, m] == 1:
                hits += 1
                assert np.all(state.B[m, 0][mask == 0] == 0.0)
    assert hits > 0  # both patterns get visited


def test_prior_draw_fix_omega_at_zero():
    config = _config(fix_omega_at_zero=True)
    state = prior_draw(config, 10, np.random.default_rng(2))
    assert np.all(state.omega == 0.0)


def test_harness_reports_finite_panel():
    config = _config()
    result = geweke_joint_test(config, 400, np.random.default_rng(3), T=12, batches=20)
    assert all(np.isfinite(v) for v in result.z_scores.values())
    assert result.max_abs_z == max(abs(v) for v in result.z_scores.values())
    for key in ("omega_abs[0,0]", "sigma2_omega[0]", "kappa0[0,1]", "s_frac[0]"):
        assert key in result.z_scores


def test_harness_restarts_each_batch_from_a_prior_draw(monkeypatch):
    # one batch of a draw per prior-side cycle, then a fresh start of one
    # draw per Gibbs-side run
    sizes = []
    real_prior_draws = geweke.prior_draws

    def counting_prior_draws(config, T, rng, n):
        sizes.append(n)
        return real_prior_draws(config, T, rng, n)

    monkeypatch.setattr(geweke, "prior_draws", counting_prior_draws)
    geweke_joint_test(_config(), 400, np.random.default_rng(3), T=12, batches=20)
    assert sum(sizes) == 400 + 20
    assert sizes == [400] + [1] * 20


def test_prior_batch_has_the_moments_of_single_draws():
    # a large batch and as many batches of one draw the same prior: the
    # Geweke statistics' means agree within a z bound at a fixed seed
    config, n = _config(), 4000
    rng = np.random.default_rng(11)
    batch = geweke._statistics(geweke.prior_draws(config, 30, rng, n), config)
    singles = [geweke.prior_draws(config, 30, rng, 1) for _ in range(n)]
    single = geweke._statistics(
        {name: np.concatenate([d[name] for d in singles]) for name in singles[0]}, config
    )
    for name, a in batch.items():
        b = single[name]
        se = np.hypot(a.std(ddof=1), b.std(ddof=1)) / np.sqrt(n)
        assert abs(a.mean() - b.mean()) < 4.0 * se, name


def test_harness_needs_a_period():
    with pytest.raises(ValueError, match="T >= 1"):
        geweke_joint_test(_config(), 400, np.random.default_rng(3), T=0, batches=20)
