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
    # one draw per prior-side cycle plus one fresh start per Gibbs-side run
    calls = []
    real_prior_draw = geweke.prior_draw

    def counting_prior_draw(*args, **kwargs):
        calls.append(1)
        return real_prior_draw(*args, **kwargs)

    monkeypatch.setattr(geweke, "prior_draw", counting_prior_draw)
    geweke_joint_test(_config(), 400, np.random.default_rng(3), T=12, batches=20)
    assert len(calls) == 400 + 20


def test_harness_needs_a_period():
    with pytest.raises(ValueError, match="T >= 1"):
        geweke_joint_test(_config(), 400, np.random.default_rng(3), T=0, batches=20)
