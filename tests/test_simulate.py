"""Generative-model simulator tests."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from mssvar.data import load_dataset
from mssvar.simulate import (
    DgpTruth,
    companion_matrix,
    follow,
    generate_dgp,
    lag_recursion,
    simulate_regimes,
    spectral_radius,
    write_csv,
)


def _white_noise_truth(N=2, B=None):
    return DgpTruth(
        A=np.zeros((N, N + 1)),
        B=np.eye(N)[None] if B is None else B,
        P=np.eye(1),
        pi0=np.ones(1),
        omega=np.zeros((N, 1)),
        rho=np.zeros(N),
    )


def test_companion_matrix_and_spectral_radius():
    A = np.array([[0.5, 0.1, 0.2, 0.0, 0.3], [0.0, 0.4, 0.1, 0.1, -0.2]])
    F = companion_matrix(A, 2, 2)
    assert F.shape == (4, 4)
    assert_allclose(F[:2, :], A[:, :4])
    assert_allclose(F[2:, :2], np.eye(2))
    assert_allclose(F[2:, 2:], np.zeros((2, 2)))
    # scalar AR(1): radius is |coefficient|
    F1 = companion_matrix(np.array([[-0.7, 0.0]]), 1, 1)
    assert_allclose(spectral_radius(F1), 0.7)


def test_white_noise_moments():
    rng = np.random.default_rng(90)
    truth = _white_noise_truth()
    ds, rec = generate_dgp(truth, 100_000, rng)
    assert ds.T == 100_000
    assert np.all(rec.s == 0)
    assert not rec.explosive
    cov = np.cov(ds.y.T)
    se = 1.0 / np.sqrt(ds.T)
    assert np.max(np.abs(ds.y.mean(axis=0))) < 4.0 * se
    assert np.max(np.abs(cov - np.eye(2))) < 5.0 * se


def test_structural_matrix_shapes_reduced_form_covariance():
    rng = np.random.default_rng(91)
    B = np.array([[2.0, 0.0], [1.0, 4.0]])
    truth = _white_noise_truth(B=B[None])
    ds, _ = generate_dgp(truth, 200_000, rng)
    Binv = np.linalg.inv(B)
    want = Binv @ Binv.T
    got = ds.y.T @ ds.y / ds.T
    assert np.max(np.abs(got - want)) < 5.0 / np.sqrt(ds.T)


def test_regime_path_degenerate_chain():
    rng = np.random.default_rng(92)
    truth = DgpTruth(
        A=np.zeros((2, 3)),
        B=np.stack([np.eye(2), 2.0 * np.eye(2)]),
        P=np.eye(2),
        pi0=np.array([0.0, 1.0]),
        omega=np.zeros((2, 2)),
        rho=np.zeros(2),
    )
    ds, rec = generate_dgp(truth, 500, rng)
    assert np.all(rec.s == 1)
    # regime 2 halves the shock scale
    assert ds.y.std() < 0.7


def test_volatility_loading_scales_shocks():
    rng = np.random.default_rng(93)
    truth = DgpTruth(
        A=np.zeros((1, 2)),
        B=np.eye(1)[None],
        P=np.eye(1),
        pi0=np.ones(1),
        omega=np.array([[2.0]]),
        rho=np.array([0.95]),
    )
    ds, rec = generate_dgp(truth, 20_000, rng)
    # log squared shocks track omega * h up to log chi2 noise
    corr = np.corrcoef(np.log(rec.u[0] ** 2 + 1e-300), 2.0 * rec.h[0])[0, 1]
    assert corr > 0.6


def test_shock_round_trip():
    rng = np.random.default_rng(94)
    A = np.array([[0.5, 0.2, 0.1], [-0.1, 0.3, 0.0]])
    B = np.array([[[1.5, 0.0], [0.7, 2.0]], [[1.0, 0.3], [0.0, 1.2]]])
    truth = DgpTruth(
        A=A, B=B,
        P=np.array([[0.9, 0.1], [0.2, 0.8]]),
        pi0=np.array([0.5, 0.5]),
        omega=np.array([[0.5, -0.3], [0.2, 0.8]]),
        rho=np.array([0.9, 0.6]),
    )
    ds, rec = generate_dgp(truth, 300, rng)
    eps = ds.y - ds.x @ A.T
    u = np.einsum("tij,tj->ti", B[rec.s], eps).T
    assert_allclose(u, rec.u, atol=1e-10)
    # replaying the recorded shocks through the propagator reproduces y
    eps2 = np.einsum("tij,jt->ti", np.linalg.inv(B)[rec.s], rec.u)
    y2 = lag_recursion(A, ds.presample, eps2)
    assert_allclose(y2, ds.y, atol=1e-10)


def test_explosive_truth_warns_but_runs():
    rng = np.random.default_rng(95)
    truth = DgpTruth(
        A=np.array([[1.05, 0.0]]),
        B=np.eye(1)[None],
        P=np.eye(1),
        pi0=np.ones(1),
        omega=np.zeros((1, 1)),
        rho=np.zeros(1),
    )
    with pytest.warns(UserWarning, match="explosive"):
        ds, rec = generate_dgp(truth, 50, rng)
    assert rec.explosive
    assert ds.T == 50


def test_intercept_only_deterministic_supported():
    truth = DgpTruth(
        A=np.zeros((1, 3)),  # claims p=2 via width
        B=np.eye(1)[None],
        P=np.eye(1),
        pi0=np.ones(1),
        omega=np.zeros((1, 1)),
        rho=np.zeros(1),
    )
    with pytest.raises(ValueError):
        generate_dgp(truth, 10, np.random.default_rng(0), p=3)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(96)
    truth = _white_noise_truth()
    ds, _ = generate_dgp(truth, 40, rng)
    path = tmp_path / "sim.csv"
    write_csv(str(path), ds)
    loaded = load_dataset(str(path), ds.p, variables=["y1", "y2"])
    assert_allclose(loaded.y, ds.y, atol=0)
    assert_allclose(loaded.x, ds.x, atol=0)
    assert loaded.dates[0] != ""


def _follow_loop(first, nxt):
    """The step-by-step reference walk of a successor table."""
    batch, (steps, M) = nxt.shape[:-2], nxt.shape[-2:]
    s = np.empty((*batch, steps + 1), dtype=np.int64)
    s[..., 0] = first
    for idx in np.ndindex(*batch):
        for t in range(steps):
            s[idx + (t + 1,)] = nxt[idx + (t, s[idx + (t,)])]
    return s


@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
@pytest.mark.parametrize("steps", [0, 1, 2, 3, 57, 600])
def test_follow_matches_step_by_step_walk(batch, steps):
    gen = np.random.default_rng(len(batch) * 1000 + steps)
    for M in (1, 2, 3, 4):
        nxt = gen.integers(0, M, size=(*batch, steps, M))
        first = gen.integers(0, M, size=batch)
        got = follow(first, nxt)
        assert got.dtype == np.int64
        assert_array_equal(got, _follow_loop(first, nxt))


@pytest.mark.parametrize("batch", [(), (5,), (2, 3)])
@pytest.mark.parametrize("T", [0, 1, 2, 57])
def test_simulate_regimes_matches_per_period_draws(batch, T):
    gen = np.random.default_rng(len(batch) * 100 + T)
    for M in (1, 2, 3, 4):
        first_probs = gen.dirichlet(np.ones(M), size=batch)
        P = gen.dirichlet(np.full(M, 0.5), size=M)
        seed = int(gen.integers(1 << 31))
        ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        u = ref_rng.random((*batch, T))
        want = np.empty((*batch, T), dtype=np.int64)
        for idx in np.ndindex(*batch):
            probs = first_probs[idx]
            for t in range(T):
                cum = np.cumsum(probs)
                want[idx + (t,)] = min(int(np.searchsorted(cum, u[idx + (t,)], side="right")), M - 1)
                probs = P[want[idx + (t,)]]
        got = simulate_regimes(first_probs, P, T, rng)
        assert got.dtype == np.int64
        assert_array_equal(got, want)
        assert rng.random() == ref_rng.random()  # both consumed the same uniforms
