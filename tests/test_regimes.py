"""Hidden Markov layer tests.

The scaled filter is validated against brute-force enumeration of every
regime path at T=8, the likelihood matrix against dense multivariate
normal evaluation, and the transition machinery against hand counts.
"""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from mssvar.data import Dataset
from mssvar.regimes import (
    backward_sample,
    draw_initial_probabilities,
    draw_transition_matrix,
    forward_filter,
    regime_loglik_matrix,
    smoothed_probabilities,
    transition_counts,
    transition_posterior_alpha,
)


def _toy_dataset(rng, N, T):
    y = rng.normal(size=(T, N))
    x = np.column_stack([rng.normal(size=(T, N)), np.ones(T)])
    return Dataset(y=y, x=x, d=np.ones((T, 1)), p=1)


def _enumerate_paths(loglik, P, pi0):
    """Exact filtered/smoothed probabilities and logml by summing all M^T paths."""
    T, M = loglik.shape
    post = {}
    total = -np.inf
    for path in itertools.product(range(M), repeat=T):
        lp = np.log(pi0[path[0]]) + loglik[0, path[0]]
        for t in range(1, T):
            lp += np.log(P[path[t - 1], path[t]]) + loglik[t, path[t]]
        post[path] = lp
        total = np.logaddexp(total, lp)
    smoothed = np.zeros((T, M))
    for path, lp in post.items():
        w = np.exp(lp - total)
        for t, m in enumerate(path):
            smoothed[t, m] += w
    # filtered marginals: renormalize over prefixes
    filtered = np.zeros((T, M))
    for t in range(T):
        pref = {}
        for path, _ in post.items():
            key = path[: t + 1]
            if key in pref:
                continue
            lp = np.log(pi0[key[0]]) + loglik[0, key[0]]
            for u in range(1, t + 1):
                lp += np.log(P[key[u - 1], key[u]]) + loglik[u, key[u]]
            pref[key] = lp
        vals = np.array(list(pref.values()))
        norm = np.exp(vals - vals.max())
        norm /= norm.sum()
        for key, w in zip(pref.keys(), norm):
            filtered[t, key[-1]] += w
    return filtered, smoothed, total


# ---------------------------------------------------------------------------
# likelihood matrix


def test_loglik_single_regime_matches_univariate_normals():
    rng = np.random.default_rng(50)
    ds = _toy_dataset(rng, 2, 12)
    A = np.zeros((2, ds.n_coefficients))
    out = regime_loglik_matrix(ds, A, np.eye(2)[None], np.zeros((2, 1)), np.zeros((2, ds.T)))
    want = stats.norm.logpdf(ds.y).sum(axis=1)
    assert_allclose(out[:, 0], want, atol=1e-12)


def test_loglik_matches_dense_multivariate_normal():
    rng = np.random.default_rng(51)
    ds = _toy_dataset(rng, 3, 9)
    A = rng.normal(size=(3, ds.n_coefficients)) * 0.3
    B = rng.normal(size=(2, 3, 3)) + 2.0 * np.eye(3)
    omega = rng.normal(size=(3, 2)) * 0.5
    h = rng.normal(size=(3, ds.T)) * 0.4
    out = regime_loglik_matrix(ds, A, B, omega, h)
    eps = ds.y - ds.x @ A.T
    for m in range(2):
        Binv = np.linalg.inv(B[m])
        for t in range(ds.T):
            D = np.diag(np.exp(omega[:, m] * h[:, t]))
            cov = Binv @ D @ Binv.T
            want = stats.multivariate_normal(mean=np.zeros(3), cov=cov).logpdf(eps[t])
            assert abs(out[t, m] - want) < 1e-10


def test_loglik_duplicate_regimes_give_identical_columns():
    rng = np.random.default_rng(52)
    ds = _toy_dataset(rng, 2, 7)
    A = rng.normal(size=(2, ds.n_coefficients)) * 0.2
    B1 = rng.normal(size=(2, 2)) + 2.0 * np.eye(2)
    B = np.stack([B1, B1])
    omega = np.tile(rng.normal(size=(2, 1)), (1, 2))
    h = rng.normal(size=(2, ds.T))
    out = regime_loglik_matrix(ds, A, B, omega, h)
    assert_allclose(out[:, 0], out[:, 1])


def test_loglik_singular_structural_matrix_errors():
    rng = np.random.default_rng(53)
    ds = _toy_dataset(rng, 2, 5)
    B = np.array([[[1.0, 1.0], [1.0, 1.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        regime_loglik_matrix(
            ds, np.zeros((2, ds.n_coefficients)), B, np.zeros((2, 1)), np.zeros((2, ds.T))
        )


# ---------------------------------------------------------------------------
# filtering and smoothing


def test_filter_flat_likelihood_returns_chain_marginals():
    P = np.array([[0.9, 0.1], [0.3, 0.7]])
    pi0 = np.array([0.5, 0.5])
    loglik = np.zeros((4, 2))
    filtered, logml = forward_filter(loglik, P, pi0)
    pred = pi0.copy()
    for t in range(4):
        assert_allclose(filtered[t], pred, atol=1e-14)
        pred = pred @ P
    assert abs(logml) < 1e-12


def test_filter_identity_transitions_freeze_the_posterior():
    P = np.eye(2)
    pi0 = np.array([1.0, 0.0])
    loglik = np.full((6, 2), -1.0)
    filtered, logml = forward_filter(loglik, P, pi0)
    assert_allclose(filtered, np.tile([1.0, 0.0], (6, 1)))
    assert_allclose(logml, -6.0)


def test_filter_matches_full_enumeration():
    rng = np.random.default_rng(54)
    T, M = 8, 2
    loglik = rng.normal(size=(T, M))
    G = rng.uniform(0.5, 2.0, size=(M, M))
    P = G / G.sum(axis=1, keepdims=True)
    pi0 = np.array([0.35, 0.65])
    want_f, want_s, want_logml = _enumerate_paths(loglik, P, pi0)
    filtered, logml = forward_filter(loglik, P, pi0)
    assert_allclose(filtered, want_f, atol=1e-10)
    assert abs(logml - want_logml) < 1e-10
    assert_allclose(smoothed_probabilities(loglik, P, pi0), want_s, atol=1e-10)


def test_filter_rejects_impossible_period():
    loglik = np.zeros((3, 2))
    loglik[1] = -np.inf
    with pytest.raises(ValueError, match="period 2"):
        forward_filter(loglik, np.eye(2), np.array([0.5, 0.5]))


def test_logml_invariant_to_relabeling():
    rng = np.random.default_rng(55)
    loglik = rng.normal(size=(10, 3))
    G = rng.uniform(0.5, 2.0, size=(3, 3))
    P = G / G.sum(axis=1, keepdims=True)
    pi0 = np.array([0.2, 0.5, 0.3])
    _, base = forward_filter(loglik, P, pi0)
    perm = np.array([2, 0, 1])
    _, relabeled = forward_filter(loglik[:, perm], P[np.ix_(perm, perm)], pi0[perm])
    assert abs(base - relabeled) < 1e-12


# ---------------------------------------------------------------------------
# backward sampling


def test_backward_sample_identity_transitions_are_constant_paths():
    rng = np.random.default_rng(56)
    filtered = np.tile([0.4, 0.6], (5, 1))
    for _ in range(50):
        s = backward_sample(filtered, np.eye(2), rng)
        assert np.all(s == s[-1])


def test_backward_sample_marginals_match_smoothing():
    rng = np.random.default_rng(57)
    T, M = 8, 2
    loglik = rng.normal(size=(T, M))
    G = rng.uniform(0.5, 2.0, size=(M, M))
    P = G / G.sum(axis=1, keepdims=True)
    pi0 = np.array([0.35, 0.65])
    filtered, _ = forward_filter(loglik, P, pi0)
    smoothed = smoothed_probabilities(loglik, P, pi0)
    n = 40_000
    freq = np.zeros((T, M))
    for _ in range(n):
        s = backward_sample(filtered, P, rng)
        freq[np.arange(T), s] += 1.0
    assert np.max(np.abs(freq / n - smoothed)) < 0.01


def test_backward_sample_degenerate_probabilities():
    rng = np.random.default_rng(58)
    filtered = np.tile([0.0, 1.0], (4, 1))
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    s = backward_sample(filtered, P, rng)
    assert np.all(s == 1)
    assert backward_sample(np.zeros((0, 2)), P, rng).shape == (0,)


def _backward_sample_loop(filtered, P, rng):
    """The per-period reference: one uniform per period, from the last period back."""
    T, M = filtered.shape
    s = np.empty(T, dtype=np.int64)

    def draw(probs):
        return min(int(np.searchsorted(np.cumsum(probs), rng.random(), side="right")), M - 1)

    if T == 0:
        return s
    s[T - 1] = draw(filtered[T - 1])
    for t in range(T - 2, -1, -1):
        w = filtered[t] * P[:, s[t + 1]]
        total = w.sum()
        if total <= 0.0:
            raise ValueError(f"backward sampling collapsed at period {t + 1}")
        s[t] = draw(w / total)
    return s


@pytest.mark.parametrize("M", [2, 3, 4])
@pytest.mark.parametrize("T", [1, 2, 57])
def test_backward_sample_matches_per_period_loop(M, T):
    gen = np.random.default_rng(100 * M + T)
    cases = [(gen.dirichlet(np.full(M, 0.5), size=T), gen.dirichlet(np.ones(M), size=M))]
    sparse = gen.dirichlet(np.ones(M), size=T)
    sparse[gen.random((T, M)) < 0.4] = 0.0
    sparse[sparse.sum(axis=1) == 0.0, 0] = 1.0
    cases.append((sparse / sparse.sum(axis=1, keepdims=True), np.eye(M)))
    for filtered, P in cases:
        for seed in range(25):
            ref_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
            try:
                want = _backward_sample_loop(filtered, P, ref_rng)
            except ValueError as err:
                with pytest.raises(ValueError, match=f"^{err}$"):
                    backward_sample(filtered, P, rng)
                continue
            got = backward_sample(filtered, P, rng)
            assert got.dtype == np.int64
            assert_array_equal(got, want)
            assert rng.random() == ref_rng.random()  # both consumed T uniforms


def test_backward_sample_collapse_names_the_period():
    # regime 0 is impossible at period 3, so a path in regime 1 from period 4
    # on cannot step back under identity transitions
    filtered = np.tile([0.5, 0.5], (6, 1))
    filtered[2] = [1.0, 0.0]
    filtered[3:] = [0.0, 1.0]
    for seed in range(5):
        with pytest.raises(ValueError, match="collapsed at period 3$"):
            _backward_sample_loop(filtered, np.eye(2), np.random.default_rng(seed))
        with pytest.raises(ValueError, match="collapsed at period 3$"):
            backward_sample(filtered, np.eye(2), np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# transitions and initial distribution


def test_transition_counts_and_alpha():
    s = np.array([0, 0, 0, 0, 0, 1, 0])
    counts = transition_counts(s, 2)
    assert_allclose(counts, [[4.0, 1.0], [1.0, 0.0]])
    alpha = transition_posterior_alpha(s, 2, 11.0)
    assert_allclose(alpha, [[16.0, 2.0], [2.0, 12.0]])


def test_transition_alpha_prior_only():
    alpha = transition_posterior_alpha(np.zeros(0, dtype=int), 3, 5.0)
    assert_allclose(alpha, np.ones((3, 3)) + 5.0 * np.eye(3))


def test_transition_draw_moments():
    rng = np.random.default_rng(59)
    s = np.concatenate([np.zeros(40, dtype=int), np.ones(20, dtype=int)])
    alpha = transition_posterior_alpha(s, 2, 3.0)
    n = 20_000
    draws = np.stack([draw_transition_matrix(s, 2, 3.0, rng) for _ in range(n)])
    want = alpha / alpha.sum(axis=1, keepdims=True)
    assert np.max(np.abs(draws.mean(axis=0) - want)) < 0.005
    assert_allclose(draws.sum(axis=2), np.ones((n, 2)), atol=1e-12)


def test_initial_distribution_posterior():
    rng = np.random.default_rng(60)
    s = np.array([1, 0, 0])
    n = 20_000
    draws = np.array([draw_initial_probabilities(s, 2, rng) for _ in range(n)])
    # Dirichlet(1, 2) mean
    assert np.max(np.abs(draws.mean(axis=0) - [1.0 / 3.0, 2.0 / 3.0])) < 0.01
    prior = np.array([draw_initial_probabilities(np.zeros(0, dtype=int), 2, rng) for _ in range(n)])
    assert np.max(np.abs(prior.mean(axis=0) - 0.5)) < 0.01

