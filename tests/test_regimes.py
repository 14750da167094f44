"""Hidden Markov layer tests.

The scaled filter is validated against brute-force enumeration of every
regime path at T=8, the likelihood matrix against dense multivariate
normal evaluation, and the transition machinery against hand counts.
"""

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
from mssvar.selfcheck import enumerate_regime_marginals


def _toy_dataset(rng, N, T):
    y = rng.normal(size=(T, N))
    x = np.column_stack([rng.normal(size=(T, N)), np.ones(T)])
    return Dataset(y=y, x=x, p=1, presample=np.zeros((1, N)))


# ---------------------------------------------------------------------------
# likelihood matrix


def test_loglik_single_regime_matches_univariate_normals():
    rng = np.random.default_rng(50)
    ds = _toy_dataset(rng, 2, 12)
    A = np.zeros((2, ds.n_coefficients))
    out = regime_loglik_matrix(ds.y - ds.x @ A.T, np.eye(2)[None], np.zeros((2, 1)),
                               np.zeros((2, ds.T)))
    want = stats.norm.logpdf(ds.y).sum(axis=1)
    assert_allclose(out[:, 0], want, atol=1e-12)


def test_loglik_matches_dense_multivariate_normal():
    rng = np.random.default_rng(51)
    ds = _toy_dataset(rng, 3, 9)
    A = rng.normal(size=(3, ds.n_coefficients)) * 0.3
    B = rng.normal(size=(2, 3, 3)) + 2.0 * np.eye(3)
    omega = rng.normal(size=(3, 2)) * 0.5
    h = rng.normal(size=(3, ds.T)) * 0.4
    eps = ds.y - ds.x @ A.T
    out = regime_loglik_matrix(eps, B, omega, h)
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
    out = regime_loglik_matrix(ds.y - ds.x @ A.T, B, omega, h)
    assert_allclose(out[:, 0], out[:, 1])


def test_loglik_singular_structural_matrix_errors():
    rng = np.random.default_rng(53)
    ds = _toy_dataset(rng, 2, 5)
    B = np.array([[[1.0, 1.0], [1.0, 1.0]]])
    with pytest.raises(np.linalg.LinAlgError):
        regime_loglik_matrix(ds.y, B, np.zeros((2, 1)), np.zeros((2, ds.T)))


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
    want_f, want_s, want_logml = enumerate_regime_marginals(loglik, P, pi0)
    filtered, logml = forward_filter(loglik, P, pi0)
    assert_allclose(filtered, want_f, atol=1e-10)
    assert abs(logml - want_logml) < 1e-10
    assert_allclose(smoothed_probabilities(loglik, P, pi0), want_s, atol=1e-10)


def test_filter_rejects_impossible_period():
    loglik = np.zeros((3, 2))
    loglik[1] = -np.inf
    with pytest.raises(ValueError, match="period 2"):
        forward_filter(loglik, np.eye(2), np.array([0.5, 0.5]))


def _forward_filter_loop(loglik, P, pi0):
    """The per-period reference: one scaled forward step per period."""
    T, M = loglik.shape
    filtered = np.empty((T, M))
    logml = 0.0
    pred = np.asarray(pi0, dtype=float)
    for t in range(T):
        top = loglik[t].max()
        if not np.isfinite(top):
            raise ValueError(f"all regimes have zero likelihood at period {t + 1}")
        w = pred * np.exp(loglik[t] - top)
        c = w.sum()
        if c <= 0.0:
            raise ValueError(f"filter collapsed at period {t + 1}")
        filtered[t] = w / c
        logml += np.log(c) + top
        pred = filtered[t] @ P
    return filtered, float(logml)


def _assert_filter_matches_loop(loglik, P, pi0):
    try:
        want, want_logml = _forward_filter_loop(loglik, P, pi0)
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{err}$"):
            forward_filter(loglik, P, pi0)
        return str(err)
    filtered, logml = forward_filter(loglik, P, pi0)
    assert filtered.shape == want.shape
    assert_allclose(filtered, want, rtol=0.0, atol=1e-13)
    assert abs(logml - want_logml) <= 1e-10
    return None


@pytest.mark.parametrize("M", [1, 2, 3, 4])
@pytest.mark.parametrize("T", [0, 1, 2, 57, 600])
def test_filter_matches_per_period_loop(M, T):
    gen = np.random.default_rng(10 * M + T)
    for spread in (1.0, 10.0, 300.0):
        loglik = spread * gen.normal(size=(T, M)) - 50.0
        P = gen.dirichlet(np.ones(M), size=M)
        assert _assert_filter_matches_loop(loglik, P, gen.dirichlet(np.ones(M))) is None


def _block_diagonal_transitions():
    P = np.zeros((4, 4))
    P[:2, :2] = [[0.9, 0.1], [0.2, 0.8]]
    P[2:, 2:] = [[0.7, 0.3], [0.4, 0.6]]
    return P


@pytest.mark.parametrize("T", [2, 57, 600])
def test_filter_matches_per_period_loop_on_degenerate_chains(T):
    gen = np.random.default_rng(T)
    # a frozen chain in the regime that is 700 nats below the other one
    loglik = np.zeros((T, 2))
    loglik[:, 1] = -700.0
    assert _assert_filter_matches_loop(loglik, np.eye(2), np.array([0.0, 1.0])) is None
    # switches of probability 1e-300, with either regime far below the other
    P = np.array([[1.0, 1e-300], [1e-300, 1.0]])
    for low in (0, 1):
        loglik = gen.normal(size=(T, 2))
        loglik[:, low] -= 700.0
        for pi0 in ([0.0, 1.0], [0.5, 0.5]):
            assert _assert_filter_matches_loop(loglik, P, np.array(pi0)) is None
    # a reducible chain that starts in the block 30 nats below the other
    loglik = gen.normal(size=(T, 4))
    loglik[:, :2] -= 30.0
    assert _assert_filter_matches_loop(loglik, _block_diagonal_transitions(), np.eye(4)[0]) is None
    # an initial distribution with zeros
    loglik = gen.normal(size=(T, 3))
    P = gen.dirichlet(np.ones(3), size=3)
    assert _assert_filter_matches_loop(loglik, P, np.array([0.0, 0.0, 1.0])) is None


def test_filter_errors_name_the_first_bad_period_like_the_loop():
    # regime 0 is impossible at period 6 and the chain cannot leave it
    loglik = np.zeros((12, 2))
    loglik[5, 0] = -np.inf
    pi0 = np.array([1.0, 0.0])
    # a period where every regime is impossible, before, at and after the collapse
    for period, message in [
        (None, "filter collapsed at period 6"),
        (3, "all regimes have zero likelihood at period 3"),
        (6, "all regimes have zero likelihood at period 6"),
        (9, "filter collapsed at period 6"),
    ]:
        bad = loglik.copy()
        if period is not None:
            bad[period - 1] = -np.inf
        assert _assert_filter_matches_loop(bad, np.eye(2), pi0) == message
    nan = np.zeros((3, 2))
    nan[1, 0] = np.nan
    assert _assert_filter_matches_loop(nan, np.eye(2), np.array([0.5, 0.5])) == (
        "all regimes have zero likelihood at period 2"
    )
    assert _assert_filter_matches_loop(np.zeros((3, 2)), np.eye(2), np.zeros(2)) == (
        "filter collapsed at period 1"
    )


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

