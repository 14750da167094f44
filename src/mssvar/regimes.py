"""Hidden Markov regime path: likelihoods, filtering, sampling, transitions."""

from __future__ import annotations

import functools

import numpy as np

from .priors import categorical, category_sum
from .simulate import follow

_LOG2PI = np.log(2.0 * np.pi)


def structural_loglik(u: np.ndarray, logvar: np.ndarray, logdet) -> np.ndarray:
    """(...) log densities of residuals whose structural shocks ``u`` (..., N)
    are normal with log variances ``logvar``; ``logdet`` is ``log|det B|``."""
    N = u.shape[-1]
    quad = np.sum(u * u * np.exp(-logvar), axis=-1)
    return logdet - 0.5 * (N * _LOG2PI + logvar.sum(axis=-1) + quad)


def regime_loglik_matrix(
    eps: np.ndarray,
    B: np.ndarray,
    omega: np.ndarray,
    h: np.ndarray,
) -> np.ndarray:
    """(T, M) log densities of each observation under each regime, from the
    (T, N) reduced-form residuals ``eps = y - x A'``; a singular ``B`` raises."""
    M = B.shape[0]
    out = np.empty((eps.shape[0], M))
    for m in range(M):
        sign, logdet = np.linalg.slogdet(B[m])
        if sign == 0:
            raise np.linalg.LinAlgError(f"structural matrix for regime {m + 1} is singular")
        u = eps @ B[m].T
        logvar = omega[:, m][None, :] * h.T  # (T, N)
        out[:, m] = structural_loglik(u, logvar, logdet)
    return out


def forward_filter(
    loglik: np.ndarray, P: np.ndarray, pi0: np.ndarray
) -> tuple[np.ndarray, float]:
    """Filtered probabilities (T, M) and the log marginal likelihood.

    The unnormalised filter at period t is the common row of the prefix
    product ``E_0 E_1 ... E_t`` of the period matrices ``E_t = P
    diag(lik_t)``, with ``lik_t = exp(loglik_t - max(loglik_t))`` and
    ``E_0`` the rank-one matrix whose rows are all ``pi0 * lik_0``.  The
    prefixes come from ceil(log2 T) rounds of recursive doubling
    (Hillis-Steele), the temporal parallelisation of Hassan, Sarkka &
    Garcia-Fernandez (2021, IEEE TSP 69).  Each segment product is kept as
    ``diag(exp(a)) S`` with a log scale per row and the largest entry of
    each row of ``S`` equal to one, so a row far below the others neither
    underflows nor swamps them.  Zero entries of ``P``, ``pi0`` or a
    likelihood, and reducible chains, are handled wherever the per-period
    recursion handled them.  Raises ``ValueError`` naming the first period
    at which every regime has zero likelihood or the filter collapses.
    """
    loglik = np.asarray(loglik, dtype=float)
    T, M = loglik.shape
    top = loglik.max(axis=1)
    bad = np.flatnonzero(~np.isfinite(top))
    good = bad[0] if bad.size else T  # the filter runs up to the first impossible period
    lik = np.exp(loglik[:good] - top[:good, None])
    S = np.asarray(P, dtype=float) * lik[:, None, :]
    if good:
        S[0] = np.asarray(pi0, dtype=float) * lik[0]
    with np.errstate(divide="ignore"):  # the log of a zero entry or row is -inf
        S, a = _scale_rows(S, np.zeros((good, M)))
        step = 1
        while step < good:
            S[step:], a[step:] = _compose(S[:-step], a[:-step], S[step:], a[step:])
            step *= 2
    total = S[:, 0].sum(axis=1)
    collapsed = np.flatnonzero(total <= 0.0)
    if collapsed.size:
        raise ValueError(f"filter collapsed at period {collapsed[0] + 1}")
    if bad.size:
        raise ValueError(f"all regimes have zero likelihood at period {good + 1}")
    logml = top.sum() + (a[-1, 0] + np.log(total[-1]) if T else 0.0)
    return S[:, 0] / total[:, None], float(logml)


def _row_max(x: np.ndarray) -> np.ndarray:
    # elementwise over the M columns: a numpy reduction along a last axis
    # this short is many times slower
    return functools.reduce(np.maximum, [x[..., k] for k in range(x.shape[-1])])


def _scale_rows(S: np.ndarray, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``diag(exp(a)) S`` with each row of ``S`` rescaled to largest entry one.

    A zero row stays zero, with log scale ``-inf``; like ``_compose``, it
    runs under the filter's ``errstate`` that lets ``log(0)`` be ``-inf``.
    """
    r = _row_max(S)
    return S / np.where(r > 0.0, r, 1.0)[..., None], a + np.log(r)


def _compose(S1, a1, S2, a2):
    """The product of segments ``diag(exp(a1)) S1`` and ``diag(exp(a2)) S2``.

    Row i is shifted by the largest log weight ``log S1[i, k] + a2[k]`` of
    a column k that it reaches, so its dominant term enters at scale one.
    """
    # a2 repeated for every row i: a contiguous add, cheaper even with the
    # copy than broadcasting along the short last axis
    G = np.log(S1) + np.repeat(a2[..., None, :], a2.shape[-1], axis=-2)
    b = _row_max(G)
    b = np.where(b > -np.inf, b, 0.0)  # a zero row reaches nothing and stays zero
    return _scale_rows(np.exp(G - b[..., None]) @ S2, a1 + b)


def backward_sample(
    filtered: np.ndarray, P: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Joint draw of the regime path given filtered probabilities.

    The T uniforms come from one call, in the order of one draw per period
    from the last period back: ``u[k]`` drives period T - k.
    """
    T, M = filtered.shape
    if T == 0:
        return np.empty(0, dtype=np.int64)
    u = rng.random(T)
    # w[i, t, j] = filtered[t, i] * P[i, j]: the weight of regime i at t given
    # j at t + 1, with the categories i first, as categorical takes them
    w = filtered[:-1].T[:, :, None] * P[:, None, :]
    total = category_sum(w)
    with np.errstate(invalid="ignore", divide="ignore"):
        # prev[t, j] is the regime at t of a path in regime j at t + 1; a row
        # with zero total is 0/0, which matters only if the path enters it
        prev = categorical(w / total, u[:0:-1, None])
    s = follow(categorical(filtered[-1], u[0]), prev[::-1])[::-1].copy()
    collapsed = np.flatnonzero(total[np.arange(T - 1), s[1:]] <= 0.0)
    if collapsed.size:
        raise ValueError(f"backward sampling collapsed at period {collapsed[-1] + 1}")
    return s


def smoothed_probabilities(
    loglik: np.ndarray, P: np.ndarray, pi0: np.ndarray
) -> np.ndarray:
    """Marginal regime probabilities given the whole sample (forward-backward)."""
    filtered, _ = forward_filter(loglik, P, pi0)
    T, M = filtered.shape
    smoothed = np.empty_like(filtered)
    if T == 0:
        return smoothed
    smoothed[T - 1] = filtered[T - 1]
    for t in range(T - 2, -1, -1):
        pred = filtered[t] @ P
        ratio = np.divide(smoothed[t + 1], pred, out=np.zeros_like(pred), where=pred > 0)
        smoothed[t] = filtered[t] * (P @ ratio)
    return smoothed


def transition_counts(s: np.ndarray, M: int) -> np.ndarray:
    return np.bincount(s[:-1] * M + s[1:], minlength=M * M).reshape(M, M)


def transition_posterior_alpha(s: np.ndarray, M: int, d_m: float) -> np.ndarray:
    """Row-wise Dirichlet parameters: flat prior, persistence boost d_m, path counts."""
    alpha = np.ones((M, M)) + d_m * np.eye(M)
    return alpha + transition_counts(s, M)


def draw_transition_matrix(
    s: np.ndarray, M: int, d_m: float, rng: np.random.Generator
) -> np.ndarray:
    alpha = transition_posterior_alpha(s, M, d_m)
    P = np.empty((M, M))
    for m in range(M):
        P[m] = rng.dirichlet(alpha[m])
    return P


def draw_initial_probabilities(
    s: np.ndarray, M: int, rng: np.random.Generator
) -> np.ndarray:
    return rng.dirichlet(1.0 + np.bincount(s[:1], minlength=M))

