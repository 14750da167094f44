"""Hidden Markov regime path: likelihoods, filtering, sampling, transitions."""

from __future__ import annotations

import numpy as np

from .data import Dataset
from .priors import categorical
from .simulate import follow
from .sv import conditional_variances

_LOG2PI = np.log(2.0 * np.pi)


def regime_loglik_matrix(
    dataset: Dataset,
    A: np.ndarray,
    B: np.ndarray,
    omega: np.ndarray,
    h: np.ndarray,
) -> np.ndarray:
    """(T, M) log densities of each observation under each regime."""
    eps = dataset.y - dataset.x @ A.T
    M = B.shape[0]
    T, N = eps.shape
    out = np.empty((T, M))
    for m in range(M):
        sign, logdet = np.linalg.slogdet(B[m])
        if sign == 0:
            raise np.linalg.LinAlgError(f"structural matrix for regime {m + 1} is singular")
        u = eps @ B[m].T
        logvar = omega[:, m][None, :] * h.T  # (T, N)
        quad = u * u * np.exp(-logvar)
        out[:, m] = logdet - 0.5 * (N * _LOG2PI + logvar.sum(axis=1) + quad.sum(axis=1))
    return out


def forward_filter(
    loglik: np.ndarray, P: np.ndarray, pi0: np.ndarray
) -> tuple[np.ndarray, float]:
    """Scaled forward recursion; returns filtered probabilities and log marginal likelihood."""
    loglik = np.asarray(loglik, dtype=float)
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
    # w[t, j, i] = filtered[t, i] * P[i, j]: the weight of regime i at t given j at t + 1
    w = filtered[:-1, None, :] * np.ascontiguousarray(P.T)
    total = w.sum(axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        # prev[t, j] is the regime at t of a path in regime j at t + 1; a row
        # with zero total is 0/0, which matters only if the path enters it
        prev = categorical(w / total[..., None], u[:0:-1, None])
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
    counts = np.zeros((M, M))
    if s.shape[0] >= 2:
        np.add.at(counts, (s[:-1], s[1:]), 1.0)
    return counts


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
    alpha = np.ones(M)
    if s.shape[0] > 0:
        alpha[s[0]] += 1.0
    return rng.dirichlet(alpha)

