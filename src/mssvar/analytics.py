"""Posterior post-processing: normalization, probabilities, responses, tests."""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .priors import omega_prior_density_at_zero
from .simulate import lag_recursion
from .state import BLOCKS
from .store import DrawStore


# ---------------------------------------------------------------------------
# draw normalization


def normalize_draws(store: DrawStore, policy: str = "sign-diag") -> DrawStore:
    """Resolve sign and label indeterminacy in place.

    ``sign-diag`` flips structural rows so diagonals are positive;
    ``labels`` additionally permutes regimes per draw to the labeling of the
    reference draw (the one with the highest stored log marginal
    likelihood).
    """
    if policy not in ("sign-diag", "labels"):
        raise ValueError(f"unknown normalization policy {policy!r}")
    B = store.block("B")
    diag = np.diagonal(B, axis1=2, axis2=3)  # (S, M, N)
    n_zero_diag = int(np.count_nonzero(diag == 0.0))
    B[diag < 0] *= -1.0
    if n_zero_diag:
        warnings.warn(
            f"{n_zero_diag} structural row(s) have a zero diagonal element; sign flip skipped"
        )
    if policy == "labels" and store.config.M > 1:
        _relabel_regimes(store, _closest_relabeling(store))
    return store


def _closest_relabeling(store: DrawStore) -> np.ndarray:
    """(S, M) relabeling of each draw towards the reference draw's labels.

    Row i is the first permutation in ``itertools.permutations`` order whose
    relabeled path of draw i disagrees with the reference path in the fewest
    periods; regime m of draw i becomes regime ``perm[i, m]``.
    """
    s = store.block("s").astype(np.int64)
    S, M = s.shape[0], store.config.M
    s_ref = s[int(np.argmax(store.block("logml")[:, 0]))]
    # agree[i, a, b]: periods in which draw i is in regime a and the reference in b
    cells = (np.arange(S)[:, None] * M + s) * M + s_ref
    agree = np.bincount(cells.ravel(), minlength=S * M * M).reshape(S, M, M)
    perms = np.array(list(itertools.permutations(range(M))))
    matches = agree[:, np.arange(M), perms].sum(axis=2)  # (S, M!)
    return perms[np.argmax(matches, axis=1)]


def _relabel_regimes(store: DrawStore, perm: np.ndarray) -> None:
    """Apply a per-draw relabeling to every block with a regime axis or label."""
    S, M = perm.shape
    inv = np.argsort(perm, axis=1)
    for blk in BLOCKS:
        axes = [ax for ax, dim in enumerate(blk.dims, start=1) if dim == "M"]
        if not (axes or blk.labels):
            continue
        arr = store.blocks[blk.name]
        if blk.labels:
            arr[:] = np.take_along_axis(perm, arr.astype(np.int64), axis=1)
        for ax in axes:
            shape = [1] * arr.ndim
            shape[0], shape[ax] = S, M
            arr[:] = np.take_along_axis(arr, inv.reshape(shape), axis=ax)


# ---------------------------------------------------------------------------
# posterior probabilities


def tvi_probabilities(store: DrawStore, equation: int) -> np.ndarray:
    """(M, K) posterior pattern probabilities for one equation."""
    K = store.config.patterns.K(equation)
    kappa = store.block("kappa")[:, equation, :].astype(np.int64)
    S, M = kappa.shape
    cells = np.arange(M) * K + kappa  # (S, M): regime m, pattern k
    return np.bincount(cells.ravel(), minlength=M * K).reshape(M, K) / S


def regime_probabilities(store: DrawStore) -> np.ndarray:
    """(T, M) posterior membership probabilities of each period."""
    s = store.block("s").astype(np.int64)
    S, T = s.shape
    M = store.config.M
    cells = np.arange(T) * M + s  # (S, T): period t, regime m
    return np.bincount(cells.ravel(), minlength=T * M).reshape(T, M) / S


def joint_tvi_change_probability(store: DrawStore) -> float:
    """Fraction of draws whose selected pattern differs across regimes."""
    kappa = store.block("kappa").astype(np.int64)
    changed = np.zeros(kappa.shape[0], dtype=bool)
    for n in store.config.patterns.tvi_equations:
        kn = kappa[:, n, :]
        changed |= np.any(kn != kn[:, :1], axis=1)
    return float(changed.mean())


# ---------------------------------------------------------------------------
# impulse responses


def impulse_responses(
    A: np.ndarray,
    B_m: np.ndarray,
    horizon: int,
    shock: int,
    *,
    p: int,
    normalize: float | None = None,
) -> np.ndarray:
    """(..., horizon+1, N) responses of all variables to one structural shock.

    ``A`` (..., N, N*p + d) and ``B_m`` (..., N, N) may carry a leading
    draw axis; the lag order ``p`` says where the d deterministic columns
    of ``A`` begin.  The shock's column of ``B_m^{-1}`` is the impact, and
    the lag recursion of ``simulate`` carries it forward with the
    deterministic terms off.  With ``normalize`` given, the shock column is
    rescaled so the impact response of the shock's own variable equals that
    value.
    """
    N = B_m.shape[-1]
    pulse = np.zeros((*np.broadcast_shapes(A.shape[:-2], B_m.shape[:-2]), horizon + 1, N))
    pulse[..., 0, :] = np.linalg.inv(B_m)[..., :, shock]
    out = lag_recursion(A[..., : N * p], np.zeros((p, N)), pulse)
    if normalize is not None:
        anchor = out[..., :1, shock : shock + 1]
        if np.any(anchor == 0.0):
            raise ValueError("impact response of the shocked variable is zero")
        out = out / anchor * normalize
    return out


def impulse_response_draws(
    store: DrawStore,
    regime: int,
    horizon: int,
    shock: int,
    *,
    normalize: float | None = None,
) -> np.ndarray:
    """(draws, horizon+1, N) responses across the posterior sample."""
    return impulse_responses(
        store.block("A"), store.block("B")[:, regime], horizon, shock,
        normalize=normalize, p=store.config.p,
    )


# ---------------------------------------------------------------------------
# heteroskedasticity evidence


def heteroskedasticity_sddr(store: DrawStore, equation: int, regime: int) -> float:
    """Log density ratio at zero for one volatility loading.

    Rao-Blackwellized numerator: posterior density at zero averaged over the
    stored conditional moments.  Negative values favor that the loading is
    non-zero, i.e. heteroskedasticity identifies the equation's row.
    """
    mu = store.block("omega_mean")[:, equation, regime]
    v = store.block("omega_var")[:, equation, regime]
    if np.any(v <= 0):
        raise ValueError("non-positive stored conditional variances")
    logdens = -0.5 * np.log(2.0 * np.pi * v) - 0.5 * mu**2 / v
    log_post = float(logsumexp(logdens) - np.log(logdens.shape[0]))
    log_prior = np.log(
        omega_prior_density_at_zero(store.config.omega_shape, store.config.omega_scale)
    )
    return log_post - float(log_prior)


# ---------------------------------------------------------------------------
# summaries


@dataclass(frozen=True)
class Summary:
    median: np.ndarray
    hdi_lower: np.ndarray
    hdi_upper: np.ndarray


def _hdi_columns(flat: np.ndarray, coverage: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-column shortest intervals of (draws, columns) ``flat``, from one sort.

    Each interval spans ``ceil(coverage * draws)`` sorted steps (at least
    one); among equally short ones the lowest wins.
    """
    x = np.sort(flat, axis=0)
    n = x.shape[0]
    if n == 0:
        raise ValueError("no draws")
    k = max(1, int(np.ceil(coverage * n)))
    if k >= n:
        return x[0], x[-1]
    j = np.argmin(x[k:] - x[: n - k], axis=0)
    cols = np.arange(x.shape[1])
    return x[j, cols], x[j + k, cols]


def summarize(draws: np.ndarray) -> Summary:
    """Median and 68% HDI along the draw axis."""
    draws = np.asarray(draws, dtype=float)
    flat = draws.reshape(draws.shape[0], -1)
    med = np.median(flat, axis=0)
    hdi_lo, hdi_hi = _hdi_columns(flat, 0.68)
    shape = draws.shape[1:] or (1,)
    return Summary(
        median=med.reshape(shape),
        hdi_lower=hdi_lo.reshape(shape),
        hdi_upper=hdi_hi.reshape(shape),
    )


def regime_moments(y: np.ndarray, probs: np.ndarray) -> list[dict[str, np.ndarray]]:
    """Per-regime mean, standard deviation, and covariance of the observations.

    Each period goes to its most probable regime.  Empty regimes yield NaN
    entries.
    """
    y = np.asarray(y, dtype=float)
    probs = np.asarray(probs, dtype=float)
    T, N = y.shape
    if probs.shape[0] != T:
        raise ValueError(f"the data have {T} periods but the regime probabilities "
                         f"cover {probs.shape[0]}")
    M = probs.shape[1]
    out = []
    for m in range(M):
        sel = probs.argmax(axis=1) == m
        count = int(sel.sum())
        if count == 0:
            nan = np.full(N, np.nan)
            out.append({"mean": nan, "sd": nan, "cov": np.full((N, N), np.nan), "weight": 0.0})
            continue
        ym = y[sel]
        mean = ym.mean(axis=0)
        dev = ym - mean
        cov = dev.T @ dev / count
        out.append({"mean": mean, "sd": np.sqrt(np.diag(cov)), "cov": cov, "weight": float(count)})
    return out
