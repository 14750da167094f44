"""Rank-normalized bulk effective sample size (Vehtari et al. 2021, Bayesian Analysis 16(2)).

Each chain is split in half, the pooled draws are replaced by the normal
scores of their ranks, and the effective size follows from Geyer's initial
monotone sequence of autocorrelations, as in Stan and ArviZ.
"""

from __future__ import annotations

import numpy as np
from scipy import special, stats


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row at every lag, through the FFT."""
    n = x.shape[-1]
    dev = x - x.mean(axis=-1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(dev, n=size, axis=-1)
    return np.fft.irfft(f * np.conj(f), n=size, axis=-1)[..., :n] / n


def _effective_sample_size(chains: np.ndarray) -> float:
    """Multi-chain ESS of an array of shape (chains, draws), no rank transform."""
    chains = np.asarray(chains, dtype=float)
    m, n = chains.shape
    if n < 4:
        raise ValueError("need at least four draws per chain")
    acov = _autocovariance(chains)
    mean_var = acov[:, 0].mean() * n / (n - 1.0)
    var_plus = mean_var * (n - 1.0) / n
    if m > 1:
        var_plus += chains.mean(axis=1).var(ddof=1)
    if var_plus <= 0.0:
        return float(m * n)
    acov_mean = acov.mean(axis=0)
    rho = np.zeros(n)
    rho[0] = 1.0
    rho_even = 1.0
    rho_odd = 1.0 - (mean_var - acov_mean[1]) / var_plus
    rho[1] = rho_odd
    # initial positive sequence: sum lag pairs while their sum stays positive
    t = 1
    while t < n - 3 and rho_even + rho_odd > 0.0:
        rho_even = 1.0 - (mean_var - acov_mean[t + 1]) / var_plus
        rho_odd = 1.0 - (mean_var - acov_mean[t + 2]) / var_plus
        if rho_even + rho_odd >= 0.0:
            rho[t + 1] = rho_even
            rho[t + 2] = rho_odd
        t += 2
    max_t = t - 2
    if rho_odd > 0.0:
        rho[max_t + 1] = rho_odd
    # initial monotone sequence: pair sums must not increase
    t = 1
    while t <= max_t - 2:
        if rho[t + 1] + rho[t + 2] > rho[t - 1] + rho[t]:
            rho[t + 1] = rho[t + 2] = 0.5 * (rho[t - 1] + rho[t])
        t += 2
    total = m * n
    tau = -1.0 + 2.0 * rho[: max_t + 1].sum() + rho[max_t + 1 : max_t + 2].sum()
    tau = max(tau, 1.0 / np.log10(total))
    return float(total / tau)


def bulk_ess(draws: np.ndarray) -> float:
    """Bulk ESS of one scalar: split chains, rank-normalize, then Geyer's estimator.

    ``draws`` is (draws,) for one chain or (chains, draws).
    """
    x = np.atleast_2d(np.asarray(draws, dtype=float))
    half = x.shape[1] // 2
    split = np.concatenate([x[:, :half], x[:, x.shape[1] - half :]], axis=0)
    ranks = stats.rankdata(split, method="average").reshape(split.shape)
    z = special.ndtri((ranks - 0.375) / (split.size + 0.25))
    return _effective_sample_size(z)
