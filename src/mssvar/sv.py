"""Non-centered stochastic volatility blocks.

Log variances follow ``sigma2_{n,t} = exp(omega_n(s_t) * h_{n,t})`` with a
unit-variance AR(1) path ``h`` started at zero.  Squared structural
residuals are linearized with the standard 10-component normal mixture for
log chi-squared(1) noise, after which the ``h`` path is a Gaussian Markov
draw through a banded Cholesky solve and the loadings are conjugate
regressions regime by regime.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .priors import categorical, sample_gig, sample_truncated_normal

RESIDUAL_FLOOR = 1e-10


@dataclass(frozen=True)
class MixtureTable:
    probs: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self) -> None:
        if not (self.probs.shape == self.means.shape == self.variances.shape):
            raise ValueError("mixture component arrays must align")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError("mixture probabilities must sum to one")
        if np.any(self.probs <= 0) or np.any(self.variances <= 0):
            raise ValueError("mixture probabilities and variances must be positive")


def log_chi2_mixture() -> MixtureTable:
    """Ten-component normal approximation to the log chi-squared(1) density."""
    return MixtureTable(
        probs=np.array([
            0.00609, 0.04775, 0.13057, 0.20674, 0.22715,
            0.18842, 0.12047, 0.05591, 0.01575, 0.00115,
        ]),
        means=np.array([
            1.92677, 1.34744, 0.73504, 0.02266, -0.85173,
            -1.97278, -3.46788, -5.55246, -8.68384, -14.65000,
        ]),
        variances=np.array([
            0.11265, 0.17788, 0.26768, 0.40611, 0.62699,
            0.98583, 1.57469, 2.54498, 4.16591, 7.33342,
        ]),
    )


MIXTURE = log_chi2_mixture()


def conditional_variances(omega: np.ndarray, h: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(N, T) matrix exp(omega_n(s_t) * h_{n,t})."""
    omega = np.asarray(omega, dtype=float)
    h = np.asarray(h, dtype=float)
    s = np.asarray(s)
    if h.shape[1] != s.shape[0]:
        raise ValueError("h and s disagree on T")
    return np.exp(omega[:, s] * h)


def log_squared(u: np.ndarray) -> np.ndarray:
    """Floored log of squared residuals."""
    return np.log(np.maximum(np.asarray(u) ** 2, RESIDUAL_FLOOR))


def draw_mixture_indicators(
    logu2: np.ndarray,
    omega: np.ndarray,
    h: np.ndarray,
    s: np.ndarray,
    rng: np.random.Generator,
    table: MixtureTable = MIXTURE,
) -> np.ndarray:
    """Component labels for every (equation, period) residual."""
    z = logu2 - omega[:, s] * h  # approximate log chi2(1) noise
    dev = z[..., None] - table.means
    logp = (
        np.log(table.probs)
        - 0.5 * np.log(2.0 * np.pi * table.variances)
        - 0.5 * dev**2 / table.variances
    )
    logp -= logp.max(axis=-1, keepdims=True)
    probs = np.exp(logp)
    probs /= probs.sum(axis=-1, keepdims=True)
    return categorical(probs, rng.random(z.shape))


def _ar1_band(rho: float, T: int) -> np.ndarray:
    """Upper banded storage of the AR(1) prior precision (unit innovations, h_0 = 0)."""
    band = np.zeros((2, T))
    band[1, :] = 1.0 + rho * rho
    band[1, -1] = 1.0
    band[0, 1:] = -rho
    return band


def draw_log_volatilities(
    logu2_row: np.ndarray,
    indicators_row: np.ndarray,
    omega_row: np.ndarray,
    rho: float,
    s: np.ndarray,
    rng: np.random.Generator,
    table: MixtureTable = MIXTURE,
) -> np.ndarray:
    """Joint draw of one equation's log-volatility path."""
    T = logu2_row.shape[0]
    if T == 0:
        return np.zeros(0)
    a = omega_row[s]  # per-period loading
    v = table.variances[indicators_row]
    ytil = logu2_row - table.means[indicators_row]
    band = _ar1_band(rho, T)
    band[1, :] += a * a / v
    U = linalg.cholesky_banded(band, lower=False)
    mean = linalg.cho_solve_banded((U, False), a * ytil / v)
    z = rng.standard_normal(T)
    return mean + linalg.solve_banded((0, 1), U, z)


def draw_omega(
    h_row: np.ndarray,
    logu2_row: np.ndarray,
    indicators_row: np.ndarray,
    s: np.ndarray,
    M: int,
    sigma2_omega: float,
    rng: np.random.Generator,
    table: MixtureTable = MIXTURE,
    sd_inflation: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regime-wise conjugate draw of the volatility loadings.

    Returns the draws together with the conditional posterior means and
    variances, which downstream density-ratio evaluation averages over.
    """
    v = table.variances[indicators_row]
    ytil = logu2_row - table.means[indicators_row]
    omega = np.empty(M)
    post_mean = np.empty(M)
    post_var = np.empty(M)
    for m in range(M):
        sel = s == m
        prec = 1.0 / sigma2_omega
        if np.any(sel):
            hm = h_row[sel]
            vm = v[sel]
            prec += np.sum(hm * hm / vm)
            rhs = np.sum(hm * ytil[sel] / vm)
        else:
            rhs = 0.0
        var = 1.0 / prec
        post_mean[m] = var * rhs
        post_var[m] = var
        omega[m] = post_mean[m] + sd_inflation * np.sqrt(var) * rng.standard_normal()
    return omega, post_mean, post_var


def draw_omega_variance(
    omega_row: np.ndarray, shape: float, scale: float, rng: np.random.Generator
) -> float:
    """Variance of the loadings: gamma prior, normal likelihood, GIG posterior."""
    M = omega_row.shape[0]
    chi = float(omega_row @ omega_row)
    return sample_gig(shape - 0.5 * M, chi, 2.0 / scale, rng)


def draw_rho(h_row: np.ndarray, rng: np.random.Generator) -> float:
    """Persistence of the log-volatility path, uniform prior on (-1, 1)."""
    if h_row.shape[0] < 2:
        return float(-1.0 + 2.0 * rng.random())
    hlag = h_row[:-1]
    denom = float(hlag @ hlag)
    if denom == 0.0:
        return float(-1.0 + 2.0 * rng.random())
    mean = float(hlag @ h_row[1:]) / denom
    return sample_truncated_normal(mean, 1.0 / denom, -1.0, 1.0, rng)
