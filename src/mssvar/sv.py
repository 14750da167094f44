"""Non-centered stochastic volatility blocks.

Log variances follow ``sigma2_{n,t} = exp(omega_n(s_t) * h_{n,t})`` with a
unit-variance AR(1) path ``h`` started at zero.  Squared structural
residuals are linearized with the standard 10-component normal mixture for
log chi-squared(1) noise, after which the ``h`` path is a Gaussian Markov
draw through a banded Cholesky solve and the loadings are conjugate
regressions regime by regime.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
from scipy.linalg import lapack

from .priors import categorical, category_sum, sample_gig, sample_truncated_normal

RESIDUAL_FLOOR = 1e-10


# ten-component normal approximation to the log chi-squared(1) density
MIXTURE = SimpleNamespace(
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


# the mixture's constants, one (1, 1) plane per component
_MEANS = MIXTURE.means[:, None, None]
_VARIANCES = MIXTURE.variances[:, None, None]
_LOG_SCALES = (np.log(MIXTURE.probs) - 0.5 * np.log(2.0 * np.pi * MIXTURE.variances))[:, None, None]


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
) -> np.ndarray:
    """Component labels for every (equation, period) residual.

    The log weights are laid out component first, (10, N, T), so that every
    operation runs over whole (N, T) planes; each entry has the bits of the
    same expression laid out component last, and ``category_sum`` adds the
    normaliser in numpy's order for a last axis.
    """
    z = logu2 - omega[:, s] * h  # approximate log chi2(1) noise
    logp = z - _MEANS
    np.square(logp, out=logp)
    logp *= 0.5
    logp /= _VARIANCES
    np.subtract(_LOG_SCALES, logp, out=logp)
    logp -= logp.max(axis=0)
    probs = np.exp(logp, out=logp)
    probs /= category_sum(probs)
    return categorical(probs, rng.random(z.shape))


def linearize(logu2: np.ndarray, indicators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Observations ``ytil = logu2 - mean`` and their variances ``v`` given the
    mixture components: ``ytil = omega(s_t) h_t + N(0, v)``."""
    return logu2 - MIXTURE.means[indicators], MIXTURE.variances[indicators]


def draw_log_volatilities(
    ytil: np.ndarray,
    v: np.ndarray,
    omega: np.ndarray,
    rho: np.ndarray,
    s: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Joint draw of every equation's log-volatility path, (N, T), from ``linearize``.

    Each path's precision is the AR(1) prior's (unit innovations, h_0 = 0)
    plus the loadings' data term, tridiagonal.  The N bands are laid end to
    end as one band with no coupling between equations, so one banded
    factor, solve and standard-normal draw serve all of them, and they give
    the bits and the stream of N separate draws.
    """
    N, T = ytil.shape
    a = omega[:, s]  # per-period loadings, (N, T)
    band = np.zeros((2, N, T))
    band[1] = (1.0 + rho * rho)[:, None]
    band[1, :, -1:] = 1.0  # a slice, so that T = 0 gives an empty band
    band[0, :, 1:] = -rho[:, None]  # column 0 stays 0: no coupling to the previous equation
    band = band.reshape(2, N * T)
    band[1] += (a * a / v).reshape(-1)
    U = _banded_cholesky(band)
    mean = _banded_cho_solve(U, (a * ytil / v).reshape(-1))
    z = rng.standard_normal(N * T)
    return (mean + _upper_bidiagonal_solve(U, z)).reshape(N, T)


# The three banded steps are the LAPACK calls that scipy.linalg's
# ``cholesky_banded(band)``, ``cho_solve_banded((U, False), b)`` and
# ``solve_banded((0, 1), U, z)`` make, with their errors and their branches
# for an empty and a 1 x 1 system, and so the same bits, without their
# per-call dispatch and validation layers.  Their finite checks stay too,
# once per array: the factor is checked before its first solve, and a
# standard-normal draw is always finite.


def _banded_cholesky(band: np.ndarray) -> np.ndarray:
    band = np.asarray_chkfinite(band)
    if band.size == 0:
        return np.empty_like(band)
    U, info = lapack.dpbtrf(band, lower=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {info}-th argument of internal pbtrf")
    return U


def _banded_cho_solve(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    U = np.asarray_chkfinite(U)
    b = np.asarray_chkfinite(b)
    if b.size == 0:
        return np.empty_like(b)
    x, info = lapack.dpbtrs(U, b, lower=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbtrs")
    return x


def _upper_bidiagonal_solve(U: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Solve ``U x = z`` for the upper bidiagonal ``U`` in banded form."""
    if z.size == 0:
        return np.empty_like(z)
    if z.size == 1:
        return z / U[1, 0]
    # no subdiagonal (kl = 0), so gbsv's LU does no pivoting: a plain back substitution
    _, _, x, info = lapack.dgbsv(0, 1, U, z)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal gbsv")
    return x


def draw_omega(
    h_row: np.ndarray,
    ytil: np.ndarray,
    v: np.ndarray,
    s: np.ndarray,
    M: int,
    sigma2_omega: float,
    rng: np.random.Generator,
    sd_inflation: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regime-wise conjugate draw of the volatility loadings.

    ``ytil`` and ``v`` are the equation's row of ``linearize``; an empty
    regime draws from the prior.  Returns the draws together with the
    conditional posterior means and variances, which downstream
    density-ratio evaluation averages over.
    """
    omega = np.empty(M)
    post_mean = np.empty(M)
    post_var = np.empty(M)
    for m in range(M):
        sel = s == m
        hm = h_row[sel]
        vm = v[sel]
        prec = 1.0 / sigma2_omega + np.sum(hm * hm / vm)
        rhs = np.sum(hm * ytil[sel] / vm)
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
    hlag = h_row[:-1]
    denom = float(hlag @ hlag)
    if denom == 0.0:  # a flat path, or one too short to have a lag
        return float(-1.0 + 2.0 * rng.random())
    mean = float(hlag @ h_row[1:]) / denom
    return sample_truncated_normal(mean, 1.0 / denom, -1.0, 1.0, rng)
