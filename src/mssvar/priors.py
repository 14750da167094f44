"""Distribution primitives and the hierarchical shrinkage chain.

Parameterizations used throughout:

* ``IG2(s, nu)``: density proportional to ``x^{-(nu+2)/2} exp(-s/(2x))``,
  equivalently ``s / x`` is chi-squared with ``nu`` degrees of freedom;
  mean ``s / (nu - 2)`` for ``nu > 2``.
* ``Gamma(shape a, scale s)``: mean ``a * s``.
* ``GIG(lam, chi, psi)``: density proportional to
  ``x^{lam-1} exp(-(chi/x + psi*x)/2)``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special
from scipy import stats


# ---------------------------------------------------------------------------
# samplers


def sample_ig2(s: float, nu: float, rng: np.random.Generator, size=None) -> np.ndarray | float:
    """Draw from IG2(s, nu) via s over a chi-squared variate."""
    if s <= 0 or nu <= 0:
        raise ValueError("IG2 requires positive scale and degrees of freedom")
    return s / rng.chisquare(nu, size=size)


def sample_gamma(shape: float, scale: float, rng: np.random.Generator, size=None):
    if shape <= 0 or scale <= 0:
        raise ValueError("gamma requires positive shape and scale")
    return rng.gamma(shape, scale, size=size)


def sample_truncated_normal(
    mean: float, var: float, lo: float, hi: float, rng: np.random.Generator
) -> float:
    """Inverse-CDF draw from N(mean, var) truncated to (lo, hi)."""
    if var <= 0:
        raise ValueError("truncated normal requires positive variance")
    if not lo < hi:
        raise ValueError("empty truncation interval")
    sd = np.sqrt(var)
    a = special.ndtr((lo - mean) / sd)
    b = special.ndtr((hi - mean) / sd)
    if b - a < 1e-300:
        # mass numerically outside the window; clamp to the nearer endpoint
        return lo if mean < lo else hi
    u = a + (b - a) * rng.random()
    return mean + sd * special.ndtri(u)


def sample_gig(lam: float, chi: float, psi: float, rng: np.random.Generator) -> float:
    """Draw from GIG(lam, chi, psi), with gamma / inverse-gamma edge branches."""
    if chi < 0 or psi < 0:
        raise ValueError("GIG requires non-negative chi and psi")
    if chi == 0:
        if lam <= 0 or psi <= 0:
            raise ValueError("GIG with chi=0 requires lam > 0 and psi > 0")
        return float(rng.gamma(lam, 2.0 / psi))
    if psi == 0:
        if lam >= 0:
            raise ValueError("GIG with psi=0 requires lam < 0")
        return float(sample_ig2(chi, -2.0 * lam, rng))
    b = np.sqrt(chi * psi)
    return float(stats.geninvgauss.rvs(lam, b, scale=np.sqrt(chi / psi), random_state=rng))


def categorical(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF categorical draws over the last axis of ``probs`` (..., K).

    Each draw is the count of cumulative probabilities at or below its
    uniform ``u`` (broadcast against ``probs[..., 0]``), capped at K - 1 so
    that a ``u`` above a rounded total still lands on the last category.
    """
    cum = np.cumsum(probs, axis=-1)
    return np.minimum((cum <= np.asarray(u)[..., None]).sum(axis=-1), cum.shape[-1] - 1)


# ---------------------------------------------------------------------------
# the GIG density (log scale, fully normalized)


def gig_log_density(x, lam: float, chi: float, psi: float):
    if chi <= 0 or psi <= 0:
        raise ValueError("normalized GIG density needs chi > 0 and psi > 0")
    x = np.asarray(x, dtype=float)
    b = np.sqrt(chi * psi)
    lognorm = 0.5 * lam * np.log(psi / chi) - np.log(2.0) - np.log(special.kv(lam, b))
    out = np.full(x.shape, -np.inf)
    pos = x > 0
    out[pos] = lognorm + (lam - 1.0) * np.log(x[pos]) - 0.5 * (chi / x[pos] + psi * x[pos])
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# the loading prior at the origin


def omega_prior_density_at_zero(shape: float, scale: float) -> float:
    """Marginal prior density of a volatility loading at zero.

    The loading is normal with variance drawn from Gamma(shape, scale);
    the marginal density at the origin is (2 pi)^{-1/2} E[sigma^{-1}],
    finite only for shape > 1/2.
    """
    if shape <= 0.5:
        raise ValueError("marginal density at zero diverges for shape <= 1/2")
    return float(
        np.exp(special.gammaln(shape - 0.5) - special.gammaln(shape))
        / np.sqrt(2.0 * np.pi * scale)
    )


# ---------------------------------------------------------------------------
# three-level shrinkage chain


@dataclass(frozen=True)
class ShrinkageChain:
    """State of one coefficient shrinkage hierarchy.

    Per equation n: coefficients are N(0, gamma[n] I); gamma[n] ~ IG2(s[n], nu);
    s[n] ~ Gamma(shape nu_gamma, scale s_gamma); s_gamma ~ IG2(s_s, nu_s).
    """

    gamma: np.ndarray
    s: np.ndarray
    s_gamma: float
    nu: float
    nu_gamma: float
    s_s: float
    nu_s: float

    def __post_init__(self) -> None:
        if np.any(np.asarray(self.gamma) <= 0) or np.any(np.asarray(self.s) <= 0):
            raise ValueError("shrinkage scales must be positive")
        if self.s_gamma <= 0:
            raise ValueError("shrinkage scales must be positive")

    @classmethod
    def at_prior_center(cls, N: int, *, nu: float, nu_gamma: float, s_s: float, nu_s: float):
        """Initialize each level at its prior mean (mode where the mean diverges)."""
        s_gamma = s_s / (nu_s - 2.0) if nu_s > 2.0 else s_s / (nu_s + 2.0)
        s = nu_gamma * s_gamma
        gamma = s / (nu - 2.0) if nu > 2.0 else s / (nu + 2.0)
        return cls(
            gamma=np.full(N, gamma),
            s=np.full(N, s),
            s_gamma=float(s_gamma),
            nu=nu,
            nu_gamma=nu_gamma,
            s_s=s_s,
            nu_s=nu_s,
        )

    @classmethod
    def from_prior(cls, N: int, rng: np.random.Generator, *, nu, nu_gamma, s_s, nu_s):
        s_gamma = float(sample_ig2(s_s, nu_s, rng))
        s = sample_gamma(nu_gamma, s_gamma, rng, size=N)
        gamma = np.array([sample_ig2(si, nu, rng) for si in s])
        return cls(gamma=gamma, s=s, s_gamma=s_gamma, nu=nu, nu_gamma=nu_gamma, s_s=s_s, nu_s=nu_s)


def update_shrinkage_chain(
    chain: ShrinkageChain,
    sum_sq: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
) -> ShrinkageChain:
    """One conjugate Gibbs pass through the three levels.

    ``sum_sq[n]`` is the summed squared magnitude of the zero-mean Gaussian
    coefficients tied to gamma[n]; ``counts[n]`` their total dimension.
    """
    sum_sq = np.asarray(sum_sq, dtype=float)
    counts = np.asarray(counts, dtype=float)
    N = chain.gamma.shape[0]
    if sum_sq.shape != (N,) or counts.shape != (N,):
        raise ValueError("sum_sq and counts must have one entry per equation")
    if np.any(sum_sq < 0) or np.any(counts < 0):
        raise ValueError("sum_sq and counts must be non-negative")
    gamma = np.empty(N)
    for n in range(N):
        gamma[n] = sample_ig2(chain.s[n] + sum_sq[n], chain.nu + counts[n], rng)
    s = np.empty(N)
    for n in range(N):
        rate = 1.0 / chain.s_gamma + 0.5 / gamma[n]
        s[n] = sample_gamma(chain.nu_gamma + 0.5 * chain.nu, 1.0 / rate, rng)
    s_gamma = float(sample_ig2(chain.s_s + 2.0 * s.sum(), chain.nu_s + 2.0 * N * chain.nu_gamma, rng))
    return replace(chain, gamma=gamma, s=s, s_gamma=s_gamma)
