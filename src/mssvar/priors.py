"""Distribution primitives and the hierarchical shrinkage chain.

Parameterizations used throughout:

* ``IG2(s, nu)``: density proportional to ``x^{-(nu+2)/2} exp(-s/(2x))``,
  equivalently ``s / x`` is chi-squared with ``nu`` degrees of freedom;
  mean ``s / (nu - 2)`` for ``nu > 2``.
* ``Gamma(shape a, scale s)``: mean ``a * s``.
* ``GIG(lam, chi, psi)``: density proportional to
  ``x^{lam-1} exp(-(chi/x + psi*x)/2)``.

The GIG draw is scipy's ``geninvgauss`` sampler (Hörmann & Leydold 2014,
Statistics and Computing 24), ported for one variate: it consumes the
generator as ``scipy.stats.geninvgauss.rvs`` does and returns the same
bits, without scipy's per-call overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
from scipy import special
from scipy.linalg import lapack


# ---------------------------------------------------------------------------
# samplers


def _any_nonpositive(x) -> bool:
    # a Python or numpy float compares directly, many times faster than
    # through an array; like the array test, a NaN is not caught
    if isinstance(x, (int, float)):
        return x <= 0
    return bool((np.asarray(x) <= 0).any())


def sample_ig2(s: float, nu: float, rng: np.random.Generator, size=None) -> np.ndarray | float:
    """Draw from IG2(s, nu) via s over a chi-squared variate; ``s`` and ``nu`` may be arrays."""
    if _any_nonpositive(s) or _any_nonpositive(nu):
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
    """Draw from GIG(lam, chi, psi) for positive ``chi`` and ``psi``."""
    if not (chi > 0 and psi > 0):
        raise ValueError(f"GIG requires positive chi and psi, got {chi} and {psi}")
    p, b = float(lam), float(np.sqrt(chi * psi))
    scale = np.sqrt(chi / psi)
    if not (p == p and b > 0 and scale >= 0):
        raise ValueError("GIG parameters outside the domain of the sampler")
    return float(_gig_standard(p, b, rng) * scale)


# scipy's bound on ratio-of-uniforms attempts that yield no variate
_GIG_ATTEMPTS = 50_000


def _gig_log_quasi(x, p: float, b: float):
    """Log of the GIG(p, b) quasi-density ``x^(p-1) exp(-b (x + 1/x) / 2)``."""
    if x > 0:
        return (p - 1) * np.log(x) - b * (x + 1 / x) / 2
    return -np.inf


def _gig_standard(p: float, b: float, rng: np.random.Generator):
    """One variate with density proportional to ``x^(p-1) exp(-b (x + 1/x) / 2)``.

    A line-for-line port of scipy 1.17's ``geninvgauss._rvs_scalar`` for one
    variate: ratio-of-uniforms with a mode shift, without one, or the
    Hörmann-Leydold rejection sampler, and inversion for p < 0. Each
    transcendental is the numpy ufunc scipy applies (numpy's SIMD kernels
    can differ from ``math`` and from Python's ``**`` in the last bit), and
    each attempt draws u and then v, so the stream and the bits are scipy's.
    """
    invert = p < 0
    if invert:
        p = -p  # 1 / X is GIG(-p, b)
    if p < 1:
        m = b / (np.sqrt((p - 1) ** 2 + b**2) + 1 - p)
    else:
        m = (np.sqrt((1 - p) ** 2 + b**2) - (1 - p)) / b
    if p >= 1 or b > 1:
        x = _gig_ratio_of_uniforms(p, b, m, True, rng)
    elif b >= min(0.5, 2 * np.sqrt(1 - p) / 3):
        x = _gig_ratio_of_uniforms(p, b, m, False, rng)
    else:
        x = _gig_rejection(p, b, m, rng)
    return 1 / x if invert else x


def _gig_ratio_of_uniforms(p: float, b: float, m, mode_shift: bool, rng: np.random.Generator):
    if mode_shift:
        # the bounding rectangle's v-extent from the roots of a cubic (Cardano)
        a2 = -2 * (p + 1) / b - m
        a1 = 2 * m * (p - 1) / b - 1
        p1 = a1 - a2**2 / 3
        q1 = 2 * a2**3 / 27 - a2 * a1 / 3 + m
        phi = np.arccos(-q1 * np.sqrt(-27 / p1**3) / 2)
        s1 = -np.sqrt(-4 * p1 / 3)
        root1 = s1 * np.cos(phi / 3 + np.pi / 3) - a2 / 3
        root2 = -s1 * np.cos(phi / 3) - a2 / 3
        lm = _gig_log_quasi(m, p, b)  # rescales the quasi-density to 1 at the mode
        vmin = (root1 - m) * np.exp(0.5 * (_gig_log_quasi(root1, p, b) - lm))
        vmax = (root2 - m) * np.exp(0.5 * (_gig_log_quasi(root2, p, b) - lm))
        umax, c = 1, m
    else:
        lm = 0.0
        umax = np.exp(0.5 * _gig_log_quasi(m, p, b))
        xplus = ((1 + p) + np.sqrt((1 + p) ** 2 + b**2)) / b
        vmin = 0
        vmax = xplus * np.exp(0.5 * _gig_log_quasi(xplus, p, b))
        c = 0
    if vmin >= vmax:
        raise ValueError("vmin must be smaller than vmax.")
    if umax <= 0:
        raise ValueError("umax must be positive.")
    for _ in range(_GIG_ATTEMPTS):
        u = umax * rng.random()
        v = vmin + (vmax - vmin) * rng.random()
        x = v / u + c
        if 2 * np.log(u) <= _gig_log_quasi(x, p, b) - lm:
            return x
    raise RuntimeError(
        f"Not a single random variate could be generated in {_GIG_ATTEMPTS} attempts. "
        "Sampling does not appear to work for the provided parameters."
    )


def _gig_rejection(p: float, b: float, m, rng: np.random.Generator):
    """Hörmann & Leydold's rejection sampler for 0 <= p < 1 and small b."""
    x0 = b / (1 - p)
    xs = np.float64(max(x0, 2 / b))
    k1 = np.exp(_gig_log_quasi(m, p, b))
    A1 = k1 * x0
    if x0 < 2 / b:
        k2 = np.exp(-b)
        if p > 0:
            A2 = k2 * ((2 / b) ** p - x0**p) / p
        else:
            A2 = k2 * np.log(2 / b**2)
    else:
        k2, A2 = 0, 0
    k3 = xs ** (p - 1)
    A3 = 2 * k3 * np.exp(-xs * b / 2) / b
    A = A1 + A2 + A3
    while True:  # the rejection constant is below 2.73
        u = rng.random()
        v = A * rng.random()
        if v <= A1:  # on (0, x0)
            x = x0 * v / A1
            h = k1
        elif v <= A1 + A2:  # on (x0, 2 / b)
            if p > 0:
                x = np.power(x0**p + (v - A1) * p / k2, 1 / p)
            else:
                x = b * np.exp((v - A1) * np.exp(b))
            h = k2 * np.power(x, p - 1)
        else:  # on (xs, infinity)
            z = np.exp(-xs * b / 2) - b * (v - A1 - A2) / (2 * k3)
            x = -2 / b * np.log(z)
            h = k3 * np.exp(-x * b / 2)
        if np.log(u * h) <= _gig_log_quasi(x, p, b):
            return x


_CHOL_JITTER = 1e-10


def precision_cholesky(S: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a precision; if that fails, of the precision
    plus a ridge of ``_CHOL_JITTER`` times its mean diagonal."""
    try:
        return np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        pass
    r = S.shape[0]
    jitter = _CHOL_JITTER * np.trace(S) / r
    try:
        return np.linalg.cholesky(S + jitter * np.eye(r))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("precision not positive definite even after jitter") from None


def solve_lower(L: np.ndarray, b: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve ``L x = b``, or ``L' x = b`` with ``trans``, for a lower
    triangular, C-ordered ``L`` such as ``precision_cholesky`` returns.

    This is the LAPACK call ``scipy.linalg.solve_triangular`` makes for such
    a factor, with the same checks and so the same bits, without its
    per-call dispatch and validation layers.
    """
    L = np.asarray_chkfinite(L)
    b = np.asarray_chkfinite(b)
    # trtrs reads Fortran order, where the C-ordered lower L is an upper L'
    x, info = lapack.dtrtrs(L.T, b, lower=0, trans=0 if trans else 1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in {-info}-th argument of internal trtrs")
    return x


def category_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the first axis of ``x`` (K, ...), with the bits of numpy's
    ``sum(axis=-1)`` over the same terms laid out last (up to the sign of a
    zero sum).

    numpy adds fewer than 8 terms one by one; up to 128 it keeps eight
    running sums, joins them pairwise and adds the remainder one by one;
    beyond that it sums two halves, the first a multiple of 8 long.  Every
    step here adds whole (...) planes, which is much faster than a
    reduction along a short last axis.
    """
    K = x.shape[0]
    if K > 128:
        half = K // 2 - (K // 2) % 8
        return category_sum(x[:half]) + category_sum(x[half:])
    if K < 8:
        total = x[0].copy()
        rest = x[1:]
    else:
        end = K - K % 8
        r = x[:8]
        for i in range(8, end, 8):
            r = r + x[i : i + 8]
        r = r[0::2] + r[1::2]  # r0 + r1, r2 + r3, r4 + r5, r6 + r7
        r = r[0::2] + r[1::2]
        total = r[0] + r[1]
        rest = x[end:]
    for term in rest:
        total += term
    return total


def categorical(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF categorical draws over the first axis of ``probs`` (K, ...).

    Each draw is the count of the cumulative probabilities of the first
    K - 1 categories that are at or below its uniform ``u`` (broadcast
    against ``probs[0]``), so that a ``u`` above a rounded total still
    lands on the last category.  The cumulative sums add one whole plane
    at a time, in the order of ``np.cumsum``, which along a first axis
    walks the planes element by element and is many times slower.
    """
    u = np.asarray(u)
    cum = np.empty(probs[:-1].shape)
    cum[:1] = probs[:1]
    for k in range(1, cum.shape[0]):  # slices, so that a 1-D probs adds in place too
        np.add(cum[k - 1 : k], probs[k : k + 1], out=cum[k : k + 1])
    # uniforms with more axes than a plane broadcast behind the category axis
    cum = cum.reshape(cum.shape[:1] + (1,) * (u.ndim - cum.ndim + 1) + cum.shape[1:])
    return (cum <= u).sum(axis=0)


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
        if (np.asarray(self.gamma) <= 0).any() or (np.asarray(self.s) <= 0).any():
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


def update_shrinkage_chain(
    chain: ShrinkageChain,
    sum_sq: np.ndarray,
    counts: np.ndarray,
    rng: np.random.Generator,
) -> ShrinkageChain:
    """One conjugate Gibbs pass through the three levels.

    ``sum_sq[n]`` is the summed squared magnitude of the zero-mean Gaussian
    coefficients tied to gamma[n]; ``counts[n]`` their total dimension.
    The gamma level is one scalar chi-squared draw per equation, in equation
    order (numpy's draw with an array of degrees of freedom consumes the
    stream in that order too, but is several times slower); the s level is
    one array draw.
    """
    sum_sq = np.asarray(sum_sq, dtype=float)
    counts = np.asarray(counts, dtype=float)
    N = chain.gamma.shape[0]
    if sum_sq.shape != (N,) or counts.shape != (N,):
        raise ValueError("sum_sq and counts must have one entry per equation")
    if (sum_sq < 0).any() or (counts < 0).any():
        raise ValueError("sum_sq and counts must be non-negative")
    scale, dof = chain.s + sum_sq, chain.nu + counts
    if (scale <= 0).any() or (dof <= 0).any():
        raise ValueError("IG2 requires positive scale and degrees of freedom")
    gamma = scale / np.array([rng.chisquare(d) for d in dof.tolist()])
    rate = 1.0 / chain.s_gamma + 0.5 / gamma
    # numpy's draw is scale times a unit-scale variate, so this equals a
    # draw with scale 1 / rate bit for bit, without numpy's slower path for
    # array-valued parameters
    s = (1.0 / rate) * sample_gamma(chain.nu_gamma + 0.5 * chain.nu, 1.0, rng, size=N)
    s_gamma = float(sample_ig2(chain.s_s + 2.0 * s.sum(), chain.nu_s + 2.0 * N * chain.nu_gamma, rng))
    return replace(chain, gamma=gamma, s=s, s_gamma=s_gamma)
