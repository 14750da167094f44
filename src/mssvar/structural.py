"""Row-wise sampling of structural matrices under exclusion patterns.

Conditional on the other rows, a structural row enters the likelihood
through ``|det B|^{T_m}`` and a Gaussian quadratic form.  The determinant is
linear in the row, ``det B = b' w`` with ``w`` the relevant cofactors, which
gives both a closed-form marginal likelihood per candidate pattern and an
exact draw of the free coefficients: whiten, rotate the cofactor direction
onto the first axis, draw that coordinate as a signed square-root-gamma
variate and the rest as standard normals.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg, special

from .priors import categorical, precision_cholesky


def row_cofactors(B: np.ndarray, n: int) -> np.ndarray:
    """Cofactors of row ``n``: det of B with row n replaced by e_i, for each i.

    A 1 x 1 ``B`` has the one cofactor 1.0, the determinant of an empty minor.
    """
    B = np.asarray(B, dtype=float)
    N = B.shape[0]
    if B.shape != (N, N):
        raise ValueError("B must be square")
    rest = np.delete(B, n, axis=0)
    minors = np.stack([np.delete(rest, i, axis=1) for i in range(N)])
    dets = np.linalg.det(minors)
    signs = (-1.0) ** (n + np.arange(N))
    return signs * dets


def row_posterior_precision(
    crossprod: np.ndarray, free_idx: np.ndarray, gamma: float
) -> np.ndarray:
    """Precision of the free coefficients: prior ridge plus the data cross-product.

    ``crossprod`` is ``sum_t eps_t eps_t' / sigma2_{n,t}`` over the regime's
    observations (full N x N); the pattern picks out its free submatrix.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    r = len(free_idx)
    S = crossprod[np.ix_(free_idx, free_idx)].copy()
    S[np.diag_indices(r)] += 1.0 / gamma
    return S


def pattern_log_marginal(
    S: np.ndarray, w: np.ndarray, gamma: float, T_m: int
) -> float:
    """Log marginal likelihood of one candidate pattern for a structural row.

    Integrates ``(2 pi gamma)^{-r/2} |b'w|^{T_m} exp(-b'Sb/2)`` over b.
    """
    S = np.asarray(S, dtype=float)
    w = np.asarray(w, dtype=float)
    r = S.shape[0]
    if w.shape != (r,):
        raise ValueError("cofactor vector length must match precision dimension")
    if T_m < 0:
        raise ValueError("T_m must be non-negative")
    L = precision_cholesky(S)
    logdet_S = 2.0 * np.sum(np.log(np.diag(L)))
    out = (
        -0.5 * r * np.log(gamma)
        - 0.5 * logdet_S
        + 0.5 * T_m * np.log(2.0)
        + special.gammaln(0.5 * (T_m + 1))
        - 0.5 * np.log(np.pi)
    )
    if T_m > 0:
        what = linalg.solve_triangular(L, w, lower=True)
        tau2 = float(what @ what)
        if tau2 <= 0.0:
            return -np.inf
        out += 0.5 * T_m * np.log(tau2)
    return float(out)


def draw_tvi_indicator(log_marginals: np.ndarray, rng: np.random.Generator) -> int:
    """Categorical draw over candidate patterns from their log marginals."""
    lm = np.asarray(log_marginals, dtype=float)
    if lm.ndim != 1 or lm.size < 1:
        raise ValueError("need at least one candidate pattern")
    if np.any(np.isnan(lm)):
        raise ValueError("NaN pattern log marginal")
    top = lm.max()
    if not np.isfinite(top):
        raise ValueError("all candidate patterns have zero marginal likelihood")
    probs = np.exp(lm - top)
    probs /= probs.sum()
    return int(categorical(probs, rng.random()))


def draw_row_coefficients(
    S: np.ndarray, w: np.ndarray, T_m: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact draw of free row coefficients from ``|b'w|^{T_m} exp(-b'Sb/2)``."""
    S = np.asarray(S, dtype=float)
    w = np.asarray(w, dtype=float)
    r = S.shape[0]
    L = precision_cholesky(S)
    if T_m == 0:
        z = rng.standard_normal(r)
        return linalg.solve_triangular(L, z, trans="T", lower=True)
    what = linalg.solve_triangular(L, w, lower=True)
    tau = float(np.linalg.norm(what))
    if tau <= 0.0:
        raise ValueError("cofactor direction vanished; structural matrix is singular")
    xi = rng.standard_normal(r)
    g = rng.gamma(0.5 * (T_m + 1), 2.0)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    xi[0] = sign * np.sqrt(g)
    # reflect the first axis onto the whitened cofactor direction
    if r > 1:
        v = what.copy()
        v[0] += tau if what[0] >= 0 else -tau  # cancellation-free Householder vector
        z = xi - (2.0 * (v @ xi) / (v @ v)) * v
    else:
        z = xi
    return linalg.solve_triangular(L, z, trans="T", lower=True)
