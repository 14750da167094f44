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
from scipy import special

from .priors import categorical, precision_cholesky, solve_lower


def row_cofactors(B: np.ndarray, gather: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """Cofactors of one row: det of B with the row replaced by e_i, for each i.

    ``gather`` is that row's entry of ``PatternSet.cofactor_gathers`` (or
    ``patterns.cofactor_gather(N, n)``): the indices of its N minors and
    their signs.  A 1 x 1 ``B`` has the one cofactor 1.0, the determinant of
    an empty minor.
    """
    B = np.asarray(B, dtype=float)
    rows, cols, signs = gather
    if B.shape != (signs.size, signs.size):
        raise ValueError("B must be square and match the gather")
    return signs * np.linalg.det(B[rows, cols])


def row_posterior_precision(
    crossprod: np.ndarray, free_idx: np.ndarray, gamma: float
) -> np.ndarray:
    """Precision of the free coefficients: prior ridge plus the data cross-product.

    ``crossprod`` is ``sum_t eps_t eps_t' / sigma2_{n,t}`` over the regime's
    observations (full N x N); the pattern picks out its free submatrix.
    """
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    S = crossprod[free_idx[:, None], free_idx]  # a copy, as fancy indexing makes
    S.flat[:: len(free_idx) + 1] += 1.0 / gamma
    return S


def factor_candidate(S: np.ndarray, w: np.ndarray, T_m: int) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factor ``L`` of a candidate's precision and its whitened
    cofactors ``what = L^{-1} w``, which the marginal and the draw share."""
    S = np.asarray(S, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.shape != (S.shape[0],):
        raise ValueError("cofactor vector length must match precision dimension")
    if T_m < 0:
        raise ValueError("T_m must be non-negative")
    L = precision_cholesky(S)
    return L, solve_lower(L, w)


def pattern_log_marginal(L: np.ndarray, what: np.ndarray, gamma: float, T_m: int) -> float:
    """Log marginal likelihood of one candidate pattern for a structural row.

    Integrates ``(2 pi gamma)^{-r/2} |b'w|^{T_m} exp(-b'Sb/2)`` over b, from
    ``factor_candidate(S, w, T_m)``.
    """
    r = L.shape[0]
    logdet_S = 2.0 * np.sum(np.log(np.diag(L)))
    out = (
        -0.5 * r * np.log(gamma)
        - 0.5 * logdet_S
        + 0.5 * T_m * np.log(2.0)
        + special.gammaln(0.5 * (T_m + 1))
        - 0.5 * np.log(np.pi)
    )
    if T_m > 0:
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
    L: np.ndarray, what: np.ndarray, T_m: int, rng: np.random.Generator
) -> np.ndarray:
    """Exact draw of free row coefficients from ``|b'w|^{T_m} exp(-b'Sb/2)``,
    given ``factor_candidate(S, w, T_m)``."""
    r = L.shape[0]
    if T_m == 0:
        z = rng.standard_normal(r)
        return solve_lower(L, z, trans=True)
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
    return solve_lower(L, z, trans=True)
