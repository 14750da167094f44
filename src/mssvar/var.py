"""Autoregressive block: unit-root prior moments and the joint coefficient draw."""

from __future__ import annotations

import numpy as np
from scipy import linalg

from .data import Dataset
from .priors import precision_cholesky, solve_lower


def minnesota_moments(N: int, p: int, d_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Prior mean rows and shared diagonal scale for the autoregressive matrix.

    Each equation centers on its own first lag; lag-l blocks shrink with
    1 / l^2 and deterministic terms get a diffuse variance of 100.
    """
    J = N * p + d_dim
    mean = np.zeros((N, J))
    mean[:, :N] = np.eye(N)
    scale = np.empty(J)
    for lag in range(1, p + 1):
        scale[(lag - 1) * N : lag * N] = 1.0 / lag**2
    scale[N * p :] = 100.0
    return mean, scale


def autoregressive_posterior(
    dataset: Dataset,
    B: np.ndarray,
    s: np.ndarray,
    sigma2: np.ndarray,
    gamma_A: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Posterior mean (N, J) and Cholesky precision factor of the coefficients.

    The likelihood contributes ``sum_t (x_t x_t') (x) (B' D_t^{-1} B)`` to the
    precision of the column-stacked coefficient vector (nothing when T = 0);
    the prior adds an independent ridge per row from the unit-root moments.
    """
    N, J = dataset.N, dataset.n_coefficients
    mean_rows, omega_diag = minnesota_moments(N, dataset.p, dataset.d_dim)
    prior_prec = (1.0 / (gamma_A[:, None] * omega_diag[None, :])).T.reshape(-1)  # (J*N,)
    prior_mean = mean_rows.T.reshape(-1)

    Bs = B[s]  # (T, N, N)
    inv_sig = (1.0 / sigma2).T  # (T, N)
    W = np.einsum("tki,tk,tkj->tij", Bs, inv_sig, Bs)
    data_prec = np.einsum("ta,tij,tb->aibj", dataset.x, W, dataset.x, optimize=True)
    data_prec = data_prec.reshape(J * N, J * N)
    rhs = np.einsum("ta,tij,tj->ai", dataset.x, W, dataset.y, optimize=True).reshape(-1)

    prec = data_prec + np.diag(prior_prec)
    rhs = rhs + prior_prec * prior_mean
    L = precision_cholesky(prec)
    mean = linalg.cho_solve((L, True), rhs)
    return mean.reshape(J, N).T, L


def draw_autoregressive(
    dataset: Dataset,
    B: np.ndarray,
    s: np.ndarray,
    sigma2: np.ndarray,
    gamma_A: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Joint Gaussian draw of all autoregressive coefficients."""
    mean, L = autoregressive_posterior(dataset, B, s, sigma2, gamma_A)
    J = dataset.n_coefficients
    N = dataset.N
    vec = mean.T.reshape(-1) + solve_lower(L, rng.standard_normal(J * N), trans=True)
    return vec.reshape(J, N).T
