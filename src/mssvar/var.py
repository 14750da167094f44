"""Autoregressive block: unit-root prior moments and the joint coefficient draw."""

from __future__ import annotations

import functools

import numpy as np
from scipy.linalg import lapack

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


@functools.lru_cache(maxsize=64)
def _contraction_path(subscripts: str, *shapes: tuple[int, ...]) -> list:
    """The path ``np.einsum(..., optimize=True)`` searches for on every call,
    searched once per operand shape.  It depends on the shapes (one variable
    gets a pairwise plan); einsum given that path computes the same bits."""
    return np.einsum_path(subscripts, *(np.empty(shape) for shape in shapes), optimize=True)[0]


_ONE_CONTRACTION = ["einsum_path", (0, 1, 2)]
_WEIGHT_FIRST = ["einsum_path", (1, 2), (0, 1)]
_CHUNK_ENTRIES = 1 << 17  # products held at once by _data_precision, 1 MB


def _data_precision(x: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``sum_t x_ta W_tij x_tb`` as a (J, N, J, N) array, with the bits of
    ``np.einsum("ta,tij,tb->aibj", x, W, x, optimize=True)``.

    Where einsum's path is one three-operand contraction (N >= 2 with a
    sample several times longer than N), that contraction adds the products
    ``x_ta (W_tij x_tb)`` period by period from the first.  Here each
    period's products are one contiguous row and the rows are summed over
    the period axis, which numpy adds in the same order, in about half the
    time.  Periods go in chunks, each of which carries the running total as
    its first row.  Any other path goes to einsum.
    """
    subscripts = "ta,tij,tb->aibj"
    path = _contraction_path(subscripts, x.shape, W.shape, x.shape)
    if path != _ONE_CONTRACTION:
        return np.einsum(subscripts, x, W, x, optimize=path)
    T, J = x.shape
    N = W.shape[1]
    width = N * J * N
    step = max(1, _CHUNK_ENTRIES // (J * width))
    total = np.zeros((J, width))
    for start in range(0, T, step):
        xs = x[start : start + step]
        Wx = (W[start : start + step, :, None, :] * xs[:, None, :, None]).reshape(-1, 1, width)
        rows = np.empty((xs.shape[0] + 1, J, width))
        rows[0] = total
        np.multiply(xs[:, :, None], Wx, out=rows[1:])
        total = rows.sum(axis=0)
    return total.reshape(J, N, J, N)


def _data_moment(x: np.ndarray, W: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``sum_t x_ta W_tij y_tj`` as a (J, N) array, with the bits of
    ``np.einsum("ta,tij,tj->ai", x, W, y, optimize=True)``.

    Where einsum's path contracts ``W`` with ``y`` first (every non-empty
    sample unless N = p = 1), einsum runs that path as two matrix products;
    they are called here directly, without einsum's parsing on every call.
    Any other path goes to einsum.
    """
    subscripts = "ta,tij,tj->ai"
    path = _contraction_path(subscripts, x.shape, W.shape, y.shape)
    if path != _WEIGHT_FIRST:
        return np.einsum(subscripts, x, W, y, optimize=path)
    Wy = (y[:, None, :] @ W.transpose(0, 2, 1))[:, 0, :]  # (T, N)
    return (Wy.T @ x).T


def _cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``L L' x = b`` for a lower Cholesky factor ``L``.

    This is the LAPACK call ``scipy.linalg.cho_solve((L, True), b)`` makes,
    with the same checks and so the same bits, without its dispatch layers.
    """
    L = np.asarray_chkfinite(L)
    b = np.asarray_chkfinite(b)
    x, info = lapack.dpotrs(L, b, lower=1)
    if info != 0:
        raise ValueError(f"illegal value in {-info}th argument of internal potrs")
    return x


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
    data_prec = _data_precision(dataset.x, W).reshape(J * N, J * N)
    rhs = _data_moment(dataset.x, W, dataset.y).reshape(-1)

    prec = data_prec + np.diag(prior_prec)
    rhs = rhs + prior_prec * prior_mean
    L = precision_cholesky(prec)
    return _cholesky_solve(L, rhs).reshape(J, N).T, L


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
