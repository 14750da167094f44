"""Forward simulation of the generative model.

This module is the one simulator of the model.  Its four pieces are the
Markov regime path, the AR(1) log-volatilities, the heteroskedastic
structural shocks mapped through the regime's ``B^{-1}``, and the VAR lag
recursion.  Each takes an optional leading draw axis (the ``...`` in the
shapes below), so one call simulates every posterior draw.  Without it,
a piece consumes the generator as a loop over periods with one draw per
call would.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .data import Dataset, build_design
from .priors import categorical

# periods simulated and discarded before a generated sample starts
_BURN = 100


@dataclass(frozen=True)
class DgpTruth:
    """Parameters driving a simulation; pattern indices fix the zero layout of B."""

    A: np.ndarray
    B: np.ndarray
    P: np.ndarray
    pi0: np.ndarray
    omega: np.ndarray
    rho: np.ndarray


@dataclass
class SimulationRecord:
    """Latent paths aligned with the effective sample."""

    s: np.ndarray
    h: np.ndarray
    u: np.ndarray
    explosive: bool


def companion_matrix(A: np.ndarray, N: int, p: int) -> np.ndarray:
    F = np.zeros((N * p, N * p))
    F[:N, :] = A[:, : N * p]
    if p > 1:
        F[N:, : N * (p - 1)] = np.eye(N * (p - 1))
    return F


def spectral_radius(F: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(F))))


def simulate_regimes(
    first_probs: np.ndarray, P: np.ndarray, T: int, rng: np.random.Generator
) -> np.ndarray:
    """(..., T) Markov regime paths.

    The first regime is drawn from ``first_probs`` (..., M), each later one
    from the row of ``P`` (..., M, M) of its predecessor.  All the uniforms
    come from one ``rng.random`` call.
    """
    first_probs = np.asarray(first_probs, dtype=float)
    batch = first_probs.shape[:-1]
    if T == 0:
        return np.empty((*batch, 0), dtype=np.int64)
    u = rng.random((*batch, T))
    # nxt[..., t, j] is the regime at t + 1 of a path in regime j at t; the
    # categories, the next regimes, go first
    nxt = categorical(np.moveaxis(np.asarray(P), -1, 0)[..., None, :], u[..., 1:, None])
    return follow(categorical(np.moveaxis(first_probs, -1, 0), u[..., 0]), nxt)


def follow(first: np.ndarray, nxt: np.ndarray) -> np.ndarray:
    """(..., T) paths that start in state ``first`` (...) and walk a successor table.

    ``nxt`` is (..., T - 1, M): a path in state j at step t is in state
    ``nxt[..., t, j]`` at step t + 1.  The maps are composed into prefixes
    by recursive doubling, ceil(log2 T) gathers over the whole table (the
    temporal parallelisation of Hassan, Sarkka & Garcia-Fernandez, 2021),
    and one last gather reads every prefix at ``first``.
    """
    batch, (steps, M) = nxt.shape[:-2], nxt.shape[-2:]
    paths = int(np.prod(batch))
    # a copy, composed in place: at the end table[:, t, j] is the state at
    # step t + 1 of a path in state j at step 0
    table = nxt.reshape(paths, steps, M).astype(np.int64)
    flat = table.reshape(-1)
    # flat[row[p, t] + j] is table[p, t, j]; a flat take is much cheaper
    # than take_along_axis on tables this small
    row = np.arange(0, paths * steps * M, M).reshape(paths, steps, 1)
    step = 1
    while step < steps:
        table[:, step:] = flat.take(row[:, step:] + table[:, :-step])
        step *= 2
    s = np.empty((paths, steps + 1), dtype=np.int64)
    s[:, 0] = np.reshape(first, -1)
    s[:, 1:] = flat.take(row[..., 0] + s[:, :1])
    return s.reshape(*batch, steps + 1)


def simulate_volatility(
    rho: np.ndarray, h0: np.ndarray, T: int, rng: np.random.Generator
) -> np.ndarray:
    """(..., N, T) log-volatility paths ``h_t = rho * h_{t-1} + e_t`` from ``h_{-1} = h0``.

    ``rho`` and ``h0`` are (..., N); the standard normal ``e`` comes from
    one call.
    """
    rho = np.asarray(rho, dtype=float)
    prev = np.asarray(h0, dtype=float)
    innov = rng.standard_normal((*np.broadcast_shapes(rho.shape, prev.shape), T))
    h = np.empty_like(innov)
    for t in range(T):
        prev = rho * prev + innov[..., t]
        h[..., t] = prev
    return h


def simulate_shocks(
    B: np.ndarray,
    omega: np.ndarray,
    s: np.ndarray,
    h: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Reduced-form shocks ``B_{s_t}^{-1} u_t``, (..., T, N), and the structural ``u``, (..., N, T).

    ``B`` is (..., M, N, N), ``omega`` (..., N, M), ``s`` (..., T) and ``h``
    (..., N, T).  Each ``u_t`` is normal with variances
    ``exp(omega[:, s_t] * h_t)``.
    """
    s = np.asarray(s, dtype=np.int64)
    loadings = np.take_along_axis(omega, s[..., None, :], axis=-1)
    sig = np.sqrt(np.exp(loadings * h))
    u = sig * rng.standard_normal(sig.shape)
    Binv = np.take_along_axis(np.linalg.inv(B), s[..., :, None, None], axis=-3)
    return (Binv @ np.swapaxes(u, -1, -2)[..., None])[..., 0], u


def lag_recursion(A: np.ndarray, presample: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """(..., T, N) observations ``y_t = A x_t + eps_t`` for the T rows of ``eps``.

    ``x_t`` stacks the p previous observations, newest first, and ends with
    a one if ``A`` (..., N, N*p + 1) has an intercept column; an ``A`` of
    width N*p runs the recursion without one.  The p rows of ``presample``
    (..., p, N), oldest first, open the recursion.
    """
    p, N = presample.shape[-2:]
    T, K = eps.shape[-2], A.shape[-1]
    if K not in (N * p, N * p + 1):
        raise ValueError(f"A has {K} columns, expected N*p = {N * p} or one more for an intercept")
    batch = np.broadcast_shapes(A.shape[:-2], presample.shape[:-2], eps.shape[:-2])
    y = np.empty((*batch, p + T, N))
    y[..., :p, :] = presample
    x = np.ones((*batch, K, 1))
    for t in range(T):
        x[..., : N * p, 0] = y[..., t : t + p, :][..., ::-1, :].reshape(*batch, N * p)
        y[..., p + t, :] = (A @ x)[..., 0] + eps[..., t, :]
    return y[..., p:, :]


def simulate_observations(
    truth: DgpTruth,
    s: np.ndarray,
    h: np.ndarray,
    presample: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate observations given latent paths; returns (y, u).

    ``presample`` supplies the p initial rows; the deterministic term is an
    intercept.
    """
    eps, u = simulate_shocks(truth.B, truth.omega, s, h, rng)
    return lag_recursion(truth.A, presample, eps), u


def generate_dgp(
    truth: DgpTruth,
    T: int,
    rng: np.random.Generator,
    *,
    p: int | None = None,
) -> tuple[Dataset, SimulationRecord]:
    """Simulate a dataset of T effective observations.

    Starts from zero presample values and discards the first ``_BURN``
    periods so observation and latent paths forget their initialization.
    An explosive autoregressive part is flagged, not rejected.
    """
    N = truth.A.shape[0]
    if p is None:
        p = (truth.A.shape[1] - 1) // N
    if truth.A.shape[1] != N * p + 1:
        raise ValueError("simulator supports a single intercept deterministic term")
    F = companion_matrix(truth.A, N, p)
    explosive = spectral_radius(F) >= 1.0
    if explosive:
        warnings.warn("autoregressive part is explosive; simulated paths may diverge")
    total = _BURN + p + T
    s_all = simulate_regimes(truth.pi0, truth.P, total, rng)
    h_all = simulate_volatility(truth.rho, np.zeros(N), total, rng)
    y_all, u_all = simulate_observations(truth, s_all, h_all, np.zeros((p, N)), rng)
    if not np.all(np.isfinite(y_all)):
        raise FloatingPointError("simulated path diverged; check stability of the truth")
    y_raw = y_all[_BURN:]
    dataset = build_design(y_raw, np.ones((p + T, 1)), p,
                           names=tuple(f"y{i + 1}" for i in range(N)))
    record = SimulationRecord(
        s=s_all[_BURN + p :].copy(),
        h=h_all[:, _BURN + p :].copy(),
        u=u_all[:, _BURN + p :].copy(),
        explosive=explosive,
    )
    return dataset, record


def truth_from_config(state) -> DgpTruth:
    """Copies of a parameter state's ``DgpTruth`` fields, as a simulation truth."""
    return DgpTruth(**{f.name: getattr(state, f.name).copy() for f in fields(DgpTruth)})


def write_csv(path: str, dataset: Dataset) -> None:
    """Emit presample plus effective rows in the loader's expected layout."""
    import csv

    names = dataset.names or tuple(f"y{i + 1}" for i in range(dataset.N))
    y_raw = np.vstack([dataset.presample, dataset.y])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *names])
        start = 2000 * 12
        for i, row in enumerate(y_raw):
            ym = start + i
            writer.writerow([f"{ym // 12:04d}-{ym % 12 + 1:02d}", *(repr(float(v)) for v in row)])
