"""Forward simulation of the generative model."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, build_design


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
    return float(np.max(np.abs(np.linalg.eigvals(F)))) if F.size else 0.0


def _simulate_regimes(P: np.ndarray, pi0: np.ndarray, T: int, rng: np.random.Generator) -> np.ndarray:
    M = P.shape[0]
    s = np.empty(T, dtype=np.int64)
    if T == 0:
        return s
    cum0 = np.cumsum(pi0)
    cumP = np.cumsum(P, axis=1)
    s[0] = min(int(np.searchsorted(cum0, rng.random(), side="right")), M - 1)
    for t in range(1, T):
        s[t] = min(int(np.searchsorted(cumP[s[t - 1]], rng.random(), side="right")), M - 1)
    return s


def _simulate_volatility(rho: np.ndarray, T: int, rng: np.random.Generator) -> np.ndarray:
    N = rho.shape[0]
    h = np.zeros((N, T))
    innov = rng.standard_normal((N, T))
    prev = np.zeros(N)
    for t in range(T):
        prev = rho * prev + innov[:, t]
        h[:, t] = prev
    return h


def simulate_observations(
    truth: DgpTruth,
    s: np.ndarray,
    h: np.ndarray,
    presample: np.ndarray,
    rng: np.random.Generator,
    u: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Propagate observations given latent paths; returns (y, u).

    ``presample`` supplies the p initial rows; the deterministic term is an
    intercept.  If ``u`` is given the structural shocks are taken as-is.
    """
    N = truth.A.shape[0]
    p = presample.shape[0]
    T = s.shape[0]
    Binv = np.stack([np.linalg.inv(truth.B[m]) for m in range(truth.B.shape[0])])
    sig = np.sqrt(np.exp(truth.omega[:, s] * h))
    if u is None:
        u = sig * rng.standard_normal((N, T))
    y = np.empty((T, N))
    buf = list(presample[::-1])  # most recent first
    for t in range(T):
        xt = np.concatenate([np.concatenate(buf[:p]), np.ones(1)])
        eps = Binv[s[t]] @ u[:, t]
        yt = truth.A @ xt + eps
        y[t] = yt
        buf.insert(0, yt)
        del buf[p:]
    return y, u


def generate_dgp(
    truth: DgpTruth,
    T: int,
    rng: np.random.Generator,
    *,
    p: int | None = None,
    burn: int = 100,
) -> tuple[Dataset, SimulationRecord]:
    """Simulate a dataset of T effective observations.

    Starts from zero presample values and discards ``burn`` initial periods
    so observation and latent paths forget their initialization.  An
    explosive autoregressive part is flagged, not rejected.
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
    total = burn + p + T
    s_all = _simulate_regimes(truth.P, truth.pi0, total, rng)
    h_all = _simulate_volatility(truth.rho, total, rng)
    y_all, u_all = simulate_observations(truth, s_all, h_all, np.zeros((p, N)), rng)
    if not np.all(np.isfinite(y_all)):
        raise FloatingPointError("simulated path diverged; check stability of the truth")
    y_raw = y_all[burn:]
    dataset = build_design(y_raw, np.ones((p + T, 1)), p,
                           names=tuple(f"y{i + 1}" for i in range(N)))
    record = SimulationRecord(
        s=s_all[burn + p :].copy(),
        h=h_all[:, burn + p :].copy(),
        u=u_all[:, burn + p :].copy(),
        explosive=explosive,
    )
    return dataset, record


def truth_from_config(state) -> DgpTruth:
    """Package a parameter state as a simulation truth."""
    return DgpTruth(
        A=state.A.copy(),
        B=state.B.copy(),
        P=state.P.copy(),
        pi0=state.pi0.copy(),
        omega=state.omega.copy(),
        rho=state.rho.copy(),
    )


def write_csv(path: str, dataset: Dataset) -> None:
    """Emit presample plus effective rows in the loader's expected layout."""
    import csv

    pres = dataset.presample if dataset.presample is not None else np.zeros((0, dataset.N))
    names = dataset.names or tuple(f"y{i + 1}" for i in range(dataset.N))
    y_raw = np.vstack([pres, dataset.y])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *names])
        start = 2000 * 12
        for i, row in enumerate(y_raw):
            ym = start + i
            writer.writerow([f"{ym // 12:04d}-{ym % 12 + 1:02d}", *(repr(float(v)) for v in row)])
