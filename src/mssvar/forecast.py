"""Posterior predictive simulation and density forecast evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .config import ModelConfig
from .data import Dataset
from .store import DrawStore

_LOG2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class _DrawParams:
    A: np.ndarray
    B: np.ndarray
    P: np.ndarray
    omega: np.ndarray
    rho: np.ndarray
    s_last: int
    h_last: np.ndarray


def _draw_params(store: DrawStore, i: int) -> _DrawParams:
    T = store.T
    s = store.block("s")[i].astype(np.int64) if T > 0 else np.zeros(0, dtype=np.int64)
    return _DrawParams(
        A=store.block("A")[i],
        B=store.block("B")[i],
        P=store.block("P")[i],
        omega=store.block("omega")[i],
        rho=store.block("rho")[i],
        s_last=int(s[-1]) if T > 0 else 0,
        h_last=store.block("h")[i][:, -1] if T > 0 else np.zeros(store.config.N),
    )


def _lag_stack(dataset: Dataset, p: int) -> list[np.ndarray]:
    """Most recent p observation rows, newest first."""
    rows = [dataset.y[-k] for k in range(1, p + 1)]
    return [np.asarray(r, dtype=float) for r in rows]


def _step(
    params: _DrawParams,
    lags: list[np.ndarray],
    s_prev: int,
    h_prev: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int, np.ndarray]:
    """One ancestral simulation step; returns (y_next, s_next, h_next)."""
    M = params.P.shape[0]
    cum = np.cumsum(params.P[s_prev])
    s_next = min(int(np.searchsorted(cum, rng.random(), side="right")), M - 1)
    h_next = params.rho * h_prev + rng.standard_normal(h_prev.shape[0])
    sig = np.sqrt(np.exp(params.omega[:, s_next] * h_next))
    u = sig * rng.standard_normal(h_prev.shape[0])
    x = np.concatenate([np.concatenate(lags), np.ones(1)])
    y_next = params.A @ x + np.linalg.solve(params.B[s_next], u)
    return y_next, s_next, h_next


def predictive_draws(
    store: DrawStore, dataset: Dataset, horizon: int, seed: int = 0
) -> np.ndarray:
    """(draws, horizon, N) ancestral simulations of future observations."""
    if dataset.d_dim != 1:
        raise ValueError("predictive simulation supports intercept-only deterministic terms")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    S = store.n_draws
    N, p = store.config.N, store.config.p
    out = np.empty((S, horizon, N))
    for i in range(S):
        params = _draw_params(store, i)
        lags = _lag_stack(dataset, p)
        s_prev, h_prev = params.s_last, params.h_last
        for hh in range(horizon):
            y_next, s_prev, h_prev = _step(params, lags, s_prev, h_prev, rng)
            out[i, hh] = y_next
            lags.insert(0, y_next)
            del lags[p:]
    return out


def _terminal_log_density(
    params: _DrawParams,
    lags: list[np.ndarray],
    s_prev: int,
    h_prev: np.ndarray,
    y_real: np.ndarray,
    rng: np.random.Generator,
    variable: int | None = None,
) -> float:
    """Gaussian mixture density over the next regime, one simulated h step."""
    N = y_real.shape[0]
    h_next = params.rho * h_prev + rng.standard_normal(N)
    x = np.concatenate([np.concatenate(lags), np.ones(1)])
    mean = params.A @ x
    M = params.P.shape[0]
    terms = np.empty(M)
    for m in range(M):
        logvar = params.omega[:, m] * h_next
        if variable is None:
            u = params.B[m] @ (y_real - mean)
            _, logdet = np.linalg.slogdet(params.B[m])
            quad = np.sum(u * u * np.exp(-logvar))
            loglik = logdet - 0.5 * (N * _LOG2PI + logvar.sum() + quad)
        else:
            Binv = np.linalg.inv(params.B[m])
            cov = (Binv * np.exp(logvar)[None, :]) @ Binv.T
            vv = cov[variable, variable]
            dev = y_real[variable] - mean[variable]
            loglik = -0.5 * (_LOG2PI + np.log(vv) + dev * dev / vv)
        terms[m] = np.log(params.P[s_prev, m]) + loglik if params.P[s_prev, m] > 0 else -np.inf
    return float(logsumexp(terms))


def predictive_log_densities(
    store: DrawStore,
    dataset: Dataset,
    y_future: np.ndarray,
    horizon: int,
    seed: int = 0,
    variable: int | None = None,
) -> np.ndarray:
    """Per-draw log predictive density of the realized horizon-step value.

    Intermediate steps are simulated once per draw; the terminal step is the
    exact Gaussian mixture over the next regime.  ``variable`` switches from
    the joint density to one marginal.
    """
    y_future = np.asarray(y_future, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(10,)))
    S = store.n_draws
    p = store.config.p
    out = np.empty(S)
    for i in range(S):
        params = _draw_params(store, i)
        lags = _lag_stack(dataset, p)
        s_prev, h_prev = params.s_last, params.h_last
        for _ in range(horizon - 1):
            y_next, s_prev, h_prev = _step(params, lags, s_prev, h_prev, rng)
            lags.insert(0, y_next)
            del lags[p:]
        out[i] = _terminal_log_density(params, lags, s_prev, h_prev, y_future, rng, variable)
    return out


def log_predictive_score(per_draw_log_densities: np.ndarray) -> float:
    """Log of the draw-averaged predictive density."""
    ld = np.asarray(per_draw_log_densities, dtype=float)
    if ld.size == 0:
        raise ValueError("no per-draw densities")
    out = float(logsumexp(ld) - np.log(ld.size))
    if not np.isfinite(out):
        raise ValueError("predictive density underflowed to zero")
    return out


def rmsfe(forecasts: np.ndarray, realized: np.ndarray) -> np.ndarray:
    """Root mean squared forecast error per variable over origins."""
    forecasts = np.asarray(forecasts, dtype=float)
    realized = np.asarray(realized, dtype=float)
    if forecasts.shape != realized.shape:
        raise ValueError("forecasts and realizations must align")
    err = forecasts - realized
    return np.sqrt(np.mean(err * err, axis=0))


@dataclass
class EvaluationRow:
    model: str
    origin: int
    horizon: int
    point: np.ndarray
    realized: np.ndarray
    log_score: float


@dataclass
class ForecastReport:
    rows: list[EvaluationRow]

    def models(self) -> list[str]:
        seen = []
        for r in self.rows:
            if r.model not in seen:
                seen.append(r.model)
        return seen

    def rmsfe_table(self, horizon: int) -> dict[str, np.ndarray]:
        out = {}
        for model in self.models():
            rows = [r for r in self.rows if r.model == model and r.horizon == horizon]
            f = np.stack([r.point for r in rows])
            z = np.stack([r.realized for r in rows])
            out[model] = rmsfe(f, z)
        return out

    def mean_log_score(self, horizon: int) -> dict[str, float]:
        out = {}
        for model in self.models():
            scores = [r.log_score for r in self.rows if r.model == model and r.horizon == horizon]
            out[model] = float(np.mean(scores))
        return out

    def relative_rmsfe(self, horizon: int, benchmark: str) -> dict[str, np.ndarray]:
        table = self.rmsfe_table(horizon)
        base = table[benchmark]
        return {model: vals / base for model, vals in table.items()}

    def write_csv(self, path: str) -> None:
        import csv

        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            n = self.rows[0].point.shape[0] if self.rows else 0
            header = ["model", "origin", "horizon", "log_score"]
            header += [f"point_{i + 1}" for i in range(n)]
            header += [f"realized_{i + 1}" for i in range(n)]
            writer.writerow(header)
            for r in self.rows:
                writer.writerow(
                    [r.model, r.origin, r.horizon, repr(r.log_score)]
                    + [repr(float(v)) for v in r.point]
                    + [repr(float(v)) for v in r.realized]
                )


def rolling_evaluation(
    models: dict[str, ModelConfig],
    y_raw: np.ndarray,
    origins: list[int],
    horizons: list[int],
    *,
    seed: int = 0,
) -> ForecastReport:
    """Re-estimate each model at each origin and score later realizations.

    ``origins`` index rows of ``y_raw``; data up to and including the origin
    row is the estimation sample, and forecasts target origin + horizon.
    Each model's design uses its own lag order and an intercept only.
    """
    from .data import build_design
    from .engine import run_chain

    y_raw = np.asarray(y_raw, dtype=float)
    rows: list[EvaluationRow] = []
    hmax = max(horizons)
    for origin in origins:
        if origin + hmax >= y_raw.shape[0]:
            raise ValueError(f"origin {origin} leaves no room for horizon {hmax}")
        sample = y_raw[: origin + 1]
        for name, config in models.items():
            dataset = build_design(sample, np.ones((sample.shape[0], 1)), config.p)
            store = run_chain(config.with_updates(seed=seed), dataset)
            for horizon in horizons:
                realized = y_raw[origin + horizon]
                sims = predictive_draws(store, dataset, horizon, seed=seed + origin)
                point = sims[:, horizon - 1, :].mean(axis=0)
                ld = predictive_log_densities(
                    store, dataset, realized, horizon, seed=seed + origin
                )
                rows.append(
                    EvaluationRow(
                        model=name,
                        origin=origin,
                        horizon=horizon,
                        point=point,
                        realized=realized,
                        log_score=log_predictive_score(ld),
                    )
                )
    return ForecastReport(rows=rows)
