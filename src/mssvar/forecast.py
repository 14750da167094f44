"""Posterior predictive simulation and density forecast evaluation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .config import ModelConfig
from .data import Dataset
from .regimes import _LOG2PI, structural_loglik
from .simulate import lag_recursion, simulate_regimes, simulate_shocks, simulate_volatility
from .store import DrawStore


def _simulate_ahead(
    store: DrawStore, dataset: Dataset, steps: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Simulate ``steps`` periods past the sample for all S draws at once.

    Returns the last p observed and simulated rows (S, p + steps, N), and
    the regime (S,) and log-volatilities (S, N) of each path's last period.
    A store with T = 0 starts every path from regime 0 and h = 0.
    """
    if dataset.d_dim != 1:
        raise ValueError("predictive simulation supports intercept-only deterministic terms")
    S, N, p = store.n_draws, store.config.N, store.config.p
    if store.T > 0:
        s_last = store.block("s")[:, -1].astype(np.int64)
        h_last = store.block("h")[:, :, -1]
    else:
        s_last, h_last = np.zeros(S, dtype=np.int64), np.zeros((S, N))
    P = store.block("P")
    s = simulate_regimes(P[np.arange(S), s_last], P, steps, rng)
    h = simulate_volatility(store.block("rho"), h_last, steps, rng)
    eps, _ = simulate_shocks(store.block("B"), store.block("omega"), s, h, rng)
    observed = np.vstack([dataset.presample, dataset.y])
    lags = np.broadcast_to(observed[-p:], (S, p, N))
    paths = np.concatenate([lags, lag_recursion(store.block("A"), lags, eps)], axis=1)
    if steps == 0:
        return paths, s_last, h_last
    return paths, s[:, -1], h[..., -1]


def predictive_draws(
    store: DrawStore, dataset: Dataset, horizon: int, seed: int = 0
) -> np.ndarray:
    """(draws, horizon, N) ancestral simulations of future observations."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    paths, _, _ = _simulate_ahead(store, dataset, horizon, rng)
    return paths[:, store.config.p :]


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
    exact Gaussian mixture over the next regime, one (draws, M) array of
    terms.  ``variable`` switches from the joint density to one marginal.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    y_future = np.asarray(y_future, dtype=float)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(10,)))
    S, N, p = store.n_draws, store.config.N, store.config.p
    paths, s_prev, h_prev = _simulate_ahead(store, dataset, horizon - 1, rng)
    h_next = simulate_volatility(store.block("rho"), h_prev, 1, rng)  # (S, N, 1)
    B, P = store.block("B"), store.block("P")
    # one step of the recursion without a shock is the conditional mean A x
    mean = lag_recursion(store.block("A"), paths[:, -p:], np.zeros((S, 1, N)))[:, 0]
    dev = y_future - mean
    logvar = np.swapaxes(store.block("omega") * h_next, 1, 2)  # (S, M, N)
    if variable is None:
        u = (B @ dev[:, None, :, None])[..., 0]
        logdet = np.linalg.slogdet(B)[1]
        loglik = structural_loglik(u, logvar, logdet)
    else:
        row = np.linalg.inv(B)[:, :, variable, :]
        vv = np.sum(row * row * np.exp(logvar), axis=-1)
        loglik = -0.5 * (_LOG2PI + np.log(vv) + dev[:, None, variable] ** 2 / vv)
    with np.errstate(divide="ignore"):
        log_trans = np.log(P[np.arange(S), s_prev])
    return logsumexp(log_trans + loglik, axis=1)


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
    if min(horizons) < 1:
        raise ValueError(f"horizons must be at least 1, got {min(horizons)}")
    if min(origins, default=0) < 0:
        raise ValueError(f"origins must be at least 0, got {min(origins)}")
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
