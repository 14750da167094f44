"""The two benchmark workloads: set-up, one timed round, and its output checks.

Every call into the library goes through a module attribute
(``engine.run_chain``, ``analytics.summarize``, ...), so the span recorder
in ``spans.py`` sees it when tracing is on. The checks never call a traced
function: they read the returned arrays and compare them with independent
arithmetic or with a property the method must have.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from mssvar import analytics, engine, forecast, geweke, simulate
from mssvar import store as store_mod
from mssvar.config import ModelConfig
from mssvar.data import build_design
from mssvar.patterns import build_pattern_set

from ess import bulk_ess


@dataclass
class Outcome:
    """One timed round; ``steps`` (sweeps or cycles) is the unit of ``steps_per_s``."""

    steps: int
    seconds: float
    failures: list[str]
    figures: dict[str, float] = field(default_factory=dict)
    product: object = None  # kept for the checks that pool every round


def _seeded(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


# ---------------------------------------------------------------------------
# desk: the criterion 06/11 model, estimated, stored, reloaded, analyzed and
# forecast in every round

# label-invariant scalars whose median bulk ESS gives ess_per_s
ESS_BLOCKS = ("A", "rho", "sigma2_omega", "gamma_A", "gamma_B", "logml")


def median_bulk_ess(stores) -> float:
    """Median over the scalars of their bulk ESS, each store one chain."""
    flat = np.stack([
        np.concatenate([st.block(name).reshape(st.n_draws, -1) for name in ESS_BLOCKS], axis=1)
        for st in stores
    ])  # (chains, draws, scalars)
    return float(np.median([bulk_ess(flat[:, :, j]) for j in range(flat.shape[2])]))


def _structural_zero_failures(store) -> list[str]:
    """Every draw keeps the entries its selected pattern restricts at exactly zero."""
    B = store.block("B")
    kappa = store.block("kappa").astype(np.int64)
    out = []
    for n, candidates in enumerate(store.config.patterns.equations):
        for k, pat in enumerate(candidates):
            zero = ~np.asarray(pat.mask)
            if not zero.any():
                continue
            rows = B[:, :, n, :][kappa[:, n, :] == k]  # (selected draws x regimes, N)
            if np.any(rows[:, zero] != 0.0):
                out.append(f"equation {n + 1}: pattern {pat.spec} has a non-zero restricted entry")
    return out


def _chain_failures(store) -> list[str]:
    out = _structural_zero_failures(store)
    for name, arr in store.blocks.items():
        if not np.all(np.isfinite(arr)):
            out.append(f"block {name} holds non-finite values")
    row_err = np.abs(store.block("P").sum(axis=-1) - 1.0).max()
    if row_err > 1e-12:
        out.append(f"rows of P miss one by {row_err:.1e}")
    return out


DESK_TRUTH = simulate.DgpTruth(
    A=np.hstack([0.5 * np.eye(3), np.zeros((3, 1))]),
    B=np.array([
        [[1.0, 0.6, 0.0], [-0.4, 1.0, 0.0], [0.25, -0.25, 1.0]],
        [[1.0, 0.0, 0.6], [-0.4, 1.0, 0.0], [0.25, -0.25, 1.0]],
    ]),
    P=np.array([[0.97, 0.03], [0.03, 0.97]]),
    pi0=np.array([0.5, 0.5]),
    omega=np.tile([[0.8, -0.9]], (3, 1)),
    rho=np.full(3, 0.9),
)
DESK_PATTERNS = {0: ["***", "**0", "*0*", "*00"], 1: ["**0"], 2: ["***"]}
DESK_TRUE_PATTERN = {0: 1, 1: 2}  # true regime -> index into equation 1's candidates
DESK_T = 600
DESK_BURNIN, DESK_DRAWS = 50, 100
IRF_HORIZON = 24
FORECAST_HORIZONS = (1, 4)  # from one origin, the end of the estimation sample
ORACLE_DRAWS = 8


def desk_config(seed: int, burnin: int, draws: int) -> ModelConfig:
    return ModelConfig(N=3, p=1, M=2, patterns=build_pattern_set(DESK_PATTERNS, 3),
                       burnin=burnin, draws=draws, thin=1, seed=seed)


@dataclass
class DeskCase:
    config: ModelConfig
    dataset: object
    s_true: np.ndarray  # the DGP's regime path over the estimation sample
    future: np.ndarray  # realized rows after the sample, one per horizon step
    out_dir: str
    seed: int


def setup_desk(seed: int, out_dir: str) -> DeskCase:
    """Desk data with held-out periods, and one warm-up pass of the whole round.

    The warm-up (a 3-sweep chain, then store, analysis and forecasts on it)
    puts first-call costs in set-up and not in a timed round.
    """
    hmax = max(FORECAST_HORIZONS)
    full, latent = simulate.generate_dgp(DESK_TRUTH, DESK_T + hmax, _seeded(seed, 1))
    y_raw = np.vstack([full.presample, full.y])
    p = full.p
    dataset = build_design(y_raw[: p + DESK_T], np.ones((p + DESK_T, 1)), p)
    config = desk_config(seed, DESK_BURNIN, DESK_DRAWS)
    case = DeskCase(config, dataset, latent.s[:DESK_T], y_raw[p + DESK_T :], out_dir, seed)
    warm = engine.run_chain(config.with_updates(burnin=0, draws=3), dataset, chain_id=999)
    _post_process(case, warm)
    return case


def _desk_recovery(store, case: DeskCase) -> dict:
    """Regime-path accuracy and equation 1's true-pattern mass, reported only.

    Both are taken under the label permutation that best matches the DGP's
    latent path. They are not checked: a chain of this length does not
    reach the regime and pattern mode on every seed.
    """
    s = store.block("s").astype(np.int64)
    kappa = store.block("kappa")[:, 0, :].astype(np.int64)
    M = case.config.M
    mode = np.stack([(s == m).mean(axis=0) for m in range(M)], axis=1).argmax(axis=1)
    perms = [np.array(p) for p in itertools.permutations(range(M))]
    accs = [float(np.mean(perm[mode] == case.s_true)) for perm in perms]
    best = perms[int(np.argmax(accs))]  # best[stored label] = true label
    figures = {"regime_accuracy": max(accs)}
    for true_m, k_true in DESK_TRUE_PATTERN.items():
        stored = int(np.flatnonzero(best == true_m)[0])
        figures[f"true_pattern_mass_{true_m + 1}"] = float(np.mean(kappa[:, stored] == k_true))
    return figures


def _analyze(store) -> dict:
    config = store.config
    analytics.normalize_draws(store, "labels")
    irfs = {}
    for m in range(config.M):
        for shock in range(config.N):
            draws = analytics.impulse_response_draws(store, m, IRF_HORIZON, shock)
            analytics.summarize(draws)
            irfs[m, shock] = draws
    return {
        "irfs": irfs,
        "regime_probs": analytics.regime_probabilities(store),
        "tvi": [analytics.tvi_probabilities(store, n) for n in config.patterns.tvi_equations],
        "sddr": [analytics.heteroskedasticity_sddr(store, n, m)
                 for n in range(config.N) for m in range(config.M)],
    }


def _forecast(store, case: DeskCase) -> dict:
    out = {"sims": {}, "log_densities": []}
    for h in FORECAST_HORIZONS:
        out["sims"][h] = forecast.predictive_draws(store, case.dataset, h, seed=case.seed)
        realized = case.future[h - 1]
        out["log_densities"].append(
            forecast.predictive_log_densities(store, case.dataset, realized, h, seed=case.seed))
        for v in range(store.config.N):
            out["log_densities"].append(forecast.predictive_log_densities(
                store, case.dataset, realized, h, seed=case.seed, variable=v))
    return out


def _post_process(case: DeskCase, store):
    """Persist, load, analyze and forecast one chain's store.

    Returns the stage times, the failures of the bitwise round trip (checked
    between load and analysis, untimed) and the products for the other checks.
    """
    path = os.path.join(case.out_dir, "store")
    shutil.rmtree(path, ignore_errors=True)
    clock = time.perf_counter
    t0 = clock()
    store_mod.persist_store(store, path)
    t1 = clock()
    loaded = store_mod.load_store(path, store.config)
    t2 = clock()
    failures = [f"block {name} does not round-trip bit for bit"
                for name, arr in store.blocks.items()
                if loaded.blocks[name].shape != arr.shape
                or loaded.blocks[name].tobytes() != arr.tobytes()]
    t3 = clock()
    analysis = _analyze(loaded)
    t4 = clock()
    fc = _forecast(loaded, case)
    t5 = clock()
    stored_bytes = sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))
    times = {"persist_s": t1 - t0, "load_s": t2 - t1, "analyze_s": t4 - t3,
             "forecast_s": t5 - t4, "store_bytes": float(stored_bytes)}
    return times, failures, loaded, analysis, fc


def _direct_irf(A: np.ndarray, B_m: np.ndarray, N: int, p: int, horizon: int,
                shock: int) -> np.ndarray:
    """Propagate one structural impulse through the lag recursion, intercept suppressed."""
    impact = np.linalg.solve(B_m, np.eye(N)[:, shock])
    lags = [np.zeros(N) for _ in range(p)]
    lags[0] = impact  # newest first
    path = np.empty((horizon + 1, N))
    path[0] = impact
    for h in range(1, horizon + 1):
        y = sum(A[:, l * N : (l + 1) * N] @ lags[l] for l in range(p))
        path[h] = y
        lags = [y] + lags[:-1]
    return path


def _posterior_failures(case: DeskCase, loaded, analysis: dict, fc: dict) -> list[str]:
    """Checks of the reloaded posterior, normalized by the analysis, and its forecasts."""
    out = []
    config = loaded.config
    N, M, p = config.N, config.M, config.p
    A, B = loaded.block("A"), loaded.block("B")
    S = loaded.n_draws

    # impulse responses against direct propagation on a sample of draws
    picks = _seeded(case.seed, 5).choice(S, size=min(ORACLE_DRAWS, S), replace=False)
    worst = 0.0
    for (m, shock), draws in analysis["irfs"].items():
        for i in picks:
            path = _direct_irf(A[i], B[i, m], N, p, IRF_HORIZON, shock)
            worst = max(worst, float(np.max(np.abs(draws[i] - path) / np.maximum(1.0, np.abs(path)))))
    if worst > 1e-8:
        out.append(f"impulse responses differ from direct propagation by {worst:.1e}")

    # normalization: non-negative diagonals, and each draw's labels are the
    # permutation closest to the reference path
    diag = np.diagonal(B, axis1=2, axis2=3)
    if np.any(diag < 0):
        out.append("a normalized draw keeps a negative diagonal entry of B")
    s = loaded.block("s").astype(np.int64)
    s_ref = s[int(np.argmax(loaded.block("logml")[:, 0]))]
    errs = np.stack([(np.asarray(perm)[s] != s_ref).sum(axis=1)
                     for perm in itertools.permutations(range(M))])
    if np.any(errs[0] > errs.min(axis=0)):  # row 0 is the identity
        out.append("a normalized draw has a relabeling closer to the reference path")

    # horizon-1 predictive mean against the draw average of A x_T
    x_T = np.concatenate([case.dataset.y[::-1][:p].ravel(), np.ones(1)])
    cond_mean = A @ x_T  # (S, N)
    sims = fc["sims"][1][:, 0, :]
    se = (sims - cond_mean).std(axis=0, ddof=1) / np.sqrt(S)
    gap = np.abs(sims.mean(axis=0) - cond_mean.mean(axis=0))
    if np.any(gap > 5.0 * se):
        out.append(f"horizon-1 predictive mean off by {np.max(gap / se):.1f} standard errors")

    if not all(np.all(np.isfinite(ld)) for ld in fc["log_densities"]):
        out.append("a predictive log density is not finite")
    for name, probs in [("regime", analysis["regime_probs"])] + [
        ("pattern", t) for t in analysis["tvi"]
    ]:
        if np.abs(probs.sum(axis=1) - 1.0).max() > 1e-12:
            out.append(f"{name} probabilities do not sum to one")
    if not np.all(np.isfinite(analysis["sddr"])):
        out.append("a log Savage-Dickey ratio is not finite")
    return out


def round_desk(case: DeskCase, index: int) -> Outcome:
    """One chain, then persist, load, analyze and forecast its draws.

    The round time is the sum of the chain and the four post-processing
    stages; the output checks between them are not timed.
    """
    t0 = time.perf_counter()
    store = engine.run_chain(case.config, case.dataset, chain_id=index)
    chain_s = time.perf_counter() - t0
    failures = _chain_failures(store)
    figures = _desk_recovery(store, case)
    times, roundtrip, loaded, analysis, fc = _post_process(case, store)
    failures += roundtrip + _posterior_failures(case, loaded, analysis, fc)
    figures.update(times, chain_s=chain_s)
    sweeps = case.config.burnin + case.config.draws * case.config.thin
    seconds = chain_s + times["persist_s"] + times["load_s"] + times["analyze_s"] + times["forecast_s"]
    return Outcome(steps=sweeps, seconds=seconds, failures=failures, figures=figures,
                   product=store)


def finish_desk(case: DeskCase, outcomes: list[Outcome]) -> tuple[list[str], dict]:
    """Chain rates, and ESS over every round's chain pooled as independent chains."""
    chain_s = sum(o.figures["chain_s"] for o in outcomes)
    ess = median_bulk_ess([o.product for o in outcomes])
    return [], {"sweeps_per_s": sum(o.steps for o in outcomes) / chain_s,
                "bulk_ess_median": ess, "ess_per_s": ess / chain_s}


# ---------------------------------------------------------------------------
# geweke: the joint-distribution test with selfcheck's configuration

GEWEKE_CYCLES, GEWEKE_T, GEWEKE_BATCHES = 2_000, 30, 50
# family-wise false-alarm rate of the max |z| check for a correct sampler
GEWEKE_FAMILY_ALPHA = 1e-5


def geweke_config() -> ModelConfig:
    return ModelConfig(
        N=2, p=1, M=2,
        patterns=build_pattern_set({0: ["**", "*0"]}, 2),
        nu_B=60.0, nu_gamma_B=60.0, s_s_B=55.0, nu_s_B=60.0,
        nu_A=60.0, nu_gamma_A=60.0, s_s_A=2.2, nu_s_A=60.0,
        omega_shape=3.0, omega_scale=0.1,
    )


@dataclass
class GewekeCase:
    config: ModelConfig
    seed: int


def setup_geweke(seed: int) -> GewekeCase:
    config = geweke_config()
    geweke.geweke_joint_test(config, 50, _seeded(seed, 3, 999), T=GEWEKE_T, batches=5)
    return GewekeCase(config, seed)


def geweke_bound(n_stats: int) -> float:
    """Bonferroni bound on max |z|: each z is close to t with batches - 1 df."""
    return float(stats.t.isf(GEWEKE_FAMILY_ALPHA / (2 * n_stats), GEWEKE_BATCHES - 1))


def round_geweke(case: GewekeCase, index: int) -> Outcome:
    t0 = time.perf_counter()
    result = geweke.geweke_joint_test(case.config, GEWEKE_CYCLES, _seeded(case.seed, 3, index),
                                      T=GEWEKE_T, batches=GEWEKE_BATCHES)
    seconds = time.perf_counter() - t0
    z = np.array(list(result.z_scores.values()))
    bound = geweke_bound(z.size)
    failures = []
    if not np.all(np.isfinite(z)) or np.abs(z).max() >= bound:
        failures.append(f"max |z| {np.abs(z).max():.2f} >= {bound:.2f}")
    return Outcome(steps=GEWEKE_CYCLES, seconds=seconds, failures=failures,
                   figures={"max_abs_z": float(np.abs(z).max())})


