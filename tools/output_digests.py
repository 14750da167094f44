#!/usr/bin/env python3
"""SHA-256 digests of the sampler's outputs on a fixed set of cases.

A change that is meant to leave every draw as it was must print the same
JSON object as its parent. Run the script in both checkouts and compare:

    python3 tools/output_digests.py > digests.json

It takes no options. It covers eleven ``run_chain`` stores of ten configs
(every block, ``logml`` included), the simulated datasets and latent paths
behind them, predictive draws and log densities on seven of those stores,
the post-processing of the ``criterion10`` and ``desk401`` stores after
label normalisation (regime and pattern probabilities, volatility density
ratios, impulse responses and their summaries), the CSV and JSON files
that ``mssvar simulate --truth`` writes for two configs, and the Geweke
z-scores of the ``selfcheck --fast`` run and of acceptance criterion 03's
clean and mutated runs. The two 20 000-cycle Geweke runs take most of its
few minutes. It runs with one BLAS thread, as the benchmark does.

It is not a test: a deliberate change to the sampler's arithmetic changes
these digests, and that is what the comparison is there to show.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmark")]

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from mssvar import analytics, forecast  # noqa: E402
from mssvar.cli import main as cli_main  # noqa: E402
from mssvar.config import ModelConfig  # noqa: E402
from mssvar.data import empty_dataset  # noqa: E402
from mssvar.engine import run_chain  # noqa: E402
from mssvar.geweke import geweke_joint_test  # noqa: E402
from mssvar.patterns import build_pattern_set  # noqa: E402
from mssvar.selfcheck import GEWEKE_CONFIG  # noqa: E402
from mssvar.simulate import DgpTruth, generate_dgp  # noqa: E402


def digest(arr) -> str:
    arr = np.ascontiguousarray(arr)
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _truth(A, B, P, omega, rho) -> DgpTruth:
    M = len(B)
    return DgpTruth(A=np.array(A), B=np.array(B), P=np.array(P), pi0=np.full(M, 1.0 / M),
                    omega=np.array(omega), rho=np.array(rho))


CRITERION_10 = _truth(
    [[0.5, 0.1, 0.0], [0.0, 0.5, 0.2]],
    [[[1.0, 0.0], [-0.4, 1.0]], [[1.0, 0.5], [-0.4, 1.0]]],
    [[0.9, 0.1], [0.1, 0.9]], [[0.5, -0.5], [0.5, 0.5]], [0.7, 0.7],
)
THREE_REGIMES = _truth(
    [[0.4, 0.1, 0.1], [-0.1, 0.5, 0.0]],
    [[[1.0, 0.0], [-0.4, 1.0]], [[1.0, 0.5], [-0.4, 1.0]], [[1.0, 0.0], [0.0, 1.0]]],
    [[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]],
    [[0.5, -0.5, 0.2], [0.4, 0.3, -0.6]], [0.7, 0.8],
)
HOMOSKEDASTIC = _truth(
    [[0.6, 0.2, 0.5], [-0.1, 0.4, -0.3]], [[[1.2, 0.0], [-0.5, 0.9]]],
    [[1.0]], [[0.0], [0.0]], [0.0, 0.0],
)
ONE_VARIABLE = _truth(
    [[0.5, 0.2, 0.1]], [[[1.0]], [[1.5]]], [[0.95, 0.05], [0.05, 0.95]], [[0.6, -0.6]], [0.8],
)
# five variables and three lags, wider than any other case in both N and J
WIDE = _truth(
    np.hstack([0.4 * np.eye(5) + 0.05 * np.eye(5, k=1), 0.1 * np.eye(5), -0.05 * np.eye(5),
               np.full((5, 1), 0.1)]),
    [np.eye(5) - 0.3 * np.eye(5, k=-1), np.eye(5) + 0.4 * np.eye(5, k=-2)],
    [[0.95, 0.05], [0.05, 0.95]],
    [[0.5, -0.5], [0.4, 0.3], [-0.3, 0.6], [0.2, -0.2], [0.6, 0.1]], [0.7, 0.8, 0.6, 0.9, 0.5],
)


def cases():
    """(name, config, dataset, simulated latent paths or None, chain ids) per case."""
    ds, lat = generate_dgp(CRITERION_10, 80, np.random.default_rng(8))
    config = ModelConfig(N=2, p=1, M=2, patterns=build_pattern_set({0: ["**", "*0"]}, 2),
                         draws=50, burnin=20, thin=2, seed=123)
    yield "criterion10", config, ds, lat, (0, 1)

    for seed in (401, 1):
        ds, lat = generate_dgp(workloads.DESK_TRUTH, workloads.DESK_T, np.random.default_rng(seed))
        config = workloads.desk_config(seed, workloads.DESK_BURNIN, workloads.DESK_DRAWS)
        yield f"desk{seed}", config, ds, lat, (0,)

    ds, lat = generate_dgp(THREE_REGIMES, 120, np.random.default_rng(3))
    config = ModelConfig(N=2, p=1, M=3,
                         patterns=build_pattern_set({0: ["**", "*0"], 1: ["**", "0*"]}, 2),
                         draws=40, burnin=20, seed=5)
    yield "three_regimes", config, ds, lat, (0,)

    # equation 1's first candidate zeroes its whole start row, so B starts singular
    config = ModelConfig(N=2, p=1, M=2, patterns=build_pattern_set({0: ["0*", "**", "*0"]}, 2),
                         draws=60, burnin=10, seed=9)
    yield "empty_sample", config, empty_dataset(2, 1), None, (0,)

    config = ModelConfig(N=3, p=1, M=1,
                         patterns=build_pattern_set({0: ["***", "**0", "0**"]}, 3),
                         draws=60, burnin=10, seed=10)
    yield "empty_sample_one_regime", config, empty_dataset(3, 1), None, (0,)

    ds, lat = generate_dgp(HOMOSKEDASTIC, 200, np.random.default_rng(77))
    config = ModelConfig(N=2, p=1, M=1, fix_omega_at_zero=True, draws=50, burnin=20, seed=21)
    yield "homoskedastic", config, ds, lat, (0,)

    ds, lat = generate_dgp(ONE_VARIABLE, 100, np.random.default_rng(12))
    config = ModelConfig(N=1, p=2, M=2, draws=50, burnin=20, seed=13)
    yield "one_variable", config, ds, lat, (0,)

    ds, lat = generate_dgp(WIDE, 150, np.random.default_rng(15))
    config = ModelConfig(N=5, p=3, M=2,
                         patterns=build_pattern_set(
                             {0: ["*****", "****0", "*0*00"], 2: ["***00", "*0*0*"]}, 5),
                         draws=30, burnin=10, seed=16)
    yield "wide", config, ds, lat, (0,)


# stores whose post-processing is digested, and the horizon of their responses
ANALYZED = ("criterion10", "desk401")
IRF_HORIZON = 12

# (config text, -T, --seed) for each ``mssvar simulate --truth`` run
SIMULATE_CONFIGS = {
    "two_regimes": ("[model]\nvariables = y1, y2\nlags = 1\nregimes = 2\n\n"
                    "[patterns]\neq1 = **, *0\n", 80, 14),
    "one_regime": ("[model]\nvariables = a, b, c\nlags = 2\n", 300, 3),
}


def analysis_digests(prefix: str, store) -> dict[str, str]:
    """Digests of the post-processing of ``store``, after label normalisation."""
    config = store.config
    analytics.normalize_draws(store, "labels")
    out = {f"{prefix}/regime_probabilities": digest(analytics.regime_probabilities(store))}
    for n in config.patterns.tvi_equations:
        out[f"{prefix}/tvi_eq{n}"] = digest(analytics.tvi_probabilities(store, n))
    out[f"{prefix}/change_probability"] = digest(
        np.array(analytics.joint_tvi_change_probability(store)))
    for n in range(config.N):
        for m in range(config.M):
            out[f"{prefix}/sddr_{n}_{m}"] = digest(
                np.array(analytics.heteroskedasticity_sddr(store, n, m)))
    for m in range(config.M):
        for shock in range(config.N):
            draws = analytics.impulse_response_draws(store, m, IRF_HORIZON, shock)
            key = f"{prefix}/irf_{m}_{shock}"
            out[key] = digest(draws)
            summ = analytics.summarize(draws)
            for field in ("median", "hdi_lower", "hdi_upper"):
                out[f"{key}/{field}"] = digest(getattr(summ, field))
    return out


def simulate_digests() -> dict[str, str]:
    """Digests of the files that ``mssvar simulate --truth`` writes."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, periods, seed) in SIMULATE_CONFIGS.items():
            cfg, csv_path, truth_path = (os.path.join(tmp, f"{name}.{ext}")
                                         for ext in ("cfg", "csv", "json"))
            with open(cfg, "w") as fh:
                fh.write(text)
            argv = ["simulate", "--config", cfg, "--out", csv_path, "--truth", truth_path,
                    "-T", str(periods), "--seed", str(seed)]
            with contextlib.redirect_stdout(sys.stderr):  # stdout carries the digests
                if cli_main(argv) != 0:
                    raise RuntimeError(f"mssvar {' '.join(argv)} failed")
            for kind, path in (("csv", csv_path), ("json", truth_path)):
                with open(path, "rb") as fh:
                    out[f"simulate/{name}/{kind}"] = hashlib.sha256(fh.read()).hexdigest()
    return out


def main() -> None:
    out = {}
    for name, config, ds, lat, chains in cases():
        if lat is not None:
            for field in ("y", "x", "presample"):
                out[f"data/{name}/{field}"] = digest(getattr(ds, field))
            for field in ("s", "h", "u"):
                out[f"latent/{name}/{field}"] = digest(getattr(lat, field))
        for chain in chains:
            store = run_chain(config, ds, chain)
            for block in sorted(store.blocks):
                out[f"store/{name}/chain{chain}/{block}"] = digest(store.blocks[block])
            if lat is None or chain:
                continue
            y_f = ds.y[-1] + 0.1
            out[f"predictive/{name}/draws"] = digest(
                forecast.predictive_draws(store, ds, 4, seed=2))
            for horizon in (1, 3):
                out[f"predictive/{name}/log_density_h{horizon}"] = digest(
                    forecast.predictive_log_densities(store, ds, y_f, horizon, seed=4))
            out[f"predictive/{name}/log_density_var0"] = digest(
                forecast.predictive_log_densities(store, ds, y_f, 2, seed=4, variable=0))
            if name in ANALYZED:
                out.update(analysis_digests(f"analytics/{name}", store))
    out.update(simulate_digests())

    runs = {
        "selfcheck_fast": (2_000, 5, 1.0),
        "criterion03_clean": (20_000, 7, 1.0),
        "criterion03_mutated": (20_000, 404, np.sqrt(2.0)),
    }
    for name, (cycles, seed, inflation) in runs.items():
        result = geweke_joint_test(GEWEKE_CONFIG, cycles, np.random.default_rng(seed), T=30,
                                   omega_sd_inflation=inflation)
        z = sorted(result.z_scores.items())
        out[f"geweke/{name}"] = hashlib.sha256(repr(z).encode()).hexdigest()
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    print()


if __name__ == "__main__":
    main()
