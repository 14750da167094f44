"""Command-line entry points.

Exit codes: 0 on success, 1 for usage, config, data, or check-failure
problems, 2 for runtime failures inside an otherwise valid run.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import multiprocessing
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import analytics, forecast
from .config import load_config
from .data import Dataset, load_dataset
from .engine import run_chain
from .store import DrawStore, load_store, persist_store


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="model config file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mssvar",
        description="Regime-switching structural VAR with data-driven exclusion restrictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a truth from the prior and simulate data")
    _add_common(p_sim)
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.add_argument("--truth", help="JSON path for the generating parameters")
    p_sim.add_argument("-T", "--periods", type=int, default=500)
    p_sim.add_argument("--seed", type=int, default=None)

    p_est = sub.add_parser("estimate", help="run the posterior sampler")
    _add_common(p_est)
    p_est.add_argument("--data", required=True, help="input CSV path")
    p_est.add_argument("--out", required=True, help="output store directory")
    p_est.add_argument("--chains", type=int, default=None)
    p_est.add_argument("--draws", type=int, default=None, help="override config draws")
    p_est.add_argument("--burnin", type=int, default=None, help="override config burnin")
    p_est.add_argument("--thin", type=int, default=None, help="override config thin")
    p_est.add_argument("--seed", type=int, default=None, help="override config seed")

    p_an = sub.add_parser("analyze", help="post-process a stored chain, or every chain of a run")
    p_an.add_argument("what", choices=["tvi", "regimes", "irf", "sddr", "moments"])
    p_an.add_argument("--store", required=True)
    p_an.add_argument("--data", help="CSV path (required for moments)")
    p_an.add_argument("--equation", type=int, default=None, help="1-based equation index")
    p_an.add_argument("--regime", type=int, default=1, help="1-based regime index")
    p_an.add_argument("--shock", type=int, default=None, help="1-based shock index")
    p_an.add_argument("--horizon", type=int, default=24)
    p_an.add_argument("--normalize", type=float, default=None)
    p_an.add_argument("--out", help="optional CSV output path (JSON goes to stdout otherwise)")

    p_fc = sub.add_parser("forecast", help="rolling re-estimation forecast evaluation")
    _add_common(p_fc)
    p_fc.add_argument("--data", required=True)
    p_fc.add_argument("--origins", required=True, help="comma-separated 0-based origin rows")
    p_fc.add_argument("--horizons", default="1", help="comma-separated horizons")
    p_fc.add_argument("--model", action="append", default=[],
                      help="extra NAME=CONFIGFILE competitor, repeatable")
    p_fc.add_argument("--benchmark", default=None)
    p_fc.add_argument("--out", required=True, help="report CSV path")

    p_chk = sub.add_parser("selfcheck", help="run built-in correctness checks")
    p_chk.add_argument("--fast", action="store_true", help="reduced-cycle variant")
    return parser


def _load_data(path: str, config) -> Dataset:
    """The CSV at ``path``, read as the config declares its series."""
    return load_dataset(
        path, config.p,
        transforms=config.transform_map(),
        variables=list(config.variables) or None,
        det_columns=list(config.det_columns) or None,
    )


def _int_list(text: str, flag: str, lowest: int) -> list[int]:
    """Comma-separated integers, each at least ``lowest``."""
    values = [int(v) for v in text.split(",") if v.strip()]
    if min(values, default=lowest) < lowest:
        raise ValueError(f"{flag} must be at least {lowest}, got {min(values)}")
    return values


def _cmd_simulate(args) -> int:
    from .geweke import prior_draw
    from .simulate import generate_dgp, spectral_radius, companion_matrix, truth_from_config, write_csv

    if args.periods < 1:
        raise ValueError(f"-T must be at least 1, got {args.periods}")
    config = load_config(args.config)
    if args.seed is not None:
        config = config.with_updates(seed=args.seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed, spawn_key=(42,)))
    state = None
    for _ in range(1000):
        cand = prior_draw(config, 0, rng)
        F = companion_matrix(cand.A, config.N, config.p)
        if spectral_radius(F) < 0.999:
            state = cand
            break
    if state is None:
        print("could not find a stable prior draw in 1000 tries", file=sys.stderr)
        return 1
    truth = truth_from_config(state)
    dataset, record = generate_dgp(truth, args.periods, rng, p=config.p)
    write_csv(args.out, dataset)
    if args.truth:
        payload = {f.name: getattr(truth, f.name).tolist() for f in dataclasses.fields(truth)}
        payload.update(kappa=state.kappa.tolist(), s=record.s.tolist(),
                       explosive=record.explosive)
        with open(args.truth, "w") as fh:
            json.dump(payload, fh, indent=1)
    print(f"wrote {dataset.T + config.p} rows to {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    config = load_config(args.config)
    overrides = {
        k: getattr(args, k)
        for k in ("chains", "draws", "burnin", "thin", "seed")
        if getattr(args, k) is not None
    }
    if overrides:
        config = config.with_updates(**overrides)
    dataset = _load_data(args.data, config)
    chain = functools.partial(run_chain, config, dataset)
    # spawned, not forked: the parent may already run BLAS threads
    with ProcessPoolExecutor(max_workers=min(config.chains, os.cpu_count() or 1),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        stores = list(pool.map(chain, range(config.chains)))
    for c, store in enumerate(stores):
        persist_store(store, os.path.join(args.out, f"chain{c:02d}"))
    print(f"stored {config.chains} chain(s) under {args.out}")
    return 0


def _load_store_arg(path: str):
    """A chain directory alone, or every ``chainNN`` of a run directory pooled.

    The chains of a run are read against the first one's config, which
    raises on a mismatch, and must share its sample length.
    """
    if os.path.exists(os.path.join(path, "manifest.json")):
        return load_store(path)
    names = os.listdir(path) if os.path.isdir(path) else []
    chains = [os.path.join(path, name)
              for name in sorted(names, key=lambda name: (len(name), name))
              if re.fullmatch(r"chain\d+", name)
              and os.path.exists(os.path.join(path, name, "manifest.json"))]
    if not chains:
        raise FileNotFoundError(f"{path}: no draw store found")
    first = load_store(chains[0])
    stores = [first]
    for chain in chains[1:]:
        store = load_store(chain, expected_config=first.config)
        if store.T != first.T:
            raise ValueError(f"{chain}: T={store.T}, but {chains[0]} has T={first.T}")
        stores.append(store)
    blocks = {name: np.concatenate([st.blocks[name] for st in stores]) for name in first.blocks}
    return DrawStore(config=first.config, T=first.T, chain_id=first.chain_id, blocks=blocks)


def _check_indices(args, config) -> None:
    """1-based ``--equation``, ``--shock`` and ``--regime`` in range; ``--horizon`` >= 0."""
    for flag, value, upper in (("equation", args.equation, config.N),
                               ("shock", args.shock, config.N),
                               ("regime", args.regime, config.M)):
        if value is not None and not 1 <= value <= upper:
            raise ValueError(f"--{flag} must lie in 1..{upper}, got {value}")
    if args.horizon < 0:
        raise ValueError(f"--horizon must be at least 0, got {args.horizon}")


def _emit(rows: list[list], payload: dict, out: str | None) -> None:
    """CSV table to a file, pretty JSON to stdout otherwise."""
    if out:
        import csv

        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        print(json.dumps(payload, indent=1))


def _cmd_analyze(args) -> int:
    store = _load_store_arg(args.store)
    config = store.config
    _check_indices(args, config)
    analytics.normalize_draws(store, "labels" if config.M > 1 else "sign-diag")
    if args.what == "tvi":
        eqs = [args.equation - 1] if args.equation else list(config.patterns.tvi_equations)
        rows: list[list] = []
        payload = {}
        for n in eqs:
            probs = analytics.tvi_probabilities(store, n)
            labels = [pat.spec for pat in config.patterns.equations[n]]
            rows.append(["equation", "regime", *labels])
            for m in range(config.M):
                rows.append([n + 1, m + 1, *(repr(float(v)) for v in probs[m])])
            payload[f"equation_{n + 1}"] = {
                "patterns": labels,
                "probabilities": probs.tolist(),
            }
        change = analytics.joint_tvi_change_probability(store)
        payload["change_probability"] = change
        print(f"change probability {change:.4f}")
        _emit(rows, payload, args.out)
    elif args.what == "regimes":
        probs = analytics.regime_probabilities(store)
        rows = [["period", *(f"regime_{m + 1}" for m in range(config.M))]]
        rows += [[t + 1, *(repr(float(v)) for v in probs[t])] for t in range(probs.shape[0])]
        _emit(rows, {"regime_probabilities": probs.tolist()}, args.out)
    elif args.what == "irf":
        if args.shock is None:
            print("analyze irf needs --shock", file=sys.stderr)
            return 1
        draws = analytics.impulse_response_draws(
            store, args.regime - 1, args.horizon, args.shock - 1, normalize=args.normalize
        )
        summ = analytics.summarize(draws)
        rows = [["horizon"]
                + [f"median_{i + 1}" for i in range(config.N)]
                + [f"hdi_lower_{i + 1}" for i in range(config.N)]
                + [f"hdi_upper_{i + 1}" for i in range(config.N)]]
        for hh in range(args.horizon + 1):
            rows.append([hh, *(repr(float(v)) for v in summ.median[hh]),
                         *(repr(float(v)) for v in summ.hdi_lower[hh]),
                         *(repr(float(v)) for v in summ.hdi_upper[hh])])
        payload = {
            "median": summ.median.tolist(),
            "hdi_lower": summ.hdi_lower.tolist(),
            "hdi_upper": summ.hdi_upper.tolist(),
        }
        _emit(rows, payload, args.out)
    elif args.what == "sddr":
        rows = [["equation", "regime", "log_sddr"]]
        payload = {}
        for n in [args.equation - 1] if args.equation else range(config.N):
            for m in range(config.M):
                val = float(analytics.heteroskedasticity_sddr(store, n, m))
                rows.append([n + 1, m + 1, repr(val)])
                payload[f"log_sddr[{n + 1},{m + 1}]"] = val
        _emit(rows, payload, args.out)
    elif args.what == "moments":
        if not args.data:
            print("analyze moments needs --data", file=sys.stderr)
            return 1
        dataset = _load_data(args.data, config)
        probs = analytics.regime_probabilities(store)
        moments = analytics.regime_moments(dataset.y, probs)
        rows = [["regime", "periods"]
                + [f"mean_{i + 1}" for i in range(config.N)]
                + [f"sd_{i + 1}" for i in range(config.N)]]
        payload = {}
        for m, mom in enumerate(moments):
            rows.append([m + 1, mom["weight"], *(repr(float(v)) for v in mom["mean"]),
                         *(repr(float(v)) for v in mom["sd"])])
            payload[f"regime_{m + 1}"] = {
                "mean": mom["mean"].tolist(),
                "sd": mom["sd"].tolist(),
                "periods": mom["weight"],
            }
        _emit(rows, payload, args.out)
    return 0


def _cmd_forecast(args) -> int:
    config = load_config(args.config)
    models = {"main": config}
    for spec in args.model:
        if "=" not in spec:
            print(f"--model expects NAME=CONFIGFILE, got {spec!r}", file=sys.stderr)
            return 1
        name, path = spec.split("=", 1)
        models[name] = load_config(path)
    for name, cfg in models.items():
        if cfg.det_columns:
            print(f"model {name!r} declares det_columns, but predictive simulation is "
                  "intercept-only", file=sys.stderr)
            return 1
        # every model is scored on the main config's data
        if (cfg.variables, cfg.transforms) != (config.variables, config.transforms):
            print(f"model {name!r} differs from the main config in its variables or "
                  "transforms; log scores on different data cannot be compared",
                  file=sys.stderr)
            return 1
    if args.benchmark is not None and args.benchmark not in models:
        raise ValueError(f"--benchmark {args.benchmark!r} names no model; the models are "
                         + ", ".join(models))
    origins = _int_list(args.origins, "--origins", 0)
    horizons = _int_list(args.horizons, "--horizons", 1)
    dataset = _load_data(args.data, config)
    y_raw = np.vstack([dataset.presample, dataset.y])
    report = forecast.rolling_evaluation(models, y_raw, origins, horizons, seed=config.seed)
    report.write_csv(args.out)
    for horizon in horizons:
        scores = report.mean_log_score(horizon)
        for name, val in scores.items():
            print(f"h={horizon} {name}: mean log score {val:.4f}")
        if args.benchmark:
            rel = report.relative_rmsfe(horizon, args.benchmark)
            for name, vals in rel.items():
                pretty = ", ".join(f"{v:.3f}" for v in vals)
                print(f"h={horizon} {name}: relative RMSFE [{pretty}]")
    return 0


def _cmd_selfcheck(args) -> int:
    from .selfcheck import run_selfcheck

    ok = run_selfcheck(fast=args.fast)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": _cmd_simulate,
        "estimate": _cmd_estimate,
        "analyze": _cmd_analyze,
        "forecast": _cmd_forecast,
        "selfcheck": _cmd_selfcheck,
    }
    try:
        return handlers[args.command](args)
    except (np.linalg.LinAlgError, FloatingPointError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
