#!/usr/bin/env python3
"""Benchmark of the mssvar sampler, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmark/run.py --workload desk --seed 1 --seconds 60 --trace 0

The workload runs whole rounds (one chain with its store, analysis and
forecasts, or one Geweke test) until the next round would end after
``--seconds``, and checks every round's outputs. Set-up runs twice before
the first round and once after every round; ``setup_s`` is the median of
all of them. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Figures particular to a workload (ESS per second, store read and write
times, ...) go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from collections import defaultdict

# one BLAS thread, fixed before numpy is imported: a sweep is a chain of
# small matrix operations, and a second thread only adds contention
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_REPEATS = 2  # before the first round; the first is cold

WORKLOAD_NAMES = ("desk", "geweke")

# block-level public functions of each layer; per-row helpers such as
# apply_pattern and extract_free stay unwrapped
TRACE_TARGETS = (
    "engine.run_chain", "engine.initialize_state", "engine.gibbs_sweep",
    "regimes.regime_loglik_matrix", "regimes.forward_filter", "regimes.backward_sample",
    "regimes.draw_transition_matrix", "regimes.draw_initial_probabilities",
    "sv.log_squared", "sv.draw_mixture_indicators", "sv.draw_log_volatilities",
    "sv.draw_omega", "sv.draw_omega_variance", "sv.draw_rho", "sv.conditional_variances",
    "structural.row_cofactors", "structural.row_posterior_precision",
    "structural.pattern_log_marginal", "structural.draw_tvi_indicator",
    "structural.draw_row_coefficients",
    "var.draw_autoregressive",
    "priors.sample_gig", "priors.sample_truncated_normal", "priors.update_shrinkage_chain",
    "store.allocate_store", "store.record_draw", "store.persist_store", "store.load_store",
    "analytics.normalize_draws", "analytics.impulse_response_draws", "analytics.summarize",
    "analytics.regime_probabilities", "analytics.tvi_probabilities",
    "analytics.heteroskedasticity_sddr",
    "forecast.predictive_draws", "forecast.predictive_log_densities",
    "simulate.simulate_observations",
    "geweke.geweke_joint_test", "geweke.prior_draw", "geweke.simulate_given_state",
)
# functions whose time is mostly their children's: named for their self time
PARENT_TARGETS = ("engine.run_chain", "engine.gibbs_sweep", "geweke.geweke_joint_test")
COUNTED = ("structural.pattern_log_marginal", "structural.draw_row_coefficients")
LAYERS = ("engine", "regimes", "sv", "structural", "var", "priors", "store",
          "analytics", "forecast", "simulate", "geweke")

# what one step of steps_per_s is, per workload
STEP_RATES = {"desk": "pipeline_sweeps_per_s", "geweke": "cycles_per_s"}
FIGURE_UNITS = {
    "sweeps_per_s": "1/s", "ess_per_s": "1/s", "chain_s": "s", "bulk_ess_median": "count",
    "regime_accuracy": "share", "true_pattern_mass_1": "share", "true_pattern_mass_2": "share",
    "max_abs_z": "z",
    "persist_s": "s", "load_s": "s", "analyze_s": "s", "forecast_s": "s", "store_bytes": "bytes",
}


def _function_metric(target: str) -> str:
    return target + ("_self_ms" if target in PARENT_TARGETS else "_ms")


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports."""
    out = [(_function_metric(t), "ms") for t in TRACE_TARGETS]
    out += [(t + "_calls", "count") for t in COUNTED]
    for layer in LAYERS:
        out += [(f"{layer}.self_ms", "ms"), (f"{layer}.calls", "count")]
    out += [("store.bytes", "bytes"), ("engine.bulk_ess_median", "count"),
            ("trace.overhead_ms", "ms"), ("trace.overhead_pct", "%")]
    return out


def run_rounds(run_round, case, seconds: float, between):
    """Whole rounds until the next one would end after ``seconds``; at least one.

    ``between`` runs after every round; its time counts towards ``seconds``.
    """
    outcomes, errors = [], 0
    t_start = time.perf_counter()
    index = 0
    while True:
        t0 = time.perf_counter()
        try:
            outcomes.append(run_round(case, index))
        except Exception:
            errors += 1
            traceback.print_exc()
        between()
        index += 1
        now = time.perf_counter()
        if (now - t_start) + (now - t0) > seconds:
            return outcomes, errors


def _figures(outcomes, pooled: dict) -> dict:
    """Median over rounds of each per-round figure, plus the pooled ones."""
    names = sorted({k for o in outcomes for k in o.figures})
    out = {n: statistics.median(o.figures[n] for o in outcomes if n in o.figures) for n in names}
    out.update(pooled)
    return out


def _layer_metrics(recorder, outcomes, references, figures: dict) -> dict:
    from spans import self_times

    self_t = self_times(recorder.starts, recorder.ends, recorder.parents)
    rounds = len(outcomes)  # per-layer figures are per round
    totals, calls = defaultdict(float), defaultdict(int)
    for name, t in zip(recorder.names, self_t):
        totals[name] += float(t)
        calls[name] += 1
    values = {_function_metric(t): 1e3 * totals[t] / rounds for t in TRACE_TARGETS}
    values.update({t + "_calls": calls[t] / rounds for t in COUNTED})
    for layer in LAYERS:
        mine = [t for t in TRACE_TARGETS if t.split(".")[0] == layer]
        values[f"{layer}.self_ms"] = 1e3 * sum(totals[t] for t in mine) / rounds
        values[f"{layer}.calls"] = sum(calls[t] for t in mine) / rounds
    values["store.bytes"] = figures.get("store_bytes", 0.0)
    values["engine.bulk_ess_median"] = figures.get("bulk_ess_median", 0.0)
    values["trace.overhead_ms"] = statistics.median(
        1e3 * (t.seconds - u.seconds) for t, u in zip(outcomes, references))
    values["trace.overhead_pct"] = statistics.median(
        100.0 * (t.seconds / u.seconds - 1.0) for t, u in zip(outcomes, references))
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_metrics()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=60.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "mssvar")):
        print(f"benchmark: no package source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import spans
    import workloads

    os.makedirs(OUT_DIR, exist_ok=True)
    setups = {
        "desk": lambda seed: workloads.setup_desk(seed, OUT_DIR),
        "geweke": workloads.setup_geweke,
    }
    run_round = getattr(workloads, f"round_{args.workload}")

    # set-up runs before the first round and again after every round, so
    # that its median samples the machine over the whole run as the rounds do
    setup_times = []

    def timed_setup():
        t0 = time.perf_counter()
        made = setups[args.workload](args.seed)
        setup_times.append(time.perf_counter() - t0)
        return made

    for _ in range(SETUP_REPEATS):
        case = timed_setup()

    if args.trace:
        recorder = spans.SpanRecorder()
        attempts = [0]

        def traced_round(case, index):
            patches = spans.install(recorder, list(TRACE_TARGETS))
            try:
                return run_round(case, index)
            finally:
                spans.uninstall(patches)

        def traced_pair(case, index):
            # the same round untraced and traced, alternating which runs first;
            # the difference is the tracing overhead
            order = (run_round, traced_round) if index % 2 == 0 else (traced_round, run_round)
            results = {}
            for fn in order:
                attempts[0] += 1
                results[fn] = fn(case, index)
            return results[run_round], results[traced_round]

        pairs, errors = run_rounds(traced_pair, case, args.seconds, timed_setup)
        recorder.write_npz(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))
        references = [ref for ref, _ in pairs]
        outcomes = [traced for _, traced in pairs]
        attempted = attempts[0]
        checked = references + outcomes
    else:
        outcomes, errors = run_rounds(run_round, case, args.seconds, timed_setup)
        attempted = len(outcomes) + errors
        checked = outcomes
    if not outcomes:
        print("benchmark: every round raised; no result", file=sys.stderr)
        return 1

    print(f"{args.workload}: setup_s by repeat " + " ".join(f"{t:.4g}" for t in setup_times),
          file=sys.stderr)
    failures = [f for o in checked for f in o.failures]
    finish = getattr(workloads, f"finish_{args.workload}", None)
    pooled_failures, pooled = finish(case, outcomes) if finish else ([], {})
    failures += pooled_failures
    figures = _figures(outcomes, pooled)
    steps_per_s = sum(o.steps for o in outcomes) / sum(o.seconds for o in outcomes)
    print(f"{args.workload}: {STEP_RATES[args.workload]} {steps_per_s:.6g} 1/s, by round "
          + " ".join(f"{o.steps / o.seconds:.6g}" for o in outcomes), file=sys.stderr)
    for name, value in figures.items():
        print(f"{args.workload}: {name} {value:.6g} {FIGURE_UNITS.get(name, '')}", file=sys.stderr)
    for f in failures:
        print(f"{args.workload}: check failed: {f}", file=sys.stderr)

    if args.trace:
        metrics = _layer_metrics(recorder, outcomes, references, figures)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "steps_per_s": {"value": steps_per_s, "unit": "1/s"},
        }
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": errors,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
