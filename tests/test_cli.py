"""End-to-end command-line workflow and exit-code contract."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from mssvar import analytics, forecast
from mssvar.cli import main
from mssvar.store import DrawStore, load_store

CONFIG = """
[model]
variables = y1, y2
lags = 1
regimes = 2

[chain]
draws = 12
burnin = 4
seed = 3

[patterns]
eq1 = **, *0
"""


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg = root / "model.cfg"
    cfg.write_text(CONFIG)
    data = root / "sim.csv"
    truth = root / "truth.json"
    rc = main(["simulate", "--config", str(cfg), "--out", str(data),
               "--truth", str(truth), "-T", "60", "--seed", "14"])
    assert rc == 0
    run = root / "run"
    rc = main(["estimate", "--config", str(cfg), "--data", str(data),
               "--out", str(run)])
    assert rc == 0
    return root, cfg, data, run


def test_simulate_outputs(workspace):
    root, _, data, _ = workspace
    with open(data) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["date", "y1", "y2"]
    assert len(rows) == 1 + 60 + 1  # header + raw rows (T + p)
    truth = json.load(open(root / "truth.json"))
    assert np.asarray(truth["A"]).shape == (2, 3)
    assert len(truth["s"]) == 60


def test_estimate_store_contents(workspace):
    _, _, _, run = workspace
    store = load_store(str(run / "chain00"))
    assert store.n_draws == 12
    assert store.config.M == 2


def test_estimate_flag_overrides(workspace, tmp_path):
    _, cfg, data, _ = workspace
    out = tmp_path / "short"
    rc = main(["estimate", "--config", str(cfg), "--data", str(data),
               "--out", str(out), "--draws", "5", "--burnin", "2", "--seed", "99"])
    assert rc == 0
    store = load_store(str(out / "chain00"))
    assert store.n_draws == 5
    assert store.config.seed == 99
    assert store.config.burnin == 2


def test_estimate_is_deterministic(workspace, tmp_path):
    _, cfg, data, _ = workspace
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["estimate", "--config", str(cfg), "--data", str(data),
                     "--out", str(out), "--draws", "4", "--burnin", "1"]) == 0
        outs.append(load_store(str(out / "chain00")))
    for name in outs[0].blocks:
        assert np.array_equal(outs[0].blocks[name], outs[1].blocks[name]), name


def _with_trend(workspace, tmp_path):
    """The workspace data plus a trend column, and a config that uses it."""
    _, _, data, _ = workspace
    rows = list(csv.reader(open(data)))
    trended = tmp_path / "trend.csv"
    with open(trended, "w", newline="") as fh:
        csv.writer(fh).writerows(
            [rows[0] + ["trend"]] + [row + [repr(0.01 * i)] for i, row in enumerate(rows[1:])]
        )
    cfg = tmp_path / "trend.cfg"
    cfg.write_text(CONFIG.replace("regimes = 2", "regimes = 2\ndet_columns = trend"))
    return cfg, trended


@pytest.mark.parametrize("design", ["intercept", "trend"])
def test_multichain_matches_single_chain_zero(workspace, tmp_path, design):
    _, cfg, data, _ = workspace
    if design == "trend":
        cfg, data = _with_trend(workspace, tmp_path)
    single = tmp_path / "single"
    multi = tmp_path / "multi"
    base = ["--config", str(cfg), "--data", str(data), "--draws", "4", "--burnin", "1"]
    assert main(["estimate", *base, "--out", str(single)]) == 0
    assert main(["estimate", *base, "--out", str(multi), "--chains", "2"]) == 0
    a = load_store(str(single / "chain00"))
    b = load_store(str(multi / "chain00"))
    assert a.block("A").shape[2] == (4 if design == "trend" else 3)  # y1, y2, 1[, trend]
    for name in a.blocks:
        assert np.array_equal(a.blocks[name], b.blocks[name]), name
    assert os.path.isdir(multi / "chain01")
    c = load_store(str(multi / "chain01"))
    assert not np.array_equal(a.blocks["A"], c.blocks["A"])


def test_analyze_tvi_table(workspace, tmp_path):
    _, _, _, run = workspace
    out = tmp_path / "tvi.csv"
    rc = main(["analyze", "tvi", "--store", str(run), "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert rows[0] == ["equation", "regime", "**", "*0"]
    assert len(rows) == 3  # header + one row per regime
    for row in rows[1:]:
        probs = [float(v) for v in row[2:]]
        assert abs(sum(probs) - 1.0) < 1e-12
        assert all(v >= 0 for v in probs)


def test_analyze_regimes_and_sddr_and_moments(workspace, tmp_path):
    _, _, data, run = workspace
    regimes_csv = tmp_path / "regimes.csv"
    assert main(["analyze", "regimes", "--store", str(run), "--out", str(regimes_csv)]) == 0
    rows = list(csv.reader(open(regimes_csv)))
    assert rows[0] == ["period", "regime_1", "regime_2"]
    assert len(rows) == 1 + 60  # presample rows feed the lag
    for row in rows[1:]:
        assert abs(float(row[1]) + float(row[2]) - 1.0) < 1e-12

    sddr_csv = tmp_path / "sddr.csv"
    assert main(["analyze", "sddr", "--store", str(run), "--out", str(sddr_csv)]) == 0
    rows = list(csv.reader(open(sddr_csv)))
    assert rows[0] == ["equation", "regime", "log_sddr"]
    assert len(rows) == 1 + 4
    assert all(np.isfinite(float(r[2])) for r in rows[1:])

    mom_csv = tmp_path / "moments.csv"
    assert main(["analyze", "moments", "--store", str(run), "--data", str(data),
                 "--out", str(mom_csv)]) == 0
    rows = list(csv.reader(open(mom_csv)))
    assert rows[0][:2] == ["regime", "periods"]
    assert len(rows) == 3


def test_analyze_irf_table(workspace, tmp_path):
    _, _, _, run = workspace
    out = tmp_path / "irf.csv"
    rc = main(["analyze", "irf", "--store", str(run), "--shock", "1",
               "--horizon", "6", "--normalize", "-0.25", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert rows[0][0] == "horizon"
    assert len(rows) == 1 + 7
    med0 = float(rows[1][1])  # impact response of variable 1, the shock's own
    assert abs(med0 - (-0.25)) < 1e-12


def _regimes_csv(store_path, out):
    assert main(["analyze", "regimes", "--store", str(store_path), "--out", str(out)]) == 0
    return np.array([[float(v) for v in row[1:]] for row in list(csv.reader(open(out)))[1:]])


def test_analyze_pools_every_chain_of_a_run(workspace, tmp_path):
    _, cfg, data, _ = workspace
    run = tmp_path / "run"
    assert main(["estimate", "--config", str(cfg), "--data", str(data), "--out", str(run),
                 "--draws", "6", "--burnin", "2", "--chains", "2"]) == 0
    stores = [load_store(str(run / f"chain0{c}")) for c in range(2)]
    pooled = DrawStore(config=stores[0].config, T=stores[0].T, blocks={
        name: np.concatenate([st.blocks[name] for st in stores]) for name in stores[0].blocks})
    want = analytics.regime_probabilities(analytics.normalize_draws(pooled, "labels"))
    assert np.array_equal(_regimes_csv(run, tmp_path / "pooled.csv"), want)
    # a chain directory still reads alone
    alone = analytics.regime_probabilities(analytics.normalize_draws(stores[1], "labels"))
    assert np.array_equal(_regimes_csv(run / "chain01", tmp_path / "alone.csv"), alone)


def test_analyze_rejects_chains_that_do_not_pool(workspace, tmp_path, capsys):
    _, cfg, data, run = workspace
    rows = list(csv.reader(open(data)))
    short = tmp_path / "short.csv"
    with open(short, "w", newline="") as fh:
        csv.writer(fh).writerows(rows[:41])  # header and 40 raw rows: T = 39
    cases = (("shorter", short, [], "T=39, but"),
             ("other_config", data, ["--draws", "5"], "different config"))
    for name, source, extra, message in cases:
        other = tmp_path / name
        assert main(["estimate", "--config", str(cfg), "--data", str(source),
                     "--out", str(other), *extra]) == 0
        mixed = tmp_path / f"mixed_{name}"
        mixed.mkdir()
        os.symlink(run / "chain00", mixed / "chain00")
        os.symlink(other / "chain00", mixed / "chain01")
        assert main(["analyze", "regimes", "--store", str(mixed)]) == 1
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag, allowed", [
    (["irf", "--shock", "1", "--regime", "0"], "--regime", "1..2"),
    (["irf", "--shock", "1", "--regime", "3"], "--regime", "1..2"),
    (["irf", "--shock", "0"], "--shock", "1..2"),
    (["irf", "--shock", "3"], "--shock", "1..2"),
    (["irf", "--shock", "1", "--horizon", "-1"], "--horizon", "at least 0"),
    (["tvi", "--equation", "0"], "--equation", "1..2"),
    (["tvi", "--equation", "5"], "--equation", "1..2"),
    (["sddr", "--equation", "3"], "--equation", "1..2"),
])
def test_analyze_rejects_out_of_range_indices(workspace, capsys, argv, flag, allowed):
    _, _, _, run = workspace
    assert main(["analyze", *argv, "--store", str(run)]) == 1
    err = capsys.readouterr().err
    assert flag in err and allowed in err


def test_analyze_sddr_honours_equation(workspace, tmp_path):
    _, _, _, run = workspace
    out = tmp_path / "sddr.csv"
    assert main(["analyze", "sddr", "--equation", "2", "--store", str(run),
                 "--out", str(out)]) == 0
    rows = list(csv.reader(open(out)))
    assert [row[:2] for row in rows[1:]] == [["2", "1"], ["2", "2"]]


def test_forecast_report(workspace, tmp_path):
    _, cfg, data, _ = workspace
    out = tmp_path / "report.csv"
    rc = main(["forecast", "--config", str(cfg), "--data", str(data),
               "--origins", "50,52", "--horizons", "1,2", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert rows[0][:4] == ["model", "origin", "horizon", "log_score"]
    assert len(rows) == 1 + 4  # 2 origins x 2 horizons, one model


def test_forecast_competitor_uses_its_own_lags(workspace, tmp_path):
    _, cfg, data, _ = workspace
    l2 = tmp_path / "l2.cfg"
    l2.write_text(CONFIG.replace("lags = 1", "lags = 2"))
    out = tmp_path / "report.csv"
    rc = main(["forecast", "--config", str(cfg), "--data", str(data), "--origins", "50",
               "--model", f"l2={l2}", "--out", str(out)])
    assert rc == 0
    rows = list(csv.reader(open(out)))
    assert sorted(r[0] for r in rows[1:]) == ["l2", "main"]


def test_forecast_rejects_competitor_with_other_transforms(workspace, tmp_path, capsys):
    # the data are loaded once, with the main config's transforms, so a
    # competitor that transforms y1 would be scored on data it does not describe
    _, cfg, data, _ = workspace
    logd = tmp_path / "logd.cfg"
    logd.write_text(CONFIG + "\n[transforms]\ny1 = logdiff_x100\n")
    rc = main(["forecast", "--config", str(cfg), "--data", str(data), "--origins", "50",
               "--model", f"logd={logd}", "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "'logd'" in capsys.readouterr().err
    assert not (tmp_path / "r.csv").exists()


def test_forecast_rejects_deterministic_terms(workspace, tmp_path, capsys):
    cfg, data = _with_trend(workspace, tmp_path)
    rc = main(["forecast", "--config", str(cfg), "--data", str(data), "--origins", "50",
               "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert "intercept-only" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--origins", "50", "--horizons", "0"], "--horizons must be at least 1, got 0"),
    (["--origins", "50", "--horizons", "1,-2"], "--horizons must be at least 1, got -2"),
    (["--origins", "-5"], "--origins must be at least 0, got -5"),
    (["--origins", "50", "--benchmark", "nope"], "--benchmark 'nope' names no model"),
])
def test_forecast_rejects_bad_flags_before_any_chain(workspace, tmp_path, capsys, monkeypatch,
                                                     argv, message):
    def no_run(*args, **kwargs):
        raise AssertionError("the evaluation ran")

    monkeypatch.setattr(forecast, "rolling_evaluation", no_run)
    _, cfg, data, _ = workspace
    out = tmp_path / "r.csv"
    assert main(["forecast", "--config", str(cfg), "--data", str(data), *argv,
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("periods", ["0", "-3"])
def test_simulate_rejects_periods_below_one(workspace, tmp_path, capsys, periods):
    _, cfg, _, _ = workspace
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(out), "-T", periods]) == 1
    assert f"-T must be at least 1, got {periods}" in capsys.readouterr().err
    assert not out.exists()


def test_exit_codes():
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


def test_validation_errors_exit_one(workspace, tmp_path):
    _, cfg, data, run = workspace
    assert main(["estimate", "--config", str(cfg), "--data", "/nonexistent.csv",
                 "--out", str(tmp_path / "x")]) == 1
    assert main(["analyze", "tvi", "--store", str(tmp_path / "nostore")]) == 1
    assert main(["analyze", "irf", "--store", str(run)]) == 1  # missing --shock
    assert main(["analyze", "moments", "--store", str(run)]) == 1  # missing --data
    assert main(["forecast", "--config", str(cfg), "--data", str(data),
                 "--origins", "50", "--model", "broken", "--out",
                 str(tmp_path / "r.csv")]) == 1
    bad_cfg = tmp_path / "bad.cfg"
    bad_cfg.write_text("[model]\nvariables = y1\nlags = 0\n")
    assert main(["estimate", "--config", str(bad_cfg), "--data", str(data),
                 "--out", str(tmp_path / "y")]) == 1


def test_misspelled_config_exits_one(workspace, tmp_path, capsys):
    _, _, data, _ = workspace
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("[model]\nvariables = y1, y2\nlag = 4\n")
    out = tmp_path / "typo"
    assert main(["estimate", "--config", str(cfg), "--data", str(data),
                 "--out", str(out)]) == 1
    assert "unknown key 'lag' in [model]" in capsys.readouterr().err
    assert not out.exists()


def test_moments_with_data_of_another_length_exits_one(workspace, tmp_path, capsys):
    _, cfg, _, run = workspace
    short = tmp_path / "short.csv"
    assert main(["simulate", "--config", str(cfg), "--out", str(short),
                 "-T", "30", "--seed", "15"]) == 0
    assert main(["analyze", "moments", "--store", str(run), "--data", str(short)]) == 1
    assert "the data have 30 periods but the regime probabilities cover 60" in (
        capsys.readouterr().err)


def test_series_count_mismatch_exits_one(workspace, tmp_path):
    _, _, data, _ = workspace
    cfg3 = tmp_path / "three.cfg"
    cfg3.write_text("[model]\nvariables = y1, y2, y3\n\n[chain]\ndraws = 2\nburnin = 1\n")
    assert main(["estimate", "--config", str(cfg3), "--data", str(data),
                 "--out", str(tmp_path / "z")]) == 1


def test_package_and_cli_import_without_scipy_stats():
    # scipy.stats costs most of the import time that the CLI and every
    # spawned estimate worker pay; only selfcheck needs it, and lazily
    code = "import sys, mssvar, mssvar.cli; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert out.stdout.strip() == "False"
