import importlib
import json

import numpy as np
import pytest

from dmslearn import experiment
from dmslearn.cli import main
from dmslearn.config import ConfigError, load_config, parse_config
from dmslearn.experiment import (
    average_monitor,
    linear_fit,
    ring_bias_profile,
    run_experiment,
    seed_streams,
)
from dmslearn.consensus import ConvergenceMonitor
from dmslearn.reports import read_report, write_report
from dmslearn.secagg import Transcript


def small_quadratic(**overrides):
    base = {
        "strategy": "dms",
        "task": "quadratic",
        "agent_count": 6,
        "rounds": 5,
        "seed": 0,
        "gamma": 0.05,
        "quadratic": {"far_start": 1.0},
    }
    base.update(overrides)
    return parse_config(base)


def test_config_round_trip():
    config = small_quadratic(
        attack={"kind": "poison", "epsilon": 0.3},
        secure={"enabled": True},
        noise={"xi": 0.05},
    )
    echoed = parse_config(json.loads(config.echo_json()))
    assert echoed == config
    assert echoed.echo_json() == config.echo_json()


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError):
        parse_config({"strategy": "dms", "round": 5})
    with pytest.raises(ConfigError):
        parse_config({"quadratic": {"curv": 2.0}})


def test_config_bad_values_rejected():
    with pytest.raises(ConfigError):
        parse_config({"strategy": "gossip"})
    with pytest.raises(ConfigError):
        parse_config({"gamma": -0.1})
    with pytest.raises(ConfigError):
        parse_config({"seed": -1})
    with pytest.raises(ConfigError):
        parse_config({"strategy": "centralized", "secure": {"enabled": True}})


def test_load_config_yaml(tmp_path):
    path = tmp_path / "exp.yaml"
    path.write_text("strategy: dring\nrounds: 7\ngamma: 0.02\n")
    config = load_config(path)
    assert config.strategy == "dring"
    assert config.rounds == 7
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.yaml")
    bad = tmp_path / "bad.yaml"
    bad.write_text("strategy: [unclosed\n")
    with pytest.raises(ConfigError):
        load_config(bad)


def test_seed_streams_are_independent_and_stable():
    a = seed_streams(7)
    b = seed_streams(7)
    assert list(a) == ["init", "data", "schedule", "noise", "secagg"]
    # Stream i is child i of the seed's spawn, which does not depend on
    # how many children are spawned.
    seven = np.random.SeedSequence(7).spawn(7)
    for i, name in enumerate(a):
        first = a[name].integers(2**31)
        assert first == b[name].integers(2**31)
        assert first == np.random.default_rng(seven[i]).integers(2**31)
    c = seed_streams(8)
    draws_a = [seed_streams(7)[n].integers(2**31) for n in sorted(a)]
    draws_c = [c[n].integers(2**31) for n in sorted(a)]
    assert draws_a != draws_c


def test_ring_bias_profile_sums_to_zero():
    prof = ring_bias_profile(10, 0.3, -0.1)
    assert prof.shape == (10,)
    assert abs(prof.sum()) < 1e-12


def test_average_monitor():
    m1 = ConvergenceMonitor(np.zeros(1))
    m2 = ConvergenceMonitor(np.zeros(1))
    m1.record(np.array([[1.0], [2.0]]))
    m1.record(np.array([[0.5], [1.0]]))
    m2.record(np.array([[3.0], [2.0]]))
    m2.record(np.array([[1.5], [1.0]]))
    avg = average_monitor([m1, m2])
    assert np.allclose(avg.theta_errors, (m1.theta_errors + m2.theta_errors) / 2)


def test_linear_fit_exact_line():
    slope, intercept, r2 = linear_fit([0, 1, 2, 3], [1.0, 3.0, 5.0, 7.0])
    assert slope == pytest.approx(2.0)
    assert intercept == pytest.approx(1.0)
    assert r2 == pytest.approx(1.0)


def test_run_experiment_writes_report_set(tmp_path):
    result = run_experiment(small_quadratic(), tmp_path)
    records = read_report(result.paths["report"])
    assert records[0]["type"] == "config"
    assert records[-1]["type"] == "summary"
    assert len(records) == 2 + 5
    echo = (tmp_path / "config.echo").read_text().strip()
    assert echo == result.config.echo_json()
    summary_lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
    assert len(summary_lines) == 2
    assert "rounds_completed" in summary_lines[0]


def test_run_experiment_zero_rounds(tmp_path):
    result = run_experiment(small_quadratic(rounds=0), tmp_path)
    records = read_report(result.paths["report"])
    assert [r["type"] for r in records] == ["config", "summary"]


def test_run_experiment_secure_writes_transcript(tmp_path):
    config = small_quadratic(strategy="dfc", rounds=2, secure={"enabled": True})
    result = run_experiment(config, tmp_path)
    assert (tmp_path / "transcript.jsonl").exists()
    assert result.summary["total_bytes"] > 0


def test_run_experiment_keeps_no_secure_payloads(tmp_path, monkeypatch):
    made = []

    class Captured(Transcript):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(experiment, "Transcript", Captured)
    config = small_quadratic(strategy="dfc", rounds=2, secure={"enabled": True})
    result = run_experiment(config, tmp_path)
    [transcript] = made
    assert transcript.messages == len(transcript.entries) == result.summary["total_messages"]
    assert list(transcript.payload_values()) == []
    lines = (tmp_path / "transcript.jsonl").read_text().splitlines()
    assert len(lines) == transcript.messages


def test_forecast_kmeans_is_seeded_from_the_data_stream(monkeypatch):
    seeds = []
    real = experiment.kmeans
    monkeypatch.setattr(
        experiment, "kmeans", lambda feats, k, seed: seeds.append(seed) or real(feats, k, seed)
    )
    config = parse_config(
        {
            "task": "forecast",
            "rounds": 0,
            "seed": 7,
            "model": {"lookback": 12, "hidden": 4, "horizon": 1},
            "data": {"households": 8, "days": 2, "clusters": 2, "pick": 3},
        }
    )
    run_experiment(config)
    data = seed_streams(7)["data"]
    data.integers(2**31)  # the first draw seeds the load generator
    assert seeds == [int(data.integers(2**31))]


def test_run_experiment_unstable_gamma_rejected():
    config = small_quadratic(gamma=1.5)  # bound is 2 / curv_high = 1.0
    with pytest.raises(ConfigError):
        run_experiment(config)
    run = run_experiment(config.replace(allow_unstable=True, rounds=2000))
    assert run.run.diverged


def test_forecast_round_records(tmp_path):
    config = parse_config(
        {
            "strategy": "dms",
            "task": "forecast",
            "rounds": 3,
            "gamma": 0.05,
            "model": {"lookback": 12, "hidden": 4, "horizon": 1},
            "data": {"households": 8, "days": 2, "clusters": 2, "pick": 3},
        }
    )
    result = run_experiment(config, tmp_path)
    round_rows = [r for r in result.records if r["type"] == "round"]
    assert len(round_rows) == 3
    for row in round_rows:
        assert np.isfinite(row["train_mse"])
        assert np.isfinite(row["val_mse"])
    assert "test_mse" in result.summary


def test_fedavg_forecast_training_reduces_loss():
    config = parse_config(
        {
            "strategy": "fedavg",
            "task": "forecast",
            "rounds": 80,
            "gamma": 0.05,
            "model": {"lookback": 24, "hidden": 8, "horizon": 1},
            "data": {"households": 8, "days": 3, "clusters": 2, "pick": 3},
        }
    )
    result = run_experiment(config)
    train = [r["train_mse"] for r in result.records if r["type"] == "round"]
    assert np.mean(train[-10:]) < np.mean(train[:10])


def test_report_files_are_canonical(tmp_path):
    records = [{"kind": "round", "b": 1, "a": np.float64(2.5)}]
    p1 = write_report(tmp_path / "one.jsonl", records)
    p2 = write_report(tmp_path / "two.jsonl", records)
    assert p1.read_bytes() == p2.read_bytes()
    back = read_report(p1)
    assert back[0]["a"] == 2.5


def test_cli_run_ok(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "strategy: dms\ntask: quadratic\nagent_count: 6\nrounds: 4\ngamma: 0.05\n"
    )
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert (out / "report.jsonl").exists()
    assert (out / "summary.csv").exists()


def test_cli_run_bad_config(tmp_path):
    missing = tmp_path / "nope.yaml"
    assert main(["run", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.yaml"
    bad.write_text("strategy: warp\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


def test_cli_run_divergence_exit(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "strategy: dfc\ntask: quadratic\nagent_count: 4\nrounds: 3000\ngamma: 1.5\n"
        "quadratic:\n  far_start: 1.0\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    code = main(["run", "--config", str(cfg), "--out", str(out), "--allow-unstable"])
    assert code == 4


def test_cli_run_secagg_failure_exit(tmp_path):
    # Starting weights sit far outside the codec's integer range, so the
    # first secure round must abort and the process must say so.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "strategy: dfc\ntask: quadratic\nagent_count: 5\nrounds: 3\ngamma: 0.05\n"
        "secure:\n  enabled: true\n  integer_bits: 4\n"
        "quadratic:\n  far_start: 100.0\n"
    )
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert code == 3


def test_cli_out_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("DMSLEARN_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("strategy: dms\nagent_count: 6\nrounds: 2\ngamma: 0.05\n")
    assert main(["run", "--config", str(cfg)]) == 0
    assert (tmp_path / "envout" / "run" / "report.jsonl").exists()


def test_cli_seed_override(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("strategy: dms\nagent_count: 6\nrounds: 2\ngamma: 0.05\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out), "--seed", "5"]) == 0
    echoed = json.loads((out / "config.echo").read_text())
    assert echoed["seed"] == 5


def test_cli_mpc_bench(tmp_path):
    out = tmp_path / "bench"
    assert main(["mpc-bench", "--dim", "4", "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + four party grids
    assert "messages" in lines[0]


def test_cli_cluster(tmp_path):
    out = tmp_path / "cluster"
    code = main(
        ["cluster", "--households", "30", "--days", "3", "--out", str(out), "--seed", "0"]
    )
    assert code == 0
    lines = (out / "assignments.csv").read_text().strip().splitlines()
    assert len(lines) == 31


@pytest.mark.parametrize(
    "attack",
    ["{kind: dlg}", "{kind: poison, iters: 5}", "{kind: poison, restarts: 1}", "{mode: bogus}"],
)
def test_cli_run_rejects_bad_attack_keys(tmp_path, attack):
    # A run trains only against poisoning; the reconstruction attack and
    # its settings belong to `dmslearn attack --kind dlg`.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(f"strategy: dms\nagent_count: 6\nrounds: 2\nattack: {attack}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--households", "2", "--clusters", "3"],
        ["cluster", "--days", "0"],
        ["attack", "--seeds", "0"],
        ["attack", "--kind", "dlg", "--seeds", "-1"],
        ["attack", "--malicious", "31"],
        ["attack", "--epsilon", "-1"],
        ["attack", "--epsilon", "nan"],
        ["mpc-bench", "--dim", "0"],
        ["sweep", "--seed", "-1"],
        ["cluster", "--seed", "-1"],
    ],
)
def test_cli_rejects_bad_flags(tmp_path, argv):
    out = tmp_path / "out"
    try:
        code = main(argv + ["--out", str(out)])
    except SystemExit as exc:  # argparse rejects a flag with exit 2
        code = exc.code
    assert code == 2
    assert not out.exists()


def test_cli_sweep(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "strategy,agents,rounds"
    assert len(lines) == 1 + 3 * 4
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["agents", "dring", "dfc", "dms"]
    assert [row.split()[0] for row in printed[1:5]] == ["5", "10", "20", "40"]


def test_cli_attack_poison(tmp_path, capsys):
    out = tmp_path / "attack"
    assert main(["attack", "--kind", "poison", "--seeds", "1", "--out", str(out)]) == 0
    rows = read_report(out / "poison.jsonl")
    assert [r["type"] for r in rows] == ["poison", "summary"]
    printed = capsys.readouterr().out.splitlines()
    seed_row = printed[printed.index(f"{'seed':>4} {'dms':>10} {'fedavg':>10}") + 1].split()
    assert seed_row[0] == "0"
    assert float(seed_row[1]) == pytest.approx(rows[0]["dms_inflation"], abs=0.005)


def test_cli_attack_dlg(tmp_path, capsys):
    out = tmp_path / "attack"
    assert main(["attack", "--kind", "dlg", "--seeds", "1", "--out", str(out)]) == 0
    rows = read_report(out / "dlg.jsonl")
    assert [r["seed"] for r in rows] == [0]
    printed = capsys.readouterr().out.splitlines()
    seed_row = printed[printed.index(f"{'seed':>4} {'fedavg':>12} {'dms':>12} {'clean':>6}") + 1]
    assert seed_row.split()[0] == "0"
    assert seed_row.split()[3] == str(rows[0]["transcript_clean"])


COMPARE_YAML = (
    "gamma: 0.05\nrounds: 5\ndata:\n  households: 30\n  days: 3\n  pick: 6\n"
)


def test_cli_compare(tmp_path, capsys):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML)
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
    strategies = ["dms", "fedavg", "dring", "dfc", "centralized"]
    errors = (out / "errors.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in errors[1:]] == strategies
    assert (out / "communication.csv").exists()
    for name in strategies:
        assert json.loads((out / name / "config.echo").read_text())["seed"] == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].split() == ["strategy", "train", "val", "test", "messages"]
    assert [row.split()[0] for row in printed[1:6]] == strategies


def test_cli_compare_rejected_strategy_exits_2(tmp_path):
    # Secure aggregation is valid for dms but not for centralized, so the
    # comparison must stop before training any strategy.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML + "secure:\n  enabled: true\n")
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_compare_divergence_exits_4(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML.replace("gamma: 0.05", "gamma: 1.0e+8"))
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 4
    assert (out / "errors.csv").exists()


@pytest.mark.parametrize(
    "module",
    [
        "dmslearn",
        "dmslearn.config",
        "dmslearn.consensus",
        "dmslearn.data",
        "dmslearn.experiment",
        "dmslearn.numerics",
        "dmslearn.reports",
        "dmslearn.secagg",
        "dmslearn.threats",
        "dmslearn.topology",
    ],
)
def test_all_exports_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_epochs_take_effect_for_dms():
    config = small_quadratic(rounds=20, seed=3, gamma=0.1)
    one = run_experiment(config).summary["final_worst_mse"]
    three = run_experiment(config.replace(epochs=3)).summary["final_worst_mse"]
    assert one != three


def test_alpha_takes_effect_for_fedavg():
    config = small_quadratic(strategy="fedavg", rounds=20, seed=3, gamma=0.1)
    full = run_experiment(config).summary["final_worst_mse"]
    half = run_experiment(config.replace(alpha=0.5)).summary["final_worst_mse"]
    assert full != half
