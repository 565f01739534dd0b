import csv
import dataclasses
import importlib
import inspect
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest
import yaml

from dmslearn import experiment, numerics, secagg
from dmslearn.cli import main
from dmslearn.config import (
    STRATEGIES,
    TASKS,
    AttackConfig,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
)
from dmslearn.experiment import (
    average_monitor,
    build_quadratic_setup,
    forecast_comparison,
    linear_fit,
    ring_bias_profile,
    run_experiment,
    seed_streams,
)
from dmslearn.consensus import ConvergenceMonitor
from dmslearn.numerics import MlpModel
from dmslearn.reports import write_report, write_transcript
from dmslearn.secagg import FixedPointCodec, Transcript, party_placement, secure_aggregate
from dmslearn.threats import run_poisoning_experiment
from dmslearn.topology import make_topology

from oracles import (
    OldTranscript,
    direct_round_record,
    household_splits,
    old_forecast_mse,
    old_secure_aggregate,
    old_write_transcript,
)


def read_report(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


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


def test_readme_config_block_names_every_key_at_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = yaml.safe_load(readme.split("```yaml\n", 1)[1].split("```", 1)[0])
    # The attack section is off by default; the README shows its keys.
    assert parse_config(block).attack == AttackConfig()
    del block["attack"]
    assert block == {k: v for k, v in ExperimentConfig().to_dict().items() if k != "attack"}


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


@pytest.mark.parametrize(
    "module", sorted(p.stem for p in Path(experiment.__file__).parent.glob("*.py") if p.stem[0] != "_")
)
def test_every_name_in_a_module_all_resolves(module):
    # A deletion that leaves its name in __all__ would break `import *`.
    mod = importlib.import_module(f"dmslearn.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []


def float_keys() -> list[tuple[str | None, str]]:
    """(section, key) for every float key of the config, None for the top level."""
    keys = []
    for name, hint in get_type_hints(ExperimentConfig).items():
        kinds = get_args(hint) or (hint,)
        section = next((k for k in kinds if dataclasses.is_dataclass(k)), None)
        if section is not None:
            keys += [(name, k) for k, h in get_type_hints(section).items() if h is float]
        elif float in kinds:
            keys.append((None, name))
    return keys


def test_float_keys_cover_every_section():
    keys = float_keys()
    assert {(None, "gamma"), (None, "tolerance"), ("noise", "xi"), ("attack", "epsilon"),
            ("quadratic", "far_start"), ("data", "noise_scale")} <= set(keys)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section, key", float_keys())
def test_config_built_in_code_rejects_a_non_finite_float(section, key, value):
    # Parsing rejects these; a config built in code used to take nan gamma,
    # tolerance, noise.xi and more, and echo a config.echo that no parse accepts.
    with pytest.raises(ValueError, match=key):
        if section is None:
            ExperimentConfig(**{key: value})
        else:
            cls = type(getattr(ExperimentConfig(attack=AttackConfig()), section))
            ExperimentConfig(**{section: cls(**{key: value})})
    with pytest.raises(ConfigError, match=key):
        parse_config({key: value} if section is None else {section: {key: value}})


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


@pytest.mark.parametrize(
    "strategy, agents, optimum",
    [("centralized", {}, 0.8), ("dms", {"agent_count": 2}, 0.3), ("dms", {"agent_count": 3}, 0.0)],
)
def test_the_quadratic_optimum_is_the_mean_bias_offset(strategy, agents, optimum):
    # The ring profile sums to zero only from three agents on: one agent's
    # offset is bias_amp + bias_amp2, and two agents' sum to 2 * bias_amp2.
    config = parse_config(
        {"strategy": strategy, **agents, "quadratic": {"dim": 3, "bias_amp": 0.5, "bias_amp2": 0.3}}
    )
    _, _, monitor, _ = build_quadratic_setup(config, np.random.default_rng(0))
    assert monitor.optimum == pytest.approx(np.full(3, optimum), abs=1e-15)


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
    summary = records[-1]
    assert (summary["total_messages"], summary["total_bytes"]) == (0, 0)
    assert summary["mean_edges"] == 0.0


def test_run_experiment_secure_writes_transcript(tmp_path):
    config = small_quadratic(strategy="dfc", rounds=2, secure={"enabled": True})
    result = run_experiment(config, tmp_path)
    assert (tmp_path / "transcript.jsonl").exists()
    assert result.summary["total_bytes"] > 0


def test_secure_run_without_a_transcript_reports_the_same(tmp_path):
    secure = {"enabled": True}
    on = small_quadratic(secure=secure)
    off = small_quadratic(secure={**secure, "record_transcript": False})
    run_experiment(on, tmp_path / "on")
    run_experiment(off, tmp_path / "off")
    assert (tmp_path / "on" / "transcript.jsonl").exists()
    assert not (tmp_path / "off" / "transcript.jsonl").exists()

    def rounds_and_summary(name):
        return [r for r in read_report(tmp_path / name / "report.jsonl") if r["type"] != "config"]

    assert rounds_and_summary("off") == rounds_and_summary("on")


def test_run_experiment_keeps_no_secure_payloads(tmp_path, monkeypatch):
    made = []

    class Captured(Transcript):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.logged = []
            made.append(self)

        def log(self, *args, **kwargs):
            super().log(*args, **kwargs)
            self.logged.append(self.entries[-1])

    monkeypatch.setattr(experiment, "Transcript", Captured)
    config = small_quadratic(strategy="dfc", rounds=2, secure={"enabled": True})
    result = run_experiment(config, tmp_path)
    [transcript] = made
    # One share and one reconstruct entry per round's one session.
    assert [e.phase for e in transcript.logged] == ["share", "reconstruct"] * config.rounds
    assert transcript.messages == sum(len(e.senders) for e in transcript.logged)
    assert transcript.messages == result.summary["total_messages"]
    assert [e.payload for e in transcript.logged] == [()] * len(transcript.logged)
    assert transcript.entries == []
    lines = (tmp_path / "transcript.jsonl").read_text().splitlines()
    assert len(lines) == transcript.messages


@pytest.mark.parametrize("write", [True, False])
def test_run_experiment_keeps_one_round_of_transcript(tmp_path, monkeypatch, write):
    # Each round's entries go to transcript.jsonl (when written) and are
    # then dropped, so a secure run's memory does not grow with its rounds.
    held = []
    real = experiment.run_training

    def spy(tasks, schedule, *, secure, on_round, **options):
        def held_messages():
            return sum(len(e.senders) for e in secure.transcript.entries)

        def counted(k, thetas, phis, row, losses):
            held.append((held_messages(), row.messages))
            on_round(k, thetas, phis, row, losses)
            held.append((held_messages(), 0))

        return real(tasks, schedule, secure=secure, on_round=counted, **options)

    monkeypatch.setattr(experiment, "run_training", spy)
    config = small_quadratic(rounds=4, secure={"enabled": True})
    result = run_experiment(config, tmp_path if write else None)
    assert len(held) == 2 * config.rounds
    assert all(entries == expected for entries, expected in held)
    if write:
        lines = (tmp_path / "transcript.jsonl").read_text().splitlines()
        per_round = Counter(json.loads(line)["round"] for line in lines)
        rows = [r for r in result.records if r["type"] == "round"]
        assert per_round == {r["round"]: r["messages"] for r in rows}


def test_secure_run_shares_and_reconstructs_through_the_public_names(tmp_path, monkeypatch):
    # The benchmark's layer trace times secure rounds by wrapping these two
    # names, so a secure sum has to call them: one vector share per
    # contributor and one reconstruction per session.
    calls = Counter()

    def counted(name):
        real = getattr(secagg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(secagg, name, wrapper)

    counted("share")
    counted("reconstruct")
    config = small_quadratic(rounds=3, secure={"enabled": True})
    result = run_experiment(config, tmp_path)
    assert calls["share"] == sum(m.active_agents for m in result.run.metrics) > 0
    assert calls["reconstruct"] == config.rounds


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


def test_run_experiment_checks_gamma_against_the_curvature_the_tasks_hold(tmp_path, capsys):
    # At dim 1 the one curvature is curv_low (linspace's first point), so
    # gamma 1.5 is stable there although it exceeds 2 / curv_high.
    config = small_quadratic(gamma=1.5, rounds=60, quadratic={"dim": 1, "far_start": 1.0})
    _, _, _, params = build_quadratic_setup(config, np.random.default_rng(0))
    assert params.p_lower.tolist() == params.p_upper.tolist() == [1.0] * 6
    assert params.step_size_ok
    result = run_experiment(config)
    assert not result.run.diverged and result.summary["final_worst_mse"] < 1e-12
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump({"rounds": 3, "gamma": 2.5, "quadratic": {"dim": 1}}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert "exceeds the stability bound 2.0" in capsys.readouterr().err


def test_cli_run_rejects_a_curv_high_that_dim_1_ignores(tmp_path, capsys):
    # At dim 1 the one curvature is curv_low, so another curv_high would take
    # no effect. Its default, which every config.echo writes, and curv_low itself
    # still run; the latter lets a dim-1 run take a curvature above 2.
    config = {"rounds": 5, "agent_count": 5}
    assert run_exit_code(tmp_path, {**config, "quadratic": {"dim": 1, "curv_high": 9.0}}) == 2
    assert "curv_high" in capsys.readouterr().err
    for low, high in ((1.0, 2.0), (1.5, 1.5), (3.0, 3.0)):
        config["quadratic"] = {"dim": 1, "curv_low": low, "curv_high": high}
        cfg = tmp_path / "ok.yaml"
        cfg.write_text(yaml.safe_dump({**config, "gamma": 0.1}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    assert json.loads((tmp_path / "ok" / "config.echo").read_text())["quadratic"]["curv_low"] == 3.0


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


SMALL_FORECAST = {
    "task": "forecast",
    "rounds": 4,
    "gamma": 0.05,
    "seed": 5,
    "model": {"lookback": 12, "hidden": 4, "horizon": 2},
    "data": {"households": 12, "days": 3, "clusters": 2, "pick": 5},
}
FORECAST_VARIANTS = {
    "plain": {},
    "secure": {"secure": {"enabled": True}},
    "poisoned": {"attack": {"epsilon": 0.3, "malicious": 1}},
    # The learn stage's first epoch, not its last, gives the train losses.
    "epochs": {"epochs": 2},
    "alpha": {"alpha": 0.9},
    "noise": {"noise": {"xi": 0.05}},
}


@pytest.mark.parametrize(
    "strategy, variant",
    [
        (strategy, variant)
        for strategy in ("dms", "ctl", "dring", "dfc", "fedavg", "centralized")
        for variant in FORECAST_VARIANTS
        # A one-agent run has no secure aggregation.
        if (strategy, variant) != ("centralized", "secure")
    ],
)
def test_forecast_reports_equal_the_direct_evaluation(monkeypatch, strategy, variant):
    # Train errors come from the next learn stage and val errors from one
    # stacked forward; the oracle evaluates both directly, household by
    # household, after every round.
    config = parse_config({**SMALL_FORECAST, **FORECAST_VARIANTS[variant], "strategy": strategy})
    seen = []
    real = experiment.run_training

    def spy(tasks, schedule, *, on_round, **options):
        def record(k, thetas, phis, row, losses):
            on_round(k, thetas, phis, row, losses)
            seen.append((k, row, thetas))

        return real(tasks, schedule, on_round=record, **options)

    monkeypatch.setattr(experiment, "run_training", spy)
    result = run_experiment(config)
    summary = result.summary
    splits = household_splits(config, summary["households"])
    model = MlpModel(config.model.lookback, config.model.hidden, config.model.horizon)
    rows = [r for r in result.records if r["type"] == "round"]
    assert len(rows) == len(seen) == config.rounds
    for row, (k, traffic, thetas) in zip(rows, seen):
        expected = direct_round_record(k, traffic, thetas, model, splits)
        assert list(row.items()) == list(expected.items())
    final = np.array([a.theta for a in result.run.agents])
    for split in ("train", "val", "test"):
        assert summary[f"{split}_mse"] == old_forecast_mse(model, final, splits, split)


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


def test_report_writes_numpy_bools_as_json_bools(tmp_path):
    p = write_report(tmp_path / "r.jsonl", [{"ok": np.True_, "flags": [np.False_]}])
    assert p.read_text() == '{"flags":[false],"ok":true}\n'


def test_transcript_lines_equal_the_json_encoded_ones(tmp_path):
    # Each phase entry writes one line per message: the lines that the old
    # writer gives for the same messages logged one by one.
    transcript, old_log = Transcript(record_payloads=False), OldTranscript(record_payloads=False)
    for round_index, phase, senders, receivers, dim in (
        (0, "share", (3,), (3,), 801),
        (12, "share", (123, 123, 7), (10, 11, 10), 4),
        (12, "reconstruct", (1004, 1005), (31, 31), 0),
        (7, "reconstruct", (10,), (123456,), 25),
        (8, "share", (), (), 3),
    ):
        transcript.log(round_index, phase, senders, receivers, 16 * dim)
        for sender, receiver in zip(senders, receivers):
            old_log.log(round_index, phase, sender, receiver, range(dim), 16)
    # And a server round's and a ring round's sessions, against the old path's log.
    codec, vectors = FixedPointCodec(), np.ones((6, 2))
    sessions = party_placement(agent_count=6) + party_placement(make_topology("ring", 6))
    for k, session in enumerate(sessions):
        rows = vectors[list(session.contributors)]
        for aggregate, log in ((secure_aggregate, transcript), (old_secure_aggregate, old_log)):
            aggregate(rows, session, codec, np.random.default_rng(k), transcript=log, round_index=k)
    for path in (tmp_path / "new.jsonl", tmp_path / "old.jsonl"):
        path.write_text("kept\n")  # both append
    write_transcript(tmp_path / "new.jsonl", transcript)
    old_write_transcript(tmp_path / "old.jsonl", old_log)
    assert (tmp_path / "new.jsonl").read_bytes() == (tmp_path / "old.jsonl").read_bytes()
    # The kept line, 7 messages, the server session's 18 + 3, and 9 + 3 in each ring session.
    assert len((tmp_path / "new.jsonl").read_text().splitlines()) == 1 + 7 + 21 + 6 * 12


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


def test_cli_run_non_utf8_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"seed: \xc3\x28\n")
    assert main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: config file is not valid YAML")


@pytest.mark.parametrize("body", ["[]\n", "false\n", "0\n", "''\n"])
def test_cli_run_falsy_non_mapping_config_exits_2(tmp_path, capsys, body):
    # Only an empty file stands for the empty mapping.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(body)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert "expected a mapping" in capsys.readouterr().err
    cfg.write_text("")
    assert load_config(cfg) == ExperimentConfig()


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
    # The transcript is written round by round, so an aborted run leaves it
    # holding the completed rounds, here none, and writes no other file.
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["transcript.jsonl"]
    assert (tmp_path / "out" / "transcript.jsonl").read_text() == ""
    # Aborting into a directory that holds a finished run's report set
    # removes that set, so the directory never mixes two runs.
    done = tmp_path / "done"
    good = "strategy: dfc\ntask: quadratic\nagent_count: 5\nrounds: 2\ngamma: 0.05\nsecure:\n  enabled: true\n"
    (tmp_path / "good.yaml").write_text(good)
    assert main(["run", "--config", str(tmp_path / "good.yaml"), "--out", str(done)]) == 0
    assert {p.name for p in done.iterdir()} == {
        "config.echo", "report.jsonl", "summary.csv", "transcript.jsonl"
    }
    assert main(["run", "--config", str(cfg), "--out", str(done)]) == 3
    assert [p.name for p in done.iterdir()] == ["transcript.jsonl"]
    assert (done / "transcript.jsonl").read_text() == ""
    # Doubling weights leave the codec's range in round 2: rounds 0 and 1,
    # 50 messages each, stay in the transcript.
    cfg.write_text(
        "strategy: dfc\ntask: quadratic\nagent_count: 5\nrounds: 6\ngamma: 1.5\n"
        "allow_unstable: true\nsecure:\n  enabled: true\n  integer_bits: 4\n"
        "quadratic:\n  far_start: 2.0\n"
    )
    out = tmp_path / "later"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
    assert [p.name for p in out.iterdir()] == ["transcript.jsonl"]
    rounds = [json.loads(line)["round"] for line in (out / "transcript.jsonl").read_text().splitlines()]
    assert Counter(rounds) == {0: 50, 1: 50}


@pytest.mark.parametrize("second", [{}, {"secure": {"enabled": True, "record_transcript": False}}])
def test_a_run_into_a_used_directory_leaves_only_its_own_files(tmp_path, second):
    # A secure run's transcript must not stay beside a later run's report
    # set when that run writes no transcript of its own.
    run_experiment(small_quadratic(secure={"enabled": True}), tmp_path)
    run_experiment(small_quadratic(**second), tmp_path)
    assert {p.name for p in tmp_path.iterdir()} == {"config.echo", "report.jsonl", "summary.csv"}


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


def test_cli_mpc_bench_is_removed(tmp_path, capsys):
    out = tmp_path / "bench"
    with pytest.raises(SystemExit) as exc:
        main(["mpc-bench", "--out", str(out)])
    assert exc.value.code == 2
    assert "invalid choice: 'mpc-bench'" in capsys.readouterr().err
    assert not out.exists()


def test_cli_cluster(tmp_path):
    out = tmp_path / "cluster"
    code = main(
        ["cluster", "--households", "30", "--days", "3", "--out", str(out), "--seed", "0"]
    )
    assert code == 0
    lines = (out / "assignments.csv").read_text().strip().splitlines()
    assert len(lines) == 31


def test_cli_cluster_rejects_more_clusters_than_households(tmp_path, capsys):
    out = tmp_path / "cluster"
    assert main(["cluster", "--households", "2", "--clusters", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "config error: --clusters must not exceed --households\n"
    assert not (out / "assignments.csv").exists()


def test_cli_out_that_is_a_file_exits_2(tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["cluster", "--households", "5", "--days", "1", "--out", str(out)]) == 2
    assert "config error" in capsys.readouterr().err


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
    "config",
    [
        "agent_count: 5\nattack: {kind: poison, malicious: 9}\n",
        "task: forecast\ndata: {pick: 4}\nattack: {malicious: 5}\n",
        "strategy: centralized\nattack: {malicious: 2}\n",
    ],
)
def test_cli_run_rejects_more_malicious_agents_than_the_run_has(tmp_path, config):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("rounds: 2\n" + config)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_cli_run_rejects_a_pick_beyond_the_largest_cluster(tmp_path, capsys):
    # At seed 0 the largest of the 3 clusters of 12 households holds 5.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(
        "task: forecast\nrounds: 1\ndata: {households: 12, days: 3, pick: 10}\n"
        "model: {lookback: 8, hidden: 3}\nattack: {malicious: 9}\n"
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config.data.pick: 10 agents asked for" in capsys.readouterr().err
    assert not out.exists()


def run_exit_code(tmp_path, config: dict) -> int:
    """Exit code of `dmslearn run` on ``config``, asserting it wrote nothing."""
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()
    return code


@pytest.mark.parametrize(
    "config",
    [
        {"rounds": 2.5},
        {"agent_count": 4.5},
        {"seed": 1.5},
        {"substructure_count": 2.0},
        {"gamma": math.nan},
        {"noise": {"xi": math.nan}},
        {"tolerance": math.nan},
        {"attack": {"epsilon": math.nan}},
        {"secure": {"enabled": "no"}},
    ],
)
def test_cli_run_rejects_wrong_typed_and_non_finite_values(tmp_path, config):
    assert run_exit_code(tmp_path, {"agent_count": 6, "rounds": 2, **config}) == 2


def test_cli_run_rejects_a_forecast_split_with_no_windows(tmp_path, capsys):
    # 2 days of 48 slots leave 6 windows of lookback 90: 5 train, 0 val, 1 test.
    config = {
        "task": "forecast",
        "rounds": 2,
        "data": {"households": 8, "days": 2, "clusters": 2, "pick": 3},
        "model": {"lookback": 90, "hidden": 3},
    }
    assert run_exit_code(tmp_path, config) == 2
    err = capsys.readouterr().err
    assert "model.lookback" in err and "data.days" in err and "no val windows" in err


@pytest.mark.parametrize(
    "config",
    [
        {"secure": {"enabled": True, "fraction_bits": 0}},
        {"secure": {"enabled": True, "fraction_bits": 60, "integer_bits": 70}},
        {"agent_count": 2},
        {"subset_size": 31},
        {"strategy": "dring", "agent_count": 2},
        {"task": "forecast", "data": {"days": 1}, "model": {"lookback": 60}},
        {"task": "forecast", "data": {"households": 2, "clusters": 3}},
        # A secure run needs 3 agents, counted as the run counts them.
        {"strategy": "dfc", "agent_count": 2, "secure": {"enabled": True}},
        {"task": "forecast", "strategy": "fedavg", "data": {"pick": 2}, "secure": {"enabled": True}},
        {"data": {"noise_scale": -0.5}},
        {"tolerance": 0.0},
        {"tolerance": -1.0},
        # One subset of 21 can never connect 30 agents.
        {"substructure_count": 1},
        # Only the dms and ctl schedules draw subsets.
        {"strategy": "dring", "subset_size": 5},
    ],
)
def test_cli_run_rejects_configs_it_cannot_build(tmp_path, config):
    assert run_exit_code(tmp_path, {"rounds": 2, **config}) == 2


@pytest.mark.parametrize(
    "config, sizes",
    [
        ({"agent_count": 2}, (3, 2)),
        ({"strategy": "ctl", "agent_count": 2}, (3, 2)),
        ({"subset_size": 31}, (31, 30)),
        (
            {"task": "forecast", "data": {"households": 12, "days": 3, "pick": 2},
             "model": {"lookback": 8, "hidden": 3}},
            (3, 2),
        ),
    ],
)
def test_a_subset_beyond_the_agents_names_both_sizes(config, sizes):
    # Was "subset larger than the agent population", also for a subset the
    # user never set.
    message = "config: subset of {} agents exceeds the {} agents".format(*sizes)
    with pytest.raises(ConfigError, match=f"^{message}$"):
        run_experiment(parse_config({"rounds": 2, **config}))


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


def test_cli_attack_poison_divergence_exits_4(tmp_path, capsys):
    # Both poisoned arms diverge in their first round; the study still
    # writes its report, and says so with the divergence exit code.
    out = tmp_path / "attack"
    code = main(["attack", "--epsilon", "1e7", "--seeds", "1", "--out", str(out)])
    assert code == 4
    assert [r["type"] for r in read_report(out / "poison.jsonl")] == ["poison", "summary"]
    assert capsys.readouterr().err == "divergence detected\n"


@pytest.mark.filterwarnings("error")
def test_cli_attack_poison_overflow_writes_strict_json_without_warnings(tmp_path, capsys):
    # The poisoned arms' squared errors overflow in their first round.
    out = tmp_path / "attack"
    assert main(["attack", "--epsilon", "1e300", "--seeds", "1", "--out", str(out)]) == 4

    def reject(token):
        raise ValueError(f"{token} is not JSON")

    lines = (out / "poison.jsonl").read_text().splitlines()
    rows = [json.loads(line, parse_constant=reject) for line in lines]
    assert [r["type"] for r in rows] == ["poison", "summary"]
    assert rows[0]["dms_inflation"] is None and rows[1]["fedavg_median"] is None
    assert capsys.readouterr().err == "divergence detected\n"


def test_cli_attack_dlg(tmp_path, capsys):
    out = tmp_path / "attack"
    assert main(["attack", "--kind", "dlg", "--seeds", "1", "--out", str(out)]) == 0
    rows = read_report(out / "dlg.jsonl")
    assert [r["seed"] for r in rows] == [0]
    printed = capsys.readouterr().out.splitlines()
    seed_row = printed[printed.index(f"{'seed':>4} {'fedavg':>12} {'dms':>12} {'clean':>6}") + 1]
    assert seed_row.split()[0] == "0"
    assert seed_row.split()[3] == str(rows[0]["transcript_clean"])


@pytest.mark.parametrize(
    "flags", [["--epsilon", "9"], ["--malicious", "30"], ["--epsilon", "9", "--malicious", "30"]]
)
def test_cli_attack_dlg_rejects_the_poison_flags(tmp_path, capsys, flags):
    # The reconstruction attack has no epsilon or attackers to set.
    out = tmp_path / "attack"
    assert main(["attack", "--kind", "dlg", "--seeds", "1", *flags, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(flag in err for flag in flags[::2])
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, options",
    [([], {}), (["--malicious", "5"], {"malicious_count": 5}), (["--epsilon", "0.3"], {"epsilon": 0.3})],
)
def test_cli_attack_poison_passes_only_the_flags_given(tmp_path, monkeypatch, flags, options):
    # run_poisoning_experiment holds the one copy of the flags' defaults.
    calls = []

    def spy(seeds, **kwargs):
        calls.append(kwargs)
        return run_poisoning_experiment(seeds, rounds=200, tail_rounds=20, **kwargs)

    monkeypatch.setattr("dmslearn.cli.run_poisoning_experiment", spy)
    out = tmp_path / "attack"
    assert main(["attack", "--kind", "poison", "--seeds", "1", *flags, "--out", str(out)]) == 0
    assert calls == [{"agent_count": 30, **options}]


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


def test_cli_compare_with_an_attack_caps_the_centralized_attackers(tmp_path):
    # The centralized run has one agent, so it keeps one of the three
    # attackers instead of rejecting the whole comparison.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML + "attack:\n  kind: poison\n  malicious: 3\n")
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    for name, count in [("dms", 3), ("fedavg", 3), ("dring", 3), ("dfc", 3), ("centralized", 1)]:
        echo = json.loads((out / name / "config.echo").read_text())
        assert echo["attack"]["malicious"] == count


def test_cli_compare_runs_secure_with_a_plaintext_centralized_arm(tmp_path):
    # One agent has no peer to hide its weights from, so the centralized
    # arm runs plaintext and only the four multi-agent runs keep transcripts.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML + "secure:\n  enabled: true\n")
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ["dms", "fedavg", "dring", "dfc", "centralized"]:
        secure = name != "centralized"
        assert (out / name / "report.jsonl").exists()
        assert (out / name / "transcript.jsonl").exists() == secure
        assert json.loads((out / name / "config.echo").read_text())["secure"]["enabled"] == secure


def test_cli_compare_keeps_subset_size_on_the_dms_arm_only(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML + "subset_size: 4\n")
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ["dms", "fedavg", "dring", "dfc", "centralized"]:
        echo = json.loads((out / name / "config.echo").read_text())
        assert echo["subset_size"] == (4 if name == "dms" else None)


def test_cli_compare_keeps_substructure_count_on_the_dms_arm_only(tmp_path):
    # The other arms take the default, so their outputs are those of a
    # compare without the key, byte for byte.
    outputs = {}
    for name, extra in [("plain", ""), ("four", "substructure_count: 4\n")]:
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text(COMPARE_YAML + extra)
        out = tmp_path / name
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        outputs[name] = {
            p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()
        }
    echo = json.loads(outputs["four"]["dms/config.echo"])
    assert echo["substructure_count"] == 4
    for arm in ["fedavg", "dring", "dfc", "centralized"]:
        files = sorted(f for f in outputs["plain"] if f.startswith(f"{arm}/"))
        assert files and all(outputs["four"][f] == outputs["plain"][f] for f in files)


def test_cli_compare_runs_every_arm_with_custom_secure_widths(tmp_path):
    # The centralized arm takes the default secure section, so the base's
    # widths reach only the four secure arms and trip no rule there.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML + "secure:\n  enabled: true\n  fraction_bits: 20\n")
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ["dms", "fedavg", "dring", "dfc", "centralized"]:
        secure = json.loads((out / name / "config.echo").read_text())["secure"]
        assert (out / name / "report.jsonl").exists()
        assert secure["fraction_bits"] == (16 if name == "centralized" else 20)


def test_cli_compare_runs_a_centralized_base_with_three_attackers(tmp_path):
    # compare sets strategy: dms as it sets the task, so the file's strategy
    # does not cap the base's attackers; only the centralized arm keeps one.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML + "strategy: centralized\nattack:\n  malicious: 3\n")
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    for name, count in [("dms", 3), ("fedavg", 3), ("dring", 3), ("dfc", 3), ("centralized", 1)]:
        echo = json.loads((out / name / "config.echo").read_text())
        assert echo["strategy"] == name and echo["attack"]["malicious"] == count


def test_cli_compare_runs_a_fedavg_base_with_a_subset_size(tmp_path):
    # The file's strategy does not decide which keys the base may set: the
    # dms arm reads subset_size and the other arms reset it.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML + "strategy: fedavg\nsubset_size: 4\n")
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
    for name in ["dms", "fedavg", "dring", "dfc", "centralized"]:
        echo = json.loads((out / name / "config.echo").read_text())
        assert echo["subset_size"] == (4 if name == "dms" else None)


@pytest.mark.parametrize(
    "secure", [{"fraction_bits": 8}, {"integer_bits": 20}, {"record_transcript": False}]
)
def test_cli_run_rejects_secure_settings_without_secure_mode(tmp_path, capsys, secure):
    # A plaintext run reads none of them. The rule is on the value, so the
    # default section that every config.echo writes still runs.
    config = {"agent_count": 6, "rounds": 2}
    assert run_exit_code(tmp_path, {**config, "secure": secure}) == 2
    assert "fraction_bits, integer_bits and record_transcript" in capsys.readouterr().err
    cfg = tmp_path / "default.yaml"
    echo = ExperimentConfig().to_dict()["secure"]
    cfg.write_text(yaml.safe_dump({**config, "secure": echo}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "default")]) == 0


@pytest.mark.parametrize("strategy", ["dring", "dfc", "fedavg", "centralized"])
def test_cli_run_rejects_a_substructure_count_its_strategy_ignores(tmp_path, capsys, strategy):
    # Only the dms and ctl schedules draw substructures. The rule is on the
    # value, so the default that every config.echo writes still runs. A
    # centralized run trains one agent and reads no agent_count.
    config = {"strategy": strategy, "rounds": 2}
    if strategy != "centralized":
        config["agent_count"] = 6
    assert run_exit_code(tmp_path, {**config, "substructure_count": 2}) == 2
    assert "substructure_count" in capsys.readouterr().err
    cfg = tmp_path / "default.yaml"
    cfg.write_text(yaml.safe_dump({**config, "substructure_count": 8}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "default")]) == 0


@pytest.mark.parametrize(
    "config, key",
    [
        ({"task": "forecast", "agent_count": 7}, "agent_count"),
        ({"task": "forecast", "quadratic": {"dim": 9}}, "quadratic"),
        ({"task": "quadratic", "model": {"hidden": 64}}, "model"),
        ({"task": "quadratic", "data": {"pick": 3}}, "data"),
        ({"strategy": "centralized", "agent_count": 7}, "agent_count"),
    ],
)
def test_cli_run_rejects_a_key_its_run_does_not_read(tmp_path, capsys, config, key):
    assert run_exit_code(tmp_path, {"rounds": 3, **config}) == 2
    assert f"config: {key} applies only to" in capsys.readouterr().err


@pytest.mark.parametrize("extra", ["agent_count: 7\n", "quadratic: {dim: 9}\n"])
def test_cli_compare_rejects_a_key_no_forecast_run_reads(tmp_path, capsys, extra):
    # compare sets the task to forecast before it parses the file, so these
    # exit 2 before any arm runs instead of passing unread.
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML + extra)
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
    assert f"config: {extra.split(':')[0]} applies only to" in capsys.readouterr().err
    assert not out.exists()


def test_forecast_comparison_resets_only_the_keys_the_dms_run_reads(tmp_path):
    # A base that sets a key no forecast run reads is rejected whole, before
    # any run, rather than having the key reset away.
    for extra in ({"agent_count": 7}, {"quadratic": {"dim": 9}}, {"tolerance": 1.0}):
        with pytest.raises(ConfigError, match=f"{next(iter(extra))} applies only to"):
            forecast_comparison(parse_config({"rounds": 1, **extra}), tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_cli_rejects_more_clusters_than_households_by_name(tmp_path, capsys):
    config = {"task": "forecast", "rounds": 2, "data": {"households": 2, "clusters": 3}}
    assert run_exit_code(tmp_path, config) == 2
    assert "config.data: need clusters <= households; 3 > 2" in capsys.readouterr().err
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML + "  clusters: 31\n")  # COMPARE_YAML ends in its data section
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config.data: need clusters <= households; 31 > 30" in capsys.readouterr().err
    assert not out.exists()


def test_config_rejects_an_unknown_attack_mode():
    # Caught at parse time, not when run_experiment builds the policy.
    with pytest.raises(ConfigError, match="config.attack: unknown attack mode 'bogus'"):
        parse_config({"attack": {"mode": "bogus"}})
    assert parse_config({"attack": {"mode": "scaled"}}).attack.mode == "scaled"


def small_run(strategy: str, task: str) -> dict:
    """A 2-round config of ``strategy`` on ``task`` that sets only keys it reads."""
    raw = {"strategy": strategy, "task": task, "rounds": 2}
    if task == "forecast":
        raw["data"] = {"households": 12, "days": 3, "clusters": 2, "pick": 5}
        raw["model"] = {"lookback": 12, "hidden": 4}
    elif strategy != "centralized":
        raw["agent_count"] = 5
    return raw


# A value other than its default for every top-level key but strategy and
# task, and other than small_run's. subset_size 3 is not the default subset
# of 5 agents (4); allow_unstable is probed with a gamma over the bound.
PROBES = {
    "agent_count": 6,
    "rounds": 3,
    "seed": 1,
    "gamma": 0.07,
    "alpha": 0.5,
    "epochs": 2,
    "subset_size": 3,
    "substructure_count": 4,
    "tolerance": 1e9,
    "allow_unstable": True,
    "model": {"lookback": 12, "hidden": 5},
    "noise": {"xi": 0.05},
    "secure": {"enabled": True},
    "quadratic": {"dim": 3},
    "data": {"households": 12, "days": 3, "clusters": 2, "pick": 5, "noise_scale": 0.1},
    "attack": {"malicious": 1},
}


def run_outcome(raw: dict) -> str:
    """The run's round and summary records, or the message of the config
    error that makes `dmslearn run` exit 2."""
    try:
        return repr(run_experiment(parse_config(raw)).records[1:])
    except ConfigError as exc:
        return str(exc)


@pytest.mark.parametrize("task", TASKS)
def test_every_key_takes_effect_or_exits_2(task):
    # Walks every top-level key on every strategy: a value other than the
    # default either changes the run's records or is a config error that
    # names the key. Strategy and task show in every summary.
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == {"strategy", "task", *PROBES}
    silent = []
    for strategy in STRATEGIES:
        for key, value in PROBES.items():
            base = small_run(strategy, task)
            if key == "allow_unstable":
                base["gamma"] = 1.5  # over the bound 2 / curv_high = 1.0
            before, after = run_outcome(base), run_outcome({**base, key: value})
            named = after.startswith("config") and f"{key} " in after
            if after == before or not (after.startswith("[") or named):
                silent.append((strategy, key, after[:80]))
    assert silent == []


def test_config_echo_reruns_every_strategy_task_and_secure_mode(tmp_path):
    # ROADMAP item 3's round trip: each run's config.echo parses back to a
    # config whose run writes the same report set, byte for byte.
    for strategy in STRATEGIES:
        for task in TASKS:
            for secure in (False, True) if strategy != "centralized" else (False,):
                raw = {**small_run(strategy, task), "secure": {"enabled": secure}}
                first, again = tmp_path / f"{strategy}-{task}-{secure}", tmp_path / "again"
                run_experiment(parse_config(raw), first)
                run_experiment(parse_config(json.loads((first / "config.echo").read_text())), again)
                names = sorted(p.name for p in first.iterdir())
                assert names == sorted(p.name for p in again.iterdir())
                assert ("transcript.jsonl" in names) == secure
                for name in names:
                    assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_compare_traffic_orderings(tmp_path):
    # Totals from communication.csv; every arm runs the same 5 rounds, so
    # they order as the per-round counts do. At pick 6 a secure round sends
    # 21 messages under fedavg, 32 under dms and 72 under dfc.
    traffic = {}
    for mode, extra in [("plain", ""), ("secure", "secure:\n  enabled: true\n")]:
        cfg = tmp_path / f"{mode}.yaml"
        cfg.write_text(COMPARE_YAML + extra)
        out = tmp_path / mode
        assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 0
        with (out / "communication.csv").open() as fh:
            traffic[mode] = {
                row["strategy"]: (int(row["total_messages"]), int(row["total_bytes"]))
                for row in csv.DictReader(fh)
            }
    plain, secure = traffic["plain"], traffic["secure"]
    for k in (0, 1):  # messages, bytes
        assert secure["fedavg"][k] < secure["dms"][k] < secure["dfc"][k]
        assert plain["fedavg"][k] <= plain["dms"][k] < plain["dfc"][k]
    for name in ("dms", "fedavg", "dring", "dfc"):
        assert secure[name][1] > plain[name][1]


def test_tolerance_is_rejected_on_the_forecast_task(tmp_path):
    # Only the quadratic task has the optimum a tolerance is measured
    # against, so a forecast config must not silently drop it.
    with pytest.raises(ConfigError, match="tolerance"):
        parse_config({"task": "forecast", "rounds": 3, "tolerance": 1e9})
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("task: forecast\nrounds: 3\ntolerance: 1.0e+9\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert not (tmp_path / "run").exists()
    cfg.write_text(COMPARE_YAML + "tolerance: 1.0e+9\n")
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_allow_unstable_is_rejected_on_the_forecast_task(tmp_path, capsys):
    # It lifts the quadratic task's stability bound, which a forecast run
    # does not check, so neither the key nor the flag may pass silently.
    with pytest.raises(ConfigError, match="allow_unstable applies only to the quadratic task"):
        parse_config({"task": "forecast", "rounds": 3, "allow_unstable": True})
    cfg = tmp_path / "exp.yaml"
    cfg.write_text("task: forecast\nrounds: 3\nallow_unstable: true\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    cfg.write_text("task: forecast\nrounds: 3\n")
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "run"), "--allow-unstable"]) == 2
    assert "allow_unstable applies only to the quadratic task" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("variant", ["plain", "epochs", "noise"])
def test_forecast_reports_do_not_depend_on_the_gradient_split(tmp_path, monkeypatch, variant):
    config = parse_config({**SMALL_FORECAST, **FORECAST_VARIANTS[variant], "strategy": "dms"})
    reports = []
    for k in (1, 3):
        monkeypatch.setattr(numerics, "_CORES", k)
        monkeypatch.setattr(numerics, "SPLIT_MIN_WORK", 1)
        out = tmp_path / f"k{k}"
        run_experiment(config, out)
        reports.append([(out / name).read_bytes() for name in ("report.jsonl", "summary.csv")])
    assert reports[0] == reports[1]


def test_cli_compare_divergence_exits_4(tmp_path):
    cfg = tmp_path / "exp.yaml"
    cfg.write_text(COMPARE_YAML.replace("gamma: 0.05", "gamma: 1.0e+8"))
    out = tmp_path / "compare"
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 4
    assert (out / "errors.csv").exists()


@pytest.mark.parametrize(
    "module",
    [
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
    # Each name has one home: a module exports only what it defines.
    objects = [getattr(mod, name) for name in mod.__all__]
    borrowed = [
        obj.__qualname__
        for obj in objects
        if (inspect.isclass(obj) or inspect.isfunction(obj)) and obj.__module__ != module
    ]
    assert borrowed == []


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


SELFTEST_SMALL = {  # perfbench/selftest.py's SMALL size
    "task": "forecast",
    "seed": 3,
    "data": {"households": 20, "days": 3, "pick": 6},
    "model": {"lookback": 8, "hidden": 3, "horizon": 1},
}


def test_benchmark_tracer_still_finds_the_traced_names(tmp_path, monkeypatch):
    # The benchmark's layer trace binds these names when it is imported and
    # patches them where the program calls them; a renamed name or a call
    # that bypasses its module-global binding shows here, not only there.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layertrace = importlib.import_module("layertrace")
    importlib.import_module("workloads")
    tracer = layertrace.Tracer()
    with tracer.patched():
        pass
    assert tracer.unrestored() == []

    config = parse_config({**SELFTEST_SMALL, "rounds": 2, "secure": {"enabled": True}})
    tracer = layertrace.Tracer()
    with tracer.patched():
        result = run_experiment(config, tmp_path)
    assert tracer.unrestored() == []
    # The traffic metrics read the transcript: its byte counter per round,
    # and the payloads its entries still hold after each round dropped them.
    metrics = tracer.metrics()
    assert metrics["secagg.retained_payload_elems"]["value"] == 0
    bytes_per_round = metrics["secagg.bytes_per_round"]["value"]
    assert bytes_per_round == result.summary["total_bytes"] / 2 == 15872.0
    _, calls = tracer.self_times()
    # One stacked step per epoch per round, found through consensus's global.
    for span in (
        "consensus.round", "numerics.local_step", "topology.advance", "experiment.on_round"
    ):
        assert calls[span] == 2, span
    for span in ("data.generate", "data.kmeans", "data.window"):
        assert calls[span] == 1, span
    for span in ("secagg.share", "secagg.reconstruct"):
        assert calls[span] > 0, span

    # The traced method builds the hook; the span times the hook it
    # returns, once per round.
    config = parse_config({**SELFTEST_SMALL, "rounds": 3, "attack": {"malicious": 2}})
    tracer = layertrace.Tracer()
    with tracer.patched():
        run_experiment(config, tmp_path / "attacked")
    assert tracer.unrestored() == []
    assert tracer.self_times()[1]["threats.hook"] == 3


@pytest.mark.parametrize("strategy", ["dms", "ctl", "fedavg"])
def test_benchmark_tracer_times_every_round_kind(monkeypatch, strategy):
    # The run loop calls the one round body through consensus's global,
    # which the trace patches through the names it binds; every strategy's
    # round is one span, and only a schedule is advanced.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layertrace = importlib.import_module("layertrace")
    tracer = layertrace.Tracer()
    with tracer.patched():
        run_experiment(small_quadratic(strategy=strategy, rounds=3))
    assert tracer.unrestored() == []
    _, calls = tracer.self_times()
    assert calls["consensus.round"] == 3
    assert calls["topology.advance"] == (0 if strategy == "fedavg" else 3)


def test_benchmark_poison_checks_still_read_the_study(tmp_path, monkeypatch):
    # The poison workload checks the FedAvg arms against its own simulation
    # of the seed's streams and counts messages by wrapping
    # threats.run_training; a study that changes its streams or calls
    # training some other way shows here, not only there.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    outcome = run_poisoning_experiment([5], **workloads.POISON)
    assert workloads.check_poison_seed(
        5, float(outcome.dms_inflation[0]), float(outcome.fedavg_inflation[0])
    ) == []
    # Each round of the stacked dms pair sends 420 messages and each of the
    # stacked fedavg pair 60; both runs have the same rounds: (420 + 60) / 2
    assert workloads.WORKLOADS["poison_study"].messages_per_round(5, tmp_path) == 240.0


def test_benchmark_selftest_passes():
    # The benchmark's own checks read run.agents, run.metrics and the traced
    # names; a program change that breaks one of those reads fails here.
    selftest = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"
    done = subprocess.run(
        [sys.executable, str(selftest)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert " passed, 0 failed" in done.stdout


def test_a_failing_hypothesis_test_reports_and_the_session_goes_on(tmp_path):
    # Under this repo's warning filters, reporting a failing @given test must
    # print its falsifying example and leave the session running, not end it
    # in an INTERNALERROR that hides the example and skips every later test.
    # Any other deprecation still fails its test.
    (tmp_path / "test_pin.py").write_text(
        "import warnings\n\n"
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(n):\n"
        "    assert n < 5\n\n\n"
        "def test_passes():\n"
        "    pass\n\n\n"
        "def test_deprecated():\n"
        "    warnings.warn('old call', DeprecationWarning)\n"
    )
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(pyproject), "--rootdir", str(tmp_path), str(tmp_path / "test_pin.py")],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout
    assert "FAILED test_pin.py::test_deprecated - DeprecationWarning: old call" in done.stdout
    assert "2 failed, 1 passed" in done.stdout
