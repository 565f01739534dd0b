"""The four benchmark workloads and the checks run on their outputs.

Each workload drives the program only through a public entry point
(``experiment.run_experiment`` or ``threats.run_poisoning_experiment``).
One *operation* is one entry-point call with the workload's full round
count; a *set-up call* is the same call with ``rounds=0``, which returns
as soon as set-up is done. Every check compares an output of the program
with a value computed here, apart from the program.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dmslearn import threats
from dmslearn.config import parse_config
from dmslearn.data import gen_synthetic_load
from dmslearn.experiment import run_experiment, seed_streams
from dmslearn.threats import run_poisoning_experiment

# Every secure aggregate is exact to the fixed-point grid: each encoded
# coordinate is off by at most half a step of 2**-16, so a mean is too.
SECURE_TOL = 2.0**-17
# Bytes per field element of the 128-bit prime.
ELEM_BYTES = 16

# run_poisoning_experiment's defaults, passed explicitly so that the
# workload stays fixed if the defaults change.
POISON = dict(
    agent_count=30,
    malicious_count=3,
    epsilon=0.2,
    mode="constant",
    dim=2,
    gamma=0.02,
    rounds=1000,
    subset_size=21,
    substructure_count=8,
    noise_bound=0.1,
    tail_rounds=100,
)
POISON_ARMS = 4  # clean and poisoned, DMS and FedAvg

FORECAST = {
    "task": "forecast",
    "strategy": "dms",
    "data": {"households": 100, "days": 10, "pick": 30},
    "model": {"lookback": 48, "hidden": 16, "horizon": 1},
}


def program_seed(bench_seed: int, call: int) -> int:
    """The seed handed to the program for the ``call``-th call of a run."""
    return bench_seed * 10_000 + call


# --- poison_study -----------------------------------------------------


def fedavg_poison_tails(seed: int) -> tuple[float, float]:
    """Clean and poisoned FedAvg tail errors, simulated apart from the program.

    Server averaging keeps every agent on one vector, so the whole arm is
    one stacked (n, d) update per round. The streams are spawned as the
    program spawns them; one (n, d) normal draw is the same stream as n
    draws of d.
    """
    p = POISON
    n, d, gamma, xi = p["agent_count"], p["dim"], p["gamma"], p["noise_bound"]
    init_seed, _, noise_seed = np.random.SeedSequence(seed).spawn(3)
    theta0 = np.random.default_rng(init_seed).uniform(-0.5, 0.5, d)
    cap = 3.0 * xi
    tails = []
    for poisoned in (False, True):
        rng = np.random.default_rng(noise_seed)
        theta = theta0.copy()
        series = [float(theta @ theta)]
        for _ in range(p["rounds"]):
            w = rng.standard_normal((n, d)) * (xi / np.sqrt(d))
            norms = np.sqrt(np.sum(w * w, axis=1))
            over = norms > cap
            w[over] *= (cap / norms[over])[:, None]
            uploads = (theta - gamma * theta) + w
            if poisoned:
                uploads[: p["malicious_count"]] += p["epsilon"]
            theta = uploads.mean(axis=0)
            series.append(float(theta @ theta))
        tails.append(float(np.mean(series[-p["tail_rounds"] :])))
    return tails[0], tails[1]


def poison_closed_forms() -> tuple[float, float]:
    """(noise floor of the clean arm, bias of the poisoned arm)."""
    p = POISON
    n, gamma = p["agent_count"], p["gamma"]
    floor = p["noise_bound"] ** 2 / (n * (2 * gamma - gamma**2))
    bias = p["dim"] * (p["malicious_count"] * p["epsilon"] / (n * gamma)) ** 2
    return floor, bias


def check_poison_seed(seed: int, dms_inflation: float, fed_inflation: float) -> list[str]:
    """Checks of one seed's outcome; the run-level median check is separate.

    The poisoned tail is the bias 2.0 plus a cross term with the noise;
    over 1000 seeds it spanned 0.81-1.21 of the bias (std 0.065), so 30%
    is more than four standard deviations. The clean tail averages about
    two independent samples per coordinate (AR(1) with coefficient
    1 - gamma), so it spreads widely: 0.16-5.4 times the floor over 1000
    seeds. A factor of ten still catches a noise scale or averaging off by
    a factor of n.
    """
    problems = []
    clean, bad = fedavg_poison_tails(seed)
    floor, bias = poison_closed_forms()
    if not dms_inflation > 1.0:
        problems.append(f"seed {seed}: DMS inflation {dms_inflation} is not above 1")
    expected = bad / clean
    if not abs(fed_inflation - expected) <= 1e-9 * expected:
        problems.append(f"seed {seed}: FedAvg inflation {fed_inflation} != simulated {expected}")
    if not abs(bad - bias) <= 0.3 * bias:
        problems.append(f"seed {seed}: poisoned FedAvg tail {bad} not within 30% of {bias}")
    if not floor / 10 <= clean <= 10 * floor:
        problems.append(f"seed {seed}: clean FedAvg tail {clean} not within 10x of {floor}")
    return problems


def check_poison_run(dms: list[float], fed: list[float]) -> list[str]:
    """The paper's robustness claim over all seeds of a run."""
    if np.median(dms) < np.median(fed):
        return []
    return [f"median DMS inflation {np.median(dms)} is not below FedAvg's {np.median(fed)}"]


# --- forecast workloads ------------------------------------------------


def read_report(out: Path) -> tuple[list[dict], dict]:
    records = [json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()]
    rounds = [r for r in records if r["type"] == "round"]
    summary = [r for r in records if r["type"] == "summary"]
    return rounds, summary[0] if summary else {}


def forecast_splits(config, households: list[int]):
    """Per household: (normalized windows, targets, train rows, val rows).

    The series come from the program's generator with the program's data
    seed; windowing, the 70/15/15 split and the min-max scaling are
    redone here.
    """
    d = config.data
    data_seed = int(seed_streams(config.seed)["data"].integers(2**31))
    profiles = gen_synthetic_load(d.households, d.days, data_seed, noise_scale=d.noise_scale)
    lookback, horizon = config.model.lookback, config.model.horizon
    out = []
    for h in households:
        s = profiles[h].series
        count = s.size - lookback - horizon + 1
        x = np.array([s[i : i + lookback] for i in range(count)])
        y = np.array([s[i + lookback : i + lookback + horizon] for i in range(count)])
        n_train = math.ceil(0.7 * count)
        n_val = math.floor(0.15 * count)
        lo, hi = x[:n_train].min(), x[:n_train].max()
        out.append(((x - lo) / (hi - lo), y, n_train, n_val))
    return out


def mlp_forward(theta: np.ndarray, x: np.ndarray, hidden: int, horizon: int) -> np.ndarray:
    """tanh hidden layer and linear output, from the flat (W1, b1, W2, b2)."""
    lookback = x.shape[1]
    w1 = theta[: hidden * lookback].reshape(hidden, lookback)
    b1 = theta[hidden * lookback : hidden * lookback + hidden]
    w2 = theta[hidden * (lookback + 1) : hidden * (lookback + 1) + horizon * hidden]
    b2 = theta[-horizon:]
    return np.tanh(x @ w1.T + b1) @ w2.reshape(horizon, hidden).T + b2


def check_experiment(
    config, out: Path, thetas: np.ndarray, phis: np.ndarray, *, beat_baseline: bool
) -> list[str]:
    """Checks of one run_experiment call on the forecast task.

    ``thetas`` and ``phis`` are the agents' final weights and last local
    results; the report is read back from ``out``.
    """
    problems = []
    rounds, summary = read_report(out)
    n, dim = thetas.shape
    m = config.subset_size or max(3, round(0.7 * n))
    if len(rounds) != config.rounds or summary.get("rounds_completed") != config.rounds:
        problems.append(f"{len(rounds)} round records for {config.rounds} rounds")
    if summary.get("diverged"):
        problems.append("run diverged")

    if not config.secure.enabled:
        expected_edges = m * (m - 1) // 2
        for r in rounds:
            if r["edges"] != expected_edges or r["messages"] != 2 * r["edges"]:
                problems.append(f"round {r['round']}: {r['edges']} edges, {r['messages']} messages")
                break
    else:
        if config.strategy == "fedavg":
            messages = 3 * n + 3
        else:
            messages = 2 * m * m
        for r in rounds:
            if r["messages"] != messages or r["bytes"] != messages * dim * ELEM_BYTES:
                problems.append(f"round {r['round']}: {r['messages']} messages, {r['bytes']} bytes")
                break
        lines = len((out / "transcript.jsonl").read_text().splitlines())
        if lines != summary.get("total_messages"):
            problems.append(f"transcript has {lines} lines for {summary.get('total_messages')} messages")
        problems += check_secure_weights(thetas, phis, n if config.strategy == "fedavg" else m)

    splits = forecast_splits(config, summary.get("households", []))
    hidden, horizon = config.model.hidden, config.model.horizon
    errors, baseline = [], []
    for theta, (x, y, n_train, n_val) in zip(thetas, splits):
        xt, yt = x[n_train + n_val :], y[n_train + n_val :]
        diff = mlp_forward(theta, xt, hidden, horizon) - yt
        errors.append(np.mean(np.sum(diff * diff, axis=1)))
        base = yt - y[:n_train].mean(axis=0)
        baseline.append(np.mean(np.sum(base * base, axis=1)))
    test_mse = float(np.mean(errors)) if errors else math.nan
    if not abs(test_mse - summary.get("test_mse", math.nan)) <= 1e-9 * test_mse:
        problems.append(f"test_mse {summary.get('test_mse')} != recomputed {test_mse}")
    if beat_baseline and not test_mse < float(np.mean(baseline)):
        problems.append(f"test_mse {test_mse} is not below the mean predictor's {np.mean(baseline)}")
    return problems


def check_secure_weights(thetas: np.ndarray, phis: np.ndarray, group: int) -> list[str]:
    """After a secure round, exactly ``group`` agents share one vector equal
    to the mean of their broadcasts; every other agent keeps its own."""
    keys = [t.tobytes() for t in thetas]
    shared, count = Counter(keys).most_common(1)[0]
    if count != group:
        return [f"{count} agents share the final vector, expected {group}"]
    members = [i for i, k in enumerate(keys) if k == shared]
    err = float(np.max(np.abs(thetas[members[0]] - phis[members].mean(axis=0))))
    if not err <= SECURE_TOL:
        return [f"shared vector is {err} from the mean of the broadcasts"]
    for i in set(range(len(keys))) - set(members):
        if not np.array_equal(thetas[i], phis[i]):
            return [f"agent {i} is outside the group but does not hold its own phi"]
    return []


# --- the workloads -----------------------------------------------------


@dataclass(frozen=True)
class PoisonStudy:
    name: str = "poison_study"
    rounds: int = POISON_ARMS * POISON["rounds"]  # training rounds per call

    def prepare(self, seed: int, rounds: int | None = None):
        return [seed], dict(POISON, rounds=POISON["rounds"] if rounds is None else rounds)

    def call(self, prepared, out: Path):
        seeds, kwargs = prepared
        return run_poisoning_experiment(seeds, **kwargs)

    def check(self, prepared, result, out: Path) -> list[str]:
        (seed,), _ = prepared
        return check_poison_seed(seed, float(result.dms_inflation[0]), float(result.fedavg_inflation[0]))

    def check_setup(self, prepared, result) -> list[str]:
        # With no rounds both arms stop at the shared init: inflation is 1.
        if result.dms_inflation[0] == 1.0 and result.fedavg_inflation[0] == 1.0:
            return []
        return [f"zero-round inflation {result.dms_inflation}, {result.fedavg_inflation}"]

    def outcome(self, result, out: Path):
        """What a rerun must reproduce, and what check_run needs."""
        return float(result.dms_inflation[0]), float(result.fedavg_inflation[0])

    def check_run(self, outcomes) -> list[str]:
        return check_poison_run([o[0] for o in outcomes], [o[1] for o in outcomes])

    def messages_per_round(self, seed: int, out: Path) -> float:
        """Messages as the training loop reports them, mean over the arms.

        The entry point returns only inflation ratios, so one short
        untimed call runs with threats.run_training wrapped to keep each
        arm's round metrics.
        """
        runs = []
        original = threats.run_training

        def keep(*args, **kwargs):
            runs.append(original(*args, **kwargs))
            return runs[-1]

        threats.run_training = keep
        try:
            self.call(self.prepare(seed, rounds=20), out)
        finally:
            threats.run_training = original
        return float(np.mean([m.messages for run in runs for m in run.metrics]))


@dataclass(frozen=True)
class ForecastRun:
    name: str
    rounds: int  # training rounds per call
    overrides: tuple = ()
    beat_baseline: bool = False

    def prepare(self, seed: int, rounds: int | None = None):
        return parse_config(
            {**FORECAST, **dict(self.overrides), "seed": seed, "rounds": self.rounds if rounds is None else rounds}
        )

    def call(self, prepared, out: Path | None):
        return run_experiment(prepared, out)

    def check(self, prepared, result, out: Path) -> list[str]:
        thetas = np.array([a.theta for a in result.run.agents])
        phis = np.array([a.phi for a in result.run.agents])
        return check_experiment(prepared, out, thetas, phis, beat_baseline=self.beat_baseline)

    def check_setup(self, prepared, result) -> list[str]:
        if result.summary["rounds_completed"] == 0 and len(result.run.agents) == prepared.data.pick:
            return []
        return [f"zero-round call gave {result.summary['rounds_completed']} rounds"]

    def outcome(self, result, out: Path):
        return (out / "report.jsonl").read_bytes()

    def check_run(self, outcomes) -> list[str]:
        return []

    def messages_per_round(self, seed: int, out: Path) -> float:
        """From the report the last call left in ``out``."""
        _, summary = read_report(out)
        return summary["total_messages"] / summary["rounds_completed"]


WORKLOADS = {
    w.name: w
    for w in (
        PoisonStudy(),
        ForecastRun("forecast_dms", rounds=100, beat_baseline=True),
        ForecastRun("secure_dms", rounds=1, overrides=(("secure", {"enabled": True}),)),
        ForecastRun(
            "secure_fedavg",
            rounds=4,
            overrides=(("strategy", "fedavg"), ("secure", {"enabled": True})),
        ),
    )
}
