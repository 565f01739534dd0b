"""Experiment orchestration: builders, the run driver, sweeps, and tables.

Randomness discipline: one seed spawns named independent streams (init,
data, schedule, noise, secagg), so enabling one stochastic
feature never shifts another's draws, and strategies compared under the
same seed see identical data and initializations where they share them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .config import ConfigError, ExperimentConfig
from .consensus import (
    AgentState,
    ContractionParams,
    ConvergenceMonitor,
    SecureSetup,
    TrainingRun,
    complexity_counters,
    lr_bound,
    make_agents,
    max_disagreement,
    run_training,
)
from .data import gen_synthetic_load, household_features, kmeans, window_dataset
from .numerics import Dataset, MlpModel, MlpTask, NoiseModel, QuadraticTask
from .reports import write_report, write_summary_csv, write_transcript
from .secagg import FixedPointCodec, Transcript
from .threats import PoisonPolicy
from .topology import (
    Graph,
    MarkovSchedule,
    make_dms_schedule,
    make_static_schedule,
    make_topology,
)

__all__ = [
    "ExperimentResult",
    "SweepSettings",
    "average_monitor",
    "build_quadratic_setup",
    "build_schedule",
    "emit_tables",
    "forecast_comparison",
    "linear_fit",
    "run_experiment",
    "run_scaling_sweep",
    "seed_streams",
]

STREAM_NAMES = ("init", "data", "schedule", "noise", "secagg")


def seed_streams(seed: int | np.random.SeedSequence) -> dict[str, np.random.Generator]:
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    children = root.spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(c) for name, c in zip(STREAM_NAMES, children)}


def build_schedule(
    strategy: str,
    agent_count: int,
    *,
    subset_size: int | None,
    substructure_count: int,
    rng: np.random.Generator,
) -> MarkovSchedule | None:
    if strategy == "fedavg":
        return None
    if strategy == "centralized":
        return make_static_schedule(Graph(1, frozenset()))
    if strategy == "dring":
        return make_static_schedule(make_topology("ring", agent_count))
    if strategy == "dfc":
        return make_static_schedule(make_topology("complete", agent_count))
    # dms and its mix-first twin share the switching schedule
    return make_dms_schedule(
        agent_count,
        subset_size=subset_size,
        substructure_count=substructure_count,
        rng=rng,
    )


def ring_bias_profile(agent_count: int, amp: float, amp2: float) -> np.ndarray:
    """Per-agent optimum offsets on two ring harmonics; sums to zero."""
    i = np.arange(agent_count)
    return amp * np.cos(2 * np.pi * i / agent_count) + amp2 * np.cos(4 * np.pi * i / agent_count)


def build_quadratic_setup(
    *,
    agent_count: int,
    dim: int,
    curv_low: float,
    curv_high: float,
    bias_amp: float,
    bias_amp2: float,
    far_start: float,
    gamma: float,
    xi: float,
    shared_init: bool,
    init_rng: np.random.Generator,
    alpha: float = 1.0,
) -> tuple[list[AgentState], ConvergenceMonitor, ContractionParams]:
    """Agents on diagonal quadratics with optional heterogeneous optima.

    Every agent gets the same diagonal Hessian with entries spread over
    [curv_low, curv_high]; offsets move each agent's optimum along a
    zero-sum ring profile so the global optimum stays at the origin, which
    is also what the monitor measures against.
    """
    hessian = np.diag(np.linspace(curv_low, curv_high, dim))
    offsets = ring_bias_profile(agent_count, bias_amp, bias_amp2)
    tasks = [
        QuadraticTask.from_optimum(hessian, np.full(dim, offsets[i]))
        for i in range(agent_count)
    ]
    total_q = sum(t.hessian for t in tasks)
    total_b = sum(t.lin_term for t in tasks)
    global_opt = np.linalg.solve(total_q, -total_b)

    if shared_init:
        shared = far_start + init_rng.uniform(-0.5, 0.5, dim)
        inits = [shared.copy() for _ in range(agent_count)]
    else:
        inits = [far_start + init_rng.uniform(-0.5, 0.5, dim) for _ in range(agent_count)]
    agents = make_agents(tasks, inits, gamma)
    monitor = ConvergenceMonitor(global_opt)
    params = ContractionParams(
        p_lower=np.full(agent_count, curv_low),
        p_upper=np.full(agent_count, curv_high),
        xi=np.full(agent_count, xi),
        step_sizes=np.full(agent_count, gamma),
        alpha=alpha,
    )
    return agents, monitor, params


def average_monitor(monitors: Sequence[ConvergenceMonitor]) -> ConvergenceMonitor:
    """Agent-wise mean of repeated runs, as a monitor over the same optimum."""
    if not monitors:
        raise ValueError("nothing to average")
    out = ConvergenceMonitor(monitors[0].optimum)
    stacked = np.stack([m.theta_errors for m in monitors])
    out.theta_sq = [row for row in stacked.mean(axis=0)]
    return out


SPLITS = ("train", "val", "test")


@dataclass
class _ForecastSetup:
    agents: list[AgentState]
    model: MlpModel
    # Split name -> inputs (households, windows, lookback) and targets
    # (households, windows, horizon), stacked in household order.
    splits: dict[str, tuple[np.ndarray, np.ndarray]]
    households: list[int]


def _build_forecast_setup(config: ExperimentConfig, rngs) -> _ForecastSetup:
    d = config.data
    profiles = gen_synthetic_load(
        d.households, d.days, int(rngs["data"].integers(2**31)), noise_scale=d.noise_scale
    )
    feats = household_features(profiles)
    clustering = kmeans(feats, d.clusters, int(rngs["data"].integers(2**31)))
    counts = np.bincount(clustering.labels, minlength=d.clusters)
    biggest = int(np.argmax(counts))
    members = [p.household for p in profiles if clustering.labels[p.household] == biggest]
    if d.pick > len(members):
        raise ConfigError(
            f"config.data.pick: {d.pick} agents asked for, "
            f"the largest cluster has {len(members)} households"
        )
    picked = members[: d.pick]

    lookback, horizon = config.model.lookback, config.model.horizon
    model = MlpModel(lookback, config.model.hidden, horizon)
    # Every series has the same length, so every household has the same
    # split sizes; each household's windows are copied into the stacked
    # arrays and dropped, so no second copy is held.
    splits: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for i, h in enumerate(picked):
        windows = window_dataset(profiles[h], lookback, horizon)
        for name in SPLITS:
            part = getattr(windows, name)
            if name not in splits:
                if len(part) == 0:
                    raise ConfigError(
                        f"config.model.lookback: {lookback} leaves no {name} windows over "
                        f"data.days {d.days}; lower model.lookback or raise data.days"
                    )
                splits[name] = (
                    np.empty((len(picked), *part.features.shape)),
                    np.empty((len(picked), *part.targets.shape)),
                )
            x, y = splits[name]
            x[i], y[i] = part.features, part.targets

    train_x, train_y = splits["train"]
    if config.strategy == "centralized":
        pooled = Dataset(train_x.reshape(-1, lookback), train_y.reshape(-1, horizon))
        tasks = [MlpTask(model, pooled)]
        inits = [model.init_params(rngs["init"])]
    else:
        tasks = [MlpTask(model, Dataset(x, y)) for x, y in zip(train_x, train_y)]
        if config.strategy == "fedavg":
            shared = model.init_params(rngs["init"])
            inits = [shared.copy() for _ in tasks]
        else:
            inits = [model.init_params(rngs["init"]) for _ in tasks]
    agents = make_agents(tasks, inits, config.gamma)
    return _ForecastSetup(agents=agents, model=model, splits=splits, households=picked)


def _forecast_mse(setup: _ForecastSetup, which: str, thetas: np.ndarray) -> float:
    """Mean over households of each agent's loss on its own split, from
    one stacked forward pass of the (agents, d) weights ``thetas``.

    The centralized baseline's single row is broadcast over every
    household's split, so the number is comparable across strategies.
    """
    x, y = setup.splits[which]
    diff = setup.model.forward(thetas, x) - y
    return float(np.mean(np.mean(np.sum(diff * diff, axis=-1), axis=-1)))


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    run: TrainingRun
    records: list[dict]
    summary: dict
    paths: dict[str, Path] = field(default_factory=dict)


def run_experiment(config: ExperimentConfig, out_dir: str | Path | None = None) -> ExperimentResult:
    """Build everything from the config, train, and emit the report set.

    Writes ``report.jsonl``, ``config.echo``, ``summary.csv``, and (in
    secure mode) ``transcript.jsonl`` under ``out_dir`` when given. The
    transcript is written round by round, so a secure run that aborts
    leaves only ``transcript.jsonl``, holding its completed rounds.
    """
    rngs = seed_streams(config.seed)

    # Every ValueError before training starts comes from the config's values.
    try:
        secure = None
        if config.secure.enabled:
            codec = FixedPointCodec(config.secure.fraction_bits, config.secure.integer_bits)
            secure = SecureSetup(
                rng=rngs["secagg"],
                codec=codec,
                transcript=Transcript(record_payloads=False),
            )

        broadcast_hook = None
        if config.attack is not None:
            policy = PoisonPolicy(
                frozenset(range(config.attack.malicious)),
                epsilon=config.attack.epsilon,
                mode=config.attack.mode,
            )
            broadcast_hook = policy.hook()

        noise = NoiseModel(config.noise.xi) if config.noise.xi > 0 else None

        monitor = None
        setup = None
        if config.task == "quadratic":
            if config.gamma > lr_bound(config.quadratic.curv_high) and not config.allow_unstable:
                raise ConfigError(
                    f"gamma {config.gamma} exceeds the stability bound "
                    f"{lr_bound(config.quadratic.curv_high)}; pass --allow-unstable to run anyway"
                )
            n = 1 if config.strategy == "centralized" else config.agent_count
            agents, monitor, _params = build_quadratic_setup(
                agent_count=n,
                dim=config.quadratic.dim,
                curv_low=config.quadratic.curv_low,
                curv_high=config.quadratic.curv_high,
                bias_amp=config.quadratic.bias_amp,
                bias_amp2=config.quadratic.bias_amp2,
                far_start=config.quadratic.far_start,
                gamma=config.gamma,
                xi=config.noise.xi,
                shared_init=config.strategy == "fedavg",
                init_rng=rngs["init"],
                alpha=config.alpha,
            )
        else:
            setup = _build_forecast_setup(config, rngs)
            agents = setup.agents

        n_agents = len(agents)
        schedule = build_schedule(
            config.strategy,
            n_agents,
            subset_size=config.subset_size,
            substructure_count=config.substructure_count,
            rng=rngs["schedule"],
        )
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc

    rows: list[dict] = []
    # Secure runs stream the transcript: each completed round's entries are
    # appended to transcript.jsonl and then dropped, so memory stays flat.
    # A previous run's report set goes first, so that an aborted run does
    # not leave its transcript beside another run's reports.
    transcript_path = None
    if secure is not None and out_dir is not None and config.secure.record_transcript:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for stale in ("report.jsonl", "summary.csv", "config.echo"):
            (out / stale).unlink(missing_ok=True)
        transcript_path = out / "transcript.jsonl"
        transcript_path.write_text("")

    # Learn-first strategies whose agents train on their own household
    # start each round's learn stage from the weights the last round ended
    # with, so round k + 1's first-step losses are row k's train_mse; the
    # last row takes the summary's.
    train_from_learn = setup is not None and config.strategy not in ("ctl", "centralized")

    def on_round(k, ags, metrics):
        if secure is not None:
            if transcript_path is not None:
                write_transcript(transcript_path, secure.transcript)
            secure.transcript.entries.clear()
        thetas = np.array([a.theta for a in ags])
        rec = {
            "type": "round",
            "round": k,
            "edges": metrics.edge_count,
            "active": metrics.active_agents,
            "messages": metrics.messages,
            "bytes": metrics.bytes,
            "disagreement": max_disagreement(thetas),
        }
        if monitor is not None:
            rec["worst_mse"] = float(monitor.theta_sq[-1].max())
        if setup is not None:
            if train_from_learn:
                if rows:
                    rows[-1]["train_mse"] = float(np.mean(metrics.train_losses))
                rec["train_mse"] = None
            else:
                rec["train_mse"] = _forecast_mse(setup, "train", thetas)
            rec["val_mse"] = _forecast_mse(setup, "val", thetas)
        rows.append(rec)

    run = run_training(
        agents,
        schedule,
        strategy=config.strategy,
        rounds=config.rounds,
        alpha=config.alpha,
        noise=noise,
        noise_rng=rngs["noise"],
        broadcast_hook=broadcast_hook,
        secure=secure,
        monitor=monitor,
        tolerance=config.tolerance,
        epochs=config.epochs,
        on_round=on_round,
    )

    counters = complexity_counters(run.metrics)
    summary = {
        "strategy": config.strategy,
        "task": config.task,
        "rounds_completed": run.rounds_completed,
        "terminated_early": run.terminated_early,
        "diverged": run.diverged,
        "total_messages": counters["total_messages"],
        "total_bytes": counters["total_bytes"],
        "mean_edges": counters["mean_edges"],
    }
    if monitor is not None:
        summary["final_worst_mse"] = float(monitor.worst_mse[-1])
    if setup is not None:
        thetas = np.array([a.theta for a in agents])
        for name in SPLITS:
            summary[f"{name}_mse"] = _forecast_mse(setup, name, thetas)
        summary["households"] = setup.households
        if train_from_learn and rows:
            rows[-1]["train_mse"] = summary["train_mse"]

    records = [{"type": "config", "config": config.to_dict()}, *rows]
    records.append({"type": "summary", **summary})

    paths: dict[str, Path] = {}
    if out_dir is not None:
        out = Path(out_dir)
        paths["report"] = write_report(out / "report.jsonl", records)
        echo = out / "config.echo"
        echo.write_text(config.echo_json() + "\n")
        paths["config_echo"] = echo
        grid_cols = sorted(summary.keys() - {"households"})
        paths["summary"] = write_summary_csv(out / "summary.csv", [summary], grid_cols)
        if transcript_path is not None:
            paths["transcript"] = transcript_path

    return ExperimentResult(config=config, run=run, records=records, summary=summary, paths=paths)


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> tuple[float, float, float]:
    """Least-squares line through (xs, ys); returns (slope, intercept, r2)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


@dataclass(frozen=True)
class SweepSettings:
    """Frozen constants for the agent-count scaling sweep.

    The task family puts every agent's optimum on a small two-harmonic
    ring profile and starts all weights far from the origin. On the
    static ring the heterogeneity leaves per-agent steady-state offsets
    that grow with n, so rounds-to-tolerance scales near-linearly; the
    complete graph and the switching subsets average the offsets away.
    Constants were fixed by running the sweep and checking margins.
    """

    sizes: tuple[int, ...] = (5, 10, 20, 40)
    strategies: tuple[str, ...] = ("dring", "dfc", "dms")
    dim: int = 2
    curvature: float = 1.0
    gamma: float = 0.08
    bias_amp: float = -4.7e-4
    bias_amp2: float = 2.35e-4
    far_start: float = 1000.0
    tolerance: float = 1e-6
    budget: int = 600
    substructure_count: int = 8
    seed: int = 1


@dataclass
class SweepResult:
    settings: SweepSettings
    rounds: dict[str, dict[int, int]]

    def fit(self, strategy: str) -> tuple[float, float, float]:
        table = self.rounds[strategy]
        sizes = sorted(table)
        return linear_fit(sizes, [table[n] for n in sizes])


def run_scaling_sweep(settings: SweepSettings | None = None) -> SweepResult:
    """Rounds-to-tolerance for each strategy and agent count."""
    s = settings or SweepSettings()
    rounds: dict[str, dict[int, int]] = {name: {} for name in s.strategies}
    for strat_idx, strategy in enumerate(s.strategies):
        for n in s.sizes:
            streams = seed_streams(np.random.SeedSequence([s.seed, strat_idx, n]))
            agents, monitor, _ = build_quadratic_setup(
                agent_count=n,
                dim=s.dim,
                curv_low=s.curvature,
                curv_high=s.curvature,
                bias_amp=s.bias_amp,
                bias_amp2=s.bias_amp2,
                far_start=s.far_start,
                gamma=s.gamma,
                xi=0.0,
                shared_init=False,
                init_rng=streams["init"],
            )
            schedule = build_schedule(
                strategy,
                n,
                subset_size=None,
                substructure_count=s.substructure_count,
                rng=streams["schedule"],
            )
            run = run_training(
                agents,
                schedule,
                strategy=strategy,
                rounds=s.budget,
                monitor=monitor,
                tolerance=s.tolerance,
            )
            rounds[strategy][n] = (
                run.rounds_completed if run.terminated_early else s.budget
            )
    return SweepResult(settings=s, rounds=rounds)


def forecast_comparison(
    base: ExperimentConfig, out_dir: str | Path | None = None
) -> dict[str, ExperimentResult]:
    """Run the forecast task under dms, fedavg, dring, dfc and centralized
    with one seed.

    All runs share the data stream, so every strategy trains and
    evaluates on identical households and splits. Every strategy's config
    is built before the first run, so a base that one of them rejects
    raises :class:`ConfigError` before any training. The centralized run
    trains one agent, so at most one of the base's attackers lies there,
    and it runs plaintext: one agent has no peer to hide its weights from.
    """
    attack = base.attack
    solo = {
        "attack": None if attack is None else replace(attack, malicious=min(attack.malicious, 1)),
        "secure": replace(base.secure, enabled=False),
    }
    configs = {
        s: base.replace(strategy=s, task="forecast", **(solo if s == "centralized" else {}))
        for s in ("dms", "fedavg", "dring", "dfc", "centralized")
    }
    results = {}
    for strategy, cfg in configs.items():
        sub = None if out_dir is None else Path(out_dir) / strategy
        results[strategy] = run_experiment(cfg, sub)
    return results


def emit_tables(results: dict[str, ExperimentResult], out_dir: str | Path) -> dict[str, Path]:
    """Comparison grids across finished runs: error and traffic."""
    out = Path(out_dir)
    rows = [
        {**res.summary, "strategy": name, "rounds": res.summary["rounds_completed"]}
        for name, res in results.items()
    ]
    error_cols = ["strategy", "task", "train_mse", "val_mse", "test_mse", "final_worst_mse", "rounds"]
    comm_cols = ["strategy", "total_messages", "total_bytes", "mean_edges"]
    return {
        "errors": write_summary_csv(out / "errors.csv", rows, error_cols),
        "communication": write_summary_csv(out / "communication.csv", rows, comm_cols),
    }
