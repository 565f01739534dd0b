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

from .config import ConfigError, ExperimentConfig, QuadraticConfig, SecureConfig, unread_defaults
from .consensus import (
    ContractionParams,
    ConvergenceMonitor,
    SecureSetup,
    TrainingRun,
    lr_bound,
    max_disagreement,
    run_training,
)
from .data import gen_synthetic_load, household_features, kmeans, window_dataset
from .numerics import MlpModel, NetworkTasks, NoiseModel, QuadraticTasks
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


def build_schedule(config: ExperimentConfig, rng: np.random.Generator) -> MarkovSchedule | None:
    """The run's communication schedule; fedavg mixes by the server mean
    and has none."""
    strategy = config.strategy
    if strategy == "fedavg":
        return None
    if strategy == "centralized":
        return make_static_schedule(Graph(1, frozenset()))
    if strategy == "dring":
        return make_static_schedule(make_topology("ring", config.agents))
    if strategy == "dfc":
        return make_static_schedule(make_topology("complete", config.agents))
    # dms and its mix-first twin share the switching schedule
    return make_dms_schedule(
        config.agents,
        subset_size=config.subset_size,
        substructure_count=config.substructure_count,
        rng=rng,
    )


def ring_bias_profile(agent_count: int, amp: float, amp2: float) -> np.ndarray:
    """Per-agent optimum offsets on two ring harmonics; zero-sum from 3 agents on."""
    i = np.arange(agent_count)
    return amp * np.cos(2 * np.pi * i / agent_count) + amp2 * np.cos(4 * np.pi * i / agent_count)


def build_quadratic_setup(
    config: ExperimentConfig, init_rng: np.random.Generator
) -> tuple[QuadraticTasks, np.ndarray, ConvergenceMonitor, ContractionParams]:
    """The run's task set of diagonal quadratics with optional heterogeneous
    optima, and its (n, d) inits.

    Every agent gets the same per-coordinate curvature spread over
    [curv_low, curv_high]; offsets move each agent's optimum along the ring
    profile, whose mean is the global optimum the monitor measures against
    (the origin from three agents on). Fedavg agents start from one shared
    init, the others from one each. Each agent's curvature bounds are the
    least and greatest entries of its own row (``curv_low`` alone at dim 1).
    """
    q, n = config.quadratic, config.agents
    curvature = np.repeat(np.linspace(q.curv_low, q.curv_high, q.dim)[None], n, axis=0)
    offsets = ring_bias_profile(n, q.bias_amp, q.bias_amp2)
    tasks = QuadraticTasks.from_optima(curvature, np.repeat(offsets[:, None], q.dim, axis=1))
    # Summed agent by agent: np.sum's pairwise order can move the last bits.
    global_opt = -sum(tasks.lin_terms) / sum(tasks.curvature)

    rows = 1 if config.strategy == "fedavg" else n
    inits = np.repeat(q.far_start + init_rng.uniform(-0.5, 0.5, (rows, q.dim)), n // rows, axis=0)
    monitor = ConvergenceMonitor(global_opt)
    params = ContractionParams(
        p_lower=tasks.curvature.min(axis=1),
        p_upper=tasks.curvature.max(axis=1),
        xi=np.full(n, config.noise.xi),
        step_sizes=np.full(n, config.gamma),
        alpha=config.alpha,
    )
    return tasks, inits, monitor, params


def average_monitor(monitors: Sequence[ConvergenceMonitor]) -> ConvergenceMonitor:
    """Agent-wise mean of repeated runs, as a monitor over the same optimum."""
    if not monitors:
        raise ValueError("nothing to average")
    out = ConvergenceMonitor(monitors[0].optimum)
    stacked = np.stack([m.theta_errors for m in monitors])
    out.theta_sq = [row for row in stacked.mean(axis=0)]
    return out


@dataclass
class _ForecastSetup:
    tasks: NetworkTasks
    inits: np.ndarray
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
    splits = window_dataset(np.array([profiles[h].series for h in picked]), lookback, horizon)
    for name, (x, _) in splits.items():
        if x.shape[1] == 0:
            raise ConfigError(
                f"config.model.lookback: {lookback} leaves no {name} windows over "
                f"data.days {d.days}; lower model.lookback or raise data.days"
            )

    # The task set views the stacked train split; the centralized agent
    # pools every household's windows.
    train_x, train_y = splits["train"]
    if config.strategy == "centralized":
        pooled = (train_x.reshape(1, -1, lookback), train_y.reshape(1, -1, horizon))
        tasks = NetworkTasks(model, *pooled)
    else:
        tasks = NetworkTasks(model, train_x, train_y)
    n = len(tasks.x)
    if config.strategy == "fedavg":
        inits = np.repeat(model.init_params(rngs["init"])[None], n, axis=0)
    else:
        inits = np.array([model.init_params(rngs["init"]) for _ in range(n)])
    return _ForecastSetup(tasks=tasks, inits=inits, splits=splits, households=picked)


def _forecast_mse(setup: _ForecastSetup, which: str, thetas: np.ndarray) -> float:
    """Mean over households of each agent's loss on its own split, from
    one stacked forward pass of the (agents, d) weights ``thetas``.

    The centralized baseline's single row is broadcast over every
    household's split, so the number is comparable across strategies.
    """
    x, y = setup.splits[which]
    diff = setup.tasks.model.forward(thetas, x) - y
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
            tasks, inits, monitor, params = build_quadratic_setup(config, rngs["init"])
            bound = lr_bound(params.p_upper.max())
            if config.gamma > bound and not config.allow_unstable:
                raise ConfigError(
                    f"gamma {config.gamma} exceeds the stability bound {bound}; "
                    "pass --allow-unstable to run anyway"
                )
        else:
            setup = _build_forecast_setup(config, rngs)
            tasks, inits = setup.tasks, setup.inits

        schedule = build_schedule(config, rngs["schedule"])
    except ValueError as exc:
        raise ConfigError(f"config: {exc}") from exc

    rows: list[dict] = []
    # A previous run's report set goes first, so that this run's outputs
    # never sit beside another run's, also when this one aborts. Secure
    # runs stream the transcript: each completed round's entries are
    # appended to transcript.jsonl and then dropped, so memory stays flat.
    transcript_path = None
    out = None if out_dir is None else Path(out_dir)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        for stale in ("report.jsonl", "summary.csv", "config.echo", "transcript.jsonl"):
            (out / stale).unlink(missing_ok=True)
        if secure is not None and config.secure.record_transcript:
            transcript_path = out / "transcript.jsonl"
            transcript_path.write_text("")

    # Learn-first strategies whose agents train on their own household
    # start each round's learn stage from the weights the last round ended
    # with, so round k + 1's first-step losses are row k's train_mse; the
    # last row takes the summary's.
    train_from_learn = setup is not None and config.strategy not in ("ctl", "centralized")

    def on_round(k, thetas, phis, row, losses):
        if secure is not None:
            if transcript_path is not None:
                write_transcript(transcript_path, secure.transcript)
            secure.transcript.entries.clear()
        edges, active, messages, nbytes = row.tolist()
        rec = {
            "type": "round",
            "round": k,
            "edges": edges,
            "active": active,
            "messages": messages,
            "bytes": nbytes,
            "disagreement": max_disagreement(thetas),
        }
        if monitor is not None:
            rec["worst_mse"] = float(monitor.theta_sq[-1].max())
        if setup is not None:
            if train_from_learn:
                if rows:
                    rows[-1]["train_mse"] = float(np.mean(losses))
                rec["train_mse"] = None
            else:
                rec["train_mse"] = _forecast_mse(setup, "train", thetas)
            rec["val_mse"] = _forecast_mse(setup, "val", thetas)
        rows.append(rec)

    run = run_training(
        tasks,
        schedule,
        inits=inits,
        gamma=config.gamma,
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

    m = run.metrics
    summary = {
        "strategy": config.strategy,
        "task": config.task,
        "rounds_completed": run.rounds_completed,
        "terminated_early": run.terminated_early,
        "diverged": run.diverged,
        "total_messages": int(m.messages.sum()),
        "total_bytes": int(m.bytes.sum()),
        "mean_edges": float(m.edge_count.mean()) if len(m) else 0.0,
    }
    if monitor is not None:
        summary["final_worst_mse"] = float(monitor.worst_mse[-1])
    if setup is not None:
        thetas = np.array([a.theta for a in run.agents])
        for name in setup.splits:
            kept = rows[-1].get(f"{name}_mse") if rows else None  # the final weights' row
            summary[f"{name}_mse"] = _forecast_mse(setup, name, thetas) if kept is None else kept
        summary["households"] = setup.households
        if train_from_learn and rows:
            rows[-1]["train_mse"] = summary["train_mse"]

    records = [{"type": "config", "config": config.to_dict()}, *rows]
    records.append({"type": "summary", **summary})

    paths: dict[str, Path] = {}
    if out is not None:
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


# The agent-count scaling sweep. Its task family puts every agent's
# optimum on a small two-harmonic ring profile and starts all weights far
# from the origin. On the static ring the heterogeneity leaves per-agent
# steady-state offsets that grow with n, so rounds-to-tolerance scales
# near-linearly; the complete graph and the switching subsets average the
# offsets away. The constants were fixed by running the sweep and checking
# margins; a run that misses the tolerance counts as `rounds`.
SWEEP_BASE = ExperimentConfig(
    rounds=600,
    gamma=0.08,
    tolerance=1e-6,
    quadratic=QuadraticConfig(
        curv_low=1.0, curv_high=1.0, bias_amp=-4.7e-4, bias_amp2=2.35e-4, far_start=1000.0
    ),
)
SWEEP_SIZES = (5, 10, 20, 40)
SWEEP_STRATEGIES = ("dring", "dfc", "dms")


@dataclass
class SweepResult:
    rounds: dict[str, dict[int, int]]

    def fit(self, strategy: str) -> tuple[float, float, float]:
        table = self.rounds[strategy]
        sizes = sorted(table)
        return linear_fit(sizes, [table[n] for n in sizes])


def run_scaling_sweep(seed: int = 1) -> SweepResult:
    """Rounds-to-tolerance for each strategy and agent count; each run
    draws its streams from ``SeedSequence([seed, strategy index, n])``."""
    rounds: dict[str, dict[int, int]] = {name: {} for name in SWEEP_STRATEGIES}
    for strat_idx, strategy in enumerate(SWEEP_STRATEGIES):
        for n in SWEEP_SIZES:
            config = SWEEP_BASE.replace(strategy=strategy, agent_count=n)
            streams = seed_streams(np.random.SeedSequence([seed, strat_idx, n]))
            tasks, inits, monitor, _ = build_quadratic_setup(config, streams["init"])
            run = run_training(
                tasks,
                build_schedule(config, streams["schedule"]),
                inits=inits,
                gamma=config.gamma,
                strategy=strategy,
                rounds=config.rounds,
                monitor=monitor,
                tolerance=config.tolerance,
            )
            rounds[strategy][n] = run.rounds_completed if run.terminated_early else config.rounds
    return SweepResult(rounds=rounds)


def forecast_comparison(
    base: ExperimentConfig, out_dir: str | Path | None = None
) -> dict[str, ExperimentResult]:
    """Run the forecast task under dms, fedavg, dring, dfc and centralized
    with one seed.

    All runs share the data stream, so every strategy trains and evaluates on identical
    households and splits. Each run but dms resets to its default every key that the dms
    run reads and it does not (see :data:`~dmslearn.config.READ_BY`). The centralized run
    trains one agent, so at most one of the base's attackers lies there, and it runs
    plaintext with the default ``secure`` section: one agent has no peer to hide its
    weights from. Every config is built before the first run, so a base that one of them
    rejects raises :class:`ConfigError` before any training.
    """
    strategies = ("dms", "fedavg", "dring", "dfc", "centralized")
    dms = unread_defaults("dms", "forecast").items()
    arms = {s: dict(unread_defaults(s, "forecast").items() - dms) for s in strategies}
    attack = base.attack and replace(base.attack, malicious=min(base.attack.malicious, 1))
    arms["centralized"].update(attack=attack, secure=SecureConfig())
    configs = {s: base.replace(strategy=s, task="forecast", **extra) for s, extra in arms.items()}
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
