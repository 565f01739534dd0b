"""Command line front end.

Exit codes: 0 success, 2 bad configuration, 3 secure-aggregation abort,
4 divergence detected. Output directory resolution: ``--out`` flag, then
the ``DMSLEARN_OUT`` environment variable, then ``./out/<command>``.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .consensus import RoundFailure
from .data import ARCHETYPES, gen_synthetic_load, household_features, kmeans
from .experiment import (
    SweepSettings,
    emit_tables,
    forecast_comparison,
    run_experiment,
    run_scaling_sweep,
)
from .reports import write_report, write_summary_csv
from .secagg import (
    FixedPointCodec,
    SecAggError,
    SecAggSession,
    SharingParams,
    Transcript,
    secure_aggregate,
)
from .threats import dlg_compare_topologies, run_poisoning_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SECAGG = 3
EXIT_DIVERGED = 4

POISON_AGENTS = 30  # agents in the poisoning study; caps --malicious


def _bounded(convert, low, high=math.inf):
    """An argparse type: ``convert`` the flag and reject values outside
    [low, high] or not finite, so a bad flag exits 2 before any work."""

    def parse(text: str):
        value = convert(text)
        if not (low <= value <= high and math.isfinite(value)):
            raise argparse.ArgumentTypeError(f"must be finite and in [{low}, {high}], got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return parse


def _out_dir(args, command: str) -> Path:
    if args.out is not None:
        return Path(args.out)
    env = os.environ.get("DMSLEARN_OUT")
    if env:
        return Path(env) / command
    return Path("out") / command


def _load_config(args):
    """The ``--config`` file, with the seed ``--seed`` gives, if any."""
    config = load_config(args.config)
    return config if args.seed is None else config.replace(seed=args.seed)


def _cmd_run(args) -> int:
    try:
        config = _load_config(args)
        if args.allow_unstable:
            config = config.replace(allow_unstable=True)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out = _out_dir(args, "run")
    try:
        result = run_experiment(config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RoundFailure, SecAggError) as exc:
        print(f"secure aggregation abort: {exc}", file=sys.stderr)
        return EXIT_SECAGG

    s = result.summary
    print(
        f"{config.strategy}/{config.task}: rounds={s['rounds_completed']} "
        f"messages={s['total_messages']} report={result.paths.get('report')}"
    )
    if result.run.diverged:
        print("divergence detected", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_compare(args) -> int:
    out = _out_dir(args, "compare")
    try:
        base = _load_config(args)
        results = forecast_comparison(base, out_dir=out)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RoundFailure, SecAggError) as exc:
        print(f"secure aggregation abort: {exc}", file=sys.stderr)
        return EXIT_SECAGG
    paths = emit_tables(results, out)

    print(f"{'strategy':<12} {'train':>10} {'val':>10} {'test':>10} {'messages':>12}")
    for name, res in results.items():
        s = res.summary
        print(
            f"{name:<12} {s['train_mse']:>10.5f} {s['val_mse']:>10.5f} "
            f"{s['test_mse']:>10.5f} {s['total_messages']:>12}"
        )
    for label, path in paths.items():
        print(f"{label}: {path}")
    diverged = [name for name, res in results.items() if res.run.diverged]
    if diverged:
        print(f"divergence detected: {', '.join(diverged)}", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


def _cmd_sweep(args) -> int:
    settings = SweepSettings()
    if args.seed is not None:
        settings = dataclasses.replace(settings, seed=args.seed)
    result = run_scaling_sweep(settings)
    out = _out_dir(args, "sweep")
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        {"strategy": strategy, "agents": n, "rounds": r}
        for strategy, table in result.rounds.items()
        for n, r in sorted(table.items())
    ]
    write_summary_csv(out / "sweep.csv", rows, ["strategy", "agents", "rounds"])
    print("agents " + " ".join(f"{s:>8}" for s in settings.strategies))
    for n in sorted(settings.sizes):
        row = " ".join(f"{result.rounds[s][n]:>8}" for s in settings.strategies)
        print(f"{n:>6} {row}")
    for strategy in settings.strategies:
        slope, intercept, r2 = result.fit(strategy)
        print(f"{strategy}: slope={slope:.3f} intercept={intercept:.1f} r2={r2:.4f}")
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    out = _out_dir(args, "attack")
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(range(args.seed or 0, (args.seed or 0) + args.seeds))
    if args.kind == "poison":
        outcome = run_poisoning_experiment(
            seeds, agent_count=POISON_AGENTS, malicious_count=args.malicious, epsilon=args.epsilon
        )
        rows = [
            {
                "type": "poison",
                "seed": s,
                "dms_inflation": outcome.dms_inflation[i],
                "fedavg_inflation": outcome.fedavg_inflation[i],
            }
            for i, s in enumerate(outcome.seeds)
        ]
        rows.append(
            {
                "type": "summary",
                "dms_median": outcome.dms_median,
                "fedavg_median": outcome.fedavg_median,
            }
        )
        write_report(out / "poison.jsonl", rows)
        print("poisoning inflation (poisoned tail error / clean tail error)")
        print(f"{'seed':>4} {'dms':>10} {'fedavg':>10}")
        for i, s in enumerate(outcome.seeds):
            print(
                f"{s:>4} {outcome.dms_inflation[i]:>10.2f} "
                f"{outcome.fedavg_inflation[i]:>10.2f}"
            )
        print(
            f"poison: median inflation dms={outcome.dms_median:.2f} "
            f"fedavg={outcome.fedavg_median:.2f} ({len(seeds)} seeds)"
        )
        return EXIT_OK

    rows = []
    fed_hits = dms_worse = 0
    print("gradient reconstruction input MSE")
    print(f"{'seed':>4} {'fedavg':>12} {'dms':>12} {'clean':>6}")
    for s in seeds:
        rep = dlg_compare_topologies(s)
        print(
            f"{s:>4} {rep.fedavg_input_mse:>12.2e} "
            f"{rep.dms_input_mse:>12.2e} {str(rep.transcript_clean):>6}"
        )
        rows.append(
            {
                "type": "dlg",
                "seed": s,
                "fedavg_input_mse": rep.fedavg_input_mse,
                "dms_input_mse": rep.dms_input_mse,
                "aggregate_input_mse": rep.aggregate_input_mse,
                "transcript_clean": rep.transcript_clean,
            }
        )
        fed_hits += rep.fedavg_input_mse < 1e-3
        dms_worse += rep.dms_input_mse > rep.fedavg_input_mse
    write_report(out / "dlg.jsonl", rows)
    print(
        f"dlg: fedavg reconstruction under 1e-3 in {fed_hits}/{len(seeds)} seeds, "
        f"dms worse in {dms_worse}/{len(seeds)}"
    )
    return EXIT_OK


def _cmd_mpc_bench(args) -> int:
    out = _out_dir(args, "mpc-bench")
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(args.seed or 0)
    codec = FixedPointCodec()
    rows = []
    for parties, degree in [(3, 1), (4, 1), (5, 2), (7, 3)]:
        params = SharingParams(parties, degree)
        contributors = tuple(range(4))
        session = SecAggSession(
            params=params,
            contributors=contributors,
            parties=tuple(range(100, 100 + parties)),
            recipients=contributors,
            label=f"bench:{parties}:{degree}",
        )
        transcript = Transcript(record_payloads=False)
        vectors = [rng.uniform(-1, 1, args.dim) for _ in contributors]
        total = secure_aggregate(vectors, session, codec, rng, transcript=transcript)
        expect_msgs = len(contributors) * parties + parties * len(session.recipients)
        rows.append(
            {
                "parties": parties,
                "degree": degree,
                "contributors": len(contributors),
                "dim": args.dim,
                "messages": transcript.messages,
                "expected_messages": expect_msgs,
                "bytes": transcript.bytes,
                "sum_ok": bool(
                    np.allclose(total, np.sum(vectors, axis=0), atol=2 ** -10)
                ),
            }
        )
    write_summary_csv(
        out / "bench.csv",
        rows,
        [
            "parties",
            "degree",
            "contributors",
            "dim",
            "messages",
            "expected_messages",
            "bytes",
            "sum_ok",
        ],
    )
    for row in rows:
        print(
            f"parties={row['parties']} degree={row['degree']}: "
            f"messages={row['messages']} (expected {row['expected_messages']}) "
            f"bytes={row['bytes']} sum_ok={row['sum_ok']}"
        )
    return EXIT_OK


def _cmd_cluster(args) -> int:
    if args.clusters > args.households:
        print("config error: --clusters must not exceed --households", file=sys.stderr)
        return EXIT_CONFIG
    out = _out_dir(args, "cluster")
    out.mkdir(parents=True, exist_ok=True)
    profiles = gen_synthetic_load(args.households, args.days, args.seed or 0)
    feats = household_features(profiles)
    result = kmeans(feats, args.clusters, args.seed or 0)
    rows = [
        {
            "household": p.household,
            "archetype": p.archetype,
            "cluster": int(result.labels[p.household]),
        }
        for p in profiles
    ]
    write_summary_csv(out / "assignments.csv", rows, ["household", "archetype", "cluster"])
    counts = np.bincount(result.labels, minlength=args.clusters)
    print(
        f"clusters: sizes={counts.tolist()} inertia={result.inertia:.3f} "
        f"iterations={result.iterations} archetypes={[a.name for a in ARCHETYPES]}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmslearn",
        description="Decentralized learning over switching topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=_bounded(int, 0), default=None, help="override the seed")
        p.add_argument("--out", default=None, help="output directory")

    run_p = sub.add_parser("run", help="run one experiment from a config file")
    run_p.add_argument("--config", required=True, help="YAML config path")
    run_p.add_argument(
        "--allow-unstable",
        action="store_true",
        help="run even when the step size violates the stability bound",
    )
    common(run_p)
    run_p.set_defaults(func=_cmd_run)

    compare_p = sub.add_parser(
        "compare", help="forecast task under every strategy, error and traffic tables"
    )
    compare_p.add_argument("--config", required=True, help="YAML config path")
    common(compare_p)
    compare_p.set_defaults(func=_cmd_compare)

    sweep_p = sub.add_parser("sweep", help="agent-count scaling sweep")
    common(sweep_p)
    sweep_p.set_defaults(func=_cmd_sweep)

    attack_p = sub.add_parser("attack", help="poisoning or reconstruction attacks")
    attack_p.add_argument("--kind", choices=("poison", "dlg"), default="poison")
    attack_p.add_argument("--seeds", type=_bounded(int, 1), default=10, help="number of seeds")
    attack_p.add_argument("--epsilon", type=_bounded(float, 0.0), default=0.2)
    attack_p.add_argument("--malicious", type=_bounded(int, 0, POISON_AGENTS), default=3)
    common(attack_p)
    attack_p.set_defaults(func=_cmd_attack)

    bench_p = sub.add_parser("mpc-bench", help="secure aggregation cost grid")
    bench_p.add_argument("--dim", type=_bounded(int, 1), default=8)
    common(bench_p)
    bench_p.set_defaults(func=_cmd_mpc_bench)

    cluster_p = sub.add_parser("cluster", help="cluster synthetic households")
    cluster_p.add_argument("--households", type=_bounded(int, 1), default=100)
    cluster_p.add_argument("--days", type=_bounded(int, 1), default=10)
    cluster_p.add_argument("--clusters", type=_bounded(int, 1), default=3)
    common(cluster_p)
    cluster_p.set_defaults(func=_cmd_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
