"""Command line front end.

Exit codes: 0 success, 2 bad configuration or an output directory that
cannot be created, 3 secure-aggregation abort, 4 divergence detected,
for every subcommand. Output directory resolution: ``--out`` flag, then
the ``DMSLEARN_OUT`` environment variable, then ``./out/<command>``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config
from .consensus import RoundFailure
from .data import ARCHETYPES, gen_synthetic_load, household_features, kmeans
from .experiment import emit_tables, forecast_comparison, run_experiment, run_scaling_sweep
from .reports import write_report, write_summary_csv
from .secagg import SecAggError
from .threats import dlg_compare_topologies, run_poisoning_experiment

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SECAGG = 3
EXIT_DIVERGED = 4

POISON_AGENTS = 30  # agents in the poisoning study; caps --malicious
# Poisoning-study flag -> run_poisoning_experiment keyword, which holds the default.
POISON_FLAGS = {"epsilon": "epsilon", "malicious": "malicious_count"}


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


def _load_config(args, **fixed):
    """The ``--config`` file with the ``fixed`` keys, and the seed ``--seed`` gives, if any."""
    config = load_config(args.config, **fixed)
    return config if args.seed is None else config.replace(seed=args.seed)


def _cmd_run(args) -> int:
    config = _load_config(args)
    if args.allow_unstable:
        config = config.replace(allow_unstable=True)
    result = run_experiment(config, _out_dir(args, "run"))
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
    results = forecast_comparison(_load_config(args, task="forecast", strategy="dms"), out_dir=out)
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
    result = run_scaling_sweep() if args.seed is None else run_scaling_sweep(args.seed)
    out = _out_dir(args, "sweep")
    out.mkdir(parents=True, exist_ok=True)
    rows = [
        {"strategy": strategy, "agents": n, "rounds": r}
        for strategy, table in result.rounds.items()
        for n, r in sorted(table.items())
    ]
    write_summary_csv(out / "sweep.csv", rows, ["strategy", "agents", "rounds"])
    print("agents " + " ".join(f"{s:>8}" for s in result.rounds))
    for n in sorted(result.rounds["dms"]):
        row = " ".join(f"{table[n]:>8}" for table in result.rounds.values())
        print(f"{n:>6} {row}")
    for strategy in result.rounds:
        slope, intercept, r2 = result.fit(strategy)
        print(f"{strategy}: slope={slope:.3f} intercept={intercept:.1f} r2={r2:.4f}")
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    given = {flag: getattr(args, flag) for flag in POISON_FLAGS if getattr(args, flag) is not None}
    if args.kind == "dlg" and given:
        raise ConfigError(f"--kind dlg takes no {' or '.join('--' + flag for flag in given)}")
    out = _out_dir(args, "attack")
    out.mkdir(parents=True, exist_ok=True)
    seeds = list(range(args.seed or 0, (args.seed or 0) + args.seeds))
    if args.kind == "poison":
        options = {POISON_FLAGS[flag]: value for flag, value in given.items()}
        outcome = run_poisoning_experiment(seeds, agent_count=POISON_AGENTS, **options)
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
        if outcome.diverged:
            print("divergence detected", file=sys.stderr)
            return EXIT_DIVERGED
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


def _cmd_cluster(args) -> int:
    if args.clusters > args.households:
        raise ConfigError("--clusters must not exceed --households")
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
    attack_p.add_argument("--epsilon", type=_bounded(float, 0.0), default=None, help="poison only")
    attack_p.add_argument(
        "--malicious", type=_bounded(int, 0, POISON_AGENTS), default=None, help="poison only"
    )
    common(attack_p)
    attack_p.set_defaults(func=_cmd_attack)

    cluster_p = sub.add_parser("cluster", help="cluster synthetic households")
    cluster_p.add_argument("--households", type=_bounded(int, 1), default=100)
    cluster_p.add_argument("--days", type=_bounded(int, 1), default=10)
    cluster_p.add_argument("--clusters", type=_bounded(int, 1), default=3)
    common(cluster_p)
    cluster_p.set_defaults(func=_cmd_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RoundFailure, SecAggError) as exc:
        print(f"secure aggregation abort: {exc}", file=sys.stderr)
        return EXIT_SECAGG


if __name__ == "__main__":
    sys.exit(main())
