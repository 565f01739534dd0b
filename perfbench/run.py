"""Benchmark of dmslearn: four workloads, end-to-end metrics and a layer trace.

    python3 perfbench/run.py --workload forecast_dms --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in its own process, one after
another. With ``--trace 0`` the last line of standard output is a JSON
object holding the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of one traced call. See perfbench/README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: the program's matrices are too small to gain from more,
# and idle BLAS threads would only compete with the run for the two cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from layertrace import ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, program_seed  # noqa: E402

# Time spent on zero-round calls, as a share of the full calls' time, and
# the fewest zero-round calls in a run.
SETUP_SHARE = 0.1
MIN_SETUPS = 15
# Set-up call j gets program seed index SETUP_SEEDS + j % SETUP_SEEDS;
# full calls count up from 0.
SETUP_SEEDS = 5000


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Run:
    """Calls of one workload, with every output checked."""

    def __init__(self, workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.full_calls = 0
        self.setup_calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.out = OUT / workload.name

    def call(self, rounds: int | None = None, out: Path | None = None, wrap=None, index=None):
        """One checked entry-point call; returns (wall seconds, outcome).

        The i-th full call gets program seed ``program_seed(seed, i)``, and
        ``index=i`` gives its inputs again. Set-up calls (``rounds=0``) take
        seeds from a range of their own, so how many of them fit between
        the full calls leaves the full calls' inputs alone. Only the entry
        point is timed.
        """
        w = self.workload
        if rounds == 0:
            index = SETUP_SEEDS + self.setup_calls % SETUP_SEEDS
            self.setup_calls += 1
        elif index is None:
            index = self.full_calls
            self.full_calls += 1
        prepared = w.prepare(program_seed(self.seed, index), rounds)
        self.attempted += 1
        call = wrap(w.call) if wrap else w.call
        try:
            t0 = time.perf_counter()
            result = call(prepared, out)
            wall = time.perf_counter() - t0
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None, None
        if rounds == 0:
            self.problems += w.check_setup(prepared, result)
            return wall, None
        self.problems += w.check(prepared, result, out)
        return wall, w.outcome(result, out)

    def result(self, metrics: dict) -> dict:
        for p in self.problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def measure(run: Run, seconds: float) -> dict:
    """End-to-end metrics, with nothing patched during the timed calls."""
    w = run.workload
    start = time.perf_counter()
    run.call(rounds=0)  # warm-up: first-use costs a repeated run does not pay
    # Set-up calls go in batches between the full calls, so that both
    # sample the host over the whole run.
    setups, walls, outcomes = [], [], []

    def setup_batch(count: int = 0, seconds: float = 0.0) -> None:
        t0 = time.perf_counter()
        while count > 0 or time.perf_counter() - t0 < seconds:
            count -= 1
            wall, _ = run.call(rounds=0)
            if wall is not None:
                setups.append(wall)

    setup_batch(count=MIN_SETUPS)
    while True:
        wall, outcome = run.call(out=run.out)
        if wall is not None:
            walls.append(wall)
            outcomes.append(outcome)
        if time.perf_counter() - start >= seconds:
            break
        setup_batch(seconds=SETUP_SHARE * (wall or 0.0))
    setup = statistics.median(setups)
    rates = [w.rounds / (wall - setup) for wall in walls]
    run.problems += w.check_run(outcomes)
    messages = w.messages_per_round(program_seed(run.seed, 0), run.out)
    print(
        f"{w.name}: {len(setups)} set-up calls, median {setup * 1e3:.2f} ms; "
        f"{len(rates)} calls of {w.rounds} rounds, rounds/s {[round(r, 3) for r in rates]}"
    )
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "rounds_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        "messages_per_round": {"value": messages, "unit": "count"},
    }


def measure_traced(run: Run, seconds: float) -> dict:
    """Per-layer metrics of one traced call that repeats the first full call.

    Untraced calls of the same workload run before and after it, for half
    the run in all, and give the untraced wall time for the overhead.
    """
    start = time.perf_counter()
    run.call(rounds=0)  # warm-up, as in an untraced run
    walls, outcomes = [], []

    def untraced(until: float) -> None:
        while True:
            wall, outcome = run.call(out=run.out)
            if wall is not None:
                walls.append(wall)
                outcomes.append(outcome)
            if time.perf_counter() - start >= until:
                return

    untraced(seconds / 4)
    tracer = Tracer()
    with tracer.patched():
        traced_wall, traced = run.call(out=run.out / "traced", wrap=lambda f: tracer.wrap(ROOT_SPAN, f), index=0)
    untraced(seconds / 2)
    if not outcomes or traced != outcomes[0]:
        run.problems.append("traced call's outputs differ from the untraced call's")
    if tracer.unrestored():
        run.problems.append(f"names not restored after tracing: {tracer.unrestored()}")
    if traced_wall is not None:
        run.problems += tracer.check_spans(traced_wall)
    tracer.write(OUT / f"trace-{run.workload.name}-{run.seed}.json")
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = {"value": (traced_wall or 0.0) - statistics.median(walls), "unit": "s"}
    return metrics


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        res = json.loads(lines[-1])
        ok &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{name}.{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run = Run(WORKLOADS[args.workload], args.seed)
    metrics = measure_traced(run, args.seconds) if args.trace else measure(run, args.seconds)
    print(json.dumps(run.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
