"""Steadiness check: two independent sets of runs of the same commit.

    python3 perfbench/steady.py

Each set runs every workload of BENCHMARK.json ten times, one process at a time,
interleaving the workloads and giving each run its own seed (the sets
use disjoint seeds). For every workload and end-to-end metric it prints
both medians, each set's spread (quartile distance over the median) and
whether the second median is within the metric's bound of the first;
the spreads must stay within the bounds too, except that of setup_s. The
figures are also written to perfbench/out/steady.json. Exits 1 when a
check fails.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUNS = 10  # runs per workload and set


def run_once(workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    workloads = [w["name"] for w in BENCH["workloads"]]
    sets = []
    for first_seed in (1, 1 + RUNS):
        results: dict[str, list[dict]] = {w: [] for w in workloads}
        for seed in range(first_seed, first_seed + RUNS):
            for w in workloads:
                t0 = time.perf_counter()
                results[w].append(run_once(w, seed))
                took = time.perf_counter() - t0
                print(f"seed {seed} {w} ({took:.1f} s): {json.dumps(results[w][-1])}", flush=True)
        sets.append(results)

    ok = True
    rows = []
    for w in workloads:
        shares = []
        for results in sets:
            if not all(r["correct"] for r in results[w]):
                ok = False
                print(f"{w}: a run failed its output checks")
            shares.append(sum(r["failed"] for r in results[w]) / sum(r["attempted"] for r in results[w]))
        if shares[0] != shares[1]:
            ok = False
            print(f"{w}: failed share {shares[0]} in set 1, {shares[1]} in set 2")
        for m in BENCH["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in results[w]] for results in sets]
            med = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            worse = (med[1] - med[0]) / med[0]
            if m["better"] == "higher":
                worse = -worse
            fine = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            ok &= fine
            rows.append({"workload": w, "metric": name, "medians": med, "spreads": spreads,
                         "worse": worse, "bound": bound, "ok": fine, "values": vals})

    print("| workload | metric | median 1 | median 2 | spread 1 | spread 2 | 2 worse by | bound | ok |")
    print("|---|---|---|---|---|---|---|---|---|")
    for r in rows:
        print(f"| {r['workload']} | {r['metric']} | {r['medians'][0]:.5g} | {r['medians'][1]:.5g} "
              f"| {r['spreads'][0]:.1%} | {r['spreads'][1]:.1%} | {r['worse']:+.1%} | {r['bound']:.0%} "
              f"| {'yes' if r['ok'] else 'NO'} |")
    out = HERE / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(rows, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
