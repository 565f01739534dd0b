"""Self-tests of the benchmark's tracer and output checks.

    python3 perfbench/selftest.py

Uses small forecast configs, plus one poisoning seed at the workload's
settings (about 3 s). Exits 1 if any test fails.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
OUT = HERE / "out"

import numpy as np  # noqa: E402

from dmslearn import consensus, experiment, secagg  # noqa: E402
from dmslearn.config import parse_config  # noqa: E402
from dmslearn.experiment import run_experiment  # noqa: E402
from dmslearn.threats import run_poisoning_experiment  # noqa: E402
from layertrace import METHODS, ROOT_SPAN, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    POISON,
    check_experiment,
    check_poison_run,
    check_poison_seed,
)

SMALL = {
    "task": "forecast",
    "seed": 3,
    "rounds": 3,
    "data": {"households": 20, "days": 3, "pick": 6},
    "model": {"lookback": 8, "hidden": 3, "horizon": 1},
}
SECURE_DMS = {**SMALL, "secure": {"enabled": True}}
SECURE_FEDAVG = {**SMALL, "strategy": "fedavg", "secure": {"enabled": True}}


def weights(result):
    agents = result.run.agents
    return np.array([a.theta for a in agents]), np.array([a.phi for a in agents])


def off_by_one(out: Path, field: str) -> Path:
    """A copy of ``out`` whose first round record has ``field`` one higher."""
    bad = out / f"bad-{field}"
    shutil.copytree(out, bad, ignore=shutil.ignore_patterns("bad-*"))
    records = [json.loads(line) for line in (bad / "report.jsonl").read_text().splitlines()]
    next(r for r in records if r["type"] == "round")[field] += 1
    (bad / "report.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    return bad


def test_traced_run_restores_every_name_and_keeps_the_report(tmp: Path):
    config = parse_config(SECURE_DMS)
    run_experiment(config, tmp / "plain")
    originals = {
        **{(m, a): vars(m)[a] for m in (consensus, experiment, secagg) for a in vars(m)},
        **{(c, a): vars(c)[a] for c, a in METHODS.values()},
    }
    tracer = Tracer()
    with tracer.patched():
        t0 = time.perf_counter()
        tracer.wrap(ROOT_SPAN, run_experiment)(config, tmp / "traced")
        wall = time.perf_counter() - t0
    assert len(tracer.patched_names) > len(METHODS)
    assert tracer.unrestored() == []
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, attr
    plain = (tmp / "plain" / "report.jsonl").read_bytes()
    assert (tmp / "traced" / "report.jsonl").read_bytes() == plain
    totals, calls = tracer.self_times()
    for span in ("secagg.share", "secagg.reconstruct", "experiment.on_round", "data.generate"):
        assert calls[span] > 0, span
    assert tracer.check_spans(wall) == []
    # The span check can fail: a shorter outside wall time, or a span that ends before it starts.
    assert tracer.check_spans(0.5 * sum(totals.values()))
    name, start, end, parent = tracer.spans[-1]
    tracer.spans[-1] = (name, end, start, parent)
    assert tracer.check_spans(wall)


def test_forecast_checks_reject_planted_faults(tmp: Path):
    config = parse_config(SMALL)
    result = run_experiment(config, tmp)
    thetas, phis = weights(result)
    assert check_experiment(config, tmp, thetas, phis, beat_baseline=False) == []
    shifted = thetas.copy()
    shifted[2] += 1e-3
    assert check_experiment(config, tmp, shifted, phis, beat_baseline=False)
    bad = off_by_one(tmp, "messages")
    assert check_experiment(config, bad, thetas, phis, beat_baseline=False)


def planted_secure_faults(raw: dict, tmp: Path):
    config = parse_config(raw)
    result = run_experiment(config, tmp)
    thetas, phis = weights(result)
    assert check_experiment(config, tmp, thetas, phis, beat_baseline=False) == []
    shared = [i for i in range(len(thetas)) if not np.array_equal(thetas[i], phis[i])]
    shifted = thetas.copy()
    shifted[shared[0]] += 1e-3
    assert check_experiment(config, tmp, shifted, phis, beat_baseline=False)
    # Every member of the group shifted alike: the group holds but the mean is off.
    moved = thetas.copy()
    moved[shared] += 1e-3
    assert check_experiment(config, tmp, moved, phis, beat_baseline=False)
    for field in ("messages", "bytes"):
        bad = off_by_one(tmp, field)
        assert check_experiment(config, bad, thetas, phis, beat_baseline=False), field


def test_secure_dms_checks_reject_planted_faults(tmp: Path):
    planted_secure_faults(SECURE_DMS, tmp)


def test_secure_fedavg_checks_reject_planted_faults(tmp: Path):
    planted_secure_faults(SECURE_FEDAVG, tmp)


def test_poison_checks_reject_planted_faults(tmp: Path):
    outcome = run_poisoning_experiment([5], **POISON)
    dms, fed = float(outcome.dms_inflation[0]), float(outcome.fedavg_inflation[0])
    assert check_poison_seed(5, dms, fed) == []
    assert check_poison_seed(5, dms, fed * (1 + 1e-6))
    assert check_poison_seed(5, 0.99, fed)
    assert check_poison_run([dms], [fed]) == []
    assert check_poison_run([fed], [dms])


def main() -> int:
    OUT.mkdir(exist_ok=True)
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            try:
                fn(Path(tmp))
                print(f"ok    {name}")
            except Exception:
                failed += 1
                print(f"FAIL  {name}")
                traceback.print_exc()
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
