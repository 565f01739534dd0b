"""End-to-end acceptance gate.

One test per advertised guarantee, each asserting the quantitative
thresholds (and, where stated, the runtime budget) that the package
commits to. Run with ``pytest -v tests/test_acceptance.py`` to get one
pass/fail line per guarantee.
"""

import itertools
import time

import numpy as np
import pytest

from dmslearn.config import ExperimentConfig, NoiseConfig, QuadraticConfig, parse_config
from dmslearn.consensus import (
    ConvergenceMonitor,
    contraction_check,
    run_training,
)
from dmslearn.experiment import (
    average_monitor,
    build_quadratic_setup,
    build_schedule,
    forecast_comparison,
    run_experiment,
    run_scaling_sweep,
    seed_streams,
)
from dmslearn.numerics import MlpModel, NoiseModel, QuadraticTasks
from dmslearn.secagg import (
    PRIME_128,
    PRIME_TEST_31,
    FixedPointCodec,
    SecAggSession,
    SecretShare,
    ShareCountError,
    SharingParams,
    detect_tampering,
    reconstruct,
    secure_aggregate,
    share,
)
from dmslearn.threats import dlg_compare_topologies, run_poisoning_experiment
from dmslearn.topology import Graph, make_static_schedule, make_topology, mixing_matrix

from oracles import fd_gradient


def field_element(rng: np.random.Generator, prime: int = PRIME_128) -> int:
    return int.from_bytes(rng.bytes(16), "big") % prime


def contraction_setup(seed: int, xi: float):
    """10 agents on the complete graph, per-agent curvatures [1, 2],
    step size at half the stability bound."""
    streams = seed_streams(seed)
    config = ExperimentConfig(
        strategy="dfc",
        agent_count=10,
        gamma=0.5,
        noise=NoiseConfig(xi),
        quadratic=QuadraticConfig(far_start=1.0),
    )
    tasks, inits, monitor, params = build_quadratic_setup(config, streams["init"])
    schedule = build_schedule(config, streams["schedule"])
    return streams, dict(inits=inits, gamma=config.gamma), tasks, monitor, params, schedule


def test_criterion_01_contraction_convergence():
    t0 = time.monotonic()
    _, start, tasks, monitor, params, schedule = contraction_setup(0, xi=0.0)
    run = run_training(
        tasks,
        schedule,
        **start,
        strategy="dfc",
        rounds=2000,
        monitor=monitor,
        tolerance=1e-10,
    )
    assert run.terminated_early and not run.diverged
    assert run.rounds_to_tolerance <= 2000
    assert monitor.worst_mse[-1] < 1e-10

    report = contraction_check(
        monitor, params, mixing_matrix(make_topology("complete", 10)), noise_free=True
    )
    assert report.stable
    assert report.empirical_slope is not None
    assert report.empirical_slope <= np.log(report.contraction) + 0.01
    assert report.slope_within_rate

    # 1.5x the stability bound on a single 1-D agent must be caught.
    blown = run_training(
        QuadraticTasks.from_optima(np.array([[2.0]]), np.zeros((1, 1))),
        make_static_schedule(Graph(1, frozenset())),
        inits=[[1.0]],
        gamma=1.5,
        strategy="dms",
        rounds=2000,
        monitor=ConvergenceMonitor(np.zeros(1)),
    )
    assert blown.diverged
    assert time.monotonic() - t0 < 10.0


def test_criterion_02_noise_floor():
    t0 = time.monotonic()
    monitors = []
    params = None
    for seed in range(20):
        streams, start, tasks, monitor, params, schedule = contraction_setup(seed, xi=0.1)
        run_training(
            tasks,
            schedule,
            **start,
            strategy="dfc",
            rounds=300,
            noise=NoiseModel(0.1),
            noise_rng=streams["noise"],
            monitor=monitor,
        )
        monitors.append(monitor)
    averaged = average_monitor(monitors)
    report = contraction_check(
        averaged, params, mixing_matrix(make_topology("complete", 10)), noise_free=False
    )
    assert report.limit_bound == pytest.approx(0.01)
    assert report.tail_within_bound
    tail = averaged.worst_mse[-60:].mean()
    assert tail <= 1.5 * 0.01
    assert time.monotonic() - t0 < 60.0


def test_criterion_03_secure_sum_correctness():
    t0 = time.monotonic()
    grid = ((3, 1), (4, 1), (5, 2))
    codec = FixedPointCodec()
    rng = np.random.default_rng(0)
    for trial in range(1000):
        parties, degree = grid[trial % 3]
        params = SharingParams(parties, degree, PRIME_128)

        vectors = [
            rng.integers(-(2**12), 2**12, size=4).astype(float) / codec.scale
            for _ in range(3)
        ]
        session = SecAggSession(
            params=params,
            contributors=(0, 1, 2),
            parties=tuple(range(100, 100 + parties)),
            recipients=(0,),
        )
        out = secure_aggregate(vectors, session, codec, rng)
        assert np.array_equal(out, vectors[0] + vectors[1] + vectors[2])

        secret = field_element(rng)
        shares = share(secret, params, rng)
        for combo in itertools.combinations(shares, params.threshold):
            assert reconstruct(list(combo), params) == secret
        with pytest.raises(ShareCountError):
            reconstruct(shares[: params.threshold - 1], params)
    assert time.monotonic() - t0 < 30.0


def test_criterion_04_threshold_privacy():
    p = PRIME_TEST_31
    params = SharingParams(3, 1, p)
    for party in range(3):
        tables = []
        for secret in range(p):
            counts = np.zeros(p, dtype=int)
            for coeff in range(p):
                s = share(secret, params, coefficients=(coeff,))[party]
                counts[s.value] += 1
            tables.append(counts)
        reference = tables[0]
        assert np.all(reference == 1)  # exactly uniform over the field
        for counts in tables[1:]:
            tv = 0.5 * np.abs(counts / p - reference / p).sum()
            assert tv == 0.0


def test_criterion_05_tamper_detection():
    rng = np.random.default_rng(1)
    grid = ((4, 1), (5, 2), (6, 2), (7, 3))  # all have parties >= degree + 2
    flagged = 0
    for trial in range(1000):
        parties, degree = grid[trial % len(grid)]
        params = SharingParams(parties, degree, PRIME_128)
        secret = field_element(rng)
        shares = share(secret, params, rng)
        pos = int(rng.integers(parties))
        delta = 1 + field_element(rng, PRIME_128 - 1)
        shares[pos] = SecretShare(shares[pos].index, (shares[pos].value + delta) % PRIME_128)
        flagged += detect_tampering(shares, params)
    assert flagged == 1000


def test_criterion_06_edge_reduction():
    n, rounds = 30, 1000
    complete_edges = n * (n - 1) // 2  # 435
    tasks = QuadraticTasks.from_optima(np.ones((n, 1)), np.zeros((n, 1)))
    schedule = build_schedule(ExperimentConfig(agent_count=n), np.random.default_rng(0))
    run = run_training(
        tasks, schedule, inits=np.ones((n, 1)), gamma=0.1, strategy="dms", rounds=rounds
    )
    edges, messages = run.metrics.edge_count, run.metrics.messages
    assert run.rounds_completed == rounds
    assert 0.45 * complete_edges <= edges.mean() <= 0.55 * complete_edges
    assert messages.sum() == 2 * edges.sum()


def test_criterion_07_scaling_trend():
    t0 = time.monotonic()
    result = run_scaling_sweep()
    sizes = sorted(result.rounds["dring"])

    ring = [result.rounds["dring"][n] for n in sizes]
    assert all(b > a for a, b in zip(ring, ring[1:]))
    _, _, r2 = result.fit("dring")
    assert r2 > 0.9

    for n in sizes:
        assert result.rounds["dms"][n] <= 1.5 * result.rounds["dfc"][n]
    assert time.monotonic() - t0 < 300.0


def test_criterion_08_poisoning_ordering():
    t0 = time.monotonic()
    outcome = run_poisoning_experiment(list(range(10)))
    assert outcome.dms_median < outcome.fedavg_median
    assert np.all(outcome.dms_inflation > 1.0)
    assert time.monotonic() - t0 < 300.0


def test_criterion_09_reconstruction_ordering():
    t0 = time.monotonic()
    reports = [dlg_compare_topologies(seed) for seed in range(10)]
    fedavg_hits = sum(r.fedavg_input_mse < 1e-3 for r in reports)
    dms_worse = sum(r.dms_input_mse > r.fedavg_input_mse for r in reports)
    assert fedavg_hits >= 8
    assert dms_worse >= 9
    assert all(r.transcript_clean is True for r in reports)
    assert time.monotonic() - t0 < 180.0


def test_criterion_10_gradient_correctness():
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        in_dim = int(rng.integers(1, 6))
        hidden = int(rng.integers(1, 7))
        out_dim = int(rng.integers(1, 4))
        model = MlpModel(in_dim, hidden, out_dim)
        theta = model.init_params(rng)
        x = rng.standard_normal((5, in_dim))
        y = rng.standard_normal((5, out_dim))
        _, grad = model.loss_and_gradient(theta, x, y)
        ref = fd_gradient(lambda t: model.loss_and_gradient(t, x, y)[0], theta)
        scale = max(1.0, float(np.max(np.abs(ref))))
        worst = max(worst, float(np.max(np.abs(grad - ref))) / scale)
    assert worst < 1e-5


def test_criterion_11_determinism(tmp_path):
    config = parse_config(
        {
            "strategy": "dfc",
            "task": "quadratic",
            "agent_count": 6,
            "rounds": 20,
            "seed": 3,
            "gamma": 0.1,
            "noise": {"xi": 0.05},
            "secure": {"enabled": True},
            "quadratic": {"far_start": 1.0, "bias_amp": 0.01},
        }
    )
    run_experiment(config, tmp_path / "a")
    run_experiment(config, tmp_path / "b")
    for name in ("report.jsonl", "config.echo", "summary.csv", "transcript.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_criterion_12_forecast_parity():
    base = parse_config(
        {
            "strategy": "dms",
            "task": "forecast",
            "seed": 0,
            "gamma": 0.05,
            "rounds": 300,
            "data": {"households": 100, "days": 10, "clusters": 3, "pick": 30},
        }
    )
    results = forecast_comparison(base)
    centralized = results["centralized"].summary["test_mse"]
    others = {
        name: results[name].summary["test_mse"]
        for name in ("dms", "fedavg", "dring", "dfc")
    }
    for mse in others.values():
        assert abs(mse / centralized - 1.0) <= 0.25
    assert others["dms"] <= max(others[name] for name in ("fedavg", "dring", "dfc"))
