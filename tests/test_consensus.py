import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dmslearn import consensus, experiment, threats
from dmslearn.config import ExperimentConfig, NoiseConfig, QuadraticConfig, SecureConfig
from dmslearn.consensus import (
    DIVERGENCE_CAP,
    ContractionParams,
    ConvergenceMonitor,
    RoundFailure,
    SecureSetup,
    contraction_check,
    lr_bound,
    max_disagreement,
    run_training,
)
from dmslearn.experiment import build_quadratic_setup, run_experiment, seed_streams
from dmslearn.numerics import MlpModel, NetworkTasks, NoiseModel, QuadraticTasks
from dmslearn.secagg import ContributorError, Transcript
from dmslearn.threats import PoisonPolicy
from dmslearn.topology import (
    Graph,
    MarkovSchedule,
    make_dms_schedule,
    make_static_schedule,
    make_subset_graph,
    make_topology,
    mixing_matrix,
    stationary_distribution,
)

from oracles import (
    OldTranscript,
    _per_agent_step,
    choice_step,
    make_agents,
    old_engine_rounds,
    old_poison_broadcast,
    old_record,
    old_run_diverged,
    pairwise_max_distance,
    per_agent_rounds,
    per_agent_tasks,
    summed_quadratic_optimum,
    traffic_record,
)


def quads(p, u=0.0, dim=1, n=1):
    """``n`` agents on curvature ``p`` in every coordinate with every
    coordinate of the minimizer at ``u``; ``p`` and ``u`` are one value or
    one per agent."""
    p, u = (np.broadcast_to(np.asarray(v, dtype=float), (n,)) for v in (p, u))
    return QuadraticTasks.from_optima(*(np.repeat(v[:, None], dim, axis=1) for v in (p, u)))


def complete_schedule(n):
    return make_static_schedule(make_topology("complete", n))


def test_single_agent_is_gradient_descent():
    tasks = quads(2.0, u=1.0)
    schedule = make_static_schedule(Graph(1, frozenset()))
    run = run_training(tasks, schedule, inits=[[5.0]], gamma=0.3, strategy="dms", rounds=10)
    theta = np.array([5.0])
    for _ in range(10):
        theta = _per_agent_step(per_agent_tasks(tasks)[0], theta, 0.3, None, None)[1]
    assert np.allclose(run.agents[0].theta, theta)


def test_centralized_label_is_single_node_descent():
    tasks = quads(3.0, u=-2.0)
    schedule = make_static_schedule(Graph(1, frozenset()))
    run = run_training(tasks, schedule, inits=[[0.0]], gamma=0.1, strategy="centralized", rounds=25)
    assert run.rounds_completed == 25
    theta = np.array([0.0])
    for _ in range(25):
        theta = _per_agent_step(per_agent_tasks(tasks)[0], theta, 0.1, None, None)[1]
    assert np.allclose(run.agents[0].theta, theta)


def test_identical_agents_agree_after_one_mix():
    # The complete graph averages everyone identically, so agents with the
    # same task collapse onto one trajectory after a single round.
    inits = [np.array([float(i)]) for i in range(4)]
    run = run_training(
        quads(1.0, n=4), complete_schedule(4), inits=inits, gamma=0.2, strategy="dfc", rounds=1
    )
    thetas = np.array([a.theta for a in run.agents])
    assert max_disagreement(thetas) == 0.0


def test_common_optimum_reached_learn_first():
    curvature = np.array([[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]])
    u = np.array([0.7, -1.3])
    tasks = QuadraticTasks.from_optima(curvature, [u] * 3)
    run = run_training(
        tasks, complete_schedule(3), inits=np.zeros((3, 2)), gamma=0.1, strategy="dfc", rounds=400
    )
    target = summed_quadratic_optimum([np.diag(c) for c in curvature], tasks.lin_terms)
    assert np.allclose(target, u)
    for agent in run.agents:
        assert np.linalg.norm(agent.theta - target) < 1e-6


def test_common_optimum_reached_mix_first():
    u = np.array([0.7, -1.3])
    tasks = QuadraticTasks.from_optima([[1.0, 2.0], [3.0, 1.0], [2.0, 2.0]], [u] * 3)
    learn_first, mix_first = (
        run_training(
            tasks, complete_schedule(3), inits=np.zeros((3, 2)), gamma=0.1, strategy=s, rounds=400
        )
        for s in ("dfc", "ctl")
    )
    for a, b in zip(learn_first.agents, mix_first.agents):
        assert np.linalg.norm(a.theta - u) < 1e-5
        assert np.linalg.norm(b.theta - u) < 1e-5
        assert np.linalg.norm(a.theta - b.theta) < 1e-5


def test_fedavg_identical_to_solo_descent():
    tasks = quads(2.0, u=3.0, n=4)
    run = run_training(
        tasks, None, inits=np.zeros((4, 1)), gamma=0.25, strategy="fedavg", rounds=12
    )
    theta = np.zeros(1)
    for _ in range(12):
        theta = _per_agent_step(per_agent_tasks(tasks)[0], theta, 0.25, None, None)[1]
    for agent in run.agents:
        assert np.allclose(agent.theta, theta)


def test_fedavg_agents_hold_exactly_the_server_mean():
    n, d = 7, 5
    rng = np.random.default_rng(4)
    tasks = QuadraticTasks.from_optima(np.ones((n, d)), rng.uniform(-1, 1, (n, d)))
    run = run_training(
        tasks, None, inits=np.full((n, d), 0.3), gamma=0.4, strategy="fedavg", rounds=1
    )
    uploads = np.array([a.phi for a in run.agents])
    for agent in run.agents:
        assert np.array_equal(agent.theta, uploads.mean(axis=0))


def test_fedavg_epochs_multiply_local_steps():
    tasks = quads(1.0, u=1.0)
    run = run_training(tasks, None, inits=[[0.0]], gamma=0.1, strategy="fedavg", rounds=2, epochs=3)
    theta = np.zeros(1)
    for _ in range(6):
        theta = _per_agent_step(per_agent_tasks(tasks)[0], theta, 0.1, None, None)[1]
    assert np.allclose(run.agents[0].theta, theta)


def test_fedavg_rejects_mismatched_inits():
    with pytest.raises(ValueError):
        run_training(
            quads(1.0, n=2), None, inits=[[0.0], [1.0]], gamma=0.1, strategy="fedavg", rounds=1
        )


def test_zero_round_budget_records_initial_state():
    monitor = ConvergenceMonitor(np.zeros(1))
    run = run_training(
        quads(1.0, n=2),
        complete_schedule(2),
        inits=np.ones((2, 1)),
        gamma=0.1,
        strategy="dfc",
        rounds=0,
        monitor=monitor,
    )
    assert run.rounds_completed == 0
    assert not run.terminated_early
    assert monitor.theta_errors.shape == (1, 2)


def test_tolerance_met_at_init_needs_no_rounds():
    monitor = ConvergenceMonitor(np.array([2.0]))
    run = run_training(
        quads(1.0, u=2.0),
        make_static_schedule(Graph(1, frozenset())),
        inits=[[2.0]],
        gamma=0.1,
        strategy="dms",
        rounds=50,
        monitor=monitor,
        tolerance=1e-10,
    )
    assert run.terminated_early
    assert run.rounds_completed == 0
    assert run.rounds_to_tolerance == 0


def test_tolerance_terminates_at_first_crossing():
    monitor = ConvergenceMonitor(np.zeros(1))
    run = run_training(
        quads(2.0),
        make_static_schedule(Graph(1, frozenset())),
        inits=[[1.0]],
        gamma=0.1,
        strategy="dms",
        rounds=500,
        monitor=monitor,
        tolerance=1e-8,
    )
    assert run.terminated_early
    k = run.rounds_to_tolerance
    assert monitor.worst_mse[k] < 1e-8
    assert monitor.worst_mse[k - 1] >= 1e-8


def test_tolerance_without_a_monitor_is_rejected():
    # The tolerance is measured against the monitor's optimum, so without
    # one it would have nothing to stop on.
    with pytest.raises(ValueError, match="monitor"):
        run_training(
            quads(2.0),
            make_static_schedule(Graph(1, frozenset())),
            inits=[[1.0]],
            gamma=0.1,
            strategy="dms",
            rounds=5,
            tolerance=1e-8,
        )


def test_divergence_is_flagged_and_stops_the_run():
    monitor = ConvergenceMonitor(np.zeros(1))
    run = run_training(
        quads(2.0),
        make_static_schedule(Graph(1, frozenset())),
        inits=[[1.0]],
        gamma=3.0,  # far past 2/p
        strategy="dms",
        rounds=10_000,
        monitor=monitor,
    )
    assert run.diverged
    assert run.rounds_completed < 10_000
    assert not run.terminated_early


def test_monitor_history_is_not_rebuilt_inside_the_loop(monkeypatch):
    reads = []
    rebuild = ConvergenceMonitor.theta_errors.fget
    monkeypatch.setattr(
        ConvergenceMonitor, "theta_errors", property(lambda m: reads.append(1) or rebuild(m))
    )
    run = run_training(
        quads(1.0, u=(-1.0, 0.0, 1.0), n=3),
        complete_schedule(3),
        inits=np.full((3, 1), 5.0),
        gamma=0.01,
        rounds=50,
        monitor=ConvergenceMonitor(np.zeros(1)),
        tolerance=1e-30,
    )
    assert run.rounds_completed == 50 and not run.terminated_early
    assert reads == []


@pytest.mark.parametrize("rounds, diverged", [(14, False), (20, True)])
def test_run_and_contraction_check_share_one_divergence_rule(rounds, diverged):
    # gamma = 1.5 on curvature 2 multiplies the error by -2 each step, so
    # the squared error grows 4x per round from 1: 4**14 ~ 2.7e8 stays
    # under the cap, 4**20 ~ 1.1e12 passes it in the last round.
    monitor = ConvergenceMonitor(np.zeros(1))
    run = run_training(
        quads(2.0),
        make_static_schedule(Graph(1, frozenset())),
        inits=[[1.0]],
        gamma=1.5,
        rounds=rounds,
        monitor=monitor,
    )
    assert run.rounds_completed == rounds
    assert (monitor.worst_mse[-1] > DIVERGENCE_CAP) == diverged
    params = ContractionParams(
        p_lower=np.array([2.0]),
        p_upper=np.array([2.0]),
        xi=np.zeros(1),
        step_sizes=np.array([1.5]),
    )
    report = contraction_check(monitor, params, np.eye(1), noise_free=True)
    assert run.diverged == report.diverged == diverged
    assert not report.stable


def test_contraction_check_rejects_a_monitor_with_no_rounds():
    # The message, not only the type: numpy's AxisError is a ValueError too.
    params = ContractionParams(
        p_lower=np.array([2.0]),
        p_upper=np.array([2.0]),
        xi=np.zeros(1),
        step_sizes=np.array([1.0]),
    )
    with pytest.raises(ValueError, match="^monitor holds no rounds$"):
        contraction_check(ConvergenceMonitor(np.zeros(1)), params, np.eye(1), noise_free=True)


def test_monitor_record_returns_the_stored_rows_maximum():
    monitor = ConvergenceMonitor(np.array([1.0, 0.0]))
    worst = monitor.record(np.array([[1.0, 2.0], [4.0, 0.0], [0.0, 0.0]]))
    assert worst == 9.0 == monitor.theta_errors[-1].max()
    assert monitor.record(np.array([[1.0, 0.0]] * 3)) == 0.0
    assert monitor.worst_mse.tolist() == [9.0, 0.0]


SPECIAL = st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e12, 1e300, -1e300])
INT64 = st.integers(-(2**63), 2**63 - 1)


@st.composite
def record_inputs(draw):
    """An optimum and weights as a float array, an int64 array, or a list of
    floats or of ints. A list of ints past int64 is out: numpy holds it as
    objects, which the old body cast to float first."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    optimum = draw(st.lists(st.floats(width=64) | SPECIAL, min_size=d, max_size=d))
    kind = draw(st.sampled_from(["array", "int64", "float list", "int list"]))
    cell = INT64 if kind in ("int64", "int list") else st.floats(width=64) | SPECIAL
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=n, max_size=n))
    thetas = rows if kind.endswith("list") else np.array(rows, np.int64 if kind == "int64" else float)
    return optimum, thetas


@given(record_inputs())
@settings(max_examples=300, deadline=None)
def test_monitor_record_matches_the_old_body_bit_for_bit(inputs):
    optimum, thetas = inputs
    new, old = ConvergenceMonitor(optimum), ConvergenceMonitor(optimum)
    with np.errstate(all="ignore"):
        worst, old_worst = new.record(thetas), old_record(old, thetas)
    [row], [old_row] = new.theta_sq, old.theta_sq
    assert row.dtype == old_row.dtype == np.float64
    assert row.tobytes() == old_row.tobytes()
    assert np.float64(worst).tobytes() == np.float64(old_worst).tobytes()


# Within this of the origin an optimum leaves every weight past the cap
# more than 1e6 away, so its squared error passes the cap too.
NEAR = DIVERGENCE_CAP - 1e6
WEIGHT = st.floats(-2e12, 2e12) | st.sampled_from(
    [np.nan, np.inf, -np.inf, 1e300, -1e300, np.nextafter(DIVERGENCE_CAP, np.inf), -DIVERGENCE_CAP]
)


@given(
    st.lists(st.floats(-NEAR, NEAR) | st.sampled_from([NEAR, -NEAR]), min_size=1, max_size=3),
    st.data(),
)
@settings(max_examples=300, deadline=None)
def test_one_divergence_value_flags_what_the_two_tests_did(optimum, data):
    assume(np.linalg.norm(optimum) <= NEAR)
    d, n = len(optimum), data.draw(st.integers(1, 4))
    rows = st.lists(st.lists(WEIGHT, min_size=d, max_size=d), min_size=n, max_size=n)
    thetas = np.array(data.draw(rows))
    with np.errstate(all="ignore"):
        worst = ConvergenceMonitor(optimum).record(thetas)
    assert consensus._diverged(worst) == old_run_diverged(thetas, worst)
    assert consensus._diverged(thetas) == old_run_diverged(thetas, None)


def test_divergence_reads_the_error_alone_with_a_monitor_far_from_the_origin():
    # An agent resting at an optimum of 2e12 has weights past the cap and
    # no error: the two old tests flagged the run, the one error test does not.
    far = 2 * DIVERGENCE_CAP
    assert old_run_diverged(np.array([[far]]), 0.0)
    runs = [
        run_training(
            quads(1.0, u=far),
            make_static_schedule(Graph(1, frozenset())),
            inits=[[far]],
            gamma=0.5,
            rounds=3,
            monitor=monitor,
        )
        for monitor in (ConvergenceMonitor(np.array([far])), None)
    ]
    assert [run.diverged for run in runs] == [False, True]
    assert [run.rounds_completed for run in runs] == [3, 1]


def test_lr_bound_values():
    assert lr_bound(4.0) == pytest.approx(0.5)
    assert lr_bound(2.0) == pytest.approx(1.0)
    assert lr_bound(1e6) == pytest.approx(2e-6)
    assert np.allclose(lr_bound(np.array([1.0, 0.5])), [2.0, 4.0])
    with pytest.raises(ValueError):
        lr_bound(0.0)


def test_lambda_bar_closed_form():
    params = ContractionParams(
        p_lower=np.ones(3),
        p_upper=np.full(3, 4.0),
        xi=np.zeros(3),
        step_sizes=np.full(3, 0.4),
    )
    assert np.allclose(params.lambda_bar, 0.36)
    assert params.step_size_ok
    tight = ContractionParams(
        p_lower=np.ones(3),
        p_upper=np.full(3, 4.0),
        xi=np.zeros(3),
        step_sizes=np.full(3, 0.5),
    )
    assert np.allclose(tight.lambda_bar, 1.0)
    assert tight.step_size_ok
    over = ContractionParams(
        p_lower=np.ones(3),
        p_upper=np.full(3, 4.0),
        xi=np.zeros(3),
        step_sizes=np.full(3, 0.6),
    )
    assert not over.step_size_ok


def test_boundary_step_oscillates_without_divergence():
    # gamma = 2/p flips the error sign each step and keeps its magnitude;
    # the checker must call this stable-but-not-converging, not divergent.
    monitor = ConvergenceMonitor(np.zeros(1))
    run_training(
        quads(2.0),
        make_static_schedule(Graph(1, frozenset())),
        inits=[[1.0]],
        gamma=1.0,
        strategy="dms",
        rounds=40,
        monitor=monitor,
    )
    assert np.allclose(monitor.worst_mse, 1.0)
    params = ContractionParams(
        p_lower=np.array([2.0]),
        p_upper=np.array([2.0]),
        xi=np.zeros(1),
        step_sizes=np.array([1.0]),
    )
    report = contraction_check(monitor, params, np.eye(1), noise_free=True)
    assert report.stable
    assert not report.diverged
    assert report.contraction == pytest.approx(1.0)


def test_slope_matches_contraction_single_agent():
    monitor = ConvergenceMonitor(np.zeros(1))
    run_training(
        quads(2.0),
        make_static_schedule(Graph(1, frozenset())),
        inits=[[1.0]],
        gamma=0.25,
        strategy="dms",
        rounds=30,
        monitor=monitor,
    )
    params = ContractionParams(
        p_lower=np.array([2.0]),
        p_upper=np.array([2.0]),
        xi=np.zeros(1),
        step_sizes=np.array([0.25]),
    )
    report = contraction_check(monitor, params, np.eye(1), noise_free=True)
    assert report.contraction == pytest.approx(0.25)
    assert report.empirical_slope == pytest.approx(np.log(0.25), abs=1e-6)
    assert report.slope_within_rate


@pytest.mark.parametrize("gamma", [0.25, 0.1])
def test_contraction_report_flags_are_plain_bools(gamma):
    # A json report takes the flags as they are; a numpy bool is not JSON serializable.
    monitor = ConvergenceMonitor(np.zeros(1))
    run_training(
        quads(2.0),
        make_static_schedule(Graph(1, frozenset())),
        inits=[[1.0]],
        gamma=gamma,
        rounds=30,
        monitor=monitor,
    )
    params = ContractionParams(
        p_lower=np.array([2.0]),
        p_upper=np.array([2.0]),
        xi=np.zeros(1),
        step_sizes=np.array([0.25]),
    )
    report = contraction_check(monitor, params, np.eye(1), noise_free=True)
    flags = (report.step_size_ok, report.stable, report.tail_within_bound)
    assert all(type(flag) is bool for flag in (*flags, report.slope_within_rate, report.diverged))
    assert report.slope_within_rate is (gamma == 0.25)


def test_noise_floor_within_bound():
    rng = np.random.default_rng(0)
    n = 5
    monitor = ConvergenceMonitor(np.zeros(1))
    run_training(
        quads(2.0, n=n),
        complete_schedule(n),
        inits=np.ones((n, 1)),
        gamma=0.5,
        strategy="dfc",
        rounds=400,
        noise=NoiseModel(0.1),
        noise_rng=rng,
        monitor=monitor,
    )
    params = ContractionParams(
        p_lower=np.full(n, 2.0),
        p_upper=np.full(n, 2.0),
        xi=np.full(n, 0.1),
        step_sizes=np.full(n, 0.5),
    )
    mixing = mixing_matrix(make_topology("complete", n))
    report = contraction_check(monitor, params, mixing, noise_free=False)
    assert report.limit_bound == pytest.approx(0.01)
    assert report.tail_within_bound


def test_noisy_run_without_an_rng_fails_before_any_round():
    # The learn stage is built before the first round, so a noisy run with
    # no noise stream raises without advancing the schedule or reporting.
    schedule, seen = complete_schedule(3), []
    before = schedule.rng.bit_generator.state
    with pytest.raises(ValueError, match="needs an rng"):
        run_training(
            quads(1.0, n=3),
            schedule,
            inits=np.ones((3, 1)),
            gamma=0.1,
            rounds=2,
            noise=NoiseModel(0.1),
            on_round=lambda *args: seen.append(args),
        )
    assert seen == [] and schedule.rng.bit_generator.state == before


def sticky_transition(states, stay):
    """Stay with probability ``stay``, else move to one of the other states."""
    leave = (1.0 - stay) / (states - 1)
    return np.full((states, states), leave) + (stay - leave) * np.eye(states)


def test_sticky_markov_switching_still_converges():
    # The criterion-01 quadratic on a dms schedule, once with the default
    # i.i.d. uniform switching and once with a chain that keeps its
    # substructure with probability 0.9; both draw the same substructures.
    # The two slopes are not compared: with a common optimum the local
    # contraction sets the slope, and either chain's fit can come out steeper.
    drawn = []
    for stay in (None, 0.9):
        streams = seed_streams(0)
        config = ExperimentConfig(agent_count=10, gamma=0.5, quadratic=QuadraticConfig(far_start=1.0))
        tasks, inits, monitor, params = build_quadratic_setup(config, streams["init"])
        transition = None if stay is None else sticky_transition(8, stay)
        schedule = make_dms_schedule(10, transition=transition, rng=streams["schedule"])
        drawn.append(schedule.substructures)
        run = run_training(
            tasks,
            schedule,
            inits=inits,
            gamma=config.gamma,
            strategy="dms",
            rounds=2000,
            monitor=monitor,
            tolerance=1e-10,
        )
        assert run.terminated_early and not run.diverged
        pi = stationary_distribution(schedule.transition)
        mixing = sum(w * mixing_matrix(g) for w, g in zip(pi, schedule.substructures))
        assert contraction_check(monitor, params, mixing, noise_free=True).slope_within_rate
    assert drawn[0] == drawn[1]
    # The chain really is sticky: over a long walk it keeps its state about
    # 90% of the time, against 1/8 for the uniform chain.
    for stay, expected in ((None, 1 / 8), (0.9, 0.9)):
        transition = None if stay is None else sticky_transition(8, stay)
        schedule = make_dms_schedule(10, transition=transition, rng=np.random.default_rng(1))
        states = []
        for _ in range(4000):
            schedule.advance()
            states.append(schedule.state)
        assert np.mean(np.diff(states) == 0) == pytest.approx(expected, abs=0.03)


# Per-round messages and bytes at quadratic.dim 2, plaintext and secure (None: not run); at
# n = 6 dms and ctl use the default subset size m = 4.
@pytest.mark.parametrize(
    "strategy, n, rounds, plain, secure",
    [
        ("dms", 6, 3, (12, 192), (32, 1024)),  # m(m - 1); 2m^2
        ("ctl", 6, 3, (12, 192), (32, 1024)),
        ("dfc", 6, 3, (30, 480), (72, 2304)),  # n(n - 1); 2n^2
        ("dring", 6, 3, (12, 192), (72, 2304)),  # 2n; 12 per session, one per agent
        ("fedavg", 6, 3, (12, 192), (21, 672)),  # 2n; 3n + 3
        ("centralized", 1, 3, (0, 0), None),
        ("dring", 30, 30, (60, 960), None),
        ("dfc", 30, 1, (870, 13920), None),
    ],
    ids=["dms", "ctl", "dfc", "dring", "fedavg", "centralized", "ring-30", "complete-30"],
)
def test_per_round_traffic_closed_forms(strategy, n, rounds, plain, secure):
    for enabled, traffic in zip((False, True), (plain, secure)):
        if traffic is None:
            continue
        messages, nbytes = traffic
        config = ExperimentConfig(
            strategy=strategy,
            rounds=rounds,
            quadratic=QuadraticConfig(dim=2),
            secure=SecureConfig(enabled=enabled),
            **({} if strategy == "centralized" else {"agent_count": n}),
        )
        result = run_experiment(config)
        run, summary = result.run, result.summary
        assert run.metrics.messages.tolist() == [messages] * rounds
        assert run.metrics.bytes.tolist() == [nbytes] * rounds
        assert run.metrics.edge_count.tolist() == [plain[0] // 2] * rounds
        assert summary["rounds_completed"] == rounds
        assert summary["total_messages"] == messages * rounds
        assert summary["total_bytes"] == nbytes * rounds
        assert summary["mean_edges"] == pytest.approx(plain[0] / 2)
        if strategy in ("dfc", "dring", "fedavg"):
            assert run.metrics.active_agents.tolist() == [n] * rounds


def test_counters_empty():
    # A run that stops before its first round: no traffic rows.
    run = run_training(
        quads(1.0, n=3), complete_schedule(3), inits=np.zeros((3, 1)), gamma=0.1, rounds=0
    )
    assert run.rounds_completed == 0 and run.metrics.shape == (0,)


def test_broadcast_hook_shifts_the_average():
    def hook(broadcast):
        out = broadcast.copy()
        out[0] += 3.0
        return out

    hooked, clean = (
        run_training(
            quads(1.0, u=0.0, n=3),
            complete_schedule(3),
            inits=np.ones((3, 1)),
            gamma=0.1,
            strategy="dfc",
            rounds=1,
            broadcast_hook=h,
        )
        for h in (hook, None)
    )
    for a, c in zip(hooked.agents, clean.agents):
        assert np.allclose(a.theta - c.theta, 1.0)


@pytest.mark.parametrize("strategy", ["dms", "ctl", "fedavg"])
def test_broadcast_hook_edits_of_its_argument_do_not_reach_the_agents(strategy):
    # The hook's input is the weights (ctl) or the learn output kept as
    # phi; the engine hands it a copy, so scribbling on it changes nothing.
    def clean(broadcast):
        return broadcast + 1.0

    def scribble(broadcast):
        out = broadcast + 1.0
        broadcast[:] = 99.0
        return out

    runs = []
    for hook in (clean, scribble):
        schedule = None if strategy == "fedavg" else complete_schedule(3)
        run = run_training(
            quads(1.0, u=(0.0, 1.0, 2.0), n=3),
            schedule,
            inits=np.ones((3, 1)),
            gamma=0.1,
            strategy=strategy,
            rounds=3,
            broadcast_hook=hook,
        )
        runs.append(run.agents)
    for a, b in zip(*runs):
        assert np.array_equal(a.theta, b.theta) and np.array_equal(a.phi, b.phi)


def test_secure_complete_matches_plaintext():
    u = np.array([0.4, -0.2])
    tasks = QuadraticTasks.from_optima([[1.0, 2.0], [2.0, 1.0], [1.5, 1.5]], [u] * 3)
    n = 3
    setup = SecureSetup(rng=np.random.default_rng(0), transcript=Transcript())
    plain, secure = (
        run_training(
            tasks,
            complete_schedule(n),
            inits=np.ones((n, 2)),
            gamma=0.1,
            strategy="dfc",
            rounds=3,
            secure=s,
        )
        for s in (None, setup)
    )
    worst = max(
        float(np.max(np.abs(a.theta - b.theta))) for a, b in zip(plain.agents, secure.agents)
    )
    assert worst <= n * 2.0**-15
    assert setup.transcript.messages > 0


def test_secure_ring_matches_plaintext():
    n = 5
    plain, secure = (
        run_training(
            quads(2.0, u=1.0, n=n),
            make_static_schedule(make_topology("ring", n)),
            inits=np.zeros((n, 1)),
            gamma=0.2,
            strategy="dring",
            rounds=4,
            secure=s,
        )
        for s in (None, SecureSetup(rng=np.random.default_rng(1)))
    )
    worst = max(
        float(np.max(np.abs(a.theta - b.theta))) for a, b in zip(plain.agents, secure.agents)
    )
    assert worst <= n * 2.0**-15


def test_secure_three_agent_ring_runs_one_triangle_session():
    # Every closed neighborhood of the 3-agent ring is the whole ring, so
    # dring runs dfc's single session: the same weights and transcript,
    # and half the traffic of one session per agent.
    tasks = quads((1.0, 2.0, 3.0), u=(0.0, 1.0, 2.0), dim=2, n=3)
    runs = []
    for strategy, kind in (("dring", "ring"), ("dfc", "complete")):
        setup = SecureSetup(rng=np.random.default_rng(3), transcript=Transcript())
        schedule = make_static_schedule(make_topology(kind, 3))
        run = run_training(
            tasks,
            schedule,
            inits=np.zeros((3, 2)),
            gamma=0.2,
            strategy=strategy,
            rounds=3,
            secure=setup,
        )
        runs.append((run, setup.transcript))
    (ring, ring_log), (full, full_log) = runs
    for a, b in zip(ring.agents, full.agents):
        assert np.array_equal(a.theta, b.theta)
    assert ring_log.entries == full_log.entries
    assert_triangle_traffic(ring, 2)


def test_secure_fedavg_matches_plaintext():
    n = 4
    run_a, run_b = (
        run_training(
            quads(1.0, u=2.0, n=n),
            None,
            inits=np.zeros((n, 1)),
            gamma=0.3,
            strategy="fedavg",
            rounds=5,
            secure=s,
        )
        for s in (None, SecureSetup(rng=np.random.default_rng(2)))
    )
    assert np.max(np.abs(run_a.agents[0].theta - run_b.agents[0].theta)) <= n * 2.0**-15


def test_secure_round_counts_protocol_traffic_by_default():
    # Without an explicit transcript the setup keeps its own, so the round
    # reports the protocol's traffic, not the 20 plaintext edge messages:
    # 5 contributors share to 5 parties and 5 parties send to 5 recipients,
    # 50 messages of two 16-byte field elements each.
    setup = SecureSetup(rng=np.random.default_rng(0))
    run = run_training(
        quads(1.0, u=1.0, dim=2, n=5),
        complete_schedule(5),
        inits=np.zeros((5, 2)),
        gamma=0.1,
        strategy="dfc",
        rounds=1,
        secure=setup,
    )
    assert (run.metrics[0].messages, run.metrics[0].bytes) == (50, 1600)


def test_secure_needs_three_active_agents():
    # A two-member group cannot hide anyone's input behind the sum, so the
    # secure path refuses the round and reports which round died.
    schedule = make_static_schedule(make_subset_graph(6, (1, 4)))
    setup = SecureSetup(rng=np.random.default_rng(0))
    with pytest.raises(RoundFailure) as err:
        run_training(
            quads(1.0, n=6),
            schedule,
            inits=np.zeros((6, 1)),
            gamma=0.1,
            strategy="dms",
            rounds=1,
            secure=setup,
        )
    assert err.value.round_index == 0
    assert isinstance(err.value.cause, ContributorError)


def test_agents_hold_the_last_completed_round_after_a_failure():
    # Round 0 runs on the complete graph and round 1 on a two-member group,
    # which the secure path refuses; the failed run's caller keeps round 0's
    # weights from the arrays its on_round was handed.
    tasks = quads(1.0, u=np.arange(6.0), n=6)
    complete, pair = make_topology("complete", 6), make_subset_graph(6, (1, 4))
    seen = {}
    for rounds in (1, 2):
        schedule = MarkovSchedule([pair, complete], np.array([[0.0, 1.0], [1.0, 0.0]]),
                                  np.random.default_rng(0))
        setup = SecureSetup(rng=np.random.default_rng(0))
        options = dict(
            inits=np.zeros((6, 1)), gamma=0.1, strategy="dms", rounds=rounds, secure=setup
        )
        seen[rounds] = []

        def on_round(k, thetas, phis, row, losses):
            seen[rounds].append((thetas, phis))

        if rounds == 2:
            with pytest.raises(RoundFailure) as err:
                run_training(tasks, schedule, on_round=on_round, **options)
            assert err.value.round_index == 1
        else:
            done = run_training(tasks, schedule, on_round=on_round, **options)
    [(thetas, phis)] = seen[1]
    assert np.array_equal(thetas, [a.theta for a in done.agents])
    assert np.array_equal(phis, [a.phi for a in done.agents])
    [(failed_thetas, failed_phis)] = seen[2]
    assert np.array_equal(failed_thetas, thetas) and np.array_equal(failed_phis, phis)
    assert not np.array_equal(failed_thetas, np.zeros((6, 1)))


def test_run_training_rejects_inits_off_the_task_set_and_a_nonpositive_gamma():
    quadratic = quads(1.0, dim=2, n=3)
    network = NetworkTasks(MlpModel(2, 3, 1), np.zeros((3, 4, 2)), np.zeros((3, 4, 1)))
    cases = [
        (quadratic, np.zeros((2, 2)), 0.1, "shape"),  # one init short
        (quadratic, np.zeros((3, 1)), 0.1, "shape"),  # too narrow
        (network, np.zeros((3, 12)), 0.1, "shape"),  # one weight short of the model's 13
        (quadratic, np.zeros((3, 2)), 0.0, "learning rate"),
        (quadratic, np.zeros((3, 2)), -0.1, "learning rate"),
    ]
    for tasks, inits, gamma, match in cases:
        with pytest.raises(ValueError, match=match):
            run_training(tasks, complete_schedule(3), inits=inits, gamma=gamma, rounds=1)


@pytest.mark.parametrize("alpha", [0.0, -1.0, 1.5, np.nan, np.inf])
def test_run_training_rejects_an_alpha_outside_the_unit_interval_before_any_round(alpha):
    # Was run as given: 0 pinned every agent at the origin, -1 flipped the
    # sign of every mix and 1.5 grew the weights past 1e6 in 50 rounds.
    seen = []
    with pytest.raises(ValueError, match=r"^alpha must lie in \(0, 1\]$"):
        run_training(
            quads(1.0, u=1.0, n=4), complete_schedule(4), inits=np.zeros((4, 1)), gamma=0.1,
            rounds=50, alpha=alpha, on_round=lambda k, *_: seen.append(k),
        )
    assert seen == []


@pytest.mark.parametrize("strategy", ["dms", "fedavg"])
@pytest.mark.parametrize("n, d", [(3, 0), (0, 2)], ids=["no-weight", "no-agent"])
def test_run_training_rejects_a_task_set_with_no_agent_or_no_weight(strategy, n, d):
    # Was a bare ZeroDivisionError from the learn stage's noise block size
    # (or, for fedavg without agents, an IndexError from the shared-init check).
    schedule = None if strategy == "fedavg" else complete_schedule(3)
    with pytest.raises(ValueError, match="no agent or no weight"):
        run_training(
            quads(1.0, dim=d, n=n), schedule, inits=np.zeros((n, d)), gamma=0.1, strategy=strategy, rounds=1
        )


@pytest.mark.parametrize("rounds", [0, 3])
def test_run_training_rejects_a_schedule_for_fedavg(rounds):
    # Every fedavg round mixes by the server mean, so a schedule would go unused.
    with pytest.raises(ValueError, match="^fedavg takes no topology schedule$"):
        run_training(
            quads(1.0, n=3),
            complete_schedule(3),
            inits=np.zeros((3, 1)),
            gamma=0.1,
            strategy="fedavg",
            rounds=rounds,
        )


@pytest.mark.parametrize("strategy", ["dms", "ctl"])
@pytest.mark.parametrize("rounds", [0, 3])
def test_run_training_checks_the_schedule_size_before_any_round(strategy, rounds):
    schedule = make_dms_schedule(5, subset_size=3, rng=np.random.default_rng(0))
    before = schedule.rng.bit_generator.state
    seen = []
    with pytest.raises(ValueError, match="^schedule graph does not cover the agent set$"):
        run_training(
            quads(1.0, n=4),
            schedule,
            inits=np.zeros((4, 1)),
            gamma=0.1,
            strategy=strategy,
            rounds=rounds,
            on_round=lambda *args: seen.append(args),
        )
    assert seen == [] and schedule.rng.bit_generator.state == before


def test_plaintext_dms_round_bytes():
    n, d = 7, 3
    schedule = make_dms_schedule(n, subset_size=4, rng=np.random.default_rng(0))
    run = run_training(
        quads(1.0, dim=d, n=n),
        schedule,
        inits=np.zeros((n, d)),
        gamma=0.1,
        strategy="dms",
        rounds=5,
    )
    for m in run.metrics:
        assert m.bytes == 2 * m.edge_count * d * 8


def test_plaintext_fedavg_round_bytes():
    n, d = 5, 4
    run = run_training(
        quads(1.0, dim=d, n=n), None, inits=np.zeros((n, d)), gamma=0.1, strategy="fedavg", rounds=3
    )
    assert [m.bytes for m in run.metrics] == [2 * n * d * 8] * 3
    assert int(run.metrics.bytes.sum()) == 3 * 2 * n * d * 8


# Forecast runs have 30 agents; n = 1 must give 0.0.
@given(st.integers(1, 32), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_max_disagreement_equals_full_tensor(n, d, seed):
    thetas = np.random.default_rng(seed).standard_normal((n, d)) * 10.0 ** (seed % 7 - 3)
    assert max_disagreement(thetas) == pairwise_max_distance(thetas)


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("row", [0, 2])
def test_max_disagreement_of_a_non_finite_row_is_nan(bad, row):
    thetas = np.arange(12.0).reshape(3, 4)
    thetas[row, 1] = bad
    with np.errstate(invalid="ignore"):  # inf - inf
        assert np.isnan(max_disagreement(thetas)) and np.isnan(pairwise_max_distance(thetas))
        assert np.isnan(max_disagreement(thetas[row : row + 1]))


# Forecast rounds leave many agents on bitwise-equal rows; only one of
# each is measured.
@given(
    st.integers(1, 8),
    st.integers(1, 12),
    st.lists(st.integers(0, 7), min_size=1, max_size=30),
    st.sampled_from(["none", "zeros", "nan", "inf", "first"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_max_disagreement_with_repeated_rows_equals_full_tensor(distinct, d, picks, special, seed):
    rows = np.random.default_rng(seed).standard_normal((distinct, d))
    if special == "first":  # distinct rows that agree in the first coordinate
        rows[:, 0] = 1.0
    else:
        rows[0] = {"none": rows[0], "zeros": 0.0, "nan": np.nan, "inf": np.inf}[special]
    if special == "zeros" and distinct > 1:
        rows[1] = -0.0  # equal to rows[0] but not the same bytes
    thetas = rows[[p % distinct for p in picks]]
    with np.errstate(invalid="ignore"):  # inf - inf
        got, want = max_disagreement(thetas), pairwise_max_distance(thetas)
    assert got == want or (np.isnan(got) and np.isnan(want))


def test_graph_mixing_is_cached_read_only():
    g = make_topology("ring", 5)
    assert g.mixing is g.mixing
    assert np.array_equal(g.mixing, mixing_matrix(g))
    assert not g.mixing.flags.writeable


@pytest.mark.parametrize(
    "graph",
    [
        make_topology("ring", 5),
        make_topology("complete", 6),
        make_subset_graph(8, (0, 2, 3, 7)),
        Graph(4, frozenset()),
    ],
    ids=["ring", "complete", "subset", "empty"],
)
def test_graph_counts_and_neighbors_match_the_mixing_matrix(graph):
    mix = mixing_matrix(graph)
    degrees = np.count_nonzero(mix, axis=1) - 1
    assert graph.neighbors == tuple(
        tuple(int(j) for j in np.flatnonzero(row) if j != i) for i, row in enumerate(mix)
    )
    assert graph.counts == (degrees.sum(), np.count_nonzero(degrees))
    assert graph.counts is graph.counts


def test_plaintext_round_traffic_is_its_graph_counts():
    # A plaintext round's traffic is its graph's own counts.
    schedule, twin = (
        make_dms_schedule(7, subset_size=3, substructure_count=4, rng=np.random.default_rng(5))
        for _ in range(2)
    )
    inits = np.random.default_rng(6).uniform(-1, 1, (7, 2))
    run = run_training(quads(1.0, dim=2, n=7), schedule, inits=inits, gamma=0.1, rounds=6)
    for row in run.metrics:
        choice_step(twin)
        graph = schedule.substructures[twin.state]
        from_mixing = np.count_nonzero(mixing_matrix(graph), axis=1) - 1
        assert consensus._round_traffic(graph, (7, 2), None, None) == tuple(row.tolist())
        assert graph.counts == (from_mixing.sum(), np.count_nonzero(from_mixing))
        assert row.messages == from_mixing.sum() and row.edge_count == from_mixing.sum() // 2
        assert row.active_agents == np.count_nonzero(from_mixing)


@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(1, 7),
    st.integers(0, 7),
    st.sampled_from([3.0, 0.8]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_learner_noise_blocks_equal_one_draw_per_round(
    n, epochs, rounds_per_block, rounds, short, cap_factor, seed
):
    # d sets the block to about ``rounds_per_block`` rounds, so blocks of
    # one round and blocks that do not divide the budget both occur; a
    # run that stops ``short`` rounds early makes fewer calls.
    d = max(1, 2**16 // (n * epochs * rounds_per_block))
    block = max(1, 2**16 // (n * epochs * d))
    calls = max(0, rounds - short)
    noise = NoiseModel(0.1, cap_factor=cap_factor)
    shapes, steps = [], []

    def sample(shape, rng):
        shapes.append(shape)
        return noise.sample(shape, rng)

    def local_step(tasks, thetas, gamma, noise=None):
        steps.append(noise.copy())
        return None, thetas

    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    spy = SimpleNamespace(bound=noise.bound, sample=sample)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(consensus, "local_step", local_step)
        learn = consensus._learner(SimpleNamespace(shape=(n, d)), 0.1, epochs, spy, rng, rounds)
        for _ in range(calls):
            learn(np.zeros((n, d)))
    planned = []
    while sum(planned) < calls:
        planned.append(min(block, rounds - sum(planned)))
    assert shapes == [(b, n, epochs, d) for b in planned]
    for k in range(calls):
        row = noise.sample((n, epochs, d), twin)
        for e in range(epochs):
            assert np.array_equal(steps[k * epochs + e], row[:, e])
    # The rest of the last block is drawn and unused.
    noise.sample((sum(planned) - calls, n, epochs, d), twin)
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("strategy", ["dms", "ctl", "fedavg"])
def test_a_tolerance_stop_matches_the_per_round_run_and_leaves_the_rngs_ahead(strategy):
    n, d, rounds, seed = 5, 2, 200, 11
    tasks = quads(1.0, dim=2, n=n)
    inits = np.random.default_rng(seed).uniform(-1, 1, (1 if strategy == "fedavg" else n, d))
    inits = np.broadcast_to(inits, (n, d))
    runs = []
    for engine in ("stacked", "per_agent"):
        schedule = None
        if strategy != "fedavg":
            schedule = make_dms_schedule(n, subset_size=3, substructure_count=3, rng=np.random.default_rng(seed))
        noise_rng = np.random.default_rng(seed + 1)
        options = dict(noise=NoiseModel(1e-3), noise_rng=noise_rng)
        if engine == "stacked":
            monitor = ConvergenceMonitor(np.zeros(d))
            run, metrics = run_with_records(
                tasks, schedule, inits=inits, gamma=0.5, strategy=strategy, rounds=rounds,
                monitor=monitor, tolerance=1e-5, **options,
            )
            assert run.terminated_early and 0 < run.rounds_completed < rounds
            agents = run.agents
        else:
            agents = make_agents(tasks, inits, 0.5)
            metrics = per_agent_rounds(agents, schedule, strategy, run.rounds_completed, **options)
        runs.append((agents, metrics, noise_rng, schedule and schedule.rng))
    (agents, metrics, noise_rng, schedule_rng), (ref_agents, ref_metrics, ref_noise, ref_sched) = runs
    for a, b in zip(agents, ref_agents, strict=True):
        assert np.array_equal(a.theta, b.theta) and np.array_equal(a.phi, b.phi)
    assert_same_records(metrics, ref_metrics)
    assert_run_keeps(run, ref_metrics)
    # The stacked run drew the whole budget up front: it is ahead of the
    # per-round run by the rounds it did not run, and by no more.
    unused = rounds - run.rounds_completed
    assert noise_rng.bit_generator.state != ref_noise.bit_generator.state
    ref_noise.standard_normal(unused * n * d)
    assert noise_rng.bit_generator.state == ref_noise.bit_generator.state
    if schedule_rng is not None:
        assert schedule_rng.bit_generator.state != ref_sched.bit_generator.state
        ref_sched.random(unused)
        assert schedule_rng.bit_generator.state == ref_sched.bit_generator.state


def test_no_caller_reads_the_run_rngs_after_the_run(monkeypatch):
    # Early stops leave the noise and schedule rngs ahead, which is safe
    # only while nothing draws from them once their run has returned.
    kept = []

    def spy(tasks, schedule, **kwargs):
        run = run_training(tasks, schedule, **kwargs)
        rngs = [kwargs.get("noise_rng"), schedule and schedule.rng]
        kept.extend((rng, rng.bit_generator.state) for rng in rngs if rng is not None)
        return run

    monkeypatch.setattr(experiment, "run_training", spy)
    monkeypatch.setattr(threats, "run_training", spy)
    config = ExperimentConfig(
        strategy="dms", agent_count=6, rounds=300, gamma=0.1, tolerance=1e-3, noise=NoiseConfig(1e-3)
    )
    assert experiment.run_experiment(config).run.terminated_early
    threats.run_poisoning_experiment([0], rounds=40, tail_rounds=5, epsilon=1e9)
    experiment.run_scaling_sweep(1)
    # run_experiment: noise and schedule; the study: a stacked dms pair
    # (noise and schedule) and a stacked fedavg pair (noise), then, since
    # both pairs diverge at this epsilon, each arm alone again: four noise
    # and two schedules; the sweep: twelve schedules.
    assert len(kept) == 2 + 9 + 12
    assert all(rng.bit_generator.state == state for rng, state in kept)


STRATEGIES = ["dms", "ctl", "dring", "dfc", "fedavg", "centralized"]


def _curvature(rng, d):
    """One agent's per-coordinate curvature, each entry in [0.5, 2]."""
    return rng.uniform(0.5, 2.0, d)


def _engine_case(strategy, n, d, seed, shared, shared_curvature=False, family="quadratic"):
    """A task set of ``family``, its (n, dim) inits and the strategy's
    schedule; a network set has d inputs, so dim is the model's."""
    rng = np.random.default_rng(seed)
    if family == "quadratic":
        common = _curvature(rng, d)
        pairs = [
            (common.copy() if shared_curvature else _curvature(rng, d), rng.uniform(-1, 1, d))
            for _ in range(n)
        ]
        tasks = QuadraticTasks.from_optima(*map(np.array, zip(*pairs)))
    else:
        x, y = rng.uniform(0, 1, (n, 4, d)), rng.uniform(-1, 1, (n, 4, 2))
        tasks = NetworkTasks(MlpModel(d, 3, 2), x, y)
    dim = tasks.shape[1]
    inits = [rng.uniform(-1, 1, dim)] * n if shared else [rng.uniform(-1, 1, dim) for _ in range(n)]
    if strategy == "fedavg":
        schedule = None
    elif strategy == "centralized":
        schedule = make_static_schedule(Graph(1, frozenset()))
    elif strategy == "dring":
        schedule = make_static_schedule(make_topology("ring", n))
    elif strategy == "dfc":
        schedule = complete_schedule(n)
    else:
        schedule = make_dms_schedule(n, subset_size=3, substructure_count=3, rng=np.random.default_rng(seed))
    return tasks, np.array(inits), schedule


@given(
    st.sampled_from(STRATEGIES),
    st.integers(3, 6),
    st.integers(1, 3),
    st.integers(1, 4),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1.0, 0.9]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_engine_matches_previous_round_functions(
    strategy, n, d, rounds, noisy, poisoned, secure, alpha, epochs, seed
):
    # The old engine ignored alpha for fedavg and epochs for every other
    # strategy, so only the settings where both engines agree are drawn.
    if strategy == "centralized":
        n, secure = 1, False
    if strategy == "fedavg":
        alpha = 1.0
    else:
        epochs = 1
    policy = PoisonPolicy(frozenset({0}), epsilon=0.3)
    runs = []
    for engine in ("new", "old"):
        tasks, inits, schedule = _engine_case(strategy, n, d, seed, shared=strategy == "fedavg")
        hooks = {"new": policy.hook(), "old": lambda i, w: old_poison_broadcast(w, policy, i)}
        options = dict(
            alpha=alpha,
            epochs=epochs,
            noise=NoiseModel(0.05) if noisy else None,
            noise_rng=np.random.default_rng(seed + 1),
            broadcast_hook=hooks[engine] if poisoned else None,
            # The old engine counts its messages one by one, as it logged them.
            secure=SecureSetup(
                rng=np.random.default_rng(seed + 2),
                transcript=Transcript() if engine == "new" else OldTranscript(),
            )
            if secure
            else None,
        )
        if engine == "new":
            run, metrics = run_with_records(
                tasks, schedule, inits=inits, gamma=0.2, strategy=strategy, rounds=rounds, **options
            )
            agents = run.agents
        else:
            agents = make_agents(tasks, inits, 0.2)
            metrics = old_engine_rounds(agents, schedule, strategy, rounds, **options)
        runs.append((agents, metrics))
    (new_agents, new_metrics), (old_agents, old_metrics) = runs
    for a, b in zip(new_agents, old_agents):
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.phi, b.phi)
    assert len(new_metrics) == len(old_metrics) == rounds
    # The 3-agent ring is the triangle: one session in place of the old
    # engine's three identical ones, with the same exact sums.
    triangle = secure and strategy == "dring" and n == 3
    for m, o in zip(new_metrics, old_metrics):
        assert (m.round_index, m.edge_count, m.active_agents) == (
            o.round_index,
            o.edge_count,
            o.active_agents,
        )
        if triangle:
            continue
        assert m.messages == o.messages
        if secure:
            assert m.bytes == o.bytes
    assert_run_keeps(run, new_metrics)
    if triangle:
        assert_triangle_traffic(run, d)


def assert_triangle_traffic(run, d):
    """One 3-party session a round: 9 share and 9 reconstruct messages of d
    elements."""
    rounds = run.rounds_completed
    assert run.metrics.messages.tolist() == [18] * rounds
    assert run.metrics.bytes.tolist() == [18 * d * 16] * rounds


def run_with_records(tasks, schedule, **options):
    """``run_training``, and one ``OldRoundMetrics`` a round from what
    ``_round_traffic`` returned and the learn losses ``on_round`` got."""
    traffic, losses = [], []
    real = consensus._round_traffic

    def spy(*args):
        traffic.append(real(*args))
        return traffic[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(consensus, "_round_traffic", spy)
        run = run_training(tasks, schedule, on_round=lambda *args: losses.append(args[-1]), **options)
    return run, [
        traffic_record(k, t, loss) for k, (t, loss) in enumerate(zip(traffic, losses, strict=True))
    ]


def assert_same_records(records, ref_records):
    """Two runs' per-round records, field by field and agent by agent."""
    assert len(records) == len(ref_records)
    for m, o in zip(records, ref_records):
        for field in dataclasses.fields(o):
            assert np.array_equal(getattr(m, field.name), getattr(o, field.name)), field.name


def assert_run_keeps(run, records):
    """Every row of ``run.metrics`` against one record a round."""
    assert len(run.metrics) == len(records)
    for k, (row, o) in enumerate(zip(run.metrics, records)):
        assert o.round_index == k
        assert row.tolist() == (o.edge_count, o.active_agents, o.messages, o.bytes)


def _assert_engines_agree(
    family, strategy, n, d, rounds, noise_kind, poison_mode, secure, shared_curvature, alpha,
    epochs, seed,
):
    """The stacked engine against the per-agent round body: weights, every
    round metric (the first-step losses too) and the noise, secure and
    schedule rngs' states."""
    # "capped" puts the noise cap below the typical draw's norm, so most
    # draws take the rescaling path.
    if strategy == "centralized":
        n, secure = 1, False
    noise = {"none": None, "bounded": NoiseModel(0.05), "capped": NoiseModel(0.05, cap_factor=0.8)}
    # Id n + 1 names no agent, so the hook must skip it.
    mode = "constant" if poison_mode == "none" else poison_mode
    policy = PoisonPolicy(frozenset({0, 2, n + 1}), epsilon=0.3, mode=mode)
    runs = []
    for engine in ("stacked", "per_agent"):
        tasks, inits, schedule = _engine_case(
            strategy,
            n,
            d,
            seed,
            shared=strategy == "fedavg",
            shared_curvature=shared_curvature,
            family=family,
        )
        hooks = {"stacked": policy.hook(), "per_agent": lambda i, w: old_poison_broadcast(w, policy, i)}
        rngs = (np.random.default_rng(seed + 1), np.random.default_rng(seed + 2))
        options = dict(
            alpha=alpha,
            epochs=epochs,
            noise=noise[noise_kind],
            noise_rng=rngs[0],
            broadcast_hook=None if poison_mode == "none" else hooks[engine],
            secure=SecureSetup(rng=rngs[1], transcript=Transcript()) if secure else None,
        )
        if engine == "stacked":
            run, metrics = run_with_records(
                tasks, schedule, inits=inits, gamma=0.2, strategy=strategy, rounds=rounds, **options
            )
            agents = run.agents
        else:
            agents = make_agents(tasks, inits, 0.2)
            metrics = per_agent_rounds(agents, schedule, strategy, rounds, **options)
        states = [r.bit_generator.state for r in rngs]
        runs.append((agents, metrics, states, schedule and schedule.rng.bit_generator.state))
    (agents, metrics, *states), (ref_agents, ref_metrics, *ref_states) = runs
    for a, b in zip(agents, ref_agents, strict=True):
        assert np.array_equal(a.theta, b.theta)
        assert np.array_equal(a.phi, b.phi)
    assert len(metrics) == len(ref_metrics) == rounds
    for m in metrics:
        assert (m.train_losses is None) == (family == "quadratic")
    assert_same_records(metrics, ref_metrics)
    assert_run_keeps(run, ref_metrics)
    if secure and strategy == "dring" and n == 3:
        assert_triangle_traffic(run, len(inits[0]))
    assert states == ref_states


@given(
    st.sampled_from(["quadratic", "network"]),
    st.sampled_from(STRATEGIES),
    st.integers(3, 6),
    st.integers(1, 4),
    st.integers(1, 4),
    st.sampled_from(["none", "bounded", "capped"]),
    st.sampled_from(["none", "constant", "scaled"]),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1.0, 0.9]),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_stacked_engine_matches_the_per_agent_round(
    family, strategy, n, d, rounds, noise_kind, poison_mode, secure, shared_curvature, alpha,
    epochs, seed,
):
    _assert_engines_agree(
        family, strategy, n, d, rounds, noise_kind, poison_mode, secure, shared_curvature, alpha,
        epochs, seed,
    )


# Every strategy, epoch count, noise kind and mode on network task sets.
@pytest.mark.parametrize("secure", [False, True])
@pytest.mark.parametrize("noise_kind", ["none", "bounded", "capped"])
@pytest.mark.parametrize("epochs", [1, 2, 3])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_stacked_engine_matches_the_per_agent_round_on_network_tasks(
    strategy, epochs, noise_kind, secure
):
    seed = epochs * 7 + secure
    _assert_engines_agree(
        "network", strategy, 4, 3, 2, noise_kind, "scaled", secure, False, 0.9, epochs, seed
    )


def _replica_run(family, strategy, n, d, inits, rounds, alpha, epochs, noisy, hook, seed):
    """One run of ``inits``, (n, dim) or a stack, on the case's task set,
    with fresh schedule and noise streams; returns the run, its monitor and
    the (thetas, phis, losses) that ``on_round`` saw after each round."""
    tasks, _, schedule = _engine_case(strategy, n, d, seed, shared=False, family=family)
    monitor = ConvergenceMonitor(np.linspace(-0.5, 0.5, tasks.shape[1]))
    seen = []
    run = run_training(
        tasks,
        schedule,
        inits=inits,
        gamma=0.2,
        strategy=strategy,
        rounds=rounds,
        alpha=alpha,
        epochs=epochs,
        noise=NoiseModel(0.05) if noisy else None,
        noise_rng=np.random.default_rng(seed + 1),
        broadcast_hook=hook,
        monitor=monitor,
        on_round=lambda k, thetas, phis, row, losses: seen.append((thetas, phis, losses)),
    )
    return run, monitor, seen


@given(
    st.sampled_from(["quadratic", "network"]),
    st.sampled_from(STRATEGIES),
    st.integers(3, 5),
    st.integers(1, 3),
    st.integers(0, 4),
    st.integers(1, 3),
    st.sampled_from([1.0, 0.9]),
    st.integers(1, 2),
    st.booleans(),
    st.sampled_from([None, 0.3, 1e13]),
    st.data(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_a_stack_of_replicas_runs_as_the_replicas_alone(
    family, strategy, n, d, rounds, r, alpha, epochs, noisy, epsilon, data, seed
):
    # A hook of epsilon 1e13 diverges its replica in round 0, which stops
    # the stack there while the other replicas run on alone.
    if strategy == "centralized":
        n = 1
    dim = _engine_case(strategy, n, d, seed, shared=False, family=family)[0].shape[1]
    rows = 1 if strategy == "fedavg" else n  # fedavg agents share each replica's init
    draws = np.random.default_rng(seed + 2).uniform(-1, 1, (r, rows, dim))
    inits = np.repeat(draws, n // rows, axis=1)
    edited = data.draw(st.integers(0, r - 1))
    poison = None if epsilon is None else PoisonPolicy(frozenset({0}), epsilon=epsilon).hook()

    def stack_hook(broadcast):
        poison(broadcast[edited])
        return broadcast

    case = (family, strategy, n, d)
    stack, stack_monitor, stack_seen = _replica_run(
        *case, inits, rounds, alpha, epochs, noisy, poison and stack_hook, seed
    )
    alone = [
        _replica_run(
            *case, inits[j], rounds, alpha, epochs, noisy, poison if j == edited else None, seed
        )
        for j in range(r)
    ]
    done = stack.rounds_completed
    assert done == min(run.rounds_completed for run, _, _ in alone)
    assert stack.diverged == any(run.diverged and run.rounds_completed == done for run, _, _ in alone)
    assert stack_monitor.worst_mse.shape == (done + 1, r)
    for j, (run, monitor, seen) in enumerate(alone):
        assert stack_monitor.worst_mse[:, j].tobytes() == monitor.worst_mse[: done + 1].tobytes()
        own_errors = monitor.theta_errors[: done + 1]
        assert stack_monitor.theta_errors[:, j].tobytes() == own_errors.tobytes()
        for (thetas, phis, losses), (own_thetas, own_phis, own_losses) in zip(stack_seen, seen):
            assert thetas[j].tobytes() == own_thetas.tobytes()
            assert phis[j].tobytes() == own_phis.tobytes()
            assert (losses is None) == (own_losses is None)
            if losses is not None:
                assert losses[j].tobytes() == own_losses.tobytes()
        assert stack.metrics.tobytes() == run.metrics[:done].tobytes()
        # At least one replica stopped where the stack did.
        if run.rounds_completed == done:
            assert np.array([a.theta[j] for a in stack.agents]).tobytes() == np.array(
                [a.theta for a in run.agents]
            ).tobytes()


@pytest.mark.parametrize(
    "options",
    [
        dict(secure=SecureSetup(rng=np.random.default_rng(0))),
        dict(tolerance=1e-3, monitor=ConvergenceMonitor(np.zeros(2))),
    ],
    ids=["secure", "tolerance"],
)
def test_a_stack_takes_no_secure_mode_and_no_tolerance(options):
    with pytest.raises(ValueError, match="stack of replicas"):
        run_training(
            quads(1.0, dim=2, n=3),
            complete_schedule(3),
            inits=np.zeros((2, 3, 2)),
            gamma=0.1,
            rounds=2,
            **options,
        )
