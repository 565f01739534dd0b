import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dmslearn import threats
from dmslearn.numerics import MlpModel
from dmslearn.secagg import FixedPointCodec, SecAggSession, SharingParams, Transcript, secure_aggregate
from dmslearn.threats import (
    PoisonPolicy,
    dlg_compare_topologies,
    dlg_reconstruct,
    run_poisoning_experiment,
    secure_leakage_probe,
)

from oracles import old_dlg_reconstruct, old_poison_broadcast, old_poisoning_experiment


def test_poison_constant_mode():
    policy = PoisonPolicy(frozenset({1}), epsilon=0.5, mode="constant")
    w = np.array([[1.0, -2.0], [1.0, -2.0]])
    out = policy.hook()(w.copy())
    assert np.array_equal(out[0], w[0])
    assert np.allclose(out[1], w[1] + 0.5)


def test_poison_scaled_mode():
    policy = PoisonPolicy(frozenset({0}), epsilon=0.1, mode="scaled")
    w = np.array([[3.0, 4.0]])  # norm 5
    shift = 0.1 * 5.0 / np.sqrt(2.0)
    assert np.allclose(policy.hook()(w.copy()), w + shift)


def test_poison_zero_epsilon_is_noop():
    policy = PoisonPolicy(frozenset({0}), epsilon=0.0)
    w = np.array([[1.0]])
    assert np.array_equal(policy.hook()(w.copy()), w)


def test_poison_validation():
    for epsilon in (-0.1, float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match="epsilon"):
            PoisonPolicy(frozenset({0}), epsilon=epsilon)
    with pytest.raises(ValueError):
        PoisonPolicy(frozenset({0}), mode="flip")


@settings(max_examples=200, deadline=None)
@given(
    ids=st.frozensets(st.integers(-3, 8), max_size=6),
    epsilon=st.one_of(st.just(0.0), st.floats(1e-6, 1e3)),
    mode=st.sampled_from(["constant", "scaled"]),
    n=st.integers(1, 6),
    d=st.sampled_from([1, 2, 801]),
    seed=st.integers(0, 2**32 - 1),
)
# Id 7 names no agent of the 4-row broadcast and must be skipped; so must -1.
@example(ids=frozenset({2, 0, 7, -1}), epsilon=0.3, mode="constant", n=4, d=3, seed=0)
@example(ids=frozenset({2, 0, 7, -1}), epsilon=0.3, mode="scaled", n=4, d=3, seed=0)
def test_policy_hook_matches_direct_call(ids, epsilon, mode, n, d, seed):
    # The hook shifts the array it is handed in place, bit for bit as the
    # per-row poisoning it replaced does to a copy, row by row.
    broadcast = np.random.default_rng(seed).standard_normal((n, d)) * 3.0
    policy = PoisonPolicy(ids, epsilon=epsilon, mode=mode)
    expected = broadcast.copy()
    for agent in range(n):
        expected[agent] = old_poison_broadcast(expected[agent], policy, agent)
    out = policy.hook()(broadcast)
    assert out is broadcast
    assert np.array_equal(out, expected)


def test_dlg_restarts_never_hurt():
    rng_one = np.random.default_rng(3)
    rng_many = np.random.default_rng(3)
    model = MlpModel(2, 3, 1)
    theta = model.init_params(np.random.default_rng(1))
    x = np.array([0.1, 0.9])
    y = np.array([-0.3])
    _, observed = model.loss_and_gradient(theta, x[None, :], y[None, :])
    single = dlg_reconstruct(model, theta, observed, iters=80, rng=rng_one)
    multi = dlg_reconstruct(model, theta, observed, iters=80, rng=rng_many, restarts=3)
    assert multi.residual <= single.residual


@given(
    st.integers(1, 3),
    st.integers(1, 4),
    st.integers(1, 2),
    st.booleans(),
    st.booleans(),
    st.integers(0, 40),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_stacked_dlg_matches_the_looped_attack(
    in_dim, hidden, out_dim, true_observed, scaled, iters, restarts, seed
):
    # An observed gradient is either a real sample's or an arbitrary vector
    # that no sample gives.
    rng = np.random.default_rng(seed)
    model = MlpModel(in_dim, hidden, out_dim)
    theta = model.init_params(rng) * (3.0 if scaled else 1.0)
    true_x = rng.uniform(0.0, 1.0, in_dim)
    true_y = rng.uniform(-1.0, 1.0, out_dim)
    if true_observed:
        _, observed = model.loss_and_gradient(theta, true_x[None, :], true_y[None, :])
    else:
        observed = 0.1 * rng.standard_normal(model.dim)
    new = dlg_reconstruct(model, theta, observed, iters=iters, rng=np.random.default_rng(seed),
                          restarts=restarts)
    old = old_dlg_reconstruct(model, theta, observed, iters=iters,
                              rng=np.random.default_rng(seed), restarts=restarts, true_x=true_x)
    assert np.array_equal(new.x, old.x)
    assert new.residual == old.residual
    dx = new.x - true_x
    assert float(np.mean(dx * dx)) == old.input_mse


@pytest.mark.parametrize("budget", [{"restarts": 0}, {"restarts": -2}, {"iters": -5}])
def test_dlg_rejects_an_empty_restart_count_or_a_negative_iteration_count(budget):
    # Neither count used to be checked: restarts=0 ran one attempt, iters=-5 none.
    model = MlpModel(2, 3, 1)
    theta = model.init_params(np.random.default_rng(0))
    with pytest.raises(ValueError, match=next(iter(budget))):
        dlg_reconstruct(model, theta, np.zeros(model.dim), rng=np.random.default_rng(0), **budget)


def test_leakage_probe_on_real_transcript():
    codec = FixedPointCodec()
    rng = np.random.default_rng(5)
    transcript = Transcript()
    vectors = [np.array([0.25, -1.5]), np.array([2.0, 0.5]), np.array([1.0, 1.0])]
    session = SecAggSession(
        params=SharingParams(3, 1),
        contributors=(0, 1, 2),
        parties=(7, 8, 9),
        recipients=(0,),
    )
    secure_aggregate(vectors, session, codec, rng, transcript=transcript)
    encoded = [codec.encode_vector(v) for v in vectors]
    assert secure_leakage_probe(transcript, encoded) is True


def test_leakage_probe_flags_planted_value():
    codec = FixedPointCodec()
    vec = np.array([0.25, -1.5])
    encoded = codec.encode_vector(vec)
    leaky = Transcript()
    leaky.log(0, "share", (0,), (7,), 16, [[encoded[0]]])
    assert secure_leakage_probe(leaky, [encoded]) is False


def test_leakage_probe_rejects_a_transcript_without_payloads():
    # The private value goes on the wire, but only its length is kept.
    bare = Transcript(record_payloads=False)
    bare.log(0, "share", (0,), (7,), 16, [[12345]])
    with pytest.raises(ValueError, match="no payloads"):
        secure_leakage_probe(bare, [[12345]])


def test_compare_topologies_smoke():
    report = dlg_compare_topologies(0)
    assert np.isfinite(report.fedavg_input_mse)
    assert np.isfinite(report.dms_input_mse)
    assert report.transcript_clean is True


def test_poisoning_experiment_smoke():
    outcome = run_poisoning_experiment([0, 1], rounds=200, tail_rounds=50)
    assert outcome.seeds == [0, 1]
    assert outcome.dms_inflation.shape == (2,)
    assert np.all(outcome.dms_inflation > 0)
    assert np.all(outcome.fedavg_inflation > 0)
    assert np.isfinite(outcome.dms_median)


def test_poisoning_no_malicious_is_exactly_clean():
    outcome = run_poisoning_experiment([4], malicious_count=0, rounds=120, tail_rounds=30)
    assert outcome.dms_inflation[0] == pytest.approx(1.0)
    assert outcome.fedavg_inflation[0] == pytest.approx(1.0)


@pytest.mark.parametrize("mode", ["constant", "scaled"])
@pytest.mark.parametrize("malicious_count", [0, 3])
@pytest.mark.parametrize("rounds", [0, 40])
@pytest.mark.parametrize("tail_rounds", [10, 50])  # 50 is past every series' end
def test_poisoning_experiment_matches_the_per_arm_helper(mode, malicious_count, rounds, tail_rounds):
    options = dict(
        mode=mode,
        malicious_count=malicious_count,
        rounds=rounds,
        tail_rounds=tail_rounds,
        agent_count=8,
        subset_size=5,
    )
    new = run_poisoning_experiment([0, 1], **options)
    old = old_poisoning_experiment([0, 1], **options)
    assert new.seeds == old.seeds == [0, 1]
    assert np.array_equal(new.dms_inflation, old.dms_inflation)
    assert np.array_equal(new.fedavg_inflation, old.fedavg_inflation)


@pytest.mark.parametrize(
    "options",
    [dict(epsilon=1e9, rounds=40, tail_rounds=5), dict(gamma=2.5, rounds=100, tail_rounds=10)],
    ids=["poisoned-arms-diverge", "every-arm-diverges"],
)
def test_poisoning_experiment_matches_the_per_arm_helper_when_arms_diverge(options):
    # A stacked pair stops at its first arm's divergence; each arm's error
    # must still be read from a run that stopped where that arm diverged.
    options = dict(options, agent_count=8, subset_size=5)
    new = run_poisoning_experiment([0, 1], **options)
    old = old_poisoning_experiment([0, 1], **options)
    assert new.diverged
    assert np.array_equal(new.dms_inflation, old.dms_inflation)
    assert np.array_equal(new.fedavg_inflation, old.fedavg_inflation)


@pytest.mark.parametrize(
    "options",
    [
        {"tail_rounds": 0},
        {"tail_rounds": -3},
        {"malicious_count": -1},
        {"epsilon": float("nan")},
        {"epsilon": float("inf")},
    ],
    ids=["no-tail", "negative-tail", "negative-malicious", "nan-epsilon", "inf-epsilon"],
)
def test_poisoning_experiment_rejects_bad_counts_before_training(options, monkeypatch):
    def train(*args, **kwargs):
        raise AssertionError("training ran")

    monkeypatch.setattr(threats, "run_training", train)
    with pytest.raises(ValueError):
        run_poisoning_experiment([0], rounds=50, **options)


def test_poisoning_experiment_rejects_a_zero_dim():
    # Was a bare ZeroDivisionError from the learn stage's noise block size.
    with pytest.raises(ValueError, match="no agent or no weight"):
        run_poisoning_experiment([0], dim=0, rounds=5)
