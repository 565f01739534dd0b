import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmslearn import numerics
from dmslearn.consensus import run_training
from dmslearn.numerics import (
    MlpModel,
    NetworkTasks,
    NoiseModel,
    QuadraticTasks,
    local_step,
)

from oracles import (
    QuadraticTask,
    fd_gradient,
    old_forward,
    old_loss_and_gradient,
    per_vector_noise,
    scalar_error_recursion,
)


def test_quadratic_gradient_closed_form():
    # Each row's gradient is its own c_i * theta_i + b_i, and the
    # derivative of its loss.
    c = np.array([[2.0, 0.5], [1.0, 3.0]])
    b = np.array([[1.0, -1.0], [0.2, 0.4]])
    thetas = np.array([[0.3, -0.7], [-1.1, 0.6]])
    losses, grads = QuadraticTasks(c, b).loss_and_gradient(thetas)
    assert losses is None and grads.shape == (2, 2)
    for i in range(2):
        task = QuadraticTask(np.diag(c[i]), b[i])
        assert np.array_equal(grads[i], c[i] * thetas[i] + b[i])
        assert np.allclose(grads[i], fd_gradient(task.loss, thetas[i]), atol=1e-5)


@pytest.mark.parametrize("replicas", [None, 1, 3])
@pytest.mark.parametrize("n, d", [(1, 1), (4, 3), (7, 6)])
def test_quadratic_gradient_matches_the_dense_hessian_product(n, d, replicas):
    # Per-coordinate curvature gives each agent's dense diag(c_i) @ theta + b_i
    # bit for bit, on (n, d) weights and on each replica of an (r, n, d) stack.
    rng = np.random.default_rng(n * 10 + d)
    c, u = rng.uniform(0.1, 5.0, (n, d)), rng.uniform(-2, 2, (n, d))
    tasks = QuadraticTasks.from_optima(c, u)
    thetas = rng.uniform(-3, 3, (n, d) if replicas is None else (replicas, n, d))
    _, grads = tasks.loss_and_gradient(thetas)
    assert grads.shape == thetas.shape
    oracles = [QuadraticTask(np.diag(c[i]), tasks.lin_terms[i]) for i in range(n)]
    for stack, ref in zip(grads.reshape(-1, n, d), thetas.reshape(-1, n, d)):
        for i, task in enumerate(oracles):
            assert stack[i].tobytes() == task.gradient(ref[i]).tobytes()


def test_quadratic_from_optimum():
    c = np.array([[1.0, 4.0], [2.0, 0.5]])
    u = np.array([[2.0, -3.0], [0.5, 1.5]])
    tasks = QuadraticTasks.from_optima(c, u)
    assert tasks.shape == (2, 2)
    assert np.allclose(tasks.loss_and_gradient(u)[1], 0.0)
    for i in range(2):
        task = QuadraticTask(np.diag(tasks.curvature[i]), tasks.lin_terms[i])
        assert task.loss(u[i]) <= task.loss(u[i] + 0.1)


def one_quadratic(p: float) -> QuadraticTasks:
    """One agent on the one-dimensional curvature ``p``, minimizer 0."""
    return QuadraticTasks(np.array([[p]]), np.zeros((1, 1)))


def test_descent_below_stability_bound():
    # gamma < 2 / p_max contracts the error every step; the per-step factor
    # matches the scalar recursion exactly in one dimension.
    gamma = 0.3
    theta = np.array([[10.0]])
    errs = [abs(theta[0, 0])]
    for _ in range(20):
        losses, theta = local_step(one_quadratic(4.0), theta, gamma)
        assert losses is None
        errs.append(abs(theta[0, 0]))
    expected = scalar_error_recursion(gamma, 4.0, 10.0, 20)
    assert np.allclose(errs, expected)
    assert errs[-1] < errs[0]


def test_descent_above_stability_bound_diverges():
    gamma = 0.6  # past 2/4
    theta = np.array([[1.0]])
    for _ in range(30):
        theta = local_step(one_quadratic(4.0), theta, gamma)[1]
    assert abs(theta[0, 0]) > 1e3


@pytest.mark.parametrize("gamma", [0.0, -0.1, float("nan")])
def test_local_step_requires_positive_step(gamma):
    with pytest.raises(ValueError):
        local_step(one_quadratic(1.0), np.zeros((1, 1)), gamma)


def test_local_step_adds_exactly_the_noise_block():
    # One task-set call per step: the losses at the weights it was given,
    # and the plain step plus the (n, d) block, added as given.
    model = MlpModel(3, 4, 2)
    rng = np.random.default_rng(2)
    tasks = NetworkTasks(model, rng.normal(size=(2, 5, 3)), rng.normal(size=(2, 5, 2)))
    thetas = np.array([model.init_params(rng) for _ in range(2)])
    block = rng.normal(size=thetas.shape)
    losses, plain = local_step(tasks, thetas, 0.1)
    noisy_losses, noisy = local_step(tasks, thetas, 0.1, block)
    expected_losses, grad = tasks.loss_and_gradient(thetas)
    assert np.array_equal(losses, expected_losses) and np.array_equal(noisy_losses, losses)
    assert np.array_equal(plain, thetas - 0.1 * grad)
    assert np.array_equal(noisy, plain + block)


def test_mlp_unpack_round_trip():
    model = MlpModel(3, 5, 2)
    rng = np.random.default_rng(0)
    theta = model.init_params(rng)
    assert theta.shape == (model.dim,)
    w1, b1, w2, b2 = model.unpack(theta)
    assert w1.shape == (5, 3)
    assert b1.shape == (5,)
    assert w2.shape == (2, 5)
    assert b2.shape == (2,)
    flat = np.concatenate([w1.ravel(), b1.ravel(), w2.ravel(), b2.ravel()])
    assert np.array_equal(flat, theta)


def test_mlp_unpack_views_share_memory():
    model = MlpModel(2, 3, 1)
    theta = np.zeros(model.dim)
    w1, *_ = model.unpack(theta)
    w1[0, 0] = 5.0
    assert theta[0] == 5.0


def test_mlp_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    model = MlpModel(2, 4, 1)
    theta = model.init_params(rng)
    x = rng.standard_normal((8, 2))
    y = rng.standard_normal((8, 1))
    loss, grad = model.loss_and_gradient(theta, x, y)
    diff = model.forward(theta, x) - y
    assert loss == pytest.approx(np.mean(np.sum(diff * diff, axis=1)))
    ref = fd_gradient(lambda t: model.loss_and_gradient(t, x, y)[0], theta)
    assert np.allclose(grad, ref, atol=1e-6)


@given(
    st.integers(1, 5),
    st.integers(1, 20),
    st.integers(1, 12),
    st.integers(1, 8),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_stacked_forward_rows_equal_the_2d_forward(
    households, samples, in_dim, hidden, horizon, shared, seed
):
    # Either one weight row per household, or one vector broadcast over
    # every household, both as a (1, d) stack and as a flat vector.
    rng = np.random.default_rng(seed)
    model = MlpModel(in_dim, hidden, horizon)
    thetas = rng.standard_normal((1 if shared else households, model.dim))
    x = rng.standard_normal((households, samples, in_dim))
    outs = [model.forward(thetas, x)] + ([model.forward(thetas[0], x)] if shared else [])
    for out in outs:
        assert out.shape == (households, samples, horizon)
        for i in range(households):
            theta = thetas[0 if shared else i]
            assert np.array_equal(out[i], old_forward(model, theta, x[i]))
            assert np.array_equal(model.forward(theta, x[i]), out[i])


@given(
    st.lists(st.integers(1, 4), max_size=2),
    st.integers(1, 20),
    st.integers(1, 12),
    st.integers(1, 8),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_stacked_loss_and_gradient_rows_equal_the_2d_call(
    lead, samples, in_dim, hidden, horizon, stacked_theta, seed
):
    # One weight vector over a stack of batches, or one weight row per batch.
    assert_stacked_rows_equal_the_2d_call(
        tuple(lead), samples, in_dim, hidden, horizon, stacked_theta, np.random.default_rng(seed)
    )


# The forecast learn stage, the DLG switching arm and the centralized
# pool, then odd shapes.
@pytest.mark.parametrize(
    "n, samples, in_dim, hidden, horizon",
    [
        (30, 303, 48, 16, 1),
        (6, 1, 2, 4, 1),
        (1, 9090, 48, 16, 1),
        (2, 7, 3, 5, 2),
        (5, 1, 1, 1, 1),
        (3, 13, 9, 2, 3),
        (1, 1, 1, 1, 1),
    ],
)
def test_stacked_loss_and_gradient_rows_at_the_callers_shapes(n, samples, in_dim, hidden, horizon):
    rng = np.random.default_rng(n * samples + in_dim)
    assert_stacked_rows_equal_the_2d_call((n,), samples, in_dim, hidden, horizon, True, rng)


def assert_stacked_rows_equal_the_2d_call(
    lead, samples, in_dim, hidden, horizon, stacked_theta, rng
):
    model = MlpModel(in_dim, hidden, horizon)
    theta = rng.standard_normal((*lead, model.dim) if stacked_theta else model.dim)
    x = rng.standard_normal((*lead, samples, in_dim))
    y = rng.standard_normal((*lead, samples, horizon))
    losses, grads = model.loss_and_gradient(theta, x, y)
    losses = np.asarray(losses)  # a float for a 2-d batch
    assert losses.shape == lead
    assert grads.shape == (*lead, model.dim)
    for idx in np.ndindex(*lead):
        row = theta[idx] if stacked_theta else theta
        loss, grad = model.loss_and_gradient(row, x[idx], y[idx])
        assert type(loss) is float
        ref_loss, ref_grad = old_loss_and_gradient(model, row, x[idx], y[idx])
        assert loss == ref_loss and losses[idx] == ref_loss
        assert np.array_equal(grad, ref_grad) and np.array_equal(grads[idx], ref_grad)


def force_split(monkeypatch, k):
    """Split every network gradient into k blocks, whatever the host's cores
    and the blocks' sizes, so a one-core runner takes the threaded path."""
    monkeypatch.setattr(numerics, "_CORES", k)
    monkeypatch.setattr(numerics, "SPLIT_MIN_WORK", 1)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Odd n, n below k, (r, n, d) stacks, out_dim 1 and 2, in_dim 1, and the
# forecast learn stage's shape.
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize(
    "lead, samples, in_dim, hidden, horizon",
    [
        ((7,), 9, 3, 5, 1),
        ((2,), 6, 4, 3, 2),
        ((1,), 5, 2, 2, 1),
        ((3, 5), 4, 3, 4, 2),
        ((2, 3), 8, 1, 6, 1),
        ((5,), 11, 1, 3, 2),
        ((30,), 303, 48, 16, 1),
    ],
)
def test_split_gradient_equals_the_serial_call(monkeypatch, k, lead, samples, in_dim, hidden, horizon):
    rng = np.random.default_rng(k * 100 + samples)
    assert_split_equals_the_serial_call(monkeypatch, k, lead, samples, in_dim, hidden, horizon, rng)


@given(
    st.integers(1, 4),
    st.lists(st.integers(1, 3), max_size=1),
    st.integers(1, 9),
    st.integers(1, 10),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_split_gradient_equals_the_serial_call_at_random_shapes(
    k, replicas, n, samples, in_dim, hidden, horizon, seed
):
    with pytest.MonkeyPatch.context() as mp:
        assert_split_equals_the_serial_call(
            mp, k, (*replicas, n), samples, in_dim, hidden, horizon, np.random.default_rng(seed)
        )


def assert_split_equals_the_serial_call(monkeypatch, k, lead, samples, in_dim, hidden, horizon, rng):
    model = MlpModel(in_dim, hidden, horizon)
    n = lead[-1]
    thetas = rng.standard_normal((*lead, model.dim))
    x = rng.standard_normal((n, samples, in_dim))
    y = rng.standard_normal((n, samples, horizon))
    want_losses, want_grads = model.loss_and_gradient(thetas, x, y)
    force_split(monkeypatch, k)
    losses, grads = NetworkTasks(model, x, y).loss_and_gradient(thetas)
    assert_same_bits(losses, want_losses)
    assert_same_bits(grads, want_grads)


def test_split_gradient_stays_serial_below_the_work_floor(monkeypatch):
    # The blocks would carry too little work to pay for the handoff.
    model = MlpModel(3, 4, 1)
    tasks = NetworkTasks(model, np.ones((6, 5, 3)), np.ones((6, 5, 1)))
    monkeypatch.setattr(numerics, "_CORES", 4)
    monkeypatch.setattr(numerics._POOL, "submit", None)  # any handoff would fail
    tasks.loss_and_gradient(np.zeros((6, model.dim)))


def test_a_diverging_split_run_warns_nothing_and_flags_divergence(monkeypatch):
    # Huge output biases overflow every worker's squared error. The run's
    # error state ignores overflow on the calling thread, and the blocks on
    # the workers must follow it: no warning, inf losses, one round, as the
    # serial run.
    rng = np.random.default_rng(4)
    model = MlpModel(4, 6, 2)
    tasks = NetworkTasks(model, rng.standard_normal((5, 7, 4)), rng.standard_normal((5, 7, 2)))
    theta = model.init_params(rng)
    model.unpack(theta)[3][:] = 1e155
    inits = np.repeat(theta[None], 5, axis=0)
    runs = []
    for k in (1, 3):
        force_split(monkeypatch, k)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs.append(run_training(tasks, None, inits=inits, gamma=0.05, strategy="fedavg", rounds=5))
    serial, split = runs
    assert serial.diverged and split.diverged
    assert serial.rounds_completed == split.rounds_completed == 1
    assert np.all(np.isinf(split.metrics[0].train_losses))
    assert_same_bits(split.metrics[0].train_losses, serial.metrics[0].train_losses)
    for a, b in zip(serial.agents, split.agents):
        assert_same_bits(a.theta, b.theta)
        assert_same_bits(a.phi, b.phi)


def test_mlp_can_fit_tiny_problem():
    rng = np.random.default_rng(3)
    model = MlpModel(1, 8, 1)
    x = np.linspace(-1, 1, 16).reshape(-1, 1)
    y = 0.5 * x
    tasks = NetworkTasks(model, x[None], y[None])
    thetas = model.init_params(rng)[None]
    start = tasks.loss_and_gradient(thetas)[0][0]
    for _ in range(500):
        thetas = thetas - 0.1 * tasks.loss_and_gradient(thetas)[1]
    assert tasks.loss_and_gradient(thetas)[0][0] < 0.01 * start


def test_noise_zero_bound_is_silent():
    noise = NoiseModel(0.0)
    assert np.array_equal(noise.sample(5, np.random.default_rng(0)), np.zeros(5))


def test_noise_norm_capped():
    noise = NoiseModel(0.1, cap_factor=3.0)
    rng = np.random.default_rng(4)
    norms = [np.linalg.norm(noise.sample(10, rng)) for _ in range(2000)]
    assert max(norms) <= 0.3 + 1e-12
    # the cap leaves typical draws untouched
    assert np.mean(norms) == pytest.approx(0.1, rel=0.2)


@given(
    st.integers(1, 5),
    st.integers(1, 3),
    st.integers(1, 40),
    st.sampled_from([0.5, 1.0, 3.0]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_noise_block_equals_per_vector_draws(n, epochs, d, cap_factor, seed):
    noise = NoiseModel(0.1, cap_factor=cap_factor)
    block_rng, vector_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    block = noise.sample((n, epochs, d), block_rng)
    vectors = [per_vector_noise(noise, d, vector_rng) for _ in range(n * epochs)]
    assert np.array_equal(block, np.reshape(vectors, (n, epochs, d)))
    assert np.array_equal(noise.sample(d, block_rng), per_vector_noise(noise, d, vector_rng))
    assert block_rng.bit_generator.state == vector_rng.bit_generator.state


def test_noise_rejects_negative_bound():
    with pytest.raises(ValueError):
        NoiseModel(-0.1)


@pytest.mark.parametrize(
    "bound, cap_factor",
    [(np.nan, 3.0), (np.inf, 3.0), (-np.inf, 3.0), (0.1, 0.0), (0.1, -1.0), (0.1, np.nan)],
)
def test_noise_rejects_a_non_finite_bound_and_a_cap_factor_that_is_not_positive(bound, cap_factor):
    # Such a bound makes NaN or infinite noise; a negative cap factor
    # would flip the sign of every draw over the cap.
    with pytest.raises(ValueError):
        NoiseModel(bound, cap_factor=cap_factor)
