import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmslearn.numerics import (
    Dataset,
    MlpModel,
    MlpTask,
    NoiseModel,
    QuadraticTask,
    local_step,
    mse_loss,
)

from oracles import fd_gradient, old_forward, per_vector_noise, scalar_error_recursion


def test_mse_worked_value():
    pred = np.array([1.0, 2.0, 3.0])
    target = np.array([0.0, 0.0, 0.0])
    assert mse_loss(pred, target) == pytest.approx(14.0 / 3.0)


def test_mse_zero_on_match():
    x = np.array([[1.0], [2.0]])
    assert mse_loss(x, x) == 0.0


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=20),
    st.floats(min_value=-5, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_mse_shift_invariance(values, shift):
    a = np.array(values)
    assert mse_loss(a + shift, a) == pytest.approx(shift * shift, abs=1e-9)


def test_quadratic_gradient_closed_form():
    q = np.array([[2.0, 0.5], [0.5, 1.0]])
    b = np.array([1.0, -1.0])
    task = QuadraticTask(q, b)
    theta = np.array([0.3, -0.7])
    assert np.allclose(task.gradient(theta), q @ theta + b)
    assert np.allclose(task.gradient(theta), fd_gradient(task.loss, theta), atol=1e-5)


def test_quadratic_from_optimum():
    q = np.diag([1.0, 4.0])
    u = np.array([2.0, -3.0])
    task = QuadraticTask.from_optimum(q, u)
    assert np.allclose(task.gradient(u), 0.0)
    assert task.loss(u) <= task.loss(u + 0.1)


def test_quadratic_rejects_asymmetric():
    with pytest.raises(ValueError):
        QuadraticTask(np.array([[1.0, 0.2], [0.0, 1.0]]), np.zeros(2))


def test_descent_below_stability_bound():
    # gamma < 2 / p_max contracts the error every step; the per-step factor
    # matches the scalar recursion exactly in one dimension.
    task = QuadraticTask(np.array([[4.0]]), np.zeros(1))
    gamma = 0.3
    theta = np.array([10.0])
    errs = [abs(theta[0])]
    for _ in range(20):
        theta = local_step(task, theta, gamma)
        errs.append(abs(theta[0]))
    expected = scalar_error_recursion(gamma, 4.0, 10.0, 20)
    assert np.allclose(errs, expected)
    assert errs[-1] < errs[0]


def test_descent_above_stability_bound_diverges():
    task = QuadraticTask(np.array([[4.0]]), np.zeros(1))
    gamma = 0.6  # past 2/4
    theta = np.array([1.0])
    for _ in range(30):
        theta = local_step(task, theta, gamma)
    assert abs(theta[0]) > 1e3


def test_local_step_requires_positive_step():
    task = QuadraticTask(np.eye(1), np.zeros(1))
    with pytest.raises(ValueError):
        local_step(task, np.zeros(1), 0.0)


def test_dataset_column_coercion():
    d = Dataset(np.ones((4, 2)), np.arange(4.0))
    assert d.targets.shape == (4, 1)
    assert len(d) == 4


def test_dataset_shape_mismatch():
    with pytest.raises(ValueError):
        Dataset(np.ones((4, 2)), np.arange(3.0))


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
    assert loss == pytest.approx(mse_loss(model.forward(theta, x), y))
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


def test_mlp_task_wraps_dataset():
    rng = np.random.default_rng(2)
    model = MlpModel(2, 3, 1)
    data = Dataset(rng.standard_normal((6, 2)), rng.standard_normal(6))
    task = MlpTask(model, data)
    theta = model.init_params(rng)
    assert task.dim == model.dim
    assert task.loss(theta) == pytest.approx(
        model.loss_and_gradient(theta, data.features, data.targets)[0]
    )
    assert np.allclose(
        task.gradient(theta),
        model.loss_and_gradient(theta, data.features, data.targets)[1],
    )


def test_mlp_can_fit_tiny_problem():
    rng = np.random.default_rng(3)
    model = MlpModel(1, 8, 1)
    x = np.linspace(-1, 1, 16).reshape(-1, 1)
    y = 0.5 * x
    task = MlpTask(model, Dataset(x, y))
    theta = model.init_params(rng)
    start = task.loss(theta)
    for _ in range(500):
        theta = local_step(task, theta, 0.1)
    assert task.loss(theta) < 0.01 * start


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


def test_noisy_step_uses_rng():
    task = QuadraticTask(np.eye(2), np.zeros(2))
    noise = NoiseModel(0.5)
    with pytest.raises(ValueError):
        local_step(task, np.ones(2), 0.1, noise=noise)
    a = local_step(task, np.ones(2), 0.1, noise=noise, rng=np.random.default_rng(0))
    b = local_step(task, np.ones(2), 0.1, noise=noise, rng=np.random.default_rng(0))
    assert np.array_equal(a, b)
    c = local_step(task, np.ones(2), 0.1)
    assert not np.array_equal(a, c)
