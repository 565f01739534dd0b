"""Task sets, gradient steps, and the perturbation model.

A run's tasks are one stacked set with one learn contract:
``loss_and_gradient(thetas)`` maps the (n, d) weights to the n losses (or
None) and the (n, d) gradients, so the training loops never need to know
which family they are driving, and ``local_step`` is the one gradient
step the learn stage takes on them. Two families: quadratics with known
curvature bounds (the analysis objects) and a small dense network on
each agent's tabular windows (the demo workload).
"""

from __future__ import annotations

import contextvars
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MlpModel",
    "NetworkTasks",
    "NoiseModel",
    "QuadraticTasks",
    "TaskSet",
    "local_step",
]


@dataclass(frozen=True)
class QuadraticTasks:
    """Agent i minimizes ``0.5 theta' diag(c_i) theta + b_i' theta``, with
    the positive per-coordinate ``curvature`` (n, d) and ``lin_terms`` (n, d).

    Agent i's minimizer is ``-b_i / c_i``; the least and greatest entries
    of ``c_i`` bound its curvature from both sides, which is what the
    contraction analysis consumes.
    """

    curvature: np.ndarray
    lin_terms: np.ndarray

    @classmethod
    def from_optima(cls, curvature: np.ndarray, optima: np.ndarray) -> "QuadraticTasks":
        """The set whose agent i has curvature ``curvature[i]`` and minimizer ``optima[i]``."""
        c = np.asarray(curvature, dtype=float)
        return cls(c, -c * np.asarray(optima, dtype=float))

    @property
    def shape(self) -> tuple[int, int]:
        return self.lin_terms.shape

    def loss_and_gradient(self, thetas: np.ndarray) -> tuple[None, np.ndarray]:
        """No losses, and each row's ``c_i * theta_i + b_i``; the (n, d)
        terms broadcast over a stack of replicas (r, n, d)."""
        return None, self.curvature * thetas + self.lin_terms


class MlpModel:
    """One-hidden-layer tanh network with identity output.

    Parameters live in a single flat vector; ``unpack`` returns views into
    it so the gradient assembles without copies. Backprop is written out
    by hand to keep the whole gradient path in plain numpy.
    """

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int) -> None:
        if min(in_dim, hidden_dim, out_dim) < 1:
            raise ValueError("layer sizes must be positive")
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.out_dim = out_dim
        self.dim = hidden_dim * in_dim + hidden_dim + out_dim * hidden_dim + out_dim

    def init_params(self, rng: np.random.Generator) -> np.ndarray:
        """Scaled-normal init, biases zero."""
        w1 = rng.standard_normal((self.hidden_dim, self.in_dim)) / np.sqrt(self.in_dim)
        w2 = rng.standard_normal((self.out_dim, self.hidden_dim)) / np.sqrt(self.hidden_dim)
        theta = np.zeros(self.dim)
        v1, b1, v2, b2 = self.unpack(theta)
        v1[:] = w1
        v2[:] = w2
        return theta

    def unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Views (W1, b1, W2, b2) into the flat vector, or into each row of
        a stack of them: leading axes of ``theta`` lead every view."""
        h, d, o = self.hidden_dim, self.in_dim, self.out_dim
        lead = theta.shape[:-1]
        k = 0
        w1 = theta[..., k : k + h * d].reshape(*lead, h, d)
        k += h * d
        b1 = theta[..., k : k + h]
        k += h
        w2 = theta[..., k : k + o * h].reshape(*lead, o, h)
        k += o * h
        b2 = theta[..., k : k + o]
        return w1, b1, w2, b2

    def forward(self, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Predictions (..., samples, out_dim) for inputs (..., samples, in_dim).

        Leading axes of ``theta`` (..., dim) and ``x`` broadcast, so one
        call evaluates each agent on its own batch, or one weight vector
        on a stack of batches; each batch's rows equal the 2-d call's bit
        for bit.
        """
        return self._layers(theta, x)[2]

    def _layers(self, theta: np.ndarray, x: np.ndarray):
        """The forward pass shared with the gradient: (W2, tanh hidden layer, predictions)."""
        w1, b1, w2, b2 = self.unpack(np.asarray(theta, dtype=float))
        hidden = x @ np.swapaxes(w1, -1, -2)
        hidden += b1[..., None, :]
        np.tanh(hidden, out=hidden)
        out = hidden @ np.swapaxes(w2, -1, -2)
        out += b2[..., None, :]
        return w2, hidden, out

    def loss_and_gradient(
        self, theta: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[float | np.ndarray, np.ndarray]:
        """Loss (...) and gradient (..., dim) for weights (..., dim), inputs
        (..., samples, in_dim) and targets (..., samples, out_dim).

        Leading axes broadcast as in :meth:`forward`, so one call serves
        each agent on its own batch, or one weight vector on a stack of
        batches; each batch gets its own 2-d call's result bit for bit,
        and a 2-d call gets a ``float`` loss. The transients are reused in
        place, so a stacked call holds no more than two hidden-size buffers.
        """
        # Not self.forward: the benchmark's span on it keeps one stack, and this runs on workers.
        w2, hidden, diff = self._layers(theta, x)
        n = x.shape[-2]
        diff -= y
        loss = np.mean(np.sum(diff * diff, axis=-1), axis=-1)

        grad = np.zeros(diff.shape[:-2] + (self.dim,))
        g1, gb1, g2, gb2 = self.unpack(grad)
        # d loss / d pred for the per-sample squared L2 averaged over n.
        delta_out = diff
        delta_out *= 2.0
        delta_out /= n
        g2[...] = np.swapaxes(delta_out, -1, -2) @ hidden
        gb2[...] = delta_out.sum(axis=-2)
        delta_hid = delta_out @ w2
        hidden *= hidden
        delta_hid *= np.subtract(1.0, hidden, out=hidden)
        g1[...] = np.swapaxes(delta_hid, -1, -2) @ x
        gb1[...] = delta_hid.sum(axis=-2)
        return (float(loss) if loss.ndim == 0 else loss), grad


# Usable cores; the least ``x @ W1.T`` multiply-adds a block of agents must carry
# to go to a worker (the handoff's measured break-even); workers start on first use.
_CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
SPLIT_MIN_WORK = 1 << 19
_POOL = ThreadPoolExecutor(max(_CORES - 1, 1), thread_name_prefix="dmslearn-agents")


@dataclass(frozen=True)
class NetworkTasks:
    """Agent i fits ``model`` to its own inputs ``x[i]`` (samples, in_dim)
    and targets ``y[i]`` (samples, out_dim); every agent has as many samples.
    The gradient runs in up to one block of agents per core, on the calling
    thread and on ``_POOL``, each in a copy of the caller's context (numpy's
    error state included), and gives every agent the serial call's result."""

    model: MlpModel
    x: np.ndarray
    y: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.x), self.model.dim)

    def loss_and_gradient(self, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n, (samples, in_dim), run = len(self.x), self.x.shape[-2:], self.model.loss_and_gradient
        work = thetas.size // self.model.dim * samples * in_dim * self.model.hidden_dim
        k = min(_CORES, n, work // SPLIT_MIN_WORK)
        if k < 2:
            return run(thetas, self.x, self.y)
        cuts = [n * j // k for j in range(k + 1)]
        blocks = [(thetas[..., a:b, :], self.x[a:b], self.y[a:b]) for a, b in zip(cuts, cuts[1:])]
        futures = [_POOL.submit(contextvars.copy_context().run, run, *blk) for blk in blocks[1:]]
        losses, grads = zip(run(*blocks[0]), *(f.result() for f in futures))
        return np.concatenate(losses, axis=-1), np.concatenate(grads, axis=-2)


TaskSet = QuadraticTasks | NetworkTasks


@dataclass(frozen=True)
class NoiseModel:
    """Bounded zero-mean perturbation added to each local update.

    Draws isotropic Gaussian noise with per-coordinate scale
    ``bound / sqrt(dim)`` and rescales any draw whose norm exceeds
    ``cap_factor * bound``, so the second moment stays at or below
    ``bound ** 2`` while the support stays bounded.
    """

    bound: float
    cap_factor: float = 3.0

    def __post_init__(self) -> None:
        if not 0 <= self.bound < np.inf:
            raise ValueError(f"noise bound must be finite and nonnegative, got {self.bound}")
        if not self.cap_factor > 0:
            raise ValueError(f"noise cap factor must be positive, got {self.cap_factor}")

    def sample(self, shape: int | tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Noise of ``shape``; each vector along the last axis is one draw.

        A block is the same stream as one 1-d draw per vector in C order.
        The cap screens vectors by batched squared norm, which can differ
        from ``np.linalg.norm`` in the last bits, and rescales each
        candidate by its own norm, so every vector equals its 1-d draw.
        """
        shape = (shape,) if np.isscalar(shape) else tuple(shape)
        if self.bound == 0.0:
            return np.zeros(shape)
        w = rng.standard_normal(shape) * (self.bound / np.sqrt(shape[-1]))
        cap = self.cap_factor * self.bound
        rows = w.reshape(-1, shape[-1])
        over = np.einsum("ij,ij->i", rows, rows) > cap * cap * (1 - 1e-9)
        for i in np.flatnonzero(over):
            norm = float(np.linalg.norm(rows[i]))
            if norm > cap:
                rows[i] *= cap / norm
        return w


def local_step(
    tasks: TaskSet, thetas: np.ndarray, gamma: float, noise: np.ndarray | None = None
) -> tuple[np.ndarray | None, np.ndarray]:
    """One gradient step on every row of the stacked (n, d) weights, from
    one ``tasks.loss_and_gradient`` call: the losses at ``thetas`` (or
    None) and ``thetas - gamma * grad``, plus the (n, d) ``noise`` block
    when one is given."""
    if not gamma > 0:
        raise ValueError("step size must be positive")
    losses, grad = tasks.loss_and_gradient(thetas)
    thetas = thetas - gamma * grad
    return losses, thetas if noise is None else thetas + noise
