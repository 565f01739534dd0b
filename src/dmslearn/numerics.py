"""Local objectives, gradient steps, and the perturbation model.

Two task families: quadratics with known curvature bounds (the analysis
objects) and a small dense network on tabular windows (the demo workload).
Both expose loss/gradient on a flat parameter vector so the training loops
never need to know which one they are driving.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

__all__ = [
    "Dataset",
    "LocalTask",
    "MlpModel",
    "MlpTask",
    "NoiseModel",
    "QuadraticTask",
    "local_step",
    "mse_loss",
]


class LocalTask(Protocol):
    """Anything the training loops can optimize locally."""

    dim: int

    def loss(self, theta: np.ndarray) -> float: ...

    def gradient(self, theta: np.ndarray) -> np.ndarray: ...


@dataclass(frozen=True)
class QuadraticTask:
    """``L(theta) = 0.5 theta' Q theta + b' theta`` with symmetric
    positive definite ``Q``.

    The unique minimizer is ``-Q^{-1} b``; eigenvalues of ``Q`` bound the
    curvature from both sides, which is what the contraction analysis
    consumes.
    """

    hessian: np.ndarray
    lin_term: np.ndarray

    def __post_init__(self) -> None:
        q = np.asarray(self.hessian, dtype=float)
        b = np.asarray(self.lin_term, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("hessian must be square")
        if not np.allclose(q, q.T):
            raise ValueError("hessian must be symmetric")
        if b.shape != (q.shape[0],):
            raise ValueError("linear term shape mismatch")
        object.__setattr__(self, "hessian", q)
        object.__setattr__(self, "lin_term", b)

    @classmethod
    def from_optimum(cls, hessian: np.ndarray, optimum: np.ndarray) -> "QuadraticTask":
        """Quadratic with the given curvature whose minimizer is ``optimum``."""
        q = np.asarray(hessian, dtype=float)
        b = -q @ np.asarray(optimum, dtype=float)
        return cls(hessian=q, lin_term=b)

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]

    def loss(self, theta: np.ndarray) -> float:
        t = np.asarray(theta, dtype=float)
        return float(0.5 * t @ self.hessian @ t + self.lin_term @ t)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.hessian @ np.asarray(theta, dtype=float) + self.lin_term


def mse_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Mean over samples of the squared L2 error."""
    diff = np.asarray(pred, dtype=float) - np.asarray(target, dtype=float)
    if diff.ndim == 1:
        diff = diff[:, None]
    return float(np.mean(np.sum(diff * diff, axis=1)))


@dataclass(frozen=True)
class Dataset:
    """Feature matrix and targets for one agent."""

    features: np.ndarray
    targets: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.features, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if x.ndim != 2:
            raise ValueError("features must be 2-d")
        if y.ndim == 1:
            y = y[:, None]
        if y.shape[0] != x.shape[0]:
            raise ValueError("feature/target row mismatch")
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "targets", y)

    def __len__(self) -> int:
        return self.features.shape[0]


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
        w1, b1, w2, b2 = self.unpack(np.asarray(theta, dtype=float))
        hidden = x @ np.swapaxes(w1, -1, -2)
        hidden += b1[..., None, :]
        np.tanh(hidden, out=hidden)
        out = hidden @ np.swapaxes(w2, -1, -2)
        out += b2[..., None, :]
        return out

    def loss_and_gradient(
        self, theta: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        w1, b1, w2, b2 = self.unpack(theta)
        n = x.shape[0]
        act = x @ w1.T + b1
        hidden = np.tanh(act)
        pred = hidden @ w2.T + b2
        diff = pred - y
        loss = float(np.mean(np.sum(diff * diff, axis=1)))

        grad = np.zeros_like(theta)
        g1, gb1, g2, gb2 = self.unpack(grad)
        # d loss / d pred for the per-sample squared L2 averaged over n.
        delta_out = 2.0 * diff / n
        g2[:] = delta_out.T @ hidden
        gb2[:] = delta_out.sum(axis=0)
        delta_hid = (delta_out @ w2) * (1.0 - hidden * hidden)
        g1[:] = delta_hid.T @ x
        gb1[:] = delta_hid.sum(axis=0)
        return loss, grad


@dataclass(frozen=True)
class MlpTask:
    """A network bound to one agent's data, exposed as a LocalTask."""

    model: MlpModel
    data: Dataset

    @property
    def dim(self) -> int:
        return self.model.dim

    def loss(self, theta: np.ndarray) -> float:
        pred = self.model.forward(theta, self.data.features)
        return mse_loss(pred, self.data.targets)

    def loss_and_gradient(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        return self.model.loss_and_gradient(theta, self.data.features, self.data.targets)

    def gradient(self, theta: np.ndarray) -> np.ndarray:
        return self.loss_and_gradient(theta)[1]


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
        if self.bound < 0:
            raise ValueError("noise bound must be nonnegative")

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
    task: LocalTask,
    theta: np.ndarray,
    step_size: float,
    *,
    noise: NoiseModel | None = None,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One perturbed gradient step: ``theta - step_size * grad + w``."""
    if step_size <= 0:
        raise ValueError("step size must be positive")
    phi = np.asarray(theta, dtype=float) - step_size * task.gradient(theta)
    if noise is not None and noise.bound > 0.0:
        if rng is None:
            raise ValueError("noise sampling needs an rng")
        phi = phi + noise.sample(task.dim, rng)
    return phi
