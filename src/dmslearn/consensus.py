"""Round-based training engine and the contraction-bound monitor.

Every strategy runs the same round on the stacked (n, d) weights: a learn
stage of ``epochs`` perturbed gradient steps, each one ``local_step`` on
every row at once, and a mix stage, where the (hooked) outgoing weights
are averaged and scaled by ``alpha``. ``dms``, ``dfc``, ``dring`` and
``centralized`` learn then mix over the round's graph, ``ctl`` mixes then
learns, and ``fedavg`` learns then takes the server mean over all agents.
Secure mode routes every averaging sum through the threshold-sharing
sessions that ``party_placement`` derives from the round graph instead of
plaintext arithmetic. ``run_training`` draws each round's graph and
calls the one round body, ``_round``, with the strategy's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .numerics import NoiseModel, TaskSet, local_step
from .secagg import (
    FixedPointCodec,
    SecAggError,
    Transcript,
    party_placement,
    secure_aggregate,
)
from .topology import Graph, MarkovSchedule

__all__ = [
    "DIVERGENCE_CAP",
    "AgentState",
    "ContractionParams",
    "ContractionReport",
    "ConvergenceMonitor",
    "RoundFailure",
    "SecureSetup",
    "TrainingRun",
    "contraction_check",
    "lr_bound",
    "max_disagreement",
    "run_training",
]

# Gets the round's own copy of the (n, d) broadcast, which it may edit; returns what is sent.
BroadcastHook = Callable[[np.ndarray], np.ndarray]

DIVERGENCE_CAP = 1e12


def _diverged(values) -> bool:
    """The divergence rule: some value is non-finite or above ``DIVERGENCE_CAP``, 1e12, in size."""
    # NaN propagates through the maximum and fails the comparison; a float skips numpy.
    size = abs(values) if isinstance(values, float) else np.abs(np.asarray(values, float)).max()
    return not size <= DIVERGENCE_CAP


class RoundFailure(RuntimeError):
    """A round aborted; carries the round index and the underlying cause."""

    def __init__(self, round_index: int, cause: Exception) -> None:
        super().__init__(f"round {round_index} failed: {cause}")
        self.round_index = round_index
        self.cause = cause


@dataclass
class AgentState:
    """One agent's weights at the end of a run: ``theta`` is the
    post-consensus weight vector, ``phi`` the last local-step result (the
    value the agent broadcast in the last round; None after zero rounds)."""

    theta: np.ndarray
    phi: np.ndarray | None = None


# A run's traffic: one record a round of its graph size, logical messages and their bytes.
_TRAFFIC = np.dtype(
    (np.record, [(f, np.int64) for f in ("edge_count", "active_agents", "messages", "bytes")])
)


@dataclass
class SecureSetup:
    """Everything the secure averaging path needs."""

    rng: np.random.Generator
    codec: FixedPointCodec = field(default_factory=FixedPointCodec)
    transcript: Transcript = field(default_factory=Transcript)


class ConvergenceMonitor:
    """Per-round squared weight errors against a known optimum.

    Records the per-agent values so Monte-Carlo repetitions can be
    averaged agent-wise before taking the worst-agent envelope.
    """

    def __init__(self, optimum: np.ndarray) -> None:
        self.optimum = np.asarray(optimum, dtype=float)
        self.theta_sq: list[np.ndarray] = []

    def record(self, thetas: np.ndarray) -> float:
        """Store one row of per-agent squared errors, (r, n) for a stack of r
        replicas; return its maximum."""
        diff = thetas - self.optimum
        diff *= diff
        row = diff.sum(axis=-1)
        self.theta_sq.append(row)
        return float(row.max())

    @property
    def theta_errors(self) -> np.ndarray:
        """(rounds+1, [r,] agents) squared errors; row 0 is the initial state."""
        return np.array(self.theta_sq)

    @property
    def worst_mse(self) -> np.ndarray:
        """(rounds+1, [r]) worst-agent errors, one column per replica of a stack."""
        return self.theta_errors.max(axis=-1)


def max_disagreement(thetas: np.ndarray) -> float:
    """Largest pairwise L2 distance between agent weight vectors.

    Each row is compared with itself and the rows after it, so every pair
    is measured once; the self term makes a non-finite row give NaN. Rows
    with the same bytes give the same distances, so only one of them is
    kept; rows whose first coordinates all differ in bits are all distinct.
    """
    t = np.asarray(thetas, dtype=float)
    if np.unique(t[:, :1].view(np.int64)).size < len(t):
        t = np.array(list({row.tobytes(): row for row in t}.values()))
    worst = []
    for i in range(len(t)):
        diff = t[i:] - t[i]
        diff *= diff
        worst.append(diff.sum(axis=1).max())
    return float(np.sqrt(np.max(worst)))


def lr_bound(p_upper):
    """Largest admissible learning rate for curvature bound ``p_upper``."""
    p = np.asarray(p_upper, dtype=float)
    if np.any(p <= 0):
        raise ValueError("curvature bound must be positive")
    out = 2.0 / p
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ContractionParams:
    """Per-agent quantities entering the contraction bound."""

    p_lower: np.ndarray
    p_upper: np.ndarray
    xi: np.ndarray
    step_sizes: np.ndarray
    alpha: float = 1.0

    def __post_init__(self) -> None:
        for name in ("p_lower", "p_upper", "xi", "step_sizes"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.p_lower.shape != self.p_upper.shape:
            raise ValueError("curvature bound shape mismatch")
        if np.any(self.p_lower < 0) or np.any(self.p_upper < self.p_lower):
            raise ValueError("need 0 <= p_lower <= p_upper")
        if np.any(self.xi < 0):
            raise ValueError("noise bounds must be nonnegative")
        if not (0 < self.alpha <= 1):
            raise ValueError("alpha must lie in (0, 1]")

    @property
    def lambda_bar(self) -> np.ndarray:
        """Worst-direction squared contraction of one local step."""
        lo = (1.0 - self.step_sizes * self.p_lower) ** 2
        hi = (1.0 - self.step_sizes * self.p_upper) ** 2
        return np.maximum(lo, hi)

    @property
    def step_size_ok(self) -> bool:
        return bool(np.all(self.step_sizes <= lr_bound(self.p_upper) + 1e-12))


@dataclass(frozen=True)
class ContractionReport:
    contraction: float
    limit_bound: float
    step_size_ok: bool
    stable: bool
    tail_within_bound: bool
    empirical_slope: float | None
    slope_within_rate: bool | None
    diverged: bool


def contraction_check(
    monitor: ConvergenceMonitor,
    params: ContractionParams,
    mixing: np.ndarray,
    *,
    noise_free: bool,
) -> ContractionReport:
    """Compare a recorded trajectory against the contraction bound.

    Checks, in order: the per-agent contraction factors stay at or below
    one for the configured step sizes; with noise, the mean worst-agent
    error over the last fifth of the rounds stays within 1.5 times the
    predicted noise floor; without noise, the fitted log-error slope is no
    worse than the log contraction rate plus 0.01. The slope fit stops
    where the errors reach 1e-25, before arithmetic round-off.
    """
    a = np.asarray(mixing, dtype=float)
    contraction = params.alpha * float((a @ params.lambda_bar).max())
    limit_bound = params.alpha * float((params.xi**2).max())

    if not monitor.theta_sq:  # before worst_mse, which cannot reduce an empty series
        raise ValueError("monitor holds no rounds")
    series = monitor.worst_mse
    tail_len = max(1, int(round(0.2 * series.size)))
    tail_mean = float(series[-tail_len:].mean())
    diverged = _diverged(series)

    empirical_slope = None
    slope_within = None
    if noise_free and not diverged:
        log_series = np.log(np.maximum(series, 1e-300))
        above = np.nonzero(series > 1e-25)[0]
        if above.size >= 5:
            ks = above[1:]  # drop round 0: the first step can be atypical
            if ks.size >= 4:
                empirical_slope = float(np.polyfit(ks, log_series[ks], 1)[0])
                slope_within = bool(empirical_slope <= np.log(max(contraction, 1e-300)) + 0.01)
    tail_ok = bool(tail_mean <= 1.5 * limit_bound) if not noise_free else True

    return ContractionReport(
        contraction=contraction,
        limit_bound=limit_bound,
        step_size_ok=params.step_size_ok,
        stable=bool(contraction <= 1.0),
        tail_within_bound=tail_ok,
        empirical_slope=empirical_slope,
        slope_within_rate=slope_within,
        diverged=diverged,
    )


# The learn stage: stacked weights in, stepped weights and the first
# step's per-agent losses (or None) out.
Learn = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray | None]]


def _learner(
    tasks: TaskSet,
    gamma: float,
    epochs: int,
    noise: NoiseModel | None,
    noise_rng: np.random.Generator | None,
    rounds: int,
) -> Learn:
    """The learn stage: ``epochs`` stacked ``local_step`` calls, looked up
    through this module's global when the stage runs, on the (n, d) weights.
    Each call adds one agent-major (n, epochs, d) noise row, the stream of
    drawing agent 0's steps first. Rows are drawn in blocks of
    ``max(1, 2**16 // (n * epochs * d))`` calls, never past ``rounds``, and
    a block is the stream of its rows in turn. A call returns the first
    step's losses, the losses at the weights the call started from."""
    noisy = noise is not None and noise.bound > 0.0
    if noisy and noise_rng is None:
        raise ValueError("noise sampling needs an rng")
    n, d = tasks.shape
    block, drawn, rows = max(1, 2**16 // (n * epochs * d)), 0, iter(())

    def learn(thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        nonlocal drawn, rows
        draws = next(rows, None) if noisy else None
        if noisy and draws is None:
            b = max(1, min(rounds - drawn, block))
            drawn, rows = drawn + b, iter(noise.sample((b, n, epochs, d), noise_rng))
            draws = next(rows)
        losses, thetas = local_step(tasks, thetas, gamma, draws[:, 0] if noisy else None)
        for e in range(1, epochs):
            thetas = local_step(tasks, thetas, gamma, draws[:, e] if noisy else None)[1]
        return thetas, losses

    return learn


def _secure_mix(
    broadcast: np.ndarray, graph: Graph | None, secure: SecureSetup, round_index: int
) -> np.ndarray:
    """Group averaging computed through secure summation.

    Uniform closed-neighborhood weights turn each agent's mix into a plain
    sum over its aggregation group divided by the group size, which is
    exactly what a secure-sum session provides. The server session reveals
    the sum to the server, which hands the mean back to every contributor.
    """
    n = broadcast.shape[0]
    mixed = broadcast.copy()  # isolated agents keep their own phi
    sessions = party_placement(graph, agent_count=n, prime=secure.codec.prime)
    for session in sessions:
        total = secure_aggregate(
            broadcast[list(session.contributors)],
            session,
            secure.codec,
            secure.rng,
            transcript=secure.transcript,
            round_index=round_index,
        )
        targets = session.contributors if graph is None else session.recipients
        mixed[list(targets)] = total / len(session.contributors)
    return mixed


def _round_traffic(graph: Graph | None, shape, secure: SecureSetup | None, before):
    """One round's (edge_count, active_agents, messages, bytes) row on (n, d) weights. A
    secure round's messages and bytes are what the transcript's counters gained since
    ``before``, their (messages, bytes) at the round's start."""
    n, d = shape
    if graph is None:  # a server round: one upload and one download per agent
        edge_count, active, messages = n, n, 2 * n
    else:
        # One logical message per directed edge: each agent sends its broadcast to every neighbor.
        edge_count, (messages, active) = graph.edge_count, graph.counts
    if secure is None:
        # Each plaintext message carries d float64 weights.
        return edge_count, active, messages, messages * d * 8
    t = secure.transcript
    return edge_count, active, t.messages - before[0], t.bytes - before[1]


def _round(
    thetas: np.ndarray,
    graph: Graph | None,
    learn: Learn,
    *,
    learn_first: bool,
    alpha: float,
    broadcast_hook: BroadcastHook | None,
    secure: SecureSetup | None,
    round_index: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The one round body on stacked (n, d) weights: ``learn`` and a mix
    stage, in either order; returns the new weights, the learn output and
    the learn stage's losses. Mix hooks the outgoing weights, averages them
    with the round graph's mixing matrix, the server mean when ``graph`` is
    None, or the secure sessions of ``party_placement``, and scales by
    ``alpha``. ``run_training`` checks that ``graph`` fits.
    """
    outgoing, losses = learn(thetas) if learn_first else (thetas, None)
    # The hook gets the round's one copy: an in-place edit must not reach theta or phi.
    broadcast = outgoing if broadcast_hook is None else broadcast_hook(outgoing.copy())

    if secure is not None:
        try:
            mixed = _secure_mix(broadcast, graph, secure, round_index)
        except SecAggError as exc:
            raise RoundFailure(round_index, exc) from exc
    elif graph is None:
        # Every agent holds exactly the server's mean.
        mixed = np.repeat(broadcast.mean(axis=-2)[..., None, :], broadcast.shape[-2], axis=-2)
    else:
        mixed = graph.mixing @ broadcast
    mixed *= alpha  # every mix above returns a fresh array

    if learn_first:
        thetas, phis = mixed, outgoing
    else:
        phis, losses = learn(mixed)
        thetas = phis
    return thetas, phis, losses


# The benchmark's trace binds these names and patches every module name bound to the same
# function, so the aliases keep its ``consensus.round`` span; delete them once it names _round.
dms_round = ctl_round = fedavg_round = _round


@dataclass
class TrainingRun:
    """Everything a finished (or aborted) run leaves behind. ``metrics`` holds one row a round
    of the int64 fields ``edge_count``, ``active_agents``, ``messages`` and ``bytes``: round k
    reads as ``metrics[k].messages``, a column as ``metrics.messages``."""

    agents: list[AgentState]
    metrics: np.recarray
    terminated_early: bool
    diverged: bool

    @property
    def rounds_completed(self) -> int:
        return len(self.metrics)

    @property
    def rounds_to_tolerance(self) -> int | None:
        return self.rounds_completed if self.terminated_early else None


def run_training(
    tasks: TaskSet,
    schedule: MarkovSchedule | None,
    *,
    inits: np.ndarray,
    gamma: float,
    strategy: str = "dms",
    rounds: int,
    alpha: float = 1.0,
    noise: NoiseModel | None = None,
    noise_rng: np.random.Generator | None = None,
    broadcast_hook: BroadcastHook | None = None,
    secure: SecureSetup | None = None,
    monitor: ConvergenceMonitor | None = None,
    tolerance: float | None = None,
    epochs: int = 1,
    on_round: Callable[[int, np.ndarray, np.ndarray, np.record, np.ndarray | None], None] | None = None,
) -> TrainingRun:
    """Drive a strategy for ``rounds`` rounds or until the worst-agent
    squared error drops below ``tolerance``.

    A tolerance needs a monitor, which supplies the reference optimum
    (without one the call raises ``ValueError``). The check fires before
    the first round too, so a run that starts converged reports zero
    rounds. After each round one ``_diverged`` test, of the worst squared error with a
    monitor and of the weights without one, stops and flags a divergent run, without
    overflow warnings. The error test flags every weight past the cap too when the optimum
    lies within 1e12 - 1e6 of the origin; the package's lie within |bias_amp| + |bias_amp2|.

    The rounds start from a copy of the (n, d) ``inits``, which must match
    the task set's (n, d), n and d positive, and step every agent with the
    learning rate ``gamma``; each mix is scaled by ``alpha``, in (0, 1].
    Inits of shape (r, n, d) run r replicas, each as its own run would,
    sharing the task set, every round's graph and noise, alpha and the
    monitor's optimum; the run stops when one diverges,
    and a stack takes no secure mode or tolerance. After round k,
    ``on_round(k, thetas, phis, row, losses)`` gets the round's stacked (n, d)
    weights and learn outputs, which no later round edits, its traffic row
    and the learn stage's first-step losses (None for quadratic tasks); after a
    ``RoundFailure`` they are the only record of the last completed round.
    The run's agents, ``AgentState`` records of the final rows, are built
    when the run ends. Noise and schedule draws are planned for the whole
    budget: an early stop leaves their rngs ahead.
    """
    if rounds < 0:
        raise ValueError("round budget must be nonnegative")
    if strategy not in {"dms", "dfc", "dring", "ctl", "centralized", "fedavg"}:
        raise ValueError(f"unknown strategy {strategy!r}")
    if (schedule is None) != (strategy == "fedavg"):  # fedavg mixes by the server mean
        need = "needs a" if schedule is None else "takes no"
        raise ValueError(f"{strategy} {need} topology schedule")

    if epochs < 1:
        raise ValueError("epochs must be positive")
    if not gamma > 0:
        raise ValueError("learning rate must be positive")
    if not 0 < alpha <= 1:
        raise ValueError("alpha must lie in (0, 1]")
    thetas = np.array(inits, dtype=float)
    if thetas.shape[-2:] != tasks.shape or thetas.ndim not in (2, 3):
        raise ValueError(f"inits of shape {thetas.shape} for a task set of shape {tasks.shape}")
    if thetas.ndim == 3 and (secure is not None or tolerance is not None):
        raise ValueError("a stack of replicas takes no secure mode and no tolerance")
    if thetas.size == 0:
        raise ValueError(f"a task set of shape {tasks.shape} has no agent or no weight to train")
    # MarkovSchedule holds graphs of one agent count.
    if schedule is not None and schedule.substructures[0].agent_count != thetas.shape[-2]:
        raise ValueError("schedule graph does not cover the agent set")
    if strategy == "fedavg" and not np.all(thetas == thetas[..., :1, :]):
        raise ValueError("fedavg agents must share the initial weights")

    phis, done = None, 0
    rows = np.zeros(rounds, _TRAFFIC)  # a row reads as rows[k].messages
    if tolerance is not None and monitor is None:
        raise ValueError("a tolerance needs a monitor, whose optimum it is measured against")
    worst = None if monitor is None else monitor.record(thetas)
    terminated = tolerance is not None and worst < tolerance
    diverged = False
    learn = _learner(tasks, gamma, epochs, noise, noise_rng, rounds)
    options = dict(alpha=alpha, broadcast_hook=broadcast_hook, secure=secure)
    # An overflow is a divergence, which the loop reports.
    with np.errstate(over="ignore"):
        for k in range(0 if terminated else rounds):
            # The schedule plans its draws for the rounds left; fedavg mixes by the server mean.
            graph = None if schedule is None else schedule.advance(rounds - k)
            before = None if secure is None else (secure.transcript.messages, secure.transcript.bytes)
            thetas, phis, losses = _round(
                thetas, graph, learn, learn_first=strategy != "ctl", round_index=k, **options
            )
            rows[k] = _round_traffic(graph, tasks.shape, secure, before)
            done = k + 1
            if monitor is not None:
                worst = monitor.record(thetas)
            if on_round is not None:
                on_round(k, thetas, phis, rows[k], losses)
            if _diverged(thetas if monitor is None else worst):
                diverged = True
                break
            if tolerance is not None and worst < tolerance:
                terminated = True
                break
    thetas = np.swapaxes(thetas, 0, -2)  # agent-major: a stack's agents hold (r, d) rows
    last_phis = [None] * len(thetas) if phis is None else np.swapaxes(phis, 0, -2)
    return TrainingRun(
        agents=[AgentState(theta, phi) for theta, phi in zip(thetas, last_phis)],
        metrics=rows[:done].view(np.recarray),
        terminated_early=terminated,
        diverged=diverged,
    )

