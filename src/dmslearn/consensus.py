"""Round-based training engine and the contraction-bound monitor.

Every strategy runs the same round: a learn stage, where each agent takes
``epochs`` perturbed local gradient steps, and a mix stage, where the
(hooked) outgoing weights are averaged and scaled by ``alpha``. ``dms``,
``dfc``, ``dring`` and ``centralized`` learn then mix over the round's
graph, ``ctl`` mixes then learns, and ``fedavg`` learns then takes the
server mean over all agents. Secure mode routes every averaging sum
through the threshold-sharing sessions of ``party_placement`` instead of
plaintext arithmetic. ``dms_round``, ``ctl_round`` and ``fedavg_round``
are the per-strategy entry points into that one round body.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numerics import LocalTask, NoiseModel, local_step
from .secagg import (
    PRIME_128,
    FixedPointCodec,
    SecAggError,
    Transcript,
    party_placement,
    secure_aggregate,
)
from .topology import Graph, MarkovSchedule

__all__ = [
    "AgentState",
    "ContractionParams",
    "ContractionReport",
    "ConvergenceMonitor",
    "RoundFailure",
    "RoundMetrics",
    "SecureSetup",
    "TrainingRun",
    "complexity_counters",
    "contraction_check",
    "ctl_round",
    "dms_round",
    "fedavg_round",
    "lr_bound",
    "make_agents",
    "max_disagreement",
    "run_training",
]

BroadcastHook = Callable[[int, np.ndarray], np.ndarray]


class RoundFailure(RuntimeError):
    """A round aborted; carries the round index and the underlying cause."""

    def __init__(self, round_index: int, cause: Exception) -> None:
        super().__init__(f"round {round_index} failed: {cause}")
        self.round_index = round_index
        self.cause = cause


@dataclass
class AgentState:
    """One agent's task binding and weight state.

    ``theta`` is the post-consensus weight vector, ``phi`` the most recent
    local-step result (the value the agent broadcast this round).
    """

    id: int
    task: LocalTask
    gamma: float
    theta: np.ndarray
    phi: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.theta = np.asarray(self.theta, dtype=float).copy()
        if not self.gamma > 0:
            raise ValueError("learning rate must be positive")


def make_agents(
    tasks: Sequence[LocalTask],
    inits: Sequence[np.ndarray],
    gammas: float | Sequence[float],
) -> list[AgentState]:
    if len(tasks) != len(inits):
        raise ValueError("one init per task required")
    if np.isscalar(gammas):
        gammas = [float(gammas)] * len(tasks)
    dims = {t.dim for t in tasks}
    if len(dims) != 1:
        raise ValueError("all agents must share one weight dimension")
    return [
        AgentState(id=i, task=t, gamma=float(g), theta=np.asarray(x, dtype=float))
        for i, (t, x, g) in enumerate(zip(tasks, inits, gammas))
    ]


@dataclass(frozen=True)
class RoundMetrics:
    """Structural record of one round: graph size and traffic."""

    round_index: int
    edge_count: int
    active_agents: int
    messages: int
    bytes: int
    degrees: np.ndarray
    per_agent_messages: np.ndarray


@dataclass
class SecureSetup:
    """Everything the secure averaging path needs."""

    rng: np.random.Generator
    codec: FixedPointCodec = field(default_factory=FixedPointCodec)
    transcript: Transcript = field(default_factory=Transcript)
    prime: int = PRIME_128

    def __post_init__(self) -> None:
        if self.codec.prime != self.prime:
            raise ValueError("codec field does not match the secure prime")


class ConvergenceMonitor:
    """Per-round squared weight errors against a known optimum.

    Records the per-agent values so Monte-Carlo repetitions can be
    averaged agent-wise before taking the worst-agent envelope.
    """

    def __init__(self, optimum: np.ndarray) -> None:
        self.optimum = np.asarray(optimum, dtype=float)
        self.theta_sq: list[np.ndarray] = []
        self.phi_sq: list[np.ndarray] = []

    def record(self, thetas: np.ndarray, phis: np.ndarray | None = None) -> None:
        diff = np.asarray(thetas, dtype=float) - self.optimum
        self.theta_sq.append(np.sum(diff * diff, axis=1))
        if phis is not None:
            pdiff = np.asarray(phis, dtype=float) - self.optimum
            self.phi_sq.append(np.sum(pdiff * pdiff, axis=1))

    @property
    def theta_errors(self) -> np.ndarray:
        """(rounds+1, agents) squared errors; row 0 is the initial state."""
        return np.array(self.theta_sq)

    @property
    def worst_mse(self) -> np.ndarray:
        return self.theta_errors.max(axis=1)


def max_disagreement(thetas: np.ndarray) -> float:
    """Largest pairwise L2 distance between agent weight vectors."""
    t = np.asarray(thetas, dtype=float)
    worst = np.array([((t - row) ** 2).sum(axis=1).max() for row in t]).max()
    return float(np.sqrt(worst))


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
    lambda_bar: np.ndarray
    contraction: float
    noise_gain: float
    limit_bound: float
    step_size_ok: bool
    stable: bool
    tail_mean: float
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
    tail_fraction: float = 0.2,
    slack: float = 1.5,
    slope_tol: float = 0.01,
    floor: float = 1e-25,
) -> ContractionReport:
    """Compare a recorded trajectory against the contraction bound.

    Checks, in order: the per-agent contraction factors stay at or below
    one for the configured step sizes; with noise, the tail mean of the
    worst-agent error stays within ``slack`` of the predicted noise floor;
    without noise, the fitted log-error slope is no worse than the
    contraction rate plus ``slope_tol``. ``floor`` cuts the slope fit off
    before the trajectory reaches arithmetic round-off.
    """
    a = np.asarray(mixing, dtype=float)
    lam = params.lambda_bar
    contraction = params.alpha * float((a @ lam).max())
    noise_gain = params.alpha * float((a @ (params.xi**2)).max())
    limit_bound = params.alpha * float((params.xi**2).max())

    series = monitor.worst_mse
    if series.size == 0:
        raise ValueError("monitor holds no rounds")
    tail_len = max(1, int(round(tail_fraction * series.size)))
    tail_mean = float(series[-tail_len:].mean())
    diverged = bool(not np.all(np.isfinite(series)) or series[-1] > max(1e6 * series[0], 1e6))

    empirical_slope = None
    slope_within = None
    if noise_free and not diverged:
        log_series = np.log(np.maximum(series, 1e-300))
        above = np.nonzero(series > floor)[0]
        if above.size >= 5:
            ks = above[1:]  # drop round 0: the first step can be atypical
            if ks.size >= 4:
                empirical_slope = float(np.polyfit(ks, log_series[ks], 1)[0])
                slope_within = empirical_slope <= np.log(max(contraction, 1e-300)) + slope_tol
    tail_ok = bool(tail_mean <= slack * limit_bound) if not noise_free else True

    return ContractionReport(
        lambda_bar=lam,
        contraction=contraction,
        noise_gain=noise_gain,
        limit_bound=limit_bound,
        step_size_ok=params.step_size_ok,
        stable=bool(contraction <= 1.0),
        tail_mean=tail_mean,
        tail_within_bound=tail_ok,
        empirical_slope=empirical_slope,
        slope_within_rate=slope_within,
        diverged=diverged,
    )


def _as_noise_list(noise, n: int) -> list[NoiseModel | None]:
    if noise is None:
        return [None] * n
    if isinstance(noise, NoiseModel):
        return [noise] * n
    models = list(noise)
    if len(models) != n:
        raise ValueError("one noise model per agent required")
    return models


def _learn(
    agents: list[AgentState],
    starts,
    epochs: int,
    noise_models: list[NoiseModel | None],
    noise_rng: np.random.Generator | None,
) -> None:
    """Run ``epochs`` local steps per agent from its start, in id order
    (all of agent 0's steps first), and store the result as ``phi``."""
    for agent, phi, nm in zip(agents, starts, noise_models):
        for _ in range(epochs):
            phi = local_step(agent.task, phi, agent.gamma, noise=nm, rng=noise_rng)
        agent.phi = phi


def _apply_hook(phis: np.ndarray, hook: BroadcastHook | None) -> np.ndarray:
    if hook is None:
        return phis
    out = phis.copy()
    for i in range(out.shape[0]):
        out[i] = hook(i, out[i])
    return out


def _secure_mix(
    broadcast: np.ndarray,
    graph: Graph | None,
    placement: str,
    secure: SecureSetup,
    round_index: int,
) -> np.ndarray:
    """Group averaging computed through secure summation.

    Uniform closed-neighborhood weights turn each agent's mix into a plain
    sum over its aggregation group divided by the group size, which is
    exactly what a secure-sum session provides. The fedavg session reveals
    the sum to the server, which hands the mean back to every contributor.
    """
    n = broadcast.shape[0]
    mixed = broadcast.copy()  # isolated agents keep their own phi
    sessions = party_placement(placement, graph=graph, agent_count=n, prime=secure.prime)
    for session in sessions:
        total = secure_aggregate(
            [broadcast[j] for j in session.contributors],
            session,
            secure.codec,
            secure.rng,
            transcript=secure.transcript,
            round_index=round_index,
        )
        targets = session.contributors if graph is None else session.recipients
        for j in targets:
            mixed[j] = total / len(session.contributors)
    return mixed


def _round_metrics(
    round_index: int,
    graph: Graph | None,
    broadcast: np.ndarray,
    secure: SecureSetup | None,
    counters_before: tuple[int, int, dict[int, int]] | None,
) -> RoundMetrics:
    n, d = broadcast.shape
    if graph is None:
        # Server round: one upload and one download per agent.
        degrees = np.ones(n, dtype=np.int64)
        edge_count, active, messages = n, n, 2 * n
    else:
        # One logical message per directed edge: each agent sends its
        # broadcast to every neighbor.
        degrees = graph.degrees[:n].copy()
        edge_count, active, messages = graph.edge_count, len(graph.active()), int(degrees.sum())
    if secure is None:
        # Each plaintext message carries d float64 weights.
        return RoundMetrics(
            round_index=round_index,
            edge_count=edge_count,
            active_agents=active,
            messages=messages,
            bytes=messages * d * 8,
            degrees=degrees,
            per_agent_messages=degrees.copy(),
        )
    transcript = secure.transcript
    msgs0, bytes0, sent0 = counters_before
    per_agent = np.zeros(n, dtype=np.int64)
    for sender, count in transcript.sent_counts.items():
        if 0 <= sender < n:
            per_agent[sender] = count - sent0.get(sender, 0)
    return RoundMetrics(
        round_index=round_index,
        edge_count=edge_count,
        active_agents=active,
        messages=transcript.messages - msgs0,
        bytes=transcript.bytes - bytes0,
        degrees=degrees,
        per_agent_messages=per_agent,
    )


def _counters_snapshot(secure: SecureSetup | None):
    if secure is None:
        return None
    t = secure.transcript
    return (t.messages, t.bytes, dict(t.sent_counts))


def _round(
    agents: list[AgentState],
    graph: Graph | None,
    *,
    learn_first: bool,
    placement: str,
    alpha: float = 1.0,
    epochs: int = 1,
    noise=None,
    noise_rng: np.random.Generator | None = None,
    broadcast_hook: BroadcastHook | None = None,
    secure: SecureSetup | None = None,
    round_index: int = 0,
) -> RoundMetrics:
    """The one round body: a learn stage and a mix stage, in either order.

    Learn runs ``epochs`` local steps per agent. Mix hooks the outgoing
    weights, then averages them with the round graph's mixing matrix, the
    server mean when ``graph`` is None, or secure sessions laid out by
    ``placement``, and scales the result by ``alpha``.
    """
    n = len(agents)
    if graph is not None and graph.agent_count != n:
        raise ValueError("schedule graph does not cover the agent set")
    noise_models = _as_noise_list(noise, n)
    if learn_first:
        _learn(agents, [a.theta for a in agents], epochs, noise_models, noise_rng)
        outgoing = np.array([a.phi for a in agents])
    else:
        outgoing = np.array([a.theta for a in agents])
    broadcast = _apply_hook(outgoing, broadcast_hook)

    before = _counters_snapshot(secure)
    if secure is not None:
        try:
            mixed = alpha * _secure_mix(broadcast, graph, placement, secure, round_index)
        except SecAggError as exc:
            raise RoundFailure(round_index, exc) from exc
    elif graph is None:
        # Every agent holds exactly the server's mean.
        mixed = alpha * np.repeat(broadcast.mean(axis=0)[None, :], n, axis=0)
    else:
        mixed = alpha * (graph.mixing @ broadcast)

    if learn_first:
        for agent, row in zip(agents, mixed):
            agent.theta = row
    else:
        _learn(agents, mixed, epochs, noise_models, noise_rng)
        for agent in agents:
            agent.theta = agent.phi
    return _round_metrics(round_index, graph, broadcast, secure, before)


def dms_round(
    agents: list[AgentState], schedule: MarkovSchedule, *, strategy: str = "dms", **options
) -> RoundMetrics:
    """Learn-then-mix round: local steps, then neighbor averaging over the
    graph the schedule draws for this round.

    ``strategy`` picks the secure session layout. ``broadcast_hook``
    transforms each agent's outgoing weights (the poisoning seam);
    receivers, the sender itself included, mix the transformed vectors.
    Secure aborts surface as :class:`RoundFailure`. ``options`` are the
    keyword arguments of :func:`_round`.
    """
    return _round(agents, schedule.advance(), learn_first=True, placement=strategy, **options)


def ctl_round(agents: list[AgentState], schedule: MarkovSchedule, **options) -> RoundMetrics:
    """Mix-then-learn twin: neighbor averaging of current weights first,
    then every agent takes its local steps from the mixed point."""
    return _round(agents, schedule.advance(), learn_first=False, placement="ctl", **options)


def fedavg_round(agents: list[AgentState], **options) -> RoundMetrics:
    """Server round: every agent runs its local epochs from the global
    weights it holds, and the server averages the uploads (securely
    through three external parties when enabled)."""
    return _round(agents, None, learn_first=True, placement="fedavg", **options)


@dataclass
class TrainingRun:
    """Everything a finished (or aborted) run leaves behind."""

    agents: list[AgentState]
    metrics: list[RoundMetrics]
    monitor: ConvergenceMonitor | None
    rounds_completed: int
    terminated_early: bool
    diverged: bool
    server_theta: np.ndarray | None = None  # fedavg: the weights every agent holds

    @property
    def rounds_to_tolerance(self) -> int | None:
        return self.rounds_completed if self.terminated_early else None

    def thetas(self) -> np.ndarray:
        return np.array([agent.theta for agent in self.agents])


def run_training(
    agents: list[AgentState],
    schedule: MarkovSchedule | None,
    *,
    strategy: str = "dms",
    rounds: int,
    alpha: float = 1.0,
    noise=None,
    noise_rng: np.random.Generator | None = None,
    broadcast_hook: BroadcastHook | None = None,
    secure: SecureSetup | None = None,
    monitor: ConvergenceMonitor | None = None,
    tolerance: float | None = None,
    epochs: int = 1,
    divergence_cap: float = 1e12,
    on_round: Callable[[int, list[AgentState], RoundMetrics], None] | None = None,
) -> TrainingRun:
    """Drive a strategy for ``rounds`` rounds or until the worst-agent
    squared error drops below ``tolerance``.

    The tolerance check needs a monitor (it supplies the reference
    optimum) and fires before the first round too, so a run that starts
    converged reports zero rounds. Divergence (non-finite weights or
    worst error beyond ``divergence_cap``) stops the run and flags it.
    """
    if rounds < 0:
        raise ValueError("round budget must be nonnegative")
    decentralized = {"dms", "dfc", "dring", "ctl", "centralized"}
    if strategy not in decentralized | {"fedavg"}:
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy != "fedavg" and schedule is None:
        raise ValueError(f"{strategy} needs a topology schedule")

    if epochs < 1:
        raise ValueError("epochs must be positive")
    if strategy == "fedavg":
        first = agents[0].theta
        for agent in agents[1:]:
            if not np.array_equal(agent.theta, first):
                raise ValueError("fedavg agents must share the initial weights")

    metrics_list: list[RoundMetrics] = []

    def snapshot() -> np.ndarray:
        return np.array([agent.theta for agent in agents])

    if monitor is not None:
        monitor.record(snapshot())

    def tolerance_met() -> bool:
        if tolerance is None or monitor is None:
            return False
        return bool(monitor.worst_mse[-1] < tolerance)

    def diverged_now() -> bool:
        thetas = snapshot()
        if not np.all(np.isfinite(thetas)):
            return True
        if monitor is not None and monitor.worst_mse[-1] > divergence_cap:
            return True
        return bool(np.max(np.abs(thetas)) > divergence_cap)

    terminated = tolerance_met()
    diverged = False
    completed = 0
    if not terminated:
        # Secure placement of the switching strategy degenerates to the
        # complete one on full-participation graphs; the label only picks
        # the session layout.
        placement = {"dfc": "dfc", "dms": "dms", "dring": "dring", "centralized": "dms"}
        options = dict(
            alpha=alpha,
            epochs=epochs,
            noise=noise,
            noise_rng=noise_rng,
            broadcast_hook=broadcast_hook,
            secure=secure,
        )
        for k in range(rounds):
            if strategy == "fedavg":
                metrics = fedavg_round(agents, round_index=k, **options)
            elif strategy == "ctl":
                metrics = ctl_round(agents, schedule, round_index=k, **options)
            else:
                metrics = dms_round(
                    agents, schedule, strategy=placement[strategy], round_index=k, **options
                )
            metrics_list.append(metrics)
            completed = k + 1
            if monitor is not None:
                monitor.record(snapshot(), np.array([a.phi for a in agents]))
            if on_round is not None:
                on_round(k, agents, metrics)
            if diverged_now():
                diverged = True
                break
            if tolerance_met():
                terminated = True
                break

    return TrainingRun(
        agents=agents,
        metrics=metrics_list,
        monitor=monitor,
        rounds_completed=completed,
        terminated_early=terminated,
        diverged=diverged,
        server_theta=agents[0].theta.copy() if strategy == "fedavg" else None,
    )


def complexity_counters(metrics: Sequence[RoundMetrics]) -> dict:
    """Aggregate traffic counters for a finished run.

    ``per_agent_messages`` accumulates the per-round send counts;
    ``per_agent_degree_sum`` accumulates each round's graph degrees. In
    plaintext mode the two must agree exactly (one message per directed
    edge), which the test suite asserts as the closed form.
    """
    if not metrics:
        return {
            "rounds": 0,
            "total_messages": 0,
            "total_bytes": 0,
            "mean_edges": 0.0,
            "per_round_edges": [],
            "per_agent_messages": np.zeros(0, dtype=np.int64),
            "per_agent_degree_sum": np.zeros(0, dtype=np.int64),
        }
    n = metrics[0].per_agent_messages.shape[0]
    per_agent = np.zeros(n, dtype=np.int64)
    degree_sum = np.zeros(n, dtype=np.int64)
    edges = []
    total_messages = 0
    total_bytes = 0
    for m in metrics:
        per_agent += m.per_agent_messages
        degree_sum += m.degrees[:n]
        edges.append(m.edge_count)
        total_messages += m.messages
        total_bytes += m.bytes
    return {
        "rounds": len(metrics),
        "total_messages": total_messages,
        "total_bytes": total_bytes,
        "mean_edges": float(np.mean(edges)),
        "per_round_edges": edges,
        "per_agent_messages": per_agent,
        "per_agent_degree_sum": degree_sum,
    }
