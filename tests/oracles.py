"""Independent reference implementations used to pin test expectations.

Everything here is deliberately written the slow, obvious way and avoids
the package's own code paths: gradients come from finite differences on
forward passes, field arithmetic uses naive power sums and extended
Euclid, mixing weights come from explicit neighbor loops, and schedule
connectivity from a breadth-first search.

The exceptions are pins of code that a faster or simpler version
replaced: the per-agent task layer that the stacked task sets replaced
(``QuadraticTask``, ``MlpTask``, ``Agent``, ``make_agents``),
``pairwise_max_distance``, the three round functions of an
earlier engine (``old_dms_round``, ``old_ctl_round``,
``old_fedavg_round``) and the per-agent round body that the stacked
engine replaced (``per_agent_round``), both keeping one record per round
(``OldRoundMetrics``) as runs did before their traffic became one record
array, the secure-sum path before
cached reconstruction weights and vector shares (``old_share``,
``old_reconstruct``, ``old_secure_aggregate`` and their helpers), the
per-value fixed-point encoder and decoder (``old_encode``,
``old_encode_vector``, ``old_decode_vector``), the point evaluation with
reduced powers that Horner's rule replaced (``old_evaluate``), the
per-strategy session layout (``old_party_placement``), the
per-household windowing (``old_window_dataset``), the generator that
rebuilt each day's curve (``old_gen_synthetic_load``), the per-round
forecast evaluation from before they were stacked and train losses came
from the learn stage (``old_forward``, ``old_forecast_mse``,
``direct_round_record``), the one-sample loss and gradient with the
looped gradient-matching attack that called it (``old_loss_and_gradient``,
``old_dlg_reconstruct``), the per-message transcript that the per-phase
log replaced (``OldTranscript``, which ``per_message`` expands a phase log
into), the json-encoding transcript writer
(``old_write_transcript``), the poisoning study's per-arm helper
with the loop that called it (``old_poisoning_experiment``), and the
per-row poisoning that the in-place hook replaced
(``old_poison_broadcast``), and the monitor row and the run loop's two
divergence tests that the one-pass row and the one-value test replaced
(``old_record``, ``old_run_diverged``), with their arithmetic and draw order
unchanged, so tests can assert that the replacement gives exactly the
same numbers.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from dmslearn.consensus import (
    DIVERGENCE_CAP,
    ConvergenceMonitor,
    RoundFailure,
    _round_traffic,
    _secure_mix,
    run_training,
)
from dmslearn.data import ARCHETYPES, SLOTS_PER_DAY, LoadProfile, gen_synthetic_load
from dmslearn.experiment import seed_streams
from dmslearn.numerics import NoiseModel, QuadraticTasks
from dmslearn.secagg import (
    PRIME_128,
    ContributorError,
    EncodingRangeError,
    FixedPointCodec,
    SecAggError,
    SecAggSession,
    SecretShare,
    ShareCountError,
    SharingParams,
    TamperError,
    Transcript,
)
from dmslearn.threats import PoisonOutcome, PoisonPolicy
from dmslearn.topology import Graph, make_dms_schedule, mixing_matrix

# Small primes for exhaustive and hand-checkable field tests.
PRIME_TEST_97 = 97
PRIME_TEST_31 = 31


# --- the per-agent task layer the stacked task sets replaced -------------
# One task object per agent, bound to its learning rate by an agent
# record; a network task takes the 2-d loss and gradient.


@dataclass(frozen=True)
class QuadraticTask:
    """``L(theta) = 0.5 theta' Q theta + b' theta`` for one agent, with the
    dense ``Q`` that per-coordinate curvature replaced: ``np.diag`` of a
    curvature row makes one agent of a stacked quadratic set."""

    hessian: np.ndarray
    lin_term: np.ndarray

    @property
    def dim(self) -> int:
        return self.hessian.shape[0]

    def loss(self, theta) -> float:
        t = np.asarray(theta, dtype=float)
        return float(0.5 * t @ self.hessian @ t + self.lin_term @ t)

    def gradient(self, theta) -> np.ndarray:
        return self.hessian @ np.asarray(theta, dtype=float) + self.lin_term

    def loss_and_gradient(self, theta):
        return None, self.gradient(theta)


@dataclass(frozen=True)
class MlpTask:
    """A network bound to one agent's inputs (samples, in_dim) and targets
    (samples, out_dim)."""

    model: object
    features: np.ndarray
    targets: np.ndarray

    @property
    def dim(self) -> int:
        return self.model.dim

    def loss_and_gradient(self, theta):
        return old_loss_and_gradient(self.model, theta, self.features, self.targets)


@dataclass
class Agent:
    task: object
    gamma: float
    theta: np.ndarray
    phi: np.ndarray | None = None


def per_agent_tasks(tasks) -> list:
    """The per-agent tasks of a stacked task set, row by row."""
    if isinstance(tasks, QuadraticTasks):
        return [QuadraticTask(np.diag(c), b) for c, b in zip(tasks.curvature, tasks.lin_terms)]
    return [MlpTask(tasks.model, x, y) for x, y in zip(tasks.x, tasks.y)]


def make_agents(tasks, inits, gamma: float) -> list[Agent]:
    """One agent per row of the task set and of ``inits``."""
    return [
        Agent(task, float(gamma), np.array(theta, dtype=float))
        for task, theta in zip(per_agent_tasks(tasks), inits)
    ]


def fd_gradient(loss_fn, theta: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences; loss_fn maps a flat vector to a scalar."""
    theta = np.asarray(theta, dtype=float)
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        step = h * max(1.0, abs(theta[j]))
        up = theta.copy()
        up[j] += step
        down = theta.copy()
        down[j] -= step
        grad[j] = (loss_fn(up) - loss_fn(down)) / (2 * step)
    return grad


def naive_poly_eval(coeffs, x: int, prime: int) -> int:
    """Power-sum evaluation: coeffs[0] + coeffs[1] x + coeffs[2] x^2 + ..."""
    total = 0
    for power, c in enumerate(coeffs):
        total = (total + c * pow(x, power, prime)) % prime
    return total


def egcd_inverse(a: int, prime: int) -> int:
    """Modular inverse via extended Euclid (not Fermat)."""
    r0, r1 = prime, a % prime
    s0, s1 = 0, 1
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if r0 != 1:
        raise ValueError("not invertible")
    return s0 % prime


def naive_reconstruct(points, prime: int) -> int:
    """Lagrange interpolation at zero over (index, value) pairs."""
    total = 0
    for i, (xi, yi) in enumerate(points):
        num, den = 1, 1
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            num = (num * (-xj)) % prime
            den = (den * (xi - xj)) % prime
        total = (total + yi * num * egcd_inverse(den, prime)) % prime
    return total


def mixing_by_loops(agent_count: int, edges) -> np.ndarray:
    """Closed-neighborhood uniform weights built with explicit loops."""
    neighbors = {i: {i} for i in range(agent_count)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    weights = np.zeros((agent_count, agent_count))
    for i in range(agent_count):
        for j in neighbors[i]:
            weights[i, j] = 1.0 / len(neighbors[i])
    return weights


def union_connectivity(substructures: Sequence[Graph]) -> bool:
    """True when the union of all substructure edges connects every agent,
    by breadth-first search over the union's adjacency sets; the check that
    ``make_dms_schedule``'s own union test must agree with."""
    if not substructures:
        raise ValueError("no substructures given")
    n = substructures[0].agent_count
    adj: list[set[int]] = [set() for _ in range(n)]
    for g in substructures:
        if g.agent_count != n:
            raise ValueError("substructures disagree on agent count")
        for i, j in g.edges:
            adj[i].add(j)
            adj[j].add(i)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def summed_quadratic_optimum(hessians, lin_terms) -> np.ndarray:
    """Minimizer of sum_i (1/2 th' Q_i th + b_i' th), solved directly."""
    total_q = np.sum(np.asarray(hessians, dtype=float), axis=0)
    total_b = np.sum(np.asarray(lin_terms, dtype=float), axis=0)
    return np.linalg.solve(total_q, -total_b)


def scalar_error_recursion(gamma: float, p: float, start: float, rounds: int) -> list[float]:
    """|theta_k - theta*| for 1-D gradient descent with curvature p."""
    errs = [abs(start)]
    for _ in range(rounds):
        errs.append(abs(1 - gamma * p) * errs[-1])
    return errs


def pairwise_max_distance(thetas) -> float:
    """Largest pairwise L2 distance, from the full (n, n, d) difference tensor."""
    t = np.asarray(thetas, dtype=float)
    diff = t[:, None, :] - t[None, :, :]
    return float(np.sqrt((diff * diff).sum(axis=2).max()))


# --- the previous round engine: three separate round functions ---------
# Its secure sums run ``old_secure_aggregate`` (the same draws and sums as
# the package's), so its metrics count an ``OldTranscript`` message by message.


@dataclass(frozen=True)
class OldRoundMetrics:
    """One round's record as a run kept it before its traffic became one
    record array: graph size and traffic, and the learn stage's first-step
    losses (None for quadratic task sets)."""

    round_index: int
    edge_count: int
    active_agents: int
    messages: int
    bytes: int
    train_losses: np.ndarray | None = None


def traffic_record(round_index, row, train_losses=None) -> OldRoundMetrics:
    """``consensus._round_traffic``'s (edge_count, active_agents, messages, bytes)
    row as one round's record."""
    return OldRoundMetrics(round_index, *row, train_losses)


def _noise_list(noise, n):
    if noise is None:
        return [None] * n
    if isinstance(noise, NoiseModel):
        return [noise] * n
    return list(noise)


def _hooked(phis, hook):
    if hook is None:
        return phis
    out = phis.copy()
    for i in range(out.shape[0]):
        out[i] = hook(i, out[i])
    return out


def _old_secure_mix(broadcast, graph, strategy, secure, round_index):
    mixed = broadcast.copy()
    sessions = old_party_placement(strategy, graph=graph, prime=secure.codec.prime)
    if strategy == "dring":
        for session in sessions:
            recipient = session.recipients[0]
            total = old_secure_aggregate(
                [broadcast[j] for j in session.contributors],
                session,
                secure.codec,
                secure.rng,
                transcript=secure.transcript,
                round_index=round_index,
            )
            mixed[recipient] = total / len(session.contributors)
    else:
        session = sessions[0]
        members = session.contributors
        total = old_secure_aggregate(
            [broadcast[j] for j in members],
            session,
            secure.codec,
            secure.rng,
            transcript=secure.transcript,
            round_index=round_index,
        )
        for j in members:
            mixed[j] = total / len(members)
    return mixed


def _old_metrics(round_index, edge_count, active, plain_messages, transcript, before):
    """Plaintext rounds counted no bytes; secure rounds count the transcript."""
    if transcript is None or before is None:
        return OldRoundMetrics(round_index, edge_count, active, plain_messages, 0)
    msgs0, bytes0 = before
    return OldRoundMetrics(
        round_index, edge_count, active, transcript.messages - msgs0, transcript.bytes - bytes0
    )


def _snapshot(secure):
    if secure is None or secure.transcript is None:
        return None
    t = secure.transcript
    return (t.messages, t.bytes)


def _graph_metrics(round_index, graph, secure, before):
    return _old_metrics(
        round_index,
        graph.edge_count,
        sum(1 for nb in graph.neighbors if nb),
        sum(len(nb) for nb in graph.neighbors),
        getattr(secure, "transcript", None),
        before,
    )


def choice_step(schedule):
    """One chain step as ``MarkovSchedule.advance`` took it before its
    uniforms were drawn in blocks: one ``rng.choice`` on the state's row."""
    row = schedule.transition[schedule.state]
    schedule.state = int(schedule.rng.choice(len(row), p=row))
    return schedule.substructures[schedule.state]


def old_dms_round(agents, schedule, *, alpha=1.0, noise=None, noise_rng=None,
                  broadcast_hook=None, secure=None, strategy="dms", round_index=0):
    noise_models = _noise_list(noise, len(agents))
    graph = choice_step(schedule)
    phis = []
    for agent, nm in zip(agents, noise_models):
        phi = _per_agent_step(agent.task, agent.theta, agent.gamma, nm, noise_rng)[1]
        agent.phi = phi
        phis.append(phi)
    broadcast = _hooked(np.array(phis), broadcast_hook)
    before = _snapshot(secure)
    if secure is not None:
        try:
            mixed = alpha * _old_secure_mix(broadcast, graph, strategy, secure, round_index)
        except SecAggError as exc:
            raise RoundFailure(round_index, exc) from exc
    else:
        mixed = alpha * (mixing_matrix(graph) @ broadcast)
    for agent, row in zip(agents, mixed):
        agent.theta = row
    return _graph_metrics(round_index, graph, secure, before)


def old_ctl_round(agents, schedule, *, alpha=1.0, noise=None, noise_rng=None,
                  broadcast_hook=None, secure=None, round_index=0):
    noise_models = _noise_list(noise, len(agents))
    graph = choice_step(schedule)
    broadcast = _hooked(np.array([agent.theta for agent in agents]), broadcast_hook)
    before = _snapshot(secure)
    if secure is not None:
        try:
            mixed = alpha * _old_secure_mix(broadcast, graph, "ctl", secure, round_index)
        except SecAggError as exc:
            raise RoundFailure(round_index, exc) from exc
    else:
        mixed = alpha * (mixing_matrix(graph) @ broadcast)
    for agent, nm, row in zip(agents, noise_models, mixed):
        agent.theta = _per_agent_step(agent.task, row, agent.gamma, nm, noise_rng)[1]
        agent.phi = agent.theta
    return _graph_metrics(round_index, graph, secure, before)


def old_fedavg_round(agents, server_theta, *, epochs=1, noise=None, noise_rng=None,
                     broadcast_hook=None, secure=None, round_index=0):
    """Returns the new server weights and the round's metrics."""
    n = len(agents)
    noise_models = _noise_list(noise, n)
    uploads = []
    for agent, nm in zip(agents, noise_models):
        theta = np.asarray(server_theta, dtype=float).copy()
        for _ in range(epochs):
            theta = _per_agent_step(agent.task, theta, agent.gamma, nm, noise_rng)[1]
        agent.phi = theta
        uploads.append(theta)
    broadcast = _hooked(np.array(uploads), broadcast_hook)
    before = _snapshot(secure)
    if secure is not None:
        session = old_party_placement("fedavg", agent_count=n, prime=secure.codec.prime)[0]
        try:
            total = old_secure_aggregate(
                [broadcast[i] for i in range(n)],
                session,
                secure.codec,
                secure.rng,
                transcript=secure.transcript,
                round_index=round_index,
            )
        except SecAggError as exc:
            raise RoundFailure(round_index, exc) from exc
        new_server = total / n
    else:
        new_server = broadcast.mean(axis=0)
    for agent in agents:
        agent.theta = new_server.copy()
    metrics = _old_metrics(round_index, n, n, 2 * n, getattr(secure, "transcript", None), before)
    return new_server, metrics


def old_engine_rounds(agents, schedule, strategy, rounds, *, alpha=1.0, epochs=1, **options):
    """Drive the previous engine the way its training loop did; returns
    the per-round metrics. ``alpha`` never reached fedavg, ``epochs`` only
    reached fedavg."""
    placement = {"dfc": "dfc", "dms": "dms", "dring": "dring", "centralized": "dms"}
    server_theta = agents[0].theta.copy()
    metrics = []
    for k in range(rounds):
        if strategy == "fedavg":
            server_theta, m = old_fedavg_round(
                agents, server_theta, epochs=epochs, round_index=k, **options
            )
        elif strategy == "ctl":
            m = old_ctl_round(agents, schedule, alpha=alpha, round_index=k, **options)
        else:
            m = old_dms_round(
                agents, schedule, alpha=alpha, strategy=placement[strategy], round_index=k, **options
            )
        metrics.append(m)
    return metrics


# --- the per-agent round body the stacked engine replaced ---------------


def per_vector_noise(noise, dim, rng):
    """One capped noise vector, drawn and scaled on its own."""
    w = rng.standard_normal(dim) * (noise.bound / np.sqrt(dim))
    cap = noise.cap_factor * noise.bound
    norm = float(np.linalg.norm(w))
    if norm > cap:
        w *= cap / norm
    return w


def _per_agent_step(task, theta, gamma, noise, rng):
    loss, grad = task.loss_and_gradient(theta)
    phi = np.asarray(theta, dtype=float) - gamma * grad
    if noise is not None and noise.bound > 0.0:
        phi = phi + per_vector_noise(noise, task.dim, rng)
    return loss, phi


def _learn(agents, starts, epochs, noise, noise_rng):
    """Each agent's steps in turn; returns the first step's losses (None
    for tasks that report none)."""
    losses = []
    for agent, phi in zip(agents, starts):
        for e in range(epochs):
            loss, phi = _per_agent_step(agent.task, phi, agent.gamma, noise, noise_rng)
            if e == 0:
                losses.append(loss)
        agent.phi = phi
    return None if losses[0] is None else np.array(losses)


def per_agent_round(agents, graph, *, learn_first, alpha=1.0, epochs=1, noise=None,
                    noise_rng=None, broadcast_hook=None, secure=None, round_index=0):
    """One round on a list of agents; ``broadcast_hook(i, row)`` is called
    per row, and the record carries the learn stage's first-step losses.

    The secure mix and the traffic are the engine's own ``_secure_mix`` and
    ``_round_traffic``; ``old_engine_rounds`` pins those against copies.
    """
    n = len(agents)
    losses = None
    if learn_first:
        losses = _learn(agents, [a.theta for a in agents], epochs, noise, noise_rng)
        outgoing = np.array([a.phi for a in agents])
    else:
        outgoing = np.array([a.theta for a in agents])
    broadcast = _hooked(outgoing, broadcast_hook)
    before = _snapshot(secure)
    if secure is not None:
        try:
            mixed = alpha * _secure_mix(broadcast, graph, secure, round_index)
        except SecAggError as exc:
            raise RoundFailure(round_index, exc) from exc
    elif graph is None:
        mixed = alpha * np.repeat(broadcast.mean(axis=0)[None, :], n, axis=0)
    else:
        mixed = alpha * (graph.mixing @ broadcast)
    if learn_first:
        for agent, row in zip(agents, mixed):
            agent.theta = row
    else:
        losses = _learn(agents, mixed, epochs, noise, noise_rng)
        for agent in agents:
            agent.theta = agent.phi
    row = _round_traffic(graph, broadcast.shape, secure, before)
    return traffic_record(round_index, row, losses)


def per_agent_rounds(agents, schedule, strategy, rounds, **options):
    """Drive ``per_agent_round`` the way the training loop did; returns the
    per-round metrics."""
    return [
        per_agent_round(
            agents,
            None if strategy == "fedavg" else choice_step(schedule),
            learn_first=strategy != "ctl",
            round_index=k,
            **options,
        )
        for k in range(rounds)
    ]


# --- the secure-sum path the cached-weight, vector-share one replaced ---
# Copied unchanged apart from the names: one scalar share per coordinate,
# one rng.bytes call per field element, Horner evaluation and a modular
# inverse per Lagrange term.


def old_rand_field_element(rng: np.random.Generator, prime: int) -> int:
    """Uniform element of ``[0, prime)`` by rejection sampling."""
    bits = (prime - 1).bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    while True:
        v = int.from_bytes(rng.bytes(nbytes), "big") & mask
        if v < prime:
            return v


def old_poly_eval(coeffs: Sequence[int], x: int, prime: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % prime
    return acc


def old_share(
    secret: int,
    params: SharingParams,
    rng: np.random.Generator | None = None,
    *,
    coefficients: Sequence[int] | None = None,
) -> list[SecretShare]:
    """Split ``secret`` into ``params.parties`` shares.

    The constant coefficient is the secret; the remaining ``degree``
    coefficients are drawn uniformly from the field, or taken from
    ``coefficients`` when given (enumeration and privacy tests need to pin
    them).
    """
    if not (0 <= secret < params.prime):
        raise ValueError("secret outside the field")
    if coefficients is not None:
        if len(coefficients) != params.degree:
            raise ValueError("need exactly one coefficient per degree")
        if any(not (0 <= c < params.prime) for c in coefficients):
            raise ValueError("coefficient outside the field")
        coeffs = [secret, *coefficients]
    else:
        if rng is None:
            raise ValueError("random sharing needs an rng")
        coeffs = [secret] + [old_rand_field_element(rng, params.prime) for _ in range(params.degree)]
    return [
        SecretShare(index=x, value=old_poly_eval(coeffs, x, params.prime))
        for x in range(1, params.parties + 1)
    ]


def old_lagrange_at(points: Sequence[SecretShare], x: int, prime: int) -> int:
    """Evaluate the unique polynomial through ``points`` at ``x``."""
    total = 0
    for a in points:
        num = 1
        den = 1
        for b in points:
            if b.index == a.index:
                continue
            num = (num * (x - b.index)) % prime
            den = (den * (a.index - b.index)) % prime
        total = (total + a.value * num * pow(den, prime - 2, prime)) % prime
    return total


def _old_validated(shares: Sequence[SecretShare], params: SharingParams) -> list[SecretShare]:
    seen = set()
    for s in shares:
        if not (1 <= s.index <= params.parties):
            raise ValueError(f"share index {s.index} out of range")
        if not (0 <= s.value < params.prime):
            raise ValueError("share value outside the field")
        if s.index in seen:
            raise ValueError(f"duplicate share index {s.index}")
        seen.add(s.index)
    return sorted(shares, key=lambda s: s.index)


def old_reconstruct(shares: Sequence[SecretShare], params: SharingParams) -> int:
    """Interpolate the secret at zero from at least ``threshold`` shares.

    With more than ``threshold`` shares the surplus ones are checked
    against the interpolated polynomial; any mismatch aborts with
    :class:`TamperError` rather than returning a silently wrong value.
    """
    ordered = _old_validated(shares, params)
    if len(ordered) < params.threshold:
        raise ShareCountError(
            f"got {len(ordered)} shares, reconstruction needs {params.threshold}"
        )
    base = ordered[: params.threshold]
    for extra in ordered[params.threshold :]:
        if old_lagrange_at(base, extra.index, params.prime) != extra.value:
            raise TamperError(f"share at index {extra.index} is off the sharing polynomial")
    return old_lagrange_at(base, 0, params.prime)


def old_secure_aggregate(
    vectors: Sequence[np.ndarray],
    session: SecAggSession,
    codec: FixedPointCodec,
    rng: np.random.Generator,
    *,
    transcript: OldTranscript | None = None,
    round_index: int = 0,
    corrupt_party: int | None = None,
    corrupt_delta: int = 1,
) -> np.ndarray:
    """Sum the contributors' vectors without revealing any one of them.

    Each contributor fixed-point encodes its vector and shares every
    coordinate among the parties; parties add shares locally; recipients
    reconstruct the per-coordinate sums and decode. Only the sum is ever
    reconstructed. ``corrupt_party`` is a fault-injection hook for tests:
    it perturbs that party's first summed share before reconstruction,
    which the consistency check must catch whenever there are more parties
    than the threshold.

    Raises :class:`ContributorError` below three contributors: with one or
    two inputs the aggregate itself gives a recipient enough to solve for
    an individual contribution.
    """
    if len(vectors) < 3:
        raise ContributorError("secure aggregation needs at least 3 contributors")
    if len(vectors) != len(session.contributors):
        raise ValueError("one vector per contributor required")
    if codec.prime != session.params.prime:
        raise ValueError("codec and sharing params disagree on the field")
    if not codec.sum_headroom(len(vectors)):
        raise EncodingRangeError("field headroom too small for this many contributors")
    dim = int(np.asarray(vectors[0]).size)
    if any(np.asarray(v).size != dim for v in vectors):
        raise ValueError("contributor vectors disagree on dimension")

    params = session.params
    elem_bytes = (params.prime.bit_length() + 7) // 8
    nu = params.parties
    # sums[party_position][coordinate]
    sums = [[0] * dim for _ in range(nu)]
    for contributor, vec in zip(session.contributors, vectors):
        encoded = old_encode_vector(codec, vec)
        per_party: list[list[int]] = [[] for _ in range(nu)]
        for value in encoded:
            for pos, s in enumerate(old_share(value, params, rng)):
                per_party[pos].append(s.value)
        for pos, party in enumerate(session.parties):
            for coord in range(dim):
                sums[pos][coord] = (sums[pos][coord] + per_party[pos][coord]) % params.prime
            if transcript is not None:
                transcript.log(round_index, "share", contributor, party, per_party[pos], elem_bytes)

    if corrupt_party is not None:
        sums[corrupt_party][0] = (sums[corrupt_party][0] + corrupt_delta) % params.prime

    for recipient in session.recipients:
        for pos, party in enumerate(session.parties):
            if transcript is not None:
                transcript.log(round_index, "reconstruct", party, recipient, sums[pos], elem_bytes)

    totals = []
    for coord in range(dim):
        coord_shares = [SecretShare(pos + 1, sums[pos][coord]) for pos in range(nu)]
        totals.append(old_reconstruct(coord_shares, params))
    return codec.decode_vector(totals)


# --- the per-message transcript the per-phase log replaced ----------------
# Copied unchanged apart from the names.


@dataclass(frozen=True)
class OldTranscriptEntry:
    round_index: int
    phase: str  # "share" or "reconstruct"
    sender: int
    receiver: int
    payload: tuple[int, ...]
    payload_bytes: int


class OldTranscript:
    """Network-visible record of a secure run: every logical message with
    its field-element payload, plus running traffic counters.

    Set ``record_payloads=False`` to store every payload as ``()`` on long runs.
    """

    def __init__(self, record_payloads: bool = True) -> None:
        self.record_payloads = record_payloads
        self.entries: list[OldTranscriptEntry] = []
        self.messages = 0
        self.bytes = 0

    def log(
        self,
        round_index: int,
        phase: str,
        sender: int,
        receiver: int,
        payload: Sequence[int],
        elem_bytes: int,
    ) -> None:
        self.messages += 1
        self.bytes += len(payload) * elem_bytes
        self.entries.append(
            OldTranscriptEntry(
                round_index,
                phase,
                sender,
                receiver,
                tuple(payload) if self.record_payloads else (),
                len(payload) * elem_bytes,
            )
        )


def per_message(transcript: Transcript) -> list[OldTranscriptEntry]:
    """A phase log's entries expanded, in order, into one entry per message,
    each payload the message's equal slice of its phase's payload."""
    expanded = []
    for e in transcript.entries:
        dim = len(e.payload) // len(e.senders) if e.senders else 0
        assert len(e.payload) == dim * len(e.senders)
        for i, (sender, receiver) in enumerate(zip(e.senders, e.receivers, strict=True)):
            payload = e.payload[i * dim : (i + 1) * dim]
            expanded.append(
                OldTranscriptEntry(e.round_index, e.phase, sender, receiver, payload, e.payload_bytes)
            )
    return expanded


# --- the int-list field draw the packed byte draw replaced ---------------
# Copied unchanged apart from the name and the inlined slot cutting.


def old_rand_field_elements(rng: np.random.Generator, prime: int, count: int) -> list[int]:
    """``count`` uniform elements of ``[0, prime)`` by rejection sampling.

    Each candidate is ``nbytes`` big-endian bytes with the bits above the
    prime's masked off. ``Generator.bytes(n)`` hands out whole 32-bit words
    and drops the tail of the last one, so one bulk draw of ``count`` slots
    of ``nbytes`` rounded up to a multiple of 4, cut to ``nbytes`` each,
    yields the same candidates and leaves the generator in the same state
    as ``count`` separate ``rng.bytes(nbytes)`` calls. Rejected candidates
    are topped up by further bulk draws.
    """
    bits = (prime - 1).bit_length()
    nbytes = (bits + 7) // 8
    slot = -(-nbytes // 4) * 4
    mask = (1 << bits) - 1
    out: list[int] = []
    while len(out) < count:
        buf = rng.bytes(slot * (count - len(out)))
        cells = [buf[i : i + nbytes] for i in range(0, len(buf), slot)]
        drawn = [int.from_bytes(b, "big") & mask for b in cells]
        out += [v for v in drawn if v < prime]
    return out


# --- the per-value encoder and decoder the vectorised ones replaced ------


def old_encode(codec: FixedPointCodec, x: float) -> int:
    if not math.isfinite(x) or abs(x) >= codec.magnitude_bound:
        raise EncodingRangeError(f"value {x!r} outside the fixed-point range")
    return int(math.floor(x * codec.scale + 0.5)) % codec.prime


def old_encode_vector(codec: FixedPointCodec, values) -> list[int]:
    return [old_encode(codec, float(x)) for x in np.asarray(values, dtype=float).ravel()]


def old_decode_vector(codec: FixedPointCodec, values) -> np.ndarray:
    out = []
    for v in values:
        v = int(v)
        if not (0 <= v < codec.prime):
            raise ValueError("field element out of range")
        out.append((v - codec.prime if v > codec.half else v) / codec.scale)
    return np.array(out, dtype=float)


# --- the point evaluation with reduced powers that Horner's rule replaced ---
# Copied unchanged apart from the names.


def old_powers(parties: int, degree: int, prime: int) -> tuple[tuple[int, ...], ...]:
    """``x**k mod prime`` for the evaluation points ``x = 1 .. parties``."""
    return tuple(tuple(pow(x, k, prime) for k in range(degree + 1)) for x in range(1, parties + 1))


def old_evaluate(columns: Sequence[int], params: SharingParams) -> list[int]:
    """Each party's unreduced point ``sum_k x**k * columns[k]``, in party order."""
    powers = old_powers(params.parties, params.degree, params.prime)
    return [sum(c * r for c, r in zip(row, columns)) for row in powers]


# --- the per-strategy session layout the graph rule replaced -------------
# Copied unchanged apart from the name and the dropped session ``label``.


def _ring_neighbors(graph, agent: int) -> tuple[int, int]:
    nb = graph.neighbors[agent]
    if len(nb) != 2:
        raise ValueError("ring placement expects degree-2 agents")
    return nb[0], nb[1]


def old_party_placement(
    strategy: str,
    *,
    graph=None,
    agent_count: int | None = None,
    prime: int = PRIME_128,
) -> list[SecAggSession]:
    """Sessions for one round of a strategy.

    Server-style training uses three external parties that collect shares
    from every agent and reveal only to the server. The static ring gives
    each agent a three-party session with its two neighbors. The static
    complete graph and the switching subsets make the (active) agents
    themselves the parties, with the largest honest-majority degree.
    """
    if strategy == "fedavg":
        if agent_count is None:
            raise ValueError("fedavg placement needs agent_count")
        n = agent_count
        return [
            SecAggSession(
                params=SharingParams(3, 1, prime),
                contributors=tuple(range(n)),
                parties=(n + 1, n + 2, n + 3),
                recipients=(n,),
            )
        ]
    if graph is None:
        raise ValueError(f"{strategy} placement needs the round graph")
    if strategy == "dring":
        sessions = []
        for i in range(graph.agent_count):
            left, right = _ring_neighbors(graph, i)
            group = tuple(sorted((left, i, right)))
            sessions.append(
                SecAggSession(
                    params=SharingParams(3, 1, prime),
                    contributors=group,
                    parties=group,
                    recipients=(i,),
                )
            )
        return sessions
    if strategy in ("dfc", "dms", "ctl"):
        active = tuple(i for i, nb in enumerate(graph.neighbors) if nb)
        if len(active) < 3:
            raise ContributorError("active subset smaller than 3 cannot aggregate securely")
        nu = len(active)
        return [
            SecAggSession(
                params=SharingParams(nu, (nu - 1) // 2, prime),
                contributors=active,
                parties=active,
                recipients=active,
            )
        ]
    raise ValueError(f"unknown strategy {strategy!r}")


# --- per-household windowing and per-round forecast evaluation ---------
# One household's windows per call, one 2-d forward pass per household,
# and train_mse evaluated directly after every round rather than taken
# from the next learn stage.


def old_forward(model, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The 2-d forward pass: one flat weight vector, inputs (samples, in_dim)."""
    h, d, o = model.hidden_dim, model.in_dim, model.out_dim
    theta = np.asarray(theta, dtype=float)
    w1 = theta[: h * d].reshape(h, d)
    b1 = theta[h * d : h * d + h]
    w2 = theta[h * d + h : h * d + h + o * h].reshape(o, h)
    b2 = theta[h * d + h + o * h :]
    hidden = np.tanh(x @ w1.T + b1)
    return hidden @ w2.T + b2


@dataclass(frozen=True)
class OldWindows:
    """One household's windows of one split."""

    features: np.ndarray
    targets: np.ndarray

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True)
class OldSplits:
    train: OldWindows
    val: OldWindows
    test: OldWindows
    lo: float
    hi: float


def old_gen_synthetic_load(
    households: int, days: int, seed: int, *, noise_scale: float = 0.05
) -> list[LoadProfile]:
    """The generator that built every day's curve anew from the archetype's
    daily curve and clipped each day on its own."""
    if households < 1 or days < 1:
        raise ValueError("need at least one household and one day")
    rng = np.random.default_rng(seed)
    profiles = []
    for hh in range(households):
        arch = ARCHETYPES[int(rng.integers(len(ARCHETYPES)))]
        size = 1.0 + 0.15 * float(rng.uniform(-1.0, 1.0))
        base_day = arch.daily_curve()
        series = np.empty(days * SLOTS_PER_DAY)
        for day in range(days):
            curve = base_day * size
            if day % 7 >= 5:
                curve = curve * arch.weekend_factor
            slots = curve.copy()
            if noise_scale > 0.0:
                if rng.uniform() < arch.event_rate:
                    start = int(rng.integers(SLOTS_PER_DAY))
                    amp = arch.event_scale * size * float(rng.uniform(0.5, 1.5))
                    idx = (start + np.arange(4)) % SLOTS_PER_DAY
                    slots[idx] += amp
                slots = slots + noise_scale * rng.standard_normal(SLOTS_PER_DAY)
            series[day * SLOTS_PER_DAY : (day + 1) * SLOTS_PER_DAY] = np.maximum(slots, 0.0)
        profiles.append(LoadProfile(household=hh, series=series, days=days, archetype=arch.name))
    return profiles


def old_household_features(profiles: Sequence[LoadProfile]) -> np.ndarray:
    """Each profile's mean daily curve, one profile at a time."""
    return np.array([p.series.reshape(p.days, SLOTS_PER_DAY).mean(axis=0) for p in profiles])


def old_window_dataset(series: np.ndarray, lookback: int, horizon: int) -> OldSplits:
    """One household's sliding windows, stride one, split ceil(0.7 N) /
    floor(0.15 N) / rest in time order; inputs min-max normalized with the
    train inputs' range, all zeros when that range is zero."""
    series = np.asarray(series, dtype=float)
    if lookback < 1 or horizon < 1:
        raise ValueError("lookback and horizon must be positive")
    n_windows = series.size - lookback - horizon + 1
    if n_windows < 1:
        raise ValueError("series too short for one window")
    x = np.lib.stride_tricks.sliding_window_view(series, lookback)[:n_windows].copy()
    y = np.lib.stride_tricks.sliding_window_view(series[lookback:], horizon).copy()

    n_train = math.ceil(0.7 * n_windows)
    n_val = math.floor(0.15 * n_windows)
    lo = float(x[:n_train].min())
    hi = float(x[:n_train].max())
    span = hi - lo
    if span > 0:
        xn = (x - lo) / span
    else:
        xn = np.zeros_like(x)
    return OldSplits(
        train=OldWindows(xn[:n_train], y[:n_train]),
        val=OldWindows(xn[n_train : n_train + n_val], y[n_train : n_train + n_val]),
        test=OldWindows(xn[n_train + n_val :], y[n_train + n_val :]),
        lo=lo,
        hi=hi,
    )


def household_splits(config, households: Sequence[int]) -> list[OldSplits]:
    """Each household's splits, regenerated from the run's data stream."""
    d = config.data
    data_seed = int(seed_streams(config.seed)["data"].integers(2**31))
    profiles = gen_synthetic_load(d.households, d.days, data_seed, noise_scale=d.noise_scale)
    return [
        old_window_dataset(profiles[h].series, config.model.lookback, config.model.horizon)
        for h in households
    ]


def old_forecast_mse(model, thetas: np.ndarray, splits: Sequence, which: str) -> float:
    """Mean over households of each agent's loss on its own split, one
    household at a time; a single row is evaluated on every household."""
    losses = []
    for idx, s in enumerate(splits):
        ds = getattr(s, which)
        if len(ds) == 0:
            continue
        theta = thetas[0] if len(thetas) == 1 else thetas[idx]
        diff = old_forward(model, theta, ds.features) - ds.targets
        losses.append(float(np.mean(np.sum(diff * diff, axis=1))))
    return float(np.mean(losses))


def direct_round_record(k: int, row, thetas: np.ndarray, model, splits) -> dict:
    """A forecast run's round record from the round's traffic row, with both
    errors evaluated directly at the weights the round ended with."""
    return {
        "type": "round",
        "round": k,
        "edges": row.edge_count,
        "active": row.active_agents,
        "messages": row.messages,
        "bytes": row.bytes,
        "disagreement": pairwise_max_distance(thetas),
        "train_mse": old_forecast_mse(model, thetas, splits, "train"),
        "val_mse": old_forecast_mse(model, thetas, splits, "val"),
    }


# --- the one-sample gradient and the looped attack before stacking -------
# Copied unchanged apart from the names and the inlined weight unpacking:
# a 2-d loss and gradient, and a gradient-matching attack that takes one such call per central difference
# and per line-search candidate.


def old_loss_and_gradient(model, theta: np.ndarray, x: np.ndarray, y: np.ndarray):
    """The 2-d loss and gradient: inputs (samples, in_dim), targets (samples, out_dim)."""
    h, d, o = model.hidden_dim, model.in_dim, model.out_dim
    theta = np.asarray(theta, dtype=float)
    w1 = theta[: h * d].reshape(h, d)
    b1 = theta[h * d : h * d + h]
    w2 = theta[h * d + h : h * d + h + o * h].reshape(o, h)
    b2 = theta[h * d + h + o * h :]
    n = x.shape[0]
    act = x @ w1.T + b1
    hidden = np.tanh(act)
    pred = hidden @ w2.T + b2
    diff = pred - y
    loss = float(np.mean(np.sum(diff * diff, axis=1)))
    delta_out = 2.0 * diff / n
    g2 = delta_out.T @ hidden
    gb2 = delta_out.sum(axis=0)
    delta_hid = (delta_out @ w2) * (1.0 - hidden * hidden)
    g1 = delta_hid.T @ x
    gb1 = delta_hid.sum(axis=0)
    return loss, np.concatenate([g1.ravel(), gb1, g2.ravel(), gb2])


@dataclass
class OldReconstructionResult:
    """The attack's old result record: its best iterate with the descent
    trace and, given the true input, the input MSE."""

    x: np.ndarray
    residual: float
    residual_series: np.ndarray
    iterations: int
    input_mse: float | None = None


def old_dlg_reconstruct(model, theta, observed_grad, *, iters=500, rng, restarts=1,
                        x_init=None, y_init=None, true_x=None) -> OldReconstructionResult:
    theta = np.asarray(theta, dtype=float)
    observed = np.asarray(observed_grad, dtype=float)
    in_dim = model.in_dim
    out_dim = model.out_dim

    def residual_at(z: np.ndarray) -> float:
        _, g = old_loss_and_gradient(model, theta, z[None, :in_dim], z[None, in_dim:])
        d = g - observed
        return float(d @ d)

    best = None
    for attempt in range(max(1, restarts)):
        if x_init is not None and attempt == 0:
            x = np.asarray(x_init, dtype=float).copy()
            y = np.asarray(y_init, dtype=float).copy() if y_init is not None else rng.uniform(-1, 1, out_dim)
        else:
            x = rng.uniform(0.0, 1.0, in_dim)
            y = rng.uniform(-1.0, 1.0, out_dim)

        z = np.concatenate([x, y])
        residual = residual_at(z)
        if not np.isfinite(residual):
            raise ValueError("attack residual non-finite at initialization")
        series = [residual]
        trial_step = 0.1
        accepted = 0

        for _ in range(iters):
            if residual == 0.0:
                break
            grad = np.zeros_like(z)
            for j in range(z.size):
                h = 1e-4 * max(1.0, abs(z[j]))
                zp = z.copy()
                zp[j] += h
                zm = z.copy()
                zm[j] -= h
                grad[j] = (residual_at(zp) - residual_at(zm)) / (2 * h)
            gnorm = float(np.linalg.norm(grad))
            if gnorm < 1e-14:
                break
            improved = False
            t = trial_step
            for _ in range(40):
                cand = z - t * grad
                r = residual_at(cand)
                if np.isfinite(r) and r < residual:
                    z = cand
                    residual = r
                    trial_step = min(t * 2.0, 1e3)
                    improved = True
                    break
                t *= 0.5
            series.append(residual)
            accepted += 1
            if not improved:
                break

        result = OldReconstructionResult(
            x=z[:in_dim].copy(),
            residual=residual,
            residual_series=np.array(series),
            iterations=accepted,
        )
        if best is None or result.residual < best.residual:
            best = result

    if true_x is not None:
        dx = best.x - np.asarray(true_x, dtype=float)
        best.input_mse = float(np.mean(dx * dx))
    return best


# --- the monitor row and divergence tests the one-value rule replaced ----
# Copied unchanged apart from the names and ``self`` passed as ``monitor``.


def old_record(monitor: ConvergenceMonitor, thetas) -> float:
    """Store one row of per-agent squared errors on ``monitor``; return its maximum."""
    diff = np.asarray(thetas, dtype=float) - monitor.optimum
    row = np.sum(diff * diff, axis=1)
    monitor.theta_sq.append(row)
    return float(row.max())


def old_run_diverged(thetas, worst: float | None) -> bool:
    """The run loop's test after a round: the weights, then the worst error
    when the run has a monitor (``worst`` None when it has none)."""
    weights_diverged = not np.abs(np.asarray(thetas, dtype=float)).max() <= DIVERGENCE_CAP
    # NaN fails the comparison.
    return weights_diverged or (worst is not None and not abs(worst) <= DIVERGENCE_CAP)


# --- the json.dumps transcript writer the direct formatter replaced -------
# Copied unchanged apart from the name.


def old_write_transcript(path, transcript: OldTranscript):
    """Append one JSON line per recorded protocol message to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a") as fh:
        for e in transcript.entries:
            rec = {
                "round": e.round_index,
                "phase": e.phase,
                "from": e.sender,
                "to": e.receiver,
                "payload_bytes": e.payload_bytes,
            }
            fh.write(json.dumps(rec, sort_keys=True, separators=(",", ":")))
            fh.write("\n")
    return path


# --- the poisoning study before its arms read the call's parameters -------
# The per-row poisoning that PoisonPolicy.hook called for each malicious
# row. Copied unchanged apart from the name.


def old_poison_broadcast(weights: np.ndarray, policy: PoisonPolicy, agent_id: int) -> np.ndarray:
    """Perturb an outgoing weight vector if the sender is malicious."""
    w = np.asarray(weights, dtype=float)
    if agent_id not in policy.malicious_ids or policy.epsilon == 0.0:
        return w
    if policy.mode == "constant":
        return w + policy.epsilon
    shift = policy.epsilon * float(np.linalg.norm(w)) / np.sqrt(w.size)
    return w + shift


# The per-arm helper rebuilt the task set, noise model and hook for every
# arm. Copied unchanged apart from the names and the hook, which poisons
# row by row with ``old_poison_broadcast`` in place of the package's.


def _old_poison_arm(
    strategy: str,
    seed_children,
    *,
    agent_count: int,
    dim: int,
    gamma: float,
    rounds: int,
    subset_size: int,
    substructure_count: int,
    policy: PoisonPolicy | None,
    noise_bound: float,
    tail_rounds: int,
) -> float:
    """One training run; returns the tail mean of the worst-agent error."""
    init_seed, schedule_seed, noise_seed = seed_children
    init_rng = np.random.default_rng(init_seed)
    noise_rng = np.random.default_rng(noise_seed)
    optimum = np.zeros(dim)
    tasks = QuadraticTasks.from_optima(np.ones((agent_count, dim)), np.zeros((agent_count, dim)))
    if strategy == "fedavg":
        inits = np.repeat(init_rng.uniform(-0.5, 0.5, dim)[None], agent_count, axis=0)
        schedule = None
    else:
        inits = np.array([init_rng.uniform(-0.5, 0.5, dim) for _ in range(agent_count)])
        schedule = make_dms_schedule(
            agent_count,
            subset_size=subset_size,
            substructure_count=substructure_count,
            rng=np.random.default_rng(schedule_seed),
        )
    monitor = ConvergenceMonitor(optimum)
    run_training(
        tasks,
        schedule,
        inits=inits,
        gamma=gamma,
        strategy=strategy,
        rounds=rounds,
        noise=NoiseModel(noise_bound),
        noise_rng=noise_rng,
        broadcast_hook=None if policy is None else (
            lambda rows: _hooked(rows, lambda i, w: old_poison_broadcast(w, policy, i))
        ),
        monitor=monitor,
    )
    series = monitor.worst_mse
    return float(series[-tail_rounds:].mean())


def old_poisoning_experiment(
    seeds: Sequence[int],
    *,
    agent_count: int = 30,
    malicious_count: int = 3,
    epsilon: float = 0.2,
    mode: str = "constant",
    dim: int = 2,
    gamma: float = 0.02,
    rounds: int = 1000,
    subset_size: int = 21,
    substructure_count: int = 8,
    noise_bound: float = 0.1,
    tail_rounds: int = 100,
) -> PoisonOutcome:
    if malicious_count > agent_count:
        raise ValueError("more malicious agents than agents")
    policy = PoisonPolicy(frozenset(range(malicious_count)), epsilon=epsilon, mode=mode)
    dms_ratios = []
    fed_ratios = []
    for seed in seeds:
        children = np.random.SeedSequence(seed).spawn(3)
        common = dict(
            agent_count=agent_count,
            dim=dim,
            gamma=gamma,
            rounds=rounds,
            subset_size=subset_size,
            substructure_count=substructure_count,
            noise_bound=noise_bound,
            tail_rounds=tail_rounds,
        )
        dms_clean = _old_poison_arm("dms", children, policy=None, **common)
        dms_bad = _old_poison_arm("dms", children, policy=policy, **common)
        fed_clean = _old_poison_arm("fedavg", children, policy=None, **common)
        fed_bad = _old_poison_arm("fedavg", children, policy=policy, **common)
        dms_ratios.append(dms_bad / dms_clean)
        fed_ratios.append(fed_bad / fed_clean)
    return PoisonOutcome(
        seeds=list(seeds),
        dms_inflation=np.array(dms_ratios),
        fedavg_inflation=np.array(fed_ratios),
    )
