"""Communication graphs, consensus weights, and switching-topology schedules.

Graphs are undirected and unweighted. The consensus weight matrix used
by the round engines gives every agent a uniform weight over its closed
neighborhood (itself plus its neighbors), which keeps rows stochastic on
any graph, including graphs with isolated agents: an isolated agent
simply keeps its own value.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np

__all__ = [
    "Graph",
    "MarkovSchedule",
    "default_subset_size",
    "make_dms_schedule",
    "make_static_schedule",
    "make_subset_graph",
    "make_topology",
    "mixing_matrix",
    "stationary_distribution",
]


@dataclass(frozen=True)
class Graph:
    """Undirected graph on agents ``0 .. agent_count - 1``.

    Edges are stored canonically as ``(i, j)`` with ``i < j``.
    """

    agent_count: int
    edges: frozenset

    def __post_init__(self) -> None:
        if self.agent_count < 1:
            raise ValueError("graph needs at least one agent")
        canon = set()
        for i, j in self.edges:
            if i == j:
                raise ValueError(f"self loop on agent {i}")
            a, b = (i, j) if i < j else (j, i)
            if not (0 <= a < b < self.agent_count):
                raise ValueError(f"edge ({i}, {j}) outside agent range")
            canon.add((a, b))
        object.__setattr__(self, "edges", frozenset(canon))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.agent_count)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(nb)) for nb in adj)

    @cached_property
    def counts(self) -> tuple[int, int]:
        """(messages, active agents): directed edges, agents with a neighbor."""
        return 2 * len(self.edges), sum(1 for nb in self.neighbors if nb)

    @cached_property
    def mixing(self) -> np.ndarray:
        """Read-only :func:`mixing_matrix` of this graph, built once."""
        mix = mixing_matrix(self)
        mix.flags.writeable = False
        return mix

    @property
    def edge_count(self) -> int:
        return len(self.edges)


def mixing_matrix(graph: Graph) -> np.ndarray:
    """Row-stochastic consensus weights, uniform over closed neighborhoods.

    Row i holds ``1 / (deg(i) + 1)`` on itself and each neighbor. An
    isolated agent gets the identity row, so consensus degenerates to
    keeping its own local update.
    """
    n = graph.agent_count
    mix = np.zeros((n, n))
    for i, nb in enumerate(graph.neighbors):
        w = 1.0 / (len(nb) + 1)
        mix[i, i] = w
        for j in nb:
            mix[i, j] = w
    return mix


def make_subset_graph(agent_count: int, members: Iterable[int]) -> Graph:
    """Complete graph on ``members``; every other agent is isolated."""
    members = sorted(set(int(m) for m in members))
    if members and not (0 <= members[0] and members[-1] < agent_count):
        raise ValueError("subset members outside agent range")
    edges = frozenset(itertools.combinations(members, 2))
    return Graph(agent_count, edges)


def make_topology(kind: str, agent_count: int) -> Graph:
    """Build a named topology: ``ring`` or ``complete`` connect the agents
    in a cycle or all pairs."""
    if kind == "ring":
        if agent_count < 3:
            raise ValueError("ring needs at least 3 agents")
        return Graph(agent_count, frozenset((i, (i + 1) % agent_count) for i in range(agent_count)))
    if kind == "complete":
        return make_subset_graph(agent_count, range(agent_count))
    raise ValueError(f"unknown topology kind {kind!r}")


def default_subset_size(agent_count: int) -> int:
    """Default co-training subset size, roughly 70% of the population.

    At 70% the expected complete-subset edge count is close to half the
    edges of the full complete graph.
    """
    return max(3, round(0.7 * agent_count))


@dataclass
class MarkovSchedule:
    """Markov chain over a finite set of communication substructures.

    The chain starts in ``state`` 0. ``advance`` steps it as ``rng.choice(q,
    p=row)`` on the state's transition row does, one uniform against the
    row's normalized cumsum, and returns the new state's graph. Uniforms
    come from ``rng.random`` in blocks of at most ``ahead`` (the steps the
    caller still plans) and 2**16, so using every planned step leaves
    ``rng`` where one ``choice`` per step would. All draws come from ``rng``
    only, so two schedules built with equal seeds produce identical graph
    sequences.
    """

    substructures: list[Graph]
    transition: np.ndarray
    rng: np.random.Generator
    state: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not self.substructures:
            raise ValueError("schedule needs at least one substructure")
        counts = {g.agent_count for g in self.substructures}
        if len(counts) != 1:
            raise ValueError("substructures disagree on agent count")
        self.transition = np.asarray(self.transition, dtype=float)
        q = len(self.substructures)
        if self.transition.shape != (q, q):
            raise ValueError("transition matrix shape must match substructure count")
        if np.any(self.transition < 0):
            raise ValueError("transition probabilities must be nonnegative")
        if not np.allclose(self.transition.sum(axis=1), 1.0, atol=1e-9):
            raise ValueError("transition rows must sum to one")
        cdf = np.cumsum(self.transition, axis=1)
        self._cdf = (cdf / cdf[:, -1:]).tolist()
        self._uniforms: list[float] = []  # drawn, unused, last first

    def advance(self, ahead: int = 1) -> Graph:
        if not self._uniforms:
            self._uniforms = self.rng.random(min(max(ahead, 1), 2**16)).tolist()[::-1]
        self.state = bisect_right(self._cdf[self.state], self._uniforms.pop())
        return self.substructures[self.state]


def make_static_schedule(graph: Graph) -> MarkovSchedule:
    """Single-substructure schedule; every round uses the same graph."""
    return MarkovSchedule(
        substructures=[graph],
        transition=np.ones((1, 1)),
        rng=np.random.default_rng(0),
    )


# Substructure sets drawn before make_dms_schedule gives up on connecting
# every agent; a subset size and count that cannot connect them fail here.
MAX_DRAWS = 1000


def _connects(agent_count: int, member_sets: list[list[int]]) -> bool:
    """Whether complete graphs on ``member_sets`` together connect every agent."""
    reached, pending = set(member_sets[0]), [set(s) for s in member_sets[1:]]
    while joined := [s for s in pending if not reached.isdisjoint(s)]:
        reached.update(*joined)
        pending = [s for s in pending if reached.isdisjoint(s)]
    return len(reached) == agent_count


def make_dms_schedule(
    agent_count: int,
    *,
    subset_size: int | None = None,
    substructure_count: int = 8,
    transition: np.ndarray | None = None,
    rng: np.random.Generator,
) -> MarkovSchedule:
    """Pre-sample complete-subset substructures and wrap them in a chain.

    Each substructure is a complete graph on an independently drawn
    ``subset_size`` subset, and the set is drawn again until their union
    connects every agent, as the convergence theorem assumes. The
    transition matrix defaults to uniform, i.e. independent re-selection
    each round.
    """
    m = default_subset_size(agent_count) if subset_size is None else int(subset_size)
    if m < 3:
        raise ValueError("subset smaller than 3 cannot co-train")
    if m > agent_count:
        raise ValueError(f"subset of {m} agents exceeds the {agent_count} agents")
    if substructure_count < 1:
        raise ValueError("need at least one substructure")
    for _ in range(MAX_DRAWS):
        draws = [
            rng.choice(agent_count, size=m, replace=False).tolist()
            for _ in range(substructure_count)
        ]
        if _connects(agent_count, draws):
            break
    else:
        raise ValueError(f"{substructure_count} subsets of {m} did not connect {agent_count} agents")
    subs = [make_subset_graph(agent_count, members) for members in draws]
    if transition is None:
        transition = np.full((substructure_count, substructure_count), 1.0 / substructure_count)
    return MarkovSchedule(substructures=subs, transition=transition, rng=rng)


def stationary_distribution(transition: np.ndarray) -> np.ndarray:
    """Stationary row vector by 500 power iterations from the uniform start.

    For reducible chains (e.g. the identity) this settles on the uniform
    mixture over states, a deliberate convention.
    """
    transition = np.asarray(transition, dtype=float)
    pi = np.full(transition.shape[0], 1.0 / transition.shape[0])
    for _ in range(500):
        pi = pi @ transition
    return pi / pi.sum()
