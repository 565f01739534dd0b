from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmslearn.config import ExperimentConfig
from dmslearn.experiment import build_schedule, seed_streams
from dmslearn.topology import (
    Graph,
    MarkovSchedule,
    default_subset_size,
    make_dms_schedule,
    make_static_schedule,
    make_subset_graph,
    make_topology,
    mixing_matrix,
    stationary_distribution,
)

from oracles import choice_step, mixing_by_loops, union_connectivity


def test_ring_shape():
    g = make_topology("ring", 5)
    assert g.agent_count == 5
    assert len(g.sorted_edges) == 5
    assert all(d == 2 for d in g.degrees)


def test_ring_rejects_tiny():
    with pytest.raises(ValueError):
        make_topology("ring", 2)


def test_complete_shape():
    g = make_topology("complete", 6)
    assert len(g.sorted_edges) == 15
    assert all(d == 5 for d in g.degrees)


def test_edges_canonicalized():
    g = Graph(4, frozenset({(2, 0), (3, 1)}))
    assert g.sorted_edges == ((0, 2), (1, 3))


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Graph(3, frozenset({(1, 1)}))


def test_mixing_matches_loop_oracle():
    g = make_subset_graph(8, (0, 2, 3, 7))
    expected = mixing_by_loops(8, g.sorted_edges)
    assert np.allclose(mixing_matrix(g), expected)


def test_mixing_isolated_rows_are_identity():
    g = make_subset_graph(5, (1, 3, 4))
    a = mixing_matrix(g)
    for i in (0, 2):
        row = np.zeros(5)
        row[i] = 1.0
        assert np.array_equal(a[i], row)


@given(st.integers(3, 12), st.data())
@settings(max_examples=40, deadline=None)
def test_mixing_row_stochastic_on_random_subsets(n, data):
    size = data.draw(st.integers(2, n))
    members = tuple(sorted(data.draw(
        st.sets(st.integers(0, n - 1), min_size=size, max_size=size))))
    a = mixing_matrix(make_subset_graph(n, members))
    assert np.allclose(a.sum(axis=1), 1.0, atol=1e-12)
    assert (a >= 0).all()


def test_default_subset_size():
    assert default_subset_size(30) == 21
    assert default_subset_size(4) == 3
    assert default_subset_size(3) == 3
    assert default_subset_size(40) == 28


def test_static_schedule_repeats_graph():
    g = make_topology("ring", 4)
    sched = make_static_schedule(g)
    for _ in range(5):
        assert sched.advance() is g


def test_dms_schedule_substructures():
    sched = make_dms_schedule(30, rng=np.random.default_rng(3))
    assert len(sched.substructures) == 8
    for g in sched.substructures:
        assert np.count_nonzero(g.degrees == 20) == 21 and np.count_nonzero(g.degrees) == 21
        # complete on the active subset
        assert len(g.sorted_edges) == 21 * 20 // 2
        assert g.agent_count == 30


def test_dms_schedule_draws_from_pool():
    sched = make_dms_schedule(
        10, subset_size=4, substructure_count=3, rng=np.random.default_rng(5))
    pool = {id(g) for g in sched.substructures}
    seen = {id(sched.advance()) for _ in range(50)}
    assert seen <= pool


@pytest.mark.parametrize("seed", [630, 631])
def test_dms_schedule_redraws_only_a_disconnected_first_draw(seed):
    # At the config defaults (30 agents, 8 subsets of 21), seed 631's first
    # draw leaves an agent outside every subset; seed 630's connects them.
    rng = seed_streams(seed)["schedule"]
    first = [make_subset_graph(30, rng.choice(30, size=21, replace=False)) for _ in range(8)]
    schedule = build_schedule(ExperimentConfig(seed=seed), seed_streams(seed)["schedule"])
    assert union_connectivity(schedule.substructures)
    assert (schedule.substructures == first) == union_connectivity(first)


def test_dms_schedule_seeded_sequences_match():
    a = make_dms_schedule(12, subset_size=5, rng=np.random.default_rng(9))
    b = make_dms_schedule(12, subset_size=5, rng=np.random.default_rng(9))
    for _ in range(20):
        assert a.advance().sorted_edges == b.advance().sorted_edges


def test_markov_schedule_rejects_bad_transition():
    g = make_topology("ring", 3)
    with pytest.raises(ValueError):
        MarkovSchedule([g, g], np.array([[0.5, 0.6], [0.5, 0.5]]),
                       np.random.default_rng(0))


def test_markov_schedule_rejects_empty():
    with pytest.raises(ValueError):
        MarkovSchedule([], np.ones((0, 0)), np.random.default_rng(0))


def test_subset_needs_three():
    with pytest.raises(ValueError):
        make_dms_schedule(10, subset_size=2, rng=np.random.default_rng(0))


def test_stationary_uniform_for_uniform_transition():
    assert np.allclose(stationary_distribution(np.full((3, 3), 1 / 3)),
                       [1 / 3, 1 / 3, 1 / 3])


def test_stationary_biased_chain():
    t = np.array([[0.9, 0.1], [0.3, 0.7]])
    pi = stationary_distribution(t)
    assert np.allclose(pi @ t, pi, atol=1e-12)
    assert pi[0] > pi[1]


def test_union_connectivity():
    g1 = make_subset_graph(6, (0, 1, 2))
    g2 = make_subset_graph(6, (2, 3, 4))
    g3 = make_subset_graph(6, (4, 5, 0))
    assert union_connectivity((g1, g2, g3))
    assert not union_connectivity((g1, g2))  # node 5 never appears


@given(st.integers(4, 20))
@settings(max_examples=30, deadline=None)
def test_subset_size_bounds(n):
    m = default_subset_size(n)
    assert 3 <= m <= n


@given(
    st.integers(1, 5),
    st.integers(0, 40),
    st.integers(1, 9),
    st.integers(0, 40),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_buffered_chain_equals_one_choice_per_step(q, budget, block, steps, seed):
    # Random rows with zeros; the caller plans ``budget`` steps in blocks
    # of ``block`` (1 and sizes that do not divide the budget included)
    # and takes ``steps`` of them, fewer when it stops early.
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0, 1, (q, q)) * (rng.uniform(0, 1, (q, q)) < 0.6)
    weights[np.arange(q), rng.integers(0, q, q)] += rng.uniform(0.01, 1, q)
    transition = weights / weights.sum(axis=1, keepdims=True)
    subs = [make_subset_graph(5, [i, (i + 1) % 5]) for i in range(q)]
    buffered, stepped = (MarkovSchedule(subs, transition, np.random.default_rng(seed)) for _ in range(2))
    steps = min(steps, budget)
    for k in range(steps):
        assert buffered.advance(min(block, budget - k)) is choice_step(stepped)
        assert buffered.state == stepped.state
    # The rest of the last block is drawn and unused.
    stepped.rng.random(min(-(-steps // block) * block, budget) - steps)
    assert buffered.rng.bit_generator.state == stepped.rng.bit_generator.state


def test_chain_steps_against_each_rows_normalized_cumsum():
    # The constructor accepts rows within 1e-5 of summing to one, so the
    # cumsum is divided by its last entry, as rng.choice divides it.
    g = make_subset_graph(3, [0, 1])
    uniforms = SimpleNamespace(random=lambda size: np.full(size, 0.499999))
    schedule = MarkovSchedule([g, g], np.array([[0.5, 0.500004], [0.5, 0.5]]), uniforms)
    schedule.advance()
    assert schedule.state == 1  # 0.499999 >= 0.5 / 1.000004
