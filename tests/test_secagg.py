import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmslearn.secagg import (
    PRIME_128,
    PRIME_TEST_31,
    PRIME_TEST_97,
    ContributorError,
    EncodingRangeError,
    FixedPointCodec,
    SecAggSession,
    ShareCountError,
    SharingParams,
    SecretShare,
    TamperError,
    Transcript,
    _rand_field_cells,
    _reconstruction_weights,
    detect_tampering,
    party_placement,
    reconstruct,
    secure_aggregate,
    share,
)
from dmslearn.topology import Graph, make_subset_graph, make_topology

from oracles import (
    naive_poly_eval,
    naive_reconstruct,
    old_rand_field_element,
    old_rand_field_elements,
    old_encode,
    old_party_placement,
    old_reconstruct,
    old_secure_aggregate,
    old_share,
)


def trio(prime=PRIME_TEST_97):
    return SharingParams(3, 1, prime)


def test_worked_shares():
    shares = share(5, trio(), coefficients=(3,))
    assert [(s.index, s.value) for s in shares] == [(1, 8), (2, 11), (3, 14)]
    shares = share([5, 6], trio(), coefficients=[(3,), (1,)])
    assert [(s.index, s.value) for s in shares] == [(1, (8, 7)), (2, (11, 8)), (3, (14, 9))]
    assert reconstruct(shares, trio()) == (5, 6)


def test_worked_shares_match_poly_oracle():
    coeffs = (5, 3)
    shares = share(5, trio(), coefficients=(3,))
    for s in shares:
        assert s.value == naive_poly_eval(coeffs, s.index, PRIME_TEST_97)


def test_reconstruct_matches_lagrange_oracle():
    rng = np.random.default_rng(0)
    params = SharingParams(5, 2, PRIME_TEST_97)
    for _ in range(50):
        secret = int(rng.integers(PRIME_TEST_97))
        shares = share(secret, params, rng)
        picked = shares[:3]
        assert reconstruct(picked, params) == secret
        points = [(s.index, s.value) for s in picked]
        assert naive_reconstruct(points, PRIME_TEST_97) == secret


@given(
    secret=st.integers(min_value=0, max_value=PRIME_TEST_97 - 1),
    parties=st.integers(min_value=3, max_value=9),
    degree=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=200, deadline=None)
def test_round_trip_any_threshold_subset(secret, parties, degree, seed):
    if 2 * degree >= parties:
        return
    rng = np.random.default_rng(seed)
    params = SharingParams(parties, degree, PRIME_TEST_97)
    shares = share(secret, params, rng)
    order = rng.permutation(parties)[: params.threshold]
    picked = [shares[i] for i in order]
    assert reconstruct(picked, params) == secret


def test_every_threshold_subset_agrees():
    rng = np.random.default_rng(7)
    params = SharingParams(7, 3, PRIME_TEST_97)
    shares = share(42, params, rng)
    for combo in itertools.combinations(shares, params.threshold):
        assert reconstruct(list(combo), params) == 42


def test_too_few_shares_rejected():
    rng = np.random.default_rng(1)
    params = SharingParams(5, 2, PRIME_TEST_97)
    shares = share(9, params, rng)
    with pytest.raises(ShareCountError):
        reconstruct(shares[:2], params)


def test_tampering_detected_with_redundant_shares():
    rng = np.random.default_rng(3)
    params = SharingParams(5, 1, PRIME_TEST_97)
    shares = share(17, params, rng)
    assert detect_tampering(shares, params) is False
    bad = list(shares)
    bad[3] = SecretShare(index=bad[3].index, value=(bad[3].value + 1) % PRIME_TEST_97)
    assert detect_tampering(bad, params) is True
    with pytest.raises(TamperError):
        reconstruct(bad, params)


def test_tampering_sweep_all_positions():
    rng = np.random.default_rng(11)
    for parties, degree in ((4, 1), (5, 2), (7, 3)):
        params = SharingParams(parties, degree, PRIME_TEST_97)
        for _ in range(25):
            secret = int(rng.integers(PRIME_TEST_97))
            shares = share(secret, params, rng)
            pos = int(rng.integers(parties))
            delta = int(rng.integers(1, PRIME_TEST_97))
            bad = list(shares)
            bad[pos] = SecretShare(bad[pos].index, (bad[pos].value + delta) % PRIME_TEST_97)
            assert detect_tampering(bad, params) is True


def test_single_share_reveals_nothing():
    # Over the whole coefficient space, each party's share takes every field
    # value equally often no matter the secret: the two distributions for
    # any pair of secrets are identical.
    p = PRIME_TEST_31
    params = SharingParams(3, 1, p)
    for party in range(3):
        tables = []
        for secret in (0, 1, 17, 30):
            counts = [0] * p
            for c in range(p):
                s = share(secret, params, coefficients=(c,))[party]
                counts[s.value] += 1
            tables.append(counts)
        for counts in tables:
            assert counts == tables[0]
            assert all(v == 1 for v in counts)


def test_params_validation():
    with pytest.raises(ValueError):
        SharingParams(4, 0)  # degree zero leaks the secret to every party
    SharingParams(1, 0)  # the degenerate single-party case is allowed
    with pytest.raises(ValueError):
        SharingParams(4, 2)  # no honest majority: 2*degree >= parties
    with pytest.raises(ValueError):
        SharingParams(3, 3)
    with pytest.raises(ValueError):
        SharingParams(101, 1, PRIME_TEST_97)  # evaluation points must stay distinct
    assert SharingParams(5, 2).threshold == 3


def test_codec_worked_value():
    codec = FixedPointCodec()
    assert codec.encode_vector([1.5]) == [98304]
    assert codec.decode(98304) == 1.5


def test_codec_negative_round_trip():
    codec = FixedPointCodec()
    [v, w] = codec.encode_vector([-2.25, 2.25])
    assert v == (PRIME_128 - w) % PRIME_128
    assert codec.decode(v) == -2.25


def test_codec_range_error():
    codec = FixedPointCodec(fraction_bits=16, integer_bits=8)
    codec.encode_vector([255.9])
    with pytest.raises(EncodingRangeError):
        codec.encode_vector([256.0])
    with pytest.raises(EncodingRangeError):
        codec.encode_vector([-256.0])


def test_codec_dyadic_vector_exact():
    codec = FixedPointCodec()
    rng = np.random.default_rng(2)
    vec = rng.integers(-(2**20), 2**20, size=64).astype(float) / codec.scale
    back = codec.decode_vector(codec.encode_vector(vec))
    assert np.array_equal(back, vec)


@given(st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_codec_quantization_error_bounded(x):
    codec = FixedPointCodec()
    [v] = codec.encode_vector([x])
    assert abs(codec.decode(v) - x) <= 0.5 / codec.scale


def test_sum_headroom():
    codec = FixedPointCodec(fraction_bits=16, integer_bits=32)
    assert codec.sum_headroom(30)
    assert not codec.sum_headroom(2**80)


def session_of(n_contrib=3, prime=PRIME_128):
    params = SharingParams(3, 1, prime)
    return SecAggSession(
        params=params,
        contributors=tuple(range(n_contrib)),
        parties=(10, 11, 12),
        recipients=(0, 1, 2)[:n_contrib],
    )


def test_secure_sum_worked_example():
    codec = FixedPointCodec()
    rng = np.random.default_rng(0)
    vectors = [np.array([1.0]), np.array([2.0]), np.array([-0.5])]
    out = secure_aggregate(vectors, session_of(), codec, rng)
    assert out.shape == (1,)
    assert out[0] == 2.5


def test_secure_sum_matches_plaintext_bit_exact():
    codec = FixedPointCodec()
    rng = np.random.default_rng(9)
    for _ in range(30):
        vectors = [
            rng.integers(-(2**12), 2**12, size=100).astype(float) / codec.scale
            for _ in range(3)
        ]
        out = secure_aggregate(vectors, session_of(), codec, rng)
        assert np.array_equal(out, vectors[0] + vectors[1] + vectors[2])


def test_secure_sum_needs_three_contributors():
    codec = FixedPointCodec()
    rng = np.random.default_rng(0)
    params = SharingParams(3, 1)
    session = SecAggSession(params, contributors=(0, 1), parties=(5, 6, 7), recipients=(0,))
    with pytest.raises(ContributorError):
        secure_aggregate([np.ones(2), np.ones(2)], session, codec, rng)


def test_secure_sum_catches_corrupt_party():
    codec = FixedPointCodec()
    rng = np.random.default_rng(4)
    with pytest.raises(TamperError):
        secure_aggregate(
            [np.ones(2), np.ones(2), np.ones(2)],
            session_of(),
            codec,
            rng,
            corrupt_party=1,
        )


def test_transcript_message_counts():
    codec = FixedPointCodec()
    rng = np.random.default_rng(6)
    transcript = Transcript()
    session = session_of()
    secure_aggregate(
        [np.ones(3), np.ones(3), np.ones(3)],
        session,
        codec,
        rng,
        transcript=transcript,
        round_index=0,
    )
    contributors = len(session.contributors)
    parties = len(session.parties)
    recipients = len(session.recipients)
    assert transcript.messages == contributors * parties + parties * recipients
    share_messages = sum(
        1 for e in transcript.entries if e.phase == "share"
    )
    assert share_messages == contributors * parties


def test_transcript_payload_hiding():
    codec = FixedPointCodec()
    rng = np.random.default_rng(8)
    bare = Transcript(record_payloads=False)
    secure_aggregate(
        [np.ones(2), np.ones(2), np.ones(2)],
        session_of(),
        codec,
        rng,
        transcript=bare,
    )
    assert bare.messages > 0
    assert list(bare.payload_values()) == []


def test_placement_fedavg():
    sessions = party_placement(agent_count=10)
    assert len(sessions) == 1
    s = sessions[0]
    assert s.contributors == tuple(range(10))
    assert s.parties == (11, 12, 13)
    assert s.recipients == (10,)
    assert s.params.parties == 3 and s.params.degree == 1


def test_placement_ring():
    g = make_topology("ring", 6)
    sessions = party_placement(g)
    assert len(sessions) == 6
    for i, s in enumerate(sessions):
        assert len(s.parties) == 3
        assert i in s.parties
        assert s.recipients == (i,)


def test_placement_subset():
    g = make_subset_graph(10, (0, 2, 3, 5, 7, 8, 9))
    sessions = party_placement(g)
    assert len(sessions) == 1
    s = sessions[0]
    assert s.parties == (0, 2, 3, 5, 7, 8, 9)
    assert s.params.parties == 7 and s.params.degree == 3
    assert s.recipients == s.parties


def test_placement_subset_too_small():
    g = make_subset_graph(8, (1, 4))
    with pytest.raises(ContributorError):
        party_placement(g)


def test_placement_three_agent_ring_is_the_triangle():
    # One session that reveals to all three agents, not three per-agent
    # sessions that compute the same sum.
    sessions = party_placement(make_topology("ring", 3))
    assert sessions == party_placement(make_topology("complete", 3))
    [s] = sessions
    assert s.contributors == s.parties == s.recipients == (0, 1, 2)
    assert s.params == SharingParams(3, 1)


def test_placement_follows_closed_neighborhoods():
    # Two disjoint triangles plus an isolated agent: one session per
    # triangle, none for agent 6; an edgeless graph has no sessions.
    g = Graph(7, frozenset({(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)}))
    assert [s.recipients for s in party_placement(g)] == [(0, 1, 2), (3, 4, 5)]
    assert party_placement(Graph(5, frozenset())) == []
    with pytest.raises(ContributorError):
        party_placement(Graph(4, frozenset({(0, 1), (1, 2), (2, 3)})))


@st.composite
def round_graphs(draw):
    """(old strategy name, graphs): rings with n >= 4, complete graphs, and
    complete subsets as a dms schedule draws them."""
    kind = draw(st.sampled_from(["dring", "dfc", "dms"]))
    if kind == "dring":
        return kind, [make_topology("ring", draw(st.integers(4, 39)))]
    n = draw(st.integers(3, 39))
    if kind == "dfc":
        return kind, [make_topology("complete", n)]
    m = draw(st.integers(3, n))
    # Whether the four subsets connect the agents does not matter here.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return kind, [make_subset_graph(n, rng.choice(n, size=m, replace=False)) for _ in range(4)]


@given(round_graphs(), st.sampled_from([PRIME_128, PRIME_TEST_97]))
@settings(max_examples=150, deadline=None)
def test_placement_matches_the_old_strategy_layout(case, prime):
    strategy, graphs = case
    for g in graphs:
        assert party_placement(g, prime=prime) == old_party_placement(
            strategy, graph=g, prime=prime
        )
    n = graphs[0].agent_count
    assert party_placement(agent_count=n, prime=prime) == old_party_placement(
        "fedavg", agent_count=n, prime=prime
    )


def _encoded(encode, values):
    """The encoding, or the text of the range error it raises."""
    try:
        return encode(values)
    except EncodingRangeError as exc:
        return str(exc)


CODEC_EDGE_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 2.0**-17, -(2.0**-17), 1.5, -2.25]


@given(
    st.sampled_from([FixedPointCodec(), FixedPointCodec(8, 4), FixedPointCodec(1, 1, PRIME_TEST_97)]),
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(CODEC_EDGE_VALUES),
            st.integers(-(2**12), 2**12).map(lambda k: (k + 0.5) / 2**8),
        ),
        max_size=6,
    ),
)
@settings(max_examples=300, deadline=None)
def test_vector_encode_matches_the_per_value_encoder(codec, values):
    # Edges of the range included: the bound itself, and the last grid
    # values and half-steps inside it.
    bound = codec.magnitude_bound
    step = 1.0 / codec.scale
    values = values + [bound, -bound, bound - step, -bound + step / 2]
    for start in range(len(values)):
        chunk = values[start:]
        new = _encoded(codec.encode_vector, np.array(chunk))
        old = _encoded(lambda v: [old_encode(codec, float(x)) for x in v], chunk)
        assert new == old


# --- the bulk-draw, cached-weight, vector-share path against the old one ---


class CountingRng:
    """Passes ``bytes`` through to a generator and records each request."""

    def __init__(self, rng):
        self.rng = rng
        self.requests = []

    def bytes(self, length):
        self.requests.append(length)
        return self.rng.bytes(length)


def test_padded_slots_of_one_draw_are_the_single_draws():
    # Generator.bytes hands out whole 32-bit words, which the bulk draw relies on.
    for nbytes in range(1, 21):
        bulk, single = np.random.default_rng(nbytes), np.random.default_rng(nbytes)
        slot = -(-nbytes // 4) * 4
        buf = bulk.bytes(slot * 9)
        assert [buf[i : i + nbytes] for i in range(0, len(buf), slot)] == [
            single.bytes(nbytes) for _ in range(9)
        ]
        assert bulk.bit_generator.state == single.bit_generator.state


def field_values(cells):
    """The field elements held by rows of big-endian bytes."""
    return [int.from_bytes(row.tobytes(), "big") for row in cells]


@pytest.mark.parametrize(
    "prime, count, requests",
    [
        (PRIME_128, 40, 1),  # 16-byte draws, rejection all but impossible
        (PRIME_TEST_97, 60, None),  # 1-byte draws of 7 bits: about 24% rejected, so it tops up
    ],
)
def test_bulk_draw_equals_single_draws(prime, count, requests):
    bulk, single = CountingRng(np.random.default_rng(5)), np.random.default_rng(5)
    drawn = field_values(_rand_field_cells(bulk, prime, count))
    assert drawn == [old_rand_field_element(single, prime) for _ in range(count)]
    assert bulk.rng.bit_generator.state == single.bit_generator.state
    if requests is None:
        assert len(bulk.requests) > 1
    else:
        assert len(bulk.requests) == requests


@given(
    prime=st.sampled_from([PRIME_TEST_31, PRIME_TEST_97, 257, 2**127 + 45, PRIME_128]),
    count=st.integers(0, 500),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_packed_draw_matches_the_int_list_draw(prime, count, seed):
    # 257 and 2**127 + 45 sit just above a power of two and reject about
    # half their candidates, so most draws top up.
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cells = _rand_field_cells(new_rng, prime, count)
    assert cells.shape == (count, ((prime - 1).bit_length() + 7) // 8)
    assert field_values(cells) == old_rand_field_elements(old_rng, prime, count)
    assert new_rng.bit_generator.state == old_rng.bit_generator.state


def outcome(fn, *args, **kwargs):
    """``fn``'s result, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return type(exc), str(exc)


def sharing_params(draw, prime):
    parties = draw(st.sampled_from([1, *range(3, 12)]))  # two parties admit no degree
    degree = draw(st.integers(min_value=0 if parties == 1 else 1, max_value=(parties - 1) // 2))
    return SharingParams(parties, degree, prime)


PRIMES = st.sampled_from([PRIME_TEST_31, PRIME_TEST_97, PRIME_128])


@given(data=st.data(), prime=PRIMES, seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_vector_share_and_reconstruct_match_the_old_scalar_path(data, prime, seed):
    params = sharing_params(data.draw, prime)
    dim = data.draw(st.integers(min_value=1, max_value=5))
    secret = data.draw(st.lists(st.integers(0, prime - 1), min_size=dim, max_size=dim))
    new_rng, old_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    shares = share(secret, params, new_rng)
    per_coord = [old_share(v, params, old_rng) for v in secret]
    assert new_rng.bit_generator.state == old_rng.bit_generator.state
    assert shares == [
        SecretShare(x, tuple(col[x - 1].value for col in per_coord))
        for x in range(1, params.parties + 1)
    ]
    assert share(secret[0], params, np.random.default_rng(seed)) == per_coord[0]

    # A random subset in random order, with up to two values moved off.
    picked = data.draw(st.permutations(shares))[: data.draw(st.integers(0, params.parties))]
    for _ in range(data.draw(st.integers(0, 2)) if picked else 0):
        pos, coord = data.draw(st.integers(0, len(picked) - 1)), data.draw(st.integers(0, dim - 1))
        value = list(picked[pos].value)
        value[coord] = (value[coord] + data.draw(st.integers(1, prime - 1))) % prime
        picked[pos] = SecretShare(picked[pos].index, tuple(value))

    def old_per_coord():
        return tuple(
            old_reconstruct([SecretShare(s.index, s.value[j]) for s in picked], params)
            for j in range(dim)
        )

    assert outcome(reconstruct, picked, params) == outcome(old_per_coord)
    scalar = [SecretShare(s.index, s.value[0]) for s in picked]
    assert outcome(reconstruct, scalar, params) == outcome(old_reconstruct, scalar, params)


def test_tamper_names_the_surplus_share_off_at_the_lowest_coordinate():
    params = SharingParams(7, 2, PRIME_TEST_97)
    shares = share([1, 2, 3], params, np.random.default_rng(0))
    for pos, coord in ((4, 2), (5, 0)):  # index 5 off at coordinate 2, index 6 at 0
        value = list(shares[pos].value)
        value[coord] = (value[coord] + 1) % PRIME_TEST_97
        shares[pos] = SecretShare(shares[pos].index, tuple(value))
    with pytest.raises(TamperError, match="share at index 6 is off"):
        reconstruct(shares, params)


@given(data=st.data(), prime=PRIMES, seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=150, deadline=None)
def test_secure_aggregate_matches_the_old_per_coordinate_path(data, prime, seed):
    params = sharing_params(data.draw, prime)
    codec = FixedPointCodec(1, 1, prime) if prime < PRIME_128 else FixedPointCodec()
    count = data.draw(st.integers(min_value=3, max_value=5))
    dim = data.draw(st.integers(min_value=0, max_value=4))
    # Values on the codec's grid, inside its range.
    top = (1 << (codec.integer_bits + codec.fraction_bits)) - 1
    grid = st.lists(st.integers(-top, top), min_size=dim, max_size=dim)
    vectors = [np.array(data.draw(grid), dtype=float) / codec.scale for _ in range(count)]
    session = SecAggSession(
        params,
        contributors=tuple(range(count)),
        parties=tuple(range(100, 100 + params.parties)),
        recipients=tuple(range(data.draw(st.integers(1, count)))),
    )
    corrupt = data.draw(st.one_of(st.none(), st.integers(0, params.parties - 1)))
    # Recorded, unrecorded and absent transcripts take different share paths.
    mode = data.draw(st.sampled_from([{}, {"record_payloads": False}, None]))
    runs = []
    for aggregate in (secure_aggregate, old_secure_aggregate):
        rng = np.random.default_rng(seed)
        transcript = None if mode is None else Transcript(**mode)
        total = outcome(
            aggregate, vectors, session, codec, rng,
            transcript=transcript, round_index=2, corrupt_party=corrupt,
        )
        runs.append((total, rng.bit_generator.state, transcript))
    (new, new_state, new_log), (old, old_state, old_log) = runs
    assert type(new) is type(old)
    if isinstance(old, np.ndarray):
        assert np.array_equal(new, old)
    else:
        assert new == old
    assert new_state == old_state
    if mode is not None:
        assert new_log.entries == old_log.entries
        assert (new_log.messages, new_log.bytes) == (old_log.messages, old_log.bytes)


@pytest.mark.parametrize("parties, degree, contributors, dim", [(3, 1, 5, 6), (7, 3, 7, 1)])
def test_recording_payloads_changes_only_the_payloads(parties, degree, contributors, dim):
    codec = FixedPointCodec()
    params = SharingParams(parties, degree)
    session = SecAggSession(
        params, tuple(range(contributors)), tuple(range(50, 50 + parties)), (0, 1)
    )
    vectors = [np.random.default_rng(i).normal(size=dim) for i in range(contributors)]
    runs = []
    for record in (True, False):
        rng, transcript = np.random.default_rng(3), Transcript(record_payloads=record)
        total = secure_aggregate(vectors, session, codec, rng, transcript=transcript)
        runs.append((total.tobytes(), rng.bit_generator.state, transcript))
    (total, state, full), (bare_total, bare_state, bare) = runs
    assert (total, state) == (bare_total, bare_state)
    assert (full.messages, full.bytes) == (bare.messages, bare.bytes)
    assert [dataclasses.replace(e, payload=()) for e in full.entries] == bare.entries
    # The recorded share payloads are what share() hands out on the same draws.
    replay = np.random.default_rng(3)
    shares = [share(codec.encode_vector(v), params, replay) for v in vectors]
    sent = [e.payload for e in full.entries if e.phase == "share"]
    assert sent == [s.value for per_contributor in shares for s in per_contributor]


def test_corrupt_party_is_caught_at_every_position():
    codec = FixedPointCodec()
    params = SharingParams(7, 3)
    session = SecAggSession(params, tuple(range(4)), tuple(range(10, 17)), (0,))
    vectors = [np.full(3, float(i)) for i in range(4)]
    for pos in range(params.parties):
        new, old = (
            outcome(aggregate, vectors, session, codec, np.random.default_rng(7), corrupt_party=pos)
            for aggregate in (secure_aggregate, old_secure_aggregate)
        )
        assert new == old
        assert new[0] is TamperError


def test_reconstruction_weights_are_cached_per_index_set():
    _reconstruction_weights.cache_clear()
    rng = np.random.default_rng(0)
    params = SharingParams(5, 2, PRIME_TEST_97)
    for _ in range(3):
        reconstruct(share([1, 2, 3], params, rng), params)
        reconstruct(share(4, params, rng)[1:], params)
    info = _reconstruction_weights.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    assert info.maxsize is not None
