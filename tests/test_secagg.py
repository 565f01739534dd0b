import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmslearn.secagg import (
    PRIME_128,
    ContributorError,
    EncodingRangeError,
    FixedPointCodec,
    SecAggSession,
    ShareCountError,
    SharingParams,
    SecretShare,
    TamperError,
    Transcript,
    _evaluate,
    _interpolation,
    _point_width,
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
    PRIME_TEST_31,
    PRIME_TEST_97,
    OldTranscript,
    naive_poly_eval,
    naive_reconstruct,
    old_rand_field_element,
    old_rand_field_elements,
    old_decode_vector,
    old_encode_vector,
    old_evaluate,
    old_party_placement,
    old_reconstruct,
    old_secure_aggregate,
    old_share,
    per_message,
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
    assert codec.decode_vector([98304])[0] == 1.5


def test_codec_negative_round_trip():
    codec = FixedPointCodec()
    [v, w] = codec.encode_vector([-2.25, 2.25])
    assert v == (PRIME_128 - w) % PRIME_128
    assert codec.decode_vector([v])[0] == -2.25


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
    assert abs(codec.decode_vector([v])[0] - x) <= 0.5 / codec.scale


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
    # One entry per phase, each listing its messages' senders.
    assert [e.phase for e in transcript.entries] == ["share", "reconstruct"]
    assert len(transcript.entries[0].senders) == contributors * parties


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
    assert all(entry.payload == () for entry in bare.entries)


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


# --- the limb encoder, the numpy decoder and Horner's rule -------------------

LIMB_CODECS = [
    FixedPointCodec(1, 1, PRIME_TEST_31),
    FixedPointCodec(1, 1, PRIME_TEST_97),
    FixedPointCodec(8, 4),
    FixedPointCodec(16, 8),
    FixedPointCodec(),
    FixedPointCodec(16, 32, 2**61 - 1),  # two words, coefficient cells without padding
    FixedPointCodec(60, 60),  # values far beyond int64
]


def limb_ints(limbs):
    """The integers held by each run of little-endian 32-bit limbs along the last axis."""
    rows = limbs.reshape(-1, limbs.shape[-1]).astype("<u4")
    return [int.from_bytes(row.tobytes(), "little") for row in rows]


@st.composite
def codec_blocks(draw, codecs=LIMB_CODECS, strays=True):
    """A codec and a 1-d or (rows, d) block of values at its edges: ties, -0.0,
    the last floats inside the bound, and (with ``strays``) values outside it."""
    codec = draw(st.sampled_from(codecs))
    bound, step = codec.magnitude_bound, 1.0 / codec.scale
    top = 1 << (codec.integer_bits + codec.fraction_bits)
    inside = float(np.nextafter(bound, 0.0))
    edges = [0.0, -0.0, step, -step, step / 2, -step / 2, 2.0**-17, -(2.0**-17)]
    edges += [inside, -inside, bound - step, step / 2 - bound]
    value = st.one_of(
        st.floats(-inside, inside),
        st.sampled_from([v for v in edges if abs(v) < bound]),
        # Ties, where exact; at 2**120 steps, k + 0.5 can round up to the bound.
        st.integers(-top, top - 1).map(lambda k: (k + 0.5) * step).filter(lambda v: abs(v) < bound),
        st.integers(0, min(40, top)).map(lambda k: inside - k * step),
        st.integers(0, min(40, top)).map(lambda k: k * step - inside),
    )
    if strays:
        outside = [bound, -bound, np.nan, np.inf, -np.inf, 2 * bound, 1.5, -2.25]
        coarse_ties = st.integers(-(2**12), 2**12).map(lambda k: (k + 0.5) / 2**8)
        value = st.one_of(value, st.sampled_from(outside), st.floats(), coarse_ties)
    flat_shape = (draw(st.integers(0, 6)),)
    shape = draw(st.sampled_from([flat_shape, (draw(st.integers(1, 3)), draw(st.integers(0, 4)))]))
    size = int(np.prod(shape))
    flat = draw(st.lists(value, min_size=size, max_size=size))
    return codec, np.array(flat, dtype=float).reshape(shape)


@given(codec_blocks())
@settings(max_examples=500, deadline=None)
def test_vector_encode_matches_the_per_value_encoder(case):
    # Bit for bit, as ints and as limbs. The old encoder walks the values in
    # row-major order, so its error names the first bad value in that order,
    # as the one-call encoder must.
    codec, block = case
    old = _encoded(lambda v: old_encode_vector(codec, v), block)
    assert _encoded(codec.encode_vector, block) == old
    limbs = _encoded(codec.encode_limbs, block)
    if isinstance(old, str):
        assert limbs == old
    else:
        words = -(-(codec.prime - 1).bit_length() // 32)
        assert limbs.dtype == np.uint32 and limbs.shape == (*block.shape, words)
        assert limb_ints(limbs) == old


@given(
    codec=st.sampled_from(LIMB_CODECS),
    data=st.data(),
    stray=st.sampled_from([None, -1, 0, 1, 2**64]),
)
@settings(max_examples=400, deadline=None)
def test_numpy_decoder_matches_the_per_value_decoder(codec, data, stray):
    p, half = codec.prime, codec.half
    # Floats past 2**53 round: cover halfway points at every exponent, and
    # values on both sides of the sign cut and of int64's range.
    ties = st.integers(53, 126).map(lambda e: (1 << e) + (1 << (e - 53)))
    centre = st.one_of(ties, st.sampled_from([0, half, 2**63, 2**64, p - 2**63, p - 1]))
    near = st.tuples(centre, st.integers(-3, 3), st.booleans()).map(
        lambda c: (p - c[0] - c[1] if c[2] else c[0] + c[1]) % p
    )
    values = data.draw(st.lists(st.one_of(st.integers(0, p - 1), near), max_size=8))
    if stray is not None:  # -1, p, p + 1 or p + 2**64: outside the field
        values.insert(data.draw(st.integers(0, len(values))), -1 if stray < 0 else p + stray)
    new, old = outcome(codec.decode_vector, values), outcome(old_decode_vector, codec, values)
    if isinstance(old, np.ndarray):
        assert new.dtype == old.dtype and new.tobytes() == old.tobytes()
    else:
        assert new == old


@given(
    data=st.data(),
    prime=st.sampled_from([PRIME_TEST_31, PRIME_TEST_97, 257, 2**61 - 1, PRIME_128]),
)
@settings(max_examples=300, deadline=None)
def test_horner_points_match_the_reduced_power_points(data, prime):
    # Up to 29 parties, so that exact powers outgrow small primes by far.
    parties = data.draw(st.sampled_from([1, *range(3, 12), 21, 29]))
    degree = data.draw(st.integers(0 if parties == 1 else 1, (parties - 1) // 2))
    params = SharingParams(parties, degree, prime)
    summands, dim = data.draw(st.integers(1, 40)), data.draw(st.integers(0, 4))
    width = _point_width(params, summands)
    top = summands * (prime - 1)
    cell = st.one_of(st.integers(0, top), st.just(top))
    cells = [data.draw(st.lists(cell, min_size=dim, max_size=dim)) for _ in range(degree + 1)]
    columns = [packed(row, width) for row in cells]
    new, old = _evaluate(columns, params), old_evaluate(columns, params)
    if parties**degree < prime:
        assert new == old
        return
    # Exact powers exceed the prime: every slot holds its exact point, which
    # the old reduced-power point equals mod p, and nothing carries out.
    bits = 8 * width
    for x, n, o in zip(range(1, parties + 1), new, old):
        new_slots, old_slots = ([v >> (bits * j) & ((1 << bits) - 1) for j in range(dim)] for v in (n, o))
        assert n >> (bits * dim) == 0
        assert new_slots == [sum(x**k * cells[k][j] for k in range(degree + 1)) for j in range(dim)]
        assert all((a - b) % prime == 0 for a, b in zip(new_slots, old_slots))


@given(
    case=codec_blocks(strays=False),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    width=st.sampled_from([None, 32]),
)
@settings(max_examples=150, deadline=None)
def test_sharing_limbs_equals_sharing_their_ints(case, seed, width):
    codec, block = case
    params = SharingParams(5, 2, codec.prime)
    for row in np.atleast_2d(block):
        limb_rng, int_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        from_limbs = share(codec.encode_limbs(row), params, limb_rng, width=width)
        from_ints = share(codec.encode_vector(row), params, int_rng, width=width)
        assert limb_rng.bit_generator.state == int_rng.bit_generator.state
        if width is not None:
            assert from_limbs.tobytes() == from_ints.tobytes()
            continue
        assert from_limbs == from_ints
        old_rng = np.random.default_rng(seed)
        per_coord = [old_share(v, params, old_rng) for v in old_encode_vector(codec, row)]
        assert from_limbs == [
            SecretShare(x, tuple(col[x - 1].value for col in per_coord))
            for x in range(1, params.parties + 1)
        ]


def test_limb_secrets_outside_the_field_are_rejected():
    for prime in (PRIME_TEST_97, 2**61 - 1, PRIME_128):
        params = SharingParams(3, 1, prime)
        words = -(-(prime - 1).bit_length() // 32)

        def limbs(values, words=words):
            raw = b"".join(v.to_bytes(4 * words, "little") for v in values)
            return np.frombuffer(raw, "<u4").astype(np.uint32).reshape(len(values), words)

        ok = [prime - 1, 0, 5]
        rng = np.random.default_rng(1)
        assert share(limbs(ok), params, rng) == share(ok, params, np.random.default_rng(1))
        for bad in ([prime], [0, prime + 1], [(1 << (32 * words)) - 1, 0], [5, 6]):
            rng = np.random.default_rng(1)
            secret = limbs(bad) if bad != [5, 6] else limbs(bad, words + 1)
            with pytest.raises(ValueError, match="secret outside the field"):
                share(secret, params, rng)
            assert rng.bit_generator.state == np.random.default_rng(1).bit_generator.state


def test_an_out_of_range_value_raises_before_any_coefficient_is_drawn():
    # The old path encoded contributor by contributor and drew the earlier
    # contributors' coefficients first; the one-call encoder raises first.
    codec = FixedPointCodec(16, 8)
    session = session_of(4)
    vectors = [np.ones(3), np.full(3, -2.0), np.array([1.0, 300.0, np.nan]), np.array([-256.0, 0, 1])]
    rng, transcript = np.random.default_rng(4), Transcript()
    with pytest.raises(EncodingRangeError, match=r"^value 300\.0 outside the fixed-point range$"):
        secure_aggregate(vectors, session, codec, rng, transcript=transcript)
    assert rng.bit_generator.state == np.random.default_rng(4).bit_generator.state
    assert (transcript.entries, transcript.messages, transcript.bytes) == ([], 0, 0)
    old_rng, old_log = np.random.default_rng(4), OldTranscript()
    with pytest.raises(EncodingRangeError, match=r"^value 300\.0 outside"):
        old_secure_aggregate(vectors, session, codec, old_rng, transcript=old_log)
    assert old_rng.bit_generator.state != rng.bit_generator.state and old_log.messages == 6


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
    corrupt = data.draw(st.one_of(st.none(), st.integers(-2, params.parties + 1)))
    # Recorded, unrecorded and absent transcripts take different share paths.
    mode = data.draw(st.sampled_from([{}, {"record_payloads": False}, None]))
    if corrupt is not None and (corrupt not in range(params.parties) or dim == 0):
        # The old path corrupted a party counted from the end, or raised a
        # bare IndexError; the new one rejects the index before drawing,
        # after the checks that the old path made first.
        old = outcome(old_secure_aggregate, vectors, session, codec, np.random.default_rng(seed),
                      corrupt_party=corrupt)
        if not (isinstance(old, tuple) and old[0] is EncodingRangeError):
            old = ValueError, f"corrupt_party {corrupt} names no share of a nonempty sum"
        rng = np.random.default_rng(seed)
        transcript = None if mode is None else Transcript(**mode)
        new = outcome(secure_aggregate, vectors, session, codec, rng, transcript=transcript,
                      corrupt_party=corrupt)
        assert new == old
        assert rng.bit_generator.state == np.random.default_rng(seed).bit_generator.state
        assert transcript is None or transcript.entries == []
        return
    runs = []
    for aggregate, log in ((secure_aggregate, Transcript), (old_secure_aggregate, OldTranscript)):
        rng = np.random.default_rng(seed)
        transcript = None if mode is None else log(**mode)
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
        assert per_message(new_log) == old_log.entries
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
    sent = [m.payload for m in per_message(full) if m.phase == "share"]
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
    _interpolation.cache_clear()
    rng = np.random.default_rng(0)
    params = SharingParams(5, 2, PRIME_TEST_97)
    for _ in range(3):
        reconstruct(share([1, 2, 3], params, rng), params)
        reconstruct(share(4, params, rng)[1:], params)
    info = _interpolation.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    assert info.maxsize is not None


# --- the packed reconstruction and the limb sums ---------------------------


def packed(values, width):
    """``values`` in one integer, one little-endian ``width``-byte slot each."""
    return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in values), "little")


def test_integer_weights_are_the_field_weights():
    for parties in range(3, 32):
        indices = tuple(range(1, parties + 1))
        for threshold in range(2, (parties - 1) // 2 + 2):
            for prime in (PRIME_128, PRIME_TEST_97):
                exact = _reconstruction_weights(indices, threshold, prime, exact=True)
                field = _reconstruction_weights(indices, threshold, prime)
                assert [[w % prime for w in row] for row in exact] == [list(row) for row in field]
                assert _interpolation(indices, threshold, prime)[0] == exact
    # The benchmark's 21-party degree-10 session: single-digit weights.
    exact = _interpolation(tuple(range(1, 22)), 11, PRIME_128)[0]
    assert max(abs(w) for row in exact for w in row).bit_length() == 25


@pytest.mark.parametrize("parties, degree", [(5, 2), (21, 10)])
def test_packed_check_catches_a_fault_that_leaves_a_multiple_of_p(parties, degree):
    # Adding 1 + c * 2**(8 * width), a multiple of p, to one party's packed
    # total leaves every difference from a prediction as divisible by p as
    # before, so a bare ``D % p == 0`` check passes it; slot 0 is still off.
    params, width, dim = SharingParams(parties, degree), 28, 3
    prime = params.prime
    c = -pow(1 << (8 * width), -1, prime) % prime
    fault = 1 + (c << (8 * width))
    assert fault % prime == 0
    shares = share([11, 22, 33], params, np.random.default_rng(parties))
    for pos in (0, degree, degree + 1, parties - 1):
        values = list(shares[pos].value)
        values[0], values[1] = (values[0] + 1) % prime, (values[1] + c) % prime
        bad = [*shares[:pos], SecretShare(pos + 1, tuple(values)), *shares[pos + 1 :]]
        totals = [packed(s.value, width) + (fault if s.index == pos + 1 else 0) for s in shares]
        expected = outcome(reconstruct, bad, params)
        assert expected[0] is TamperError
        packed_shares = [SecretShare(x, v) for x, v in enumerate(totals, start=1)]
        assert outcome(reconstruct, packed_shares, params, width=width, dim=dim) == expected


@given(data=st.data(), prime=PRIMES, seed=st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=200, deadline=None)
def test_packed_reconstruct_matches_the_tuple_mode(data, prime, seed):
    params = sharing_params(data.draw, prime)
    dim = data.draw(st.integers(min_value=0, max_value=6))
    secret = data.draw(st.lists(st.integers(0, prime - 1), min_size=dim, max_size=dim))
    shares = share(secret, params, np.random.default_rng(seed))
    picked = data.draw(st.permutations(shares))[: data.draw(st.integers(0, params.parties))]
    for _ in range(data.draw(st.integers(0, 2)) if picked and dim else 0):
        pos, coord = data.draw(st.integers(0, len(picked) - 1)), data.draw(st.integers(0, dim - 1))
        value = list(picked[pos].value)
        value[coord] = (value[coord] + data.draw(st.integers(1, prime - 1))) % prime
        picked[pos] = SecretShare(picked[pos].index, tuple(value))
    stray = data.draw(st.sampled_from([None, 0, params.parties + 1, "duplicate"]))
    if stray == "duplicate" and picked:
        picked.insert(data.draw(st.integers(0, len(picked))), picked[0])
    elif isinstance(stray, int):
        picked.append(SecretShare(stray, tuple(secret)))
    # Slots that hold a field element, 7 bits for unreduced values and the
    # guard: at most L + 4 bits for weights reduced mod p, but up to 14 bits
    # for the exact weights of 11 parties, more than L + 4 at p = 31; the
    # guard on all the indices bounds that of every run of them from 1.
    bits = prime.bit_length()
    guard = _interpolation(tuple(range(1, params.parties + 1)), params.threshold, prime)[2]
    width = -(-max(2 * bits + 11, bits + guard + 7) // 8) + data.draw(st.integers(0, 3))
    unreduced = [
        SecretShare(s.index, packed([v + data.draw(st.integers(0, 127)) * prime for v in s.value], width))
        for s in picked
    ]
    expected = outcome(reconstruct, picked, params)
    assert outcome(reconstruct, unreduced, params, width=width, dim=dim) == expected


def test_packed_reconstruct_rejects_values_beyond_its_slots():
    params = SharingParams(5, 2)
    shares = share([1, 2], params, np.random.default_rng(0))
    width = 20
    guard = _interpolation(tuple(range(1, 6)), 3, params.prime)[2]
    ok = [SecretShare(s.index, packed(s.value, width)) for s in shares]
    assert reconstruct(ok, params, width=width, dim=2) == (1, 2)
    for value in (-1, 1 << (8 * width * 2), 1 << (8 * width - guard)):
        bad = [*ok[:4], SecretShare(5, value)]
        with pytest.raises(ValueError, match="must stay below"):
            reconstruct(bad, params, width=width, dim=2)
    with pytest.raises(ValueError, match="must stay below"):
        reconstruct(ok, params, width=16, dim=2)  # no room above a field element
    with pytest.raises(ValueError, match="must stay below"):
        reconstruct(ok, params, width=1, dim=2)  # not even the guard bits
    with pytest.raises(ValueError, match="must stay below"):
        reconstruct(ok, params, width=width)  # one slot by default


def test_corrupt_party_must_name_a_share_of_a_nonempty_sum():
    codec = FixedPointCodec()
    for corrupt, dim in ((-1, 2), (3, 2), (7, 2), (0, 0)):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match=f"corrupt_party {corrupt} names no share"):
            secure_aggregate([np.ones(dim)] * 3, session_of(), codec, rng, corrupt_party=corrupt)
        assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


@pytest.mark.parametrize("parties, degree, contributors", [(21, 10, 21), (3, 1, 30)])
def test_secure_aggregate_matches_the_old_path_at_benchmark_scale(parties, degree, contributors):
    # The limb sums carry across limbs only with many summands, which the
    # small hypothesis cases above never reach: a dms session of 21 agents
    # and a fedavg session of 30 contributors, at the forecast model's d.
    # The old path runs once, recorded; the unrecorded run must match it
    # with every payload left out.
    codec = FixedPointCodec()
    ids = tuple(range(contributors))
    holders = ids if parties == contributors else (30, 31, 32)
    session = SecAggSession(SharingParams(parties, degree), ids, holders, holders[:1] + ids[:2])
    vectors = [np.random.default_rng(i).normal(scale=0.3, size=801) for i in ids]

    def run(aggregate, transcript):
        rng = np.random.default_rng(17)
        total = aggregate(vectors, session, codec, rng, transcript=transcript, round_index=4)
        return total.tobytes(), rng.bit_generator.state, transcript

    old_total, old_state, old_log = run(old_secure_aggregate, OldTranscript())
    bare_entries = [dataclasses.replace(e, payload=()) for e in old_log.entries]
    for record in (True, False):
        total, state, log = run(secure_aggregate, Transcript(record_payloads=record))
        assert (total, state) == (old_total, old_state)
        assert (log.messages, log.bytes) == (old_log.messages, old_log.bytes)
        assert len(log.entries) == 2
        assert per_message(log) == (old_log.entries if record else bare_entries)


@given(
    kind=st.sampled_from(["server", "ring", "complete"]),
    n=st.integers(min_value=3, max_value=7),
    dim=st.integers(min_value=0, max_value=3),
    record=st.booleans(),
    corrupt=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_each_phase_entry_expands_to_the_old_per_message_log(kind, n, dim, record, corrupt, seed):
    # A session logs its share phase and then its reconstruct phase, also
    # when a corrupted party makes the reconstruction raise. Expanded
    # message by message, the entries are the old per-message log of the
    # same sessions: round, phase, sender, receiver, bytes and payload.
    sessions = party_placement(None if kind == "server" else make_topology(kind, n), agent_count=n)
    vectors = np.random.default_rng(seed).normal(size=(n, dim))
    bad = 0 if corrupt and dim else None
    runs = []
    for aggregate, log in ((secure_aggregate, Transcript), (old_secure_aggregate, OldTranscript)):
        rng, transcript = np.random.default_rng(seed + 1), log(record_payloads=record)
        totals = [
            outcome(aggregate, vectors[list(session.contributors)], session, FixedPointCodec(),
                    rng, transcript=transcript, round_index=k, corrupt_party=bad)
            for k, session in enumerate(sessions)
        ]
        runs.append((totals, rng.bit_generator.state, transcript))
    (new, new_state, new_log), (old, old_state, old_log) = runs
    if bad is None:
        assert all(np.array_equal(a, b) for a, b in zip(new, old, strict=True))
    else:
        assert new == old and {total[0] for total in new} == {TamperError}
    assert new_state == old_state
    assert [e.phase for e in new_log.entries] == ["share", "reconstruct"] * len(sessions)
    assert per_message(new_log) == old_log.entries
    assert (new_log.messages, new_log.bytes) == (old_log.messages, old_log.bytes)


def test_a_21_party_session_keeps_two_entries_for_its_882_messages():
    # The secure dms round at the forecast model's size: 21 contributors
    # share to 21 parties, which send their sums to 21 recipients.
    [session] = party_placement(make_topology("complete", 21))
    vectors = np.random.default_rng(0).normal(scale=0.3, size=(21, 801))
    transcript = Transcript(record_payloads=False)
    secure_aggregate(vectors, session, FixedPointCodec(), np.random.default_rng(1), transcript=transcript)
    assert [e.phase for e in transcript.entries] == ["share", "reconstruct"]
    assert [e.payload for e in transcript.entries] == [(), ()]
    assert (transcript.messages, transcript.bytes) == (882, 11_303_712)
    assert len({*transcript.entries[0].senders}) == len({*transcript.entries[1].receivers}) == 21
