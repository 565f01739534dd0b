"""Shamir secret sharing over a prime field, fixed-point encoding, and the
secure aggregation pipeline built on both.

All field elements are plain Python ints in ``[0, p)``. Shares evaluate the
sharing polynomial at the points ``1 .. parties`` in party order, so a
party's position in the session determines its evaluation point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

# Largest prime below 2**128; 128-bit fields make accidental share/value
# collisions and brute-force reconstruction equally hopeless.
PRIME_128 = (1 << 128) - 159
# Small primes for exhaustive and hand-checkable tests.
PRIME_TEST_97 = 97
PRIME_TEST_31 = 31

__all__ = [
    "PRIME_128",
    "PRIME_TEST_31",
    "PRIME_TEST_97",
    "ContributorError",
    "EncodingRangeError",
    "FixedPointCodec",
    "SecAggError",
    "SecAggSession",
    "SecretShare",
    "ShareCountError",
    "SharingParams",
    "TamperError",
    "Transcript",
    "TranscriptEntry",
    "detect_tampering",
    "party_placement",
    "reconstruct",
    "secure_aggregate",
    "share",
]


class SecAggError(Exception):
    """Base class for secure-aggregation failures."""


class ShareCountError(SecAggError):
    """Fewer shares than the reconstruction threshold."""


class TamperError(SecAggError):
    """Share set is inconsistent with a single degree-h polynomial."""


class EncodingRangeError(SecAggError):
    """Value outside the fixed-point range, or field headroom exhausted."""


class ContributorError(SecAggError):
    """Not enough contributors for a safe aggregation."""


@dataclass(frozen=True)
class SharingParams:
    """Threshold sharing parameters: ``parties`` shares of a degree
    ``degree`` polynomial, reconstruction threshold ``degree + 1``.

    Honest majority requires ``2 * degree < parties``. A degree-0 sharing
    hands every party the secret in the clear, so it is rejected except in
    the single-party testing mode.
    """

    parties: int
    degree: int
    prime: int = PRIME_128

    def __post_init__(self) -> None:
        if self.parties < 1:
            raise ValueError("need at least one party")
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if self.degree + 1 > self.parties:
            raise ValueError("threshold exceeds the number of parties")
        if 2 * self.degree >= self.parties:
            raise ValueError("honest majority needs 2 * degree < parties")
        if self.degree == 0 and self.parties > 1:
            raise ValueError("degree-0 sharing leaks the secret to every party")
        if self.prime <= self.parties:
            raise ValueError("prime must exceed the number of parties")

    @property
    def threshold(self) -> int:
        return self.degree + 1


@dataclass(frozen=True)
class SecretShare:
    """One party's share: the polynomial value at evaluation point ``index``,
    or the tuple of values of a vector secret's polynomials there."""

    index: int
    value: int | tuple[int, ...]


def _rand_field_cells(rng: np.random.Generator, prime: int, count: int) -> np.ndarray:
    """``count`` uniform elements of ``[0, prime)`` by rejection sampling, as
    the rows of a ``(count, nbytes)`` array of big-endian bytes.

    Each candidate is ``nbytes`` bytes with the bits above the prime's
    masked off, kept when it compares below the prime's bytes.
    ``Generator.bytes(n)`` hands out whole 32-bit words and drops the tail
    of the last one, so one bulk draw of slots of ``nbytes`` rounded up to a
    multiple of 4, topped up when rejections run it short, yields the same
    candidates and generator state as one ``rng.bytes(nbytes)`` per candidate.
    """
    bits = (prime - 1).bit_length()
    nbytes = (bits + 7) // 8
    slot = -(-nbytes // 4) * 4
    kept = np.empty((0, nbytes), np.uint8)
    while len(kept) < count:
        buf = rng.bytes(slot * (count - len(kept)))
        cells = np.frombuffer(buf, np.uint8).reshape(-1, slot)[:, :nbytes].copy()
        cells[:, 0] &= (1 << (bits - 8 * (nbytes - 1))) - 1
        # Equal-width byte strings compare lexicographically, byte by unsigned byte.
        below = cells.view(f"S{nbytes}")[:, 0] < prime.to_bytes(nbytes, "big")
        kept = np.concatenate([kept, cells[below]])
    return kept


def _pack(values: Sequence[int], width: int) -> int:
    """``values`` in one integer, one little-endian ``width``-byte slot each."""
    return int.from_bytes(b"".join([v.to_bytes(width, "little") for v in values]), "little")


def _unpacked(packed: int, dim: int, width: int, prime: int) -> tuple[int, ...]:
    """The ``dim`` slots of ``packed``, each reduced mod ``prime``."""
    raw = np.frombuffer(packed.to_bytes(width * dim, "little"), f"V{width}").tolist()
    return tuple([int.from_bytes(b, "little") % prime for b in raw])


def _slot_width(bound: int) -> int:
    """Bytes per packed slot that holds any integer up to ``bound``, so no slot carries."""
    return bound.bit_length() // 8 + 1


def _weighted_sums(
    rows: Sequence[Sequence[int]], weights: Sequence[Sequence[int]], prime: int
) -> list[tuple[int, ...]]:
    """``sum_i w[i] * rows[i] mod prime``, coordinate by coordinate, for each
    ``w`` in ``weights``. Every row entry and weight lies in ``[0, prime)``.

    Kronecker substitution: each row is packed into one integer with one
    slot per coordinate, each slot wide enough to hold a whole weighted sum,
    so no slot carries into the next. A weighted sum of rows then takes
    ``len(rows)`` big-integer products, and each slot is reduced once.
    """
    top = max(max(w) for w in weights)
    width = _slot_width(len(rows) * (prime - 1) * top)
    packed = [_pack(row, width) for row in rows]
    sums = [sum(c * r for c, r in zip(w, packed)) for w in weights]
    return [_unpacked(v, len(rows[0]), width, prime) for v in sums]


@lru_cache(maxsize=64)
def _powers(parties: int, degree: int, prime: int) -> tuple[tuple[int, ...], ...]:
    """``x**k mod prime`` for the evaluation points ``x = 1 .. parties``."""
    return tuple(tuple(pow(x, k, prime) for k in range(degree + 1)) for x in range(1, parties + 1))


def _point_width(params: SharingParams, summands: int) -> int:
    """Packed share-point slot width that a sum of ``summands`` points cannot carry out of."""
    top = max(map(max, _powers(params.parties, params.degree, params.prime)))
    return _slot_width(summands * (params.degree + 1) * (params.prime - 1) * top)


def share(
    secret: int | Sequence[int],
    params: SharingParams,
    rng: np.random.Generator | None = None,
    *,
    coefficients: Sequence[int] | Sequence[Sequence[int]] | None = None,
    width: int | None = None,
) -> list[SecretShare] | list[int]:
    """Split ``secret`` into ``params.parties`` shares.

    The constant coefficient is the secret; the remaining ``degree``
    coefficients are drawn uniformly from the field, or taken from
    ``coefficients`` when given (enumeration and privacy tests need to pin
    them).

    A vector secret gets one polynomial per coordinate, drawn in coordinate
    order, and each share's ``value`` is the tuple of its points on them;
    ``coefficients`` then holds one row of ``degree`` values per coordinate.
    Sharing a vector draws and returns exactly what sharing its coordinates
    one by one would. A scalar secret is the length-1 case.

    With ``width``, party ``x`` gets the unreduced integer ``sum_k x**k *
    column_k`` instead, where column ``k`` packs the degree-``k``
    coefficients (the secrets at ``k = 0``) in little-endian ``width``-byte
    slots; ``width`` must hold, without a carry, the whole sum of the points
    a party adds before it reduces once.
    """
    scalar = isinstance(secret, numbers.Integral)
    secrets = [int(secret)] if scalar else [int(v) for v in secret]
    if secrets and not (0 <= min(secrets) and max(secrets) < params.prime):
        raise ValueError("secret outside the field")
    if coefficients is not None:
        rows = [coefficients] if scalar else coefficients
        if len(rows) != len(secrets) or any(len(row) != params.degree for row in rows):
            raise ValueError("need exactly one coefficient per degree")
        drawn = [int(c) for row in rows for c in row]
        if any(not (0 <= c < params.prime) for c in drawn):
            raise ValueError("coefficient outside the field")
        nbytes = ((params.prime - 1).bit_length() + 7) // 8
        cells = np.array([[*c.to_bytes(nbytes, "big")] for c in drawn], np.uint8)
        cells = cells.reshape(len(drawn), nbytes)
    else:
        if rng is None:
            raise ValueError("random sharing needs an rng")
        cells = _rand_field_cells(rng, params.prime, len(secrets) * params.degree)
    dim, degree, nbytes = len(secrets), params.degree, cells.shape[1]
    slot = width or _point_width(params, 1)
    slots = np.zeros((degree, dim, slot), np.uint8)
    slots[..., :nbytes] = cells.reshape(dim, degree, nbytes).transpose(1, 0, 2)[..., ::-1]
    columns = [_pack(secrets, slot)] + [int.from_bytes(col.tobytes(), "little") for col in slots]
    powers = _powers(params.parties, degree, params.prime)
    points = [sum(c * r for c, r in zip(row, columns)) for row in powers]
    if width is not None:
        return points
    points = [_unpacked(point, dim, slot, params.prime) for point in points]
    return [SecretShare(x, p[0] if scalar else p) for x, p in enumerate(points, start=1)]


@lru_cache(maxsize=256)
def _reconstruction_weights(
    indices: tuple[int, ...], threshold: int, prime: int
) -> tuple[tuple[int, ...], ...]:
    """Lagrange weights on the first ``threshold`` of the sorted ``indices``:
    the row that interpolates at zero, then one row per surplus index that
    predicts its share."""
    base = indices[:threshold]

    def weight(a: int, x: int) -> int:
        others = [b for b in base if b != a]
        den = math.prod(a - b for b in others)
        return math.prod(x - b for b in others) * pow(den, -1, prime) % prime

    return tuple(tuple(weight(a, x) for a in base) for x in (0, *indices[threshold:]))


def _validated(
    shares: Sequence[SecretShare], params: SharingParams
) -> list[tuple[int, tuple[int, ...]]]:
    """(index, values) per share, sorted by index; a scalar value is a
    length-1 tuple."""
    seen = set()
    rows = []
    for s in shares:
        if not (1 <= s.index <= params.parties):
            raise ValueError(f"share index {s.index} out of range")
        values = (s.value,) if isinstance(s.value, numbers.Integral) else tuple(s.value)
        if values and not (0 <= min(values) and max(values) < params.prime):
            raise ValueError("share value outside the field")
        if s.index in seen:
            raise ValueError(f"duplicate share index {s.index}")
        seen.add(s.index)
        rows.append((s.index, values))
    if len({len(values) for _, values in rows}) > 1:
        raise ValueError("shares disagree on the secret's length")
    return sorted(rows, key=lambda row: row[0])


def reconstruct(shares: Sequence[SecretShare], params: SharingParams) -> int | tuple[int, ...]:
    """Interpolate the secret at zero from at least ``threshold`` shares.

    With more than ``threshold`` shares the surplus ones are checked
    against the interpolated polynomial; any mismatch aborts with
    :class:`TamperError` rather than returning a silently wrong value.

    Shares of a vector secret give back the tuple of its coordinates, and
    a mismatch names the share that reconstructing the coordinates one by
    one would: the first surplus share off its polynomial at the lowest
    such coordinate.
    """
    rows = _validated(shares, params)
    t = params.threshold
    if len(rows) < t:
        raise ShareCountError(f"got {len(rows)} shares, reconstruction needs {t}")
    weights = _reconstruction_weights(tuple(index for index, _ in rows), t, params.prime)
    secret, *predicted = _weighted_sums([values for _, values in rows[:t]], weights, params.prime)
    mismatches = [
        (next(j for j, (a, b) in enumerate(zip(guess, values)) if a != b), index)
        for (index, values), guess in zip(rows[t:], predicted)
        if guess != values
    ]
    if mismatches:
        raise TamperError(f"share at index {min(mismatches)[1]} is off the sharing polynomial")
    return secret[0] if isinstance(shares[0].value, numbers.Integral) else secret


def detect_tampering(shares: Sequence[SecretShare], params: SharingParams) -> bool:
    """True when the share set is inconsistent with one degree-h polynomial.

    Needs strictly more than ``threshold`` shares to be able to notice
    anything; with exactly ``threshold`` shares every value set is
    consistent and the check is vacuous.
    """
    try:
        reconstruct(shares, params)
    except TamperError:
        return True
    return False


@dataclass(frozen=True)
class FixedPointCodec:
    """Map reals to the field with ``fraction_bits`` of fractional precision.

    ``encode_vector`` rounds to the nearest multiple of
    ``2**-fraction_bits`` and embeds negatives in the upper half of the
    field, so decode uses the half-field sign convention. Values representable with ``fraction_bits``
    fractional bits round-trip exactly: 48 significand bits are well inside
    float64's 53.
    """

    fraction_bits: int = 16
    integer_bits: int = 32
    prime: int = PRIME_128

    def __post_init__(self) -> None:
        if self.fraction_bits < 1 or self.integer_bits < 1:
            raise ValueError("codec needs positive bit widths")
        # Leave at least a factor of two of headroom above a single value.
        if (1 << (self.fraction_bits + self.integer_bits + 1)) >= self.half:
            raise ValueError("prime too small for the chosen bit widths")

    @property
    def scale(self) -> int:
        return 1 << self.fraction_bits

    @property
    def magnitude_bound(self) -> float:
        return float(1 << self.integer_bits)

    @property
    def half(self) -> int:
        return (self.prime - 1) // 2

    def decode(self, v: int) -> float:
        if not (0 <= v < self.prime):
            raise ValueError("field element out of range")
        signed = v - self.prime if v > self.half else v
        return signed / self.scale

    def encode_vector(self, values: np.ndarray | Sequence[float]) -> list[int]:
        x = np.asarray(values, dtype=float).ravel()
        # NaN fails the comparison too.
        bad = ~(np.abs(x) < self.magnitude_bound)
        if bad.any():
            first = float(x[np.argmax(bad)])
            raise EncodingRangeError(f"value {first!r} outside the fixed-point range")
        return [int(v) % self.prime for v in np.floor(x * float(self.scale) + 0.5)]

    def decode_vector(self, values: Sequence[int]) -> np.ndarray:
        return np.array([self.decode(int(v)) for v in values], dtype=float)

    def sum_headroom(self, terms: int) -> bool:
        """Whether a sum of ``terms`` in-range values stays decodable."""
        return terms * (1 << (self.fraction_bits + self.integer_bits)) < self.half


@dataclass(frozen=True)
class SecAggSession:
    """Who shares with whom for one aggregation.

    ``parties`` are the share holders, in the order that fixes their
    evaluation points. ``contributors`` are the ids whose vectors enter the
    sum, and every id in ``recipients`` receives the reconstruction
    messages. Ids are agent indices, or synthetic ids beyond the agent
    range for external parties and servers.
    """

    params: SharingParams
    contributors: tuple[int, ...]
    parties: tuple[int, ...]
    recipients: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.parties) != self.params.parties:
            raise ValueError("party list does not match sharing params")
        if len(set(self.parties)) != len(self.parties):
            raise ValueError("duplicate party ids")
        if not self.contributors:
            raise ValueError("session needs contributors")
        if not self.recipients:
            raise ValueError("session needs at least one recipient")


@dataclass(frozen=True)
class TranscriptEntry:
    round_index: int
    phase: str  # "share" or "reconstruct"
    sender: int
    receiver: int
    payload: tuple[int, ...]
    payload_bytes: int


class Transcript:
    """Network-visible record of a secure run: every logical message with
    its field-element payload, plus running traffic counters.

    Set ``record_payloads=False`` to store every payload as ``()`` on long runs.
    """

    def __init__(self, record_payloads: bool = True) -> None:
        self.record_payloads = record_payloads
        self.entries: list[TranscriptEntry] = []
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
            TranscriptEntry(
                round_index,
                phase,
                sender,
                receiver,
                tuple(int(v) for v in payload) if self.record_payloads else (),
                len(payload) * elem_bytes,
            )
        )

    def payload_values(self):
        """All transmitted field elements, across every recorded message."""
        for entry in self.entries:
            yield from entry.payload


def secure_aggregate(
    vectors: Sequence[np.ndarray],
    session: SecAggSession,
    codec: FixedPointCodec,
    rng: np.random.Generator,
    *,
    transcript: Transcript | None = None,
    round_index: int = 0,
    corrupt_party: int | None = None,
) -> np.ndarray:
    """Sum the contributors' vectors without revealing any one of them.

    Each contributor fixed-point encodes its vector and shares it among the
    parties, one polynomial per coordinate; each party adds the packed
    share points it receives and reduces its total once; recipients
    reconstruct the per-coordinate sums and decode. Only the sum is ever
    reconstructed. ``corrupt_party`` is a fault-injection hook
    for tests: it adds one to that party's first summed share before
    reconstruction, which the consistency check must catch whenever there
    are more parties than the threshold.

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
    prime = params.prime
    elem_bytes = (prime.bit_length() + 7) // 8
    width = _point_width(params, len(vectors))
    record = transcript is not None and transcript.record_payloads
    packed = [0] * params.parties  # each party's sum of the packed points it receives
    for contributor, vec in zip(session.contributors, vectors):
        points = share(codec.encode_vector(vec), params, rng, width=width)
        for pos, (party, point) in enumerate(zip(session.parties, points)):
            packed[pos] += point
            if transcript is not None:  # an unrecorded payload is logged by its length alone
                sent = _unpacked(point, dim, width, prime) if record else range(dim)
                transcript.log(round_index, "share", contributor, party, sent, elem_bytes)
    sums = [list(_unpacked(total, dim, width, prime)) for total in packed]

    if corrupt_party is not None:
        sums[corrupt_party][0] = (sums[corrupt_party][0] + 1) % prime

    if transcript is not None:
        for recipient in session.recipients:
            for party, row in zip(session.parties, sums):
                transcript.log(round_index, "reconstruct", party, recipient, row, elem_bytes)

    totals = reconstruct([SecretShare(pos + 1, tuple(row)) for pos, row in enumerate(sums)], params)
    return codec.decode_vector(totals)


def party_placement(
    graph=None, *, agent_count: int | None = None, prime: int = PRIME_128
) -> list[SecAggSession]:
    """Secure-sum sessions for one round on ``graph``.

    With no graph (a server round), three external parties collect shares
    from all ``agent_count`` agents and reveal the sum only to the server,
    id ``agent_count``. On a graph, each agent mixes the uniform mean over
    its closed neighborhood, so the agents that share one closed
    neighborhood form one session: its members contribute and hold the
    shares at the largest honest-majority degree, and those agents receive
    the sum. Sessions come in the order of their lowest recipient; isolated
    agents keep their own weights and get none.
    """
    if graph is None:
        if agent_count is None:
            raise ValueError("server placement needs agent_count")
        n = agent_count
        parties = (n + 1, n + 2, n + 3)
        return [SecAggSession(SharingParams(3, 1, prime), tuple(range(n)), parties, (n,))]
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, nb in enumerate(graph.neighbors):
        if nb:
            groups.setdefault(tuple(sorted((i, *nb))), []).append(i)
    if any(len(members) < 3 for members in groups):
        raise ContributorError("closed neighborhood smaller than 3 cannot aggregate securely")
    return [
        SecAggSession(
            SharingParams(len(members), (len(members) - 1) // 2, prime),
            contributors=members,
            parties=members,
            recipients=tuple(recipients),
        )
        for members, recipients in groups.items()
    ]
