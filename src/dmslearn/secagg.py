"""Shamir secret sharing over a prime field, fixed-point encoding, and the
secure aggregation pipeline built on both.

Field elements are Python ints in ``[0, p)``, or rows of little-endian
32-bit limbs in ``uint32`` arrays. Shares evaluate the sharing polynomial at
the points ``1 .. parties`` in party order, so a party's position in the
session determines its evaluation point.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from typing import Sequence

import numpy as np

# Largest prime below 2**128; 128-bit fields make accidental share/value
# collisions and brute-force reconstruction equally hopeless.
PRIME_128 = (1 << 128) - 159

__all__ = [
    "PRIME_128",
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
        kept = cells if not len(kept) and below.all() else np.concatenate([kept, cells[below]])
    return kept


def _pack(values: Sequence[int], width: int) -> bytes:
    """``values`` in little-endian ``width``-byte slots."""
    return b"".join([v.to_bytes(width, "little") for v in values])


def _unpacked(packed: int, dim: int, width: int, prime: int) -> tuple[int, ...]:
    """The ``dim`` slots of ``packed``, each reduced mod ``prime``."""
    raw = np.frombuffer(packed.to_bytes(width * dim, "little"), f"V{width}").tolist()
    return tuple([int.from_bytes(b, "little") % prime for b in raw])


def _point_width(params: SharingParams, summands: int, guard: int = 0) -> int:
    """Slot bytes, in 32-bit limbs, for ``summands`` summed points, a fault and ``guard`` bits."""
    top = params.parties**params.degree  # the largest x**k that Horner's rule multiplies in
    bits = (summands * (params.degree + 1) * (params.prime - 1) * top + 1).bit_length() + guard
    return -(-bits // 32) * 4


def _columns(limbs: np.ndarray) -> list[int]:
    """One packed integer per degree from the low 32 bits of each ``[k, j]`` limb."""
    return [int.from_bytes(col.astype("<u4").tobytes(), "little") for col in limbs]


def _evaluate(columns: Sequence[int], params: SharingParams) -> list[int]:
    """Each party's unreduced point ``sum_k x**k * columns[k]`` by Horner's rule, in party order."""
    high_first = columns[::-1]
    return [reduce(lambda acc, c: acc * x + c, high_first) for x in range(1, params.parties + 1)]


def share(
    secret: int | Sequence[int] | np.ndarray,
    params: SharingParams,
    rng: np.random.Generator | None = None,
    *,
    coefficients: Sequence[int] | Sequence[Sequence[int]] | None = None,
    width: int | None = None,
) -> list[SecretShare] | np.ndarray:
    """Split ``secret`` into ``params.parties`` shares.

    The constant coefficient is the secret; the remaining ``degree``
    coefficients are drawn uniformly from the field, or taken from
    ``coefficients`` when given (enumeration and privacy tests need to pin
    them).

    A vector secret gets one polynomial per coordinate, drawn in coordinate
    order, and each share's ``value`` is the tuple of its points on them;
    ``coefficients`` then holds one row of ``degree`` values per coordinate.
    Sharing a vector draws and returns exactly what sharing its coordinates
    one by one would. A scalar secret is the length-1 case. A vector secret
    may also come as the ``(dim, words)`` ``uint32`` limbs that
    ``FixedPointCodec.encode_limbs`` gives, range-checked and placed as is.

    With ``width``, a multiple of 4, it returns the coefficients instead, as
    a ``(degree + 1, dim, width // 4)`` ``uint32`` array of little-endian
    32-bit limbs: ``[k, j]`` is coordinate ``j``'s degree-``k`` coefficient
    (the secret at ``k = 0``) in a ``width``-byte slot, which must hold,
    without a carry, a party's whole point on the coefficients summed over
    every contributor before it reduces that point once.
    """
    nbytes = ((params.prime - 1).bit_length() + 7) // 8
    words = -(-nbytes // 4)
    scalar = isinstance(secret, numbers.Integral)
    if isinstance(secret, np.ndarray) and secret.dtype == np.uint32 and secret.ndim == 2:
        # Most significant limb first, big-endian: byte strings that compare as the numbers.
        high_first = np.ascontiguousarray(secret[:, ::-1], ">u4")
        top = params.prime.to_bytes(4 * words, "big")
        if secret.shape[1] != words or (high_first.view(f"S{4 * words}") >= top).any():
            raise ValueError("secret outside the field")
    else:
        secret = [int(secret)] if scalar else [int(v) for v in secret]
        if secret and not (0 <= min(secret) and max(secret) < params.prime):
            raise ValueError("secret outside the field")
        secret = np.frombuffer(_pack(secret, 4 * words), "<u4").reshape(len(secret), words)
    dim, degree = len(secret), params.degree
    if coefficients is not None:
        rows = [coefficients] if scalar else coefficients
        if len(rows) != dim or any(len(row) != degree for row in rows):
            raise ValueError("need exactly one coefficient per degree")
        drawn = [int(c) for row in rows for c in row]
        if any(not (0 <= c < params.prime) for c in drawn):
            raise ValueError("coefficient outside the field")
        cells = np.array([[*c.to_bytes(nbytes, "big")] for c in drawn], np.uint8)
        cells = cells.reshape(len(drawn), nbytes)
    else:
        if rng is None:
            raise ValueError("random sharing needs an rng")
        cells = _rand_field_cells(rng, params.prime, dim * degree)
    slot = width or _point_width(params, 1)
    if slot % 4 or slot < 4 * words:
        raise ValueError("width must be whole 32-bit limbs that hold a field element")
    limbs = np.zeros((degree + 1, dim, slot // 4), np.uint32)
    limbs[0, :, :words] = secret
    if nbytes % 4:
        cells = np.pad(cells, ((0, 0), (4 * words - nbytes, 0)))
    # Big-endian words come most significant first; reversed, they are the limbs.
    words_be = cells.view(">u4").reshape(dim, degree, words)
    limbs[1:, :, :words] = words_be.transpose(1, 0, 2)[..., ::-1]
    if width is not None:
        return limbs
    points = [_unpacked(p, dim, slot, params.prime) for p in _evaluate(_columns(limbs), params)]
    return [SecretShare(x, p[0] if scalar else p) for x, p in enumerate(points, start=1)]


def _reconstruction_weights(
    indices: tuple[int, ...], threshold: int, prime: int, exact: bool = False
) -> tuple[tuple[int, ...], ...]:
    """Lagrange weights on the first ``threshold`` of the sorted ``indices``:
    the row that interpolates at zero, then one row per surplus index that
    predicts its share. Reduced mod ``prime``, or with ``exact`` the signed
    integers that they are when those first indices are ``1 .. threshold``."""
    base = indices[:threshold]

    def weight(a: int, x: int) -> int:
        others = [b for b in base if b != a]
        num, den = math.prod(x - b for b in others), math.prod(a - b for b in others)
        return num // den if exact else num * pow(den, -1, prime) % prime

    return tuple(tuple(weight(a, x) for a in base) for x in (0, *indices[threshold:]))


@lru_cache(maxsize=256)
def _interpolation(indices: tuple[int, ...], threshold: int, prime: int) -> tuple:
    """``reconstruct``'s weights on ``indices`` (exact if they can be), the most a row subtracts,
    its share included, and the guard bits that keep lifted slots below ``2**(8 * width - 1)``."""
    exact = indices[:threshold] == tuple(range(1, threshold + 1))
    weights = _reconstruction_weights(indices, threshold, prime, exact)
    negative = max((k > 0) - sum(w for w in row if w < 0) for k, row in enumerate(weights))
    positive = max(sum(w for w in row if w > 0) for row in weights)
    return weights, negative, (positive + negative).bit_length() + 1


def _validated(shares: Sequence[SecretShare], params: SharingParams, packed: bool) -> list[tuple]:
    """(index, value) per share, sorted by index; a scalar is a 1-tuple unless ``packed``."""
    seen = set()
    rows = []
    for s in shares:
        if not (1 <= s.index <= params.parties):
            raise ValueError(f"share index {s.index} out of range")
        scalar = isinstance(s.value, numbers.Integral)
        values = s.value if packed else (s.value,) if scalar else tuple(s.value)
        if not packed and values and not (0 <= min(values) and max(values) < params.prime):
            raise ValueError("share value outside the field")
        if s.index in seen:
            raise ValueError(f"duplicate share index {s.index}")
        seen.add(s.index)
        rows.append((s.index, values))
    if not packed and len({len(values) for _, values in rows}) > 1:
        raise ValueError("shares disagree on the secret's length")
    return sorted(rows, key=lambda row: row[0])


def reconstruct(
    shares: Sequence[SecretShare], params: SharingParams, *, width: int | None = None, dim: int = 1
) -> int | tuple[int, ...]:
    """Interpolate the secret at zero from at least ``threshold`` shares.

    With more than ``threshold`` shares the surplus ones are checked
    against the interpolated polynomial; any mismatch aborts with
    :class:`TamperError` rather than returning a silently wrong value.

    Shares of a vector secret give back the tuple of its coordinates, and
    a mismatch names the share that reconstructing the coordinates one by
    one would: the first surplus share off its polynomial at the lowest
    such coordinate.

    With ``width``, each value packs ``dim`` unreduced coordinates in
    little-endian ``width``-byte slots, each below ``2**(8 * width - guard)``
    (see ``_interpolation``); tuple values are packed so too. At indices
    ``1 .. threshold`` the weights are exact signed integers. A lift by a
    multiple of the prime keeps each slot of a weighted sum in ``[0, 2**(8 *
    width - 1))``, so every slot of a check's difference ``D`` is zero mod
    the prime exactly when ``D % prime == 0`` and no slot of ``D // prime``
    has a bit at or above ``8 * width - prime.bit_length()``.
    """
    rows = _validated(shares, params, packed=width is not None)
    t, prime = params.threshold, params.prime
    if len(rows) < t:
        raise ShareCountError(f"got {len(rows)} shares, reconstruction needs {t}")
    weights, negative, guard = _interpolation(tuple(index for index, _ in rows), t, prime)
    scalar = width is None and isinstance(shares[0].value, numbers.Integral)
    if width is None:
        dim, width = len(rows[0][1]), -(-(prime.bit_length() + guard) // 8)
        rows = [(index, int.from_bytes(_pack(values, width), "little")) for index, values in rows]
    bits, ones = 8 * width, int.from_bytes(b"\x01".ljust(width, b"\0") * dim, "little")
    bound = 1 << max(bits - guard, 0)  # every input slot stays below it
    high = ((1 << bits) - bound) * ones
    if bound < prime or any(v < 0 or v >> (bits * dim) or v & high for _, v in rows):
        raise ValueError(f"packed share values must stay below {bound} in {width}-byte slots")
    lift = -(-negative * bound // prime) * prime * ones
    secret, *predicted = [sum(w * v for w, (_, v) in zip(row, rows)) + lift for row in weights]
    high = ((1 << bits) - (1 << (bits - prime.bit_length()))) * ones
    mismatches = []
    for (index, v), guess in zip(rows[t:], predicted):
        q, r = divmod(guess - v, prime)
        if r or q & high:
            off = _unpacked(guess - v, dim, width, prime)
            mismatches.append((next(j for j, d in enumerate(off) if d), index))
    if mismatches:
        raise TamperError(f"share at index {min(mismatches)[1]} is off the sharing polynomial")
    values = _unpacked(secret, dim, width, prime)
    return values[0] if scalar else values


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

    ``encode_limbs`` rounds to the nearest multiple of
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

    def encode_limbs(self, values: np.ndarray | Sequence[float]) -> np.ndarray:
        """``values`` (..., d) as a (..., d, words) ``uint32`` array of the field elements'
        little-endian 32-bit limbs, as ``share`` takes them. The rounded float is an integer, so
        floored scaling by ``2**-32`` cuts it into two's-complement limbs exactly; a negative one
        gets ``p`` added with a carry. The range error names the first bad value, row-major."""
        x = np.asarray(values, dtype=float)
        bad = ~(np.abs(x) < self.magnitude_bound)  # NaN fails the comparison too
        if bad.any():
            first = float(x.flat[np.argmax(bad)])
            raise EncodingRangeError(f"value {first!r} outside the fixed-point range")
        rest = np.floor(x * float(self.scale) + 0.5)
        negative, carry = rest < 0, 0
        limbs = np.empty((*x.shape, -(-(self.prime - 1).bit_length() // 32)), np.uint32)
        for k in range(limbs.shape[-1]):
            high = np.floor(rest * 2.0**-32)
            limb = (rest - high * 2.0**32).astype(np.int64) + carry
            limb += negative * (self.prime >> 32 * k & 0xFFFFFFFF)
            # Below 2**33: the uint32 store keeps the low 32 bits, the shift the carry.
            limbs[..., k], carry, rest = limb, limb >> 32, high
        return limbs

    def encode_vector(self, values: np.ndarray | Sequence[float]) -> list[int]:
        """The field elements of ``encode_limbs``, as ints."""
        limbs = self.encode_limbs(np.asarray(values, dtype=float).ravel())
        return [int.from_bytes(row.astype("<u4").tobytes(), "little") for row in limbs]

    def decode_vector(self, values: Sequence[int]) -> np.ndarray:
        """Signed in ints, then scaled in float64: exact, since the scale is a power of two."""
        values = list(map(int, values))
        if values and not (0 <= min(values) and max(values) < self.prime):
            raise ValueError("field element out of range")
        prime, half = self.prime, self.half
        return np.array([v - prime if v > half else v for v in values], float) / self.scale

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
    """One session phase: message ``i`` goes from ``senders[i]`` to ``receivers[i]``, is
    ``payload_bytes`` long and, when recorded, carries the ``i``-th equal slice of ``payload``."""

    round_index: int
    phase: str  # "share" or "reconstruct"
    senders: tuple[int, ...]
    receivers: tuple[int, ...]
    payload: tuple[int, ...]
    payload_bytes: int


class Transcript:
    """Network-visible record of a secure run: one entry per session phase,
    with the field elements its messages carry, plus running traffic counters.

    Set ``record_payloads=False`` to store every payload as ``()`` on long runs.
    """

    def __init__(self, record_payloads: bool = True) -> None:
        self.record_payloads = record_payloads
        self.entries: list[TranscriptEntry] = []
        self.messages = 0
        self.bytes = 0

    def log(
        self, round_index: int, phase: str, senders: Sequence[int], receivers: Sequence[int],
        payload_bytes: int, payloads: Sequence[Sequence[int]] | None = None
    ) -> None:
        """One phase: a ``payload_bytes`` message from each sender to the receiver at its
        position; ``payloads``, each message's field elements, are read only when recorded."""
        senders, receivers = tuple(senders), tuple(receivers)
        self.messages += len(senders)
        self.bytes += len(senders) * payload_bytes
        payload = tuple(chain.from_iterable(payloads)) if self.record_payloads else ()
        entry = TranscriptEntry(round_index, phase, senders, receivers, payload, payload_bytes)
        self.entries.append(entry)


def secure_aggregate(
    vectors: np.ndarray | Sequence[np.ndarray],
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
    parties, one polynomial per coordinate; each party adds the share
    points it receives; recipients reconstruct the per-coordinate sums and
    decode. Only the sum is ever reconstructed. The simulation encodes all
    ``vectors`` (rows, or equally sized arrays) in one ``encode_limbs`` call,
    so a value out of range raises before any draw. Sharing is linear, so it
    adds the contributors' coefficient limbs (``share(..., width=)``) in one
    ``uint64`` array, carries once into slots too wide to overflow, packs
    each degree in one integer and evaluates that summed polynomial once per
    party by Horner's rule: by linearity, the party's sum of received
    points. ``reconstruct`` takes these totals packed and unreduced;
    reduced points are built only for a transcript that records payloads.
    ``corrupt_party`` is a fault-injection hook for tests: it adds one to
    the first summed share of the party at that position (of a nonempty
    vector) before reconstruction, which the consistency check must catch
    whenever there are more parties than the threshold.

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
    if corrupt_party is not None and (corrupt_party not in range(params.parties) or not dim):
        raise ValueError(f"corrupt_party {corrupt_party} names no share of a nonempty sum")
    elem_bytes = (prime.bit_length() + 7) // 8
    guard = _interpolation(tuple(range(1, params.parties + 1)), params.threshold, prime)[2]
    width = _point_width(params, len(vectors), guard)
    record = transcript is not None and transcript.record_payloads
    encoded = codec.encode_limbs([np.ravel(v) for v in vectors])
    summed = np.zeros((params.degree + 1, dim, width // 4), np.uint64)
    sent = []  # each share message's field elements, when recorded
    for secret in encoded:
        limbs = share(secret, params, rng, width=width)
        summed += limbs
        if record:
            sent += [_unpacked(p, dim, width, prime) for p in _evaluate(_columns(limbs), params)]
    for j in range(width // 4 - 1):
        summed[..., j + 1] += summed[..., j] >> 32
    totals = _evaluate(_columns(summed), params)

    if corrupt_party is not None:
        totals[corrupt_party] += 1

    if transcript is not None:  # each contributor to each party, then each party to each recipient
        parties, recipients, size = session.parties, session.recipients, dim * elem_bytes
        froms = [c for c in session.contributors for _ in parties]
        transcript.log(round_index, "share", froms, parties * len(vectors), size, sent)
        rows = [_unpacked(v, dim, width, prime) for v in totals] if record else []
        tos, k = [r for r in recipients for _ in parties], len(recipients)
        transcript.log(round_index, "reconstruct", parties * k, tos, size, rows * k)

    shares = [SecretShare(x, total) for x, total in enumerate(totals, start=1)]
    return codec.decode_vector(reconstruct(shares, params, width=width, dim=dim))


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
