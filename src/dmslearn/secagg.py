"""Shamir secret sharing over a prime field, fixed-point encoding, and the
secure aggregation pipeline built on both.

All field elements are plain Python ints in ``[0, p)``. Shares evaluate the
sharing polynomial at the points ``1 .. parties`` in party order, so a
party's position in the session determines its evaluation point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
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
    """One party's share: the polynomial value at evaluation point ``index``."""

    index: int
    value: int


def _rand_field_element(rng: np.random.Generator, prime: int) -> int:
    """Uniform element of ``[0, prime)`` by rejection sampling."""
    bits = (prime - 1).bit_length()
    nbytes = (bits + 7) // 8
    mask = (1 << bits) - 1
    while True:
        v = int.from_bytes(rng.bytes(nbytes), "big") & mask
        if v < prime:
            return v


def _poly_eval(coeffs: Sequence[int], x: int, prime: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % prime
    return acc


def share(
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
        coeffs = [secret] + [_rand_field_element(rng, params.prime) for _ in range(params.degree)]
    return [
        SecretShare(index=x, value=_poly_eval(coeffs, x, params.prime))
        for x in range(1, params.parties + 1)
    ]


def _lagrange_at(points: Sequence[SecretShare], x: int, prime: int) -> int:
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


def _validated(shares: Sequence[SecretShare], params: SharingParams) -> list[SecretShare]:
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


def reconstruct(shares: Sequence[SecretShare], params: SharingParams) -> int:
    """Interpolate the secret at zero from at least ``threshold`` shares.

    With more than ``threshold`` shares the surplus ones are checked
    against the interpolated polynomial; any mismatch aborts with
    :class:`TamperError` rather than returning a silently wrong value.
    """
    ordered = _validated(shares, params)
    if len(ordered) < params.threshold:
        raise ShareCountError(
            f"got {len(ordered)} shares, reconstruction needs {params.threshold}"
        )
    base = ordered[: params.threshold]
    for extra in ordered[params.threshold :]:
        if _lagrange_at(base, extra.index, params.prime) != extra.value:
            raise TamperError(f"share at index {extra.index} is off the sharing polynomial")
    return _lagrange_at(base, 0, params.prime)


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

    ``encode`` rounds to the nearest multiple of ``2**-fraction_bits`` and
    embeds negatives in the upper half of the field, so decode uses the
    half-field sign convention. Values representable with ``fraction_bits``
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

    def encode(self, x: float) -> int:
        if not math.isfinite(x) or abs(x) >= self.magnitude_bound:
            raise EncodingRangeError(f"value {x!r} outside the fixed-point range")
        return int(math.floor(x * self.scale + 0.5)) % self.prime

    def decode(self, v: int) -> float:
        if not (0 <= v < self.prime):
            raise ValueError("field element out of range")
        signed = v - self.prime if v > self.half else v
        return signed / self.scale

    def encode_vector(self, values: np.ndarray | Sequence[float]) -> list[int]:
        return [self.encode(float(x)) for x in np.asarray(values, dtype=float).ravel()]

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
    label: str = ""

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

    Set ``record_payloads=False`` to keep only the counters on long runs.
    """

    def __init__(self, record_payloads: bool = True) -> None:
        self.record_payloads = record_payloads
        self.entries: list[TranscriptEntry] = []
        self.messages = 0
        self.bytes = 0
        self.reconstructions = 0
        self.sent_counts: Counter[int] = Counter()

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
        self.sent_counts[sender] += 1
        if self.record_payloads:
            self.entries.append(
                TranscriptEntry(
                    round_index,
                    phase,
                    sender,
                    receiver,
                    tuple(int(v) for v in payload),
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
        encoded = codec.encode_vector(vec)
        per_party: list[list[int]] = [[] for _ in range(nu)]
        for value in encoded:
            for pos, s in enumerate(share(value, params, rng)):
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
        if transcript is not None:
            transcript.reconstructions += 1

    totals = []
    for coord in range(dim):
        coord_shares = [SecretShare(pos + 1, sums[pos][coord]) for pos in range(nu)]
        totals.append(reconstruct(coord_shares, params))
    return codec.decode_vector(totals)


def _ring_neighbors(graph, agent: int) -> tuple[int, int]:
    nb = graph.neighbors[agent]
    if len(nb) != 2:
        raise ValueError("ring placement expects degree-2 agents")
    return nb[0], nb[1]


def party_placement(
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
                label="fedavg",
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
                    label=f"dring:{i}",
                )
            )
        return sessions
    if strategy in ("dfc", "dms", "ctl"):
        active = graph.active()
        if len(active) < 3:
            raise ContributorError("active subset smaller than 3 cannot aggregate securely")
        nu = len(active)
        return [
            SecAggSession(
                params=SharingParams(nu, (nu - 1) // 2, prime),
                contributors=active,
                parties=active,
                recipients=active,
                label=strategy,
            )
        ]
    raise ValueError(f"unknown strategy {strategy!r}")
