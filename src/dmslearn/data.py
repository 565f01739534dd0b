"""Synthetic half-hourly household load, clustering, and windowing.

The generator substitutes real smart-meter data: three behavior
archetypes, each a weekly-periodic base pattern plus seeded noise and
occasional consumption events, so cluster structure and forecastability
are controlled. Its stream contract is its draw order: per household
``integers(3)``, ``uniform(-1, 1)``; then per day, with noise on,
``random()`` (the event test), ``integers(48)`` and ``uniform(0.5, 1.5)``
on event days, 48 standard normals. Series are built from the draws at
once. Windowing scales each series once and stacks splits by household.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SLOTS_PER_DAY = 48

__all__ = [
    "ARCHETYPES",
    "Archetype",
    "KMeansResult",
    "LoadProfile",
    "SLOTS_PER_DAY",
    "gen_synthetic_load",
    "household_features",
    "kmeans",
    "window_dataset",
]


@dataclass(frozen=True)
class Archetype:
    """One latent household behavior.

    The deterministic daily curve is ``base`` times a two-harmonic shape;
    weekends scale the whole day by ``weekend_factor``. Events add a
    flat bump of ``event_scale`` times U[0.5, 1.5] over four consecutive
    slots (circular placement) with per-day probability ``event_rate``.
    """

    name: str
    base: float
    amp1: float
    phase1: float  # slot of the daily peak
    amp2: float
    phase2: float
    weekend_factor: float
    event_rate: float
    event_scale: float

    def daily_curve(self) -> np.ndarray:
        t = np.arange(SLOTS_PER_DAY)
        shape = (
            1.0
            + self.amp1 * np.cos(2 * np.pi * (t - self.phase1) / SLOTS_PER_DAY)
            + self.amp2 * np.cos(4 * np.pi * (t - self.phase2) / SLOTS_PER_DAY)
        )
        return self.base * shape


# Morning-peaked, evening-peaked, and flat daytime (business-like) homes.
ARCHETYPES = (
    Archetype("morning", base=0.8, amp1=0.45, phase1=16, amp2=0.20, phase2=38, weekend_factor=1.25, event_rate=0.10, event_scale=0.9),
    Archetype("evening", base=1.1, amp1=0.50, phase1=38, amp2=0.15, phase2=20, weekend_factor=1.10, event_rate=0.08, event_scale=1.2),
    Archetype("business", base=0.6, amp1=0.15, phase1=26, amp2=0.35, phase2=24, weekend_factor=0.55, event_rate=0.04, event_scale=0.6),
)


@dataclass(frozen=True)
class LoadProfile:
    """One household's half-hourly series plus its generating label."""

    household: int
    series: np.ndarray
    days: int
    archetype: str


def gen_synthetic_load(
    households: int,
    days: int,
    seed: int,
    *,
    noise_scale: float = 0.05,
) -> list[LoadProfile]:
    """Seeded synthetic profiles drawn from the archetype mix.

    Each household draws an archetype and a size factor in [0.85, 1.15].
    ``noise_scale`` is the per-slot Gaussian sigma, finite and nonnegative;
    zero turns off noise and events both, leaving each household an exactly
    weekly-periodic pattern. Values are clipped at zero. Each series is one
    row of a single (households, days * 48) block.
    """
    if households < 1 or days < 1:
        raise ValueError("need at least one household and one day")
    if not 0 <= noise_scale < np.inf:
        raise ValueError(f"noise_scale must be finite and nonnegative, got {noise_scale}")
    rng = np.random.default_rng(seed)
    kinds, sizes = np.empty(households, dtype=np.intp), np.empty(households)
    z = np.empty((households, days, SLOTS_PER_DAY))
    events = []  # (household, day, start slot, U[0.5, 1.5] draw)
    for hh in range(households):
        kinds[hh], sizes[hh] = rng.integers(len(ARCHETYPES)), rng.uniform(-1.0, 1.0)
        if noise_scale > 0.0:
            rate = ARCHETYPES[kinds[hh]].event_rate
            for day, row in enumerate(z[hh]):
                if rng.random() < rate:
                    events.append((hh, day, rng.integers(SLOTS_PER_DAY), rng.uniform(0.5, 1.5)))
                rng.standard_normal(out=row)
    sizes = 1.0 + 0.15 * sizes
    weekend = np.array([a.weekend_factor for a in ARCHETYPES])[kinds, None]
    factor = np.where(np.arange(days) % 7 >= 5, weekend, 1.0)  # x * 1.0 == x exactly
    curves = np.array([a.daily_curve() for a in ARCHETYPES])[kinds] * sizes[:, None]
    slots = curves[:, None, :] * factor[:, :, None]
    if events:
        h, day, start, u = (np.array(c) for c in zip(*events))
        amp = np.array([a.event_scale for a in ARCHETYPES])[kinds[h]] * sizes[h] * u
        slots[h[:, None], day[:, None], (start[:, None] + np.arange(4)) % SLOTS_PER_DAY] += amp[:, None]
    if noise_scale > 0.0:
        slots += np.multiply(noise_scale, z, out=z)
    block = np.maximum(slots, 0.0, out=slots).reshape(households, -1)
    return [LoadProfile(hh, block[hh], days, ARCHETYPES[k].name) for hh, k in enumerate(kinds)]


def household_features(profiles: list[LoadProfile]) -> np.ndarray:
    """(households, 48) matrix of mean daily curves; the clustering input."""
    series = np.array([p.series for p in profiles])
    return series.reshape(len(profiles), -1, SLOTS_PER_DAY).mean(axis=1)


@dataclass
class KMeansResult:
    labels: np.ndarray
    centroids: np.ndarray
    inertia: float
    inertia_history: list[float]
    iterations: int


def kmeans(features: np.ndarray, k: int, seed: int) -> KMeansResult:
    """Lloyd iterations with seeded farthest-point initialization.

    Ties in assignment go to the lowest cluster index, making the whole
    procedure deterministic for a given seed. Iterates until the
    assignment reaches a fixpoint or 100 iterations.
    """
    x = np.asarray(features, dtype=float)
    n = x.shape[0]
    if not (1 <= k <= n):
        raise ValueError("need 1 <= k <= number of points")
    rng = np.random.default_rng(seed)

    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    dist = np.sum((x - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        far = int(np.argmax(dist))  # argmax takes the first index on ties
        centroids[j] = x[far]
        dist = np.minimum(dist, np.sum((x - centroids[j]) ** 2, axis=1))

    labels = np.full(n, -1)
    history: list[float] = []
    iterations = 0
    for _ in range(100):
        d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        iterations += 1
        for j in range(k):
            members = x[labels == j]
            if len(members):  # empty clusters keep their old centroid
                centroids[j] = members.mean(axis=0)
    d2 = np.sum((x[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
    inertia = float(d2[np.arange(n), labels].sum())
    return KMeansResult(
        labels=labels,
        centroids=centroids,
        inertia=inertia,
        inertia_history=history,
        iterations=iterations,
    )


def window_dataset(
    series: np.ndarray, lookback: int, horizon: int
) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """Sliding supervised windows, stride one, of every row of ``series``
    (households, slots).

    Returns split name -> inputs (households, windows, lookback) and
    targets (households, windows, horizon). Of the N windows per
    household, the splits take ceil(0.7 N) / floor(0.15 N) / rest in time
    order. Each household's series is min-max scaled once, before windowing,
    with the range of its own train inputs; a household whose train inputs
    are flat gets zero inputs in every split. Targets stay in raw units,
    so reported errors are in kWh.
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 2:
        raise ValueError("series must be (households, slots)")
    if lookback < 1 or horizon < 1:
        raise ValueError("lookback and horizon must be positive")
    n_windows = series.shape[1] - lookback - horizon + 1
    if n_windows < 1:
        raise ValueError("series too short for one window")
    n_train = math.ceil(0.7 * n_windows)
    n_val = math.floor(0.15 * n_windows)
    # The train inputs cover exactly the first n_train + lookback - 1 slots.
    train_slots = series[:, : n_train + lookback - 1]
    lo = train_slots.min(axis=1, keepdims=True)
    span = train_slots.max(axis=1, keepdims=True) - lo
    flat = span[:, 0] == 0
    span[flat] = 1.0
    scaled = series - lo
    scaled /= span
    scaled[flat] = 0.0  # assigned, so that no input becomes -0.0
    x = np.lib.stride_tricks.sliding_window_view(scaled, lookback, axis=1)
    y = np.lib.stride_tricks.sliding_window_view(series[:, lookback:], horizon, axis=1)
    edges = (0, n_train, n_train + n_val, n_windows)
    return {
        name: (x[:, a:b].copy(), y[:, a:b].copy())
        for name, a, b in zip(("train", "val", "test"), edges, edges[1:])
    }
