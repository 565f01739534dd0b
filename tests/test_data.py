import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dmslearn.config import DataConfig
from dmslearn.data import (
    ARCHETYPES,
    SLOTS_PER_DAY,
    gen_synthetic_load,
    household_features,
    kmeans,
    window_dataset,
)

from oracles import old_gen_synthetic_load, old_household_features, old_window_dataset


def test_archetype_curves_have_48_slots():
    for arch in ARCHETYPES:
        curve = arch.daily_curve()
        assert curve.shape == (SLOTS_PER_DAY,)
        assert np.all(curve > 0)


def test_archetype_names():
    assert tuple(a.name for a in ARCHETYPES) == ("morning", "evening", "business")


def test_generator_is_deterministic():
    a = gen_synthetic_load(5, 3, seed=42)
    b = gen_synthetic_load(5, 3, seed=42)
    for pa, pb in zip(a, b):
        assert pa.archetype == pb.archetype
        assert np.array_equal(pa.series, pb.series)
    c = gen_synthetic_load(5, 3, seed=43)
    assert any(not np.array_equal(pa.series, pc.series) for pa, pc in zip(a, c))


@given(
    st.integers(1, 8),
    st.integers(1, 20),
    st.sampled_from([0.0, 0.05, 0.2]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=100, deadline=None)
def test_generator_equals_the_per_day_body(households, days, noise_scale, seed):
    new = gen_synthetic_load(households, days, seed, noise_scale=noise_scale)
    old = old_gen_synthetic_load(households, days, seed, noise_scale=noise_scale)
    assert [(p.household, p.days, p.archetype) for p in new] == [
        (p.household, p.days, p.archetype) for p in old
    ]
    for p, q in zip(new, old):
        assert p.series.shape == q.series.shape and p.series.tobytes() == q.series.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_generator_equals_the_per_day_body_at_workload_scale(seed):
    new = gen_synthetic_load(100, 10, seed, noise_scale=0.05)
    old = old_gen_synthetic_load(100, 10, seed, noise_scale=0.05)
    assert [p.archetype for p in new] == [p.archetype for p in old]
    assert all(p.series.tobytes() == q.series.tobytes() for p, q in zip(new, old, strict=True))


def test_profile_series_are_disjoint_contiguous_rows():
    profiles = gen_synthetic_load(6, 3, seed=4)
    before = [p.series.copy() for p in profiles]
    for p in profiles:
        assert p.series.dtype == np.float64 and p.series.shape == (3 * SLOTS_PER_DAY,)
        assert p.series.flags.c_contiguous
    profiles[2].series[:] = -1.0
    for i, (p, b) in enumerate(zip(profiles, before)):
        assert i == 2 or np.array_equal(p.series, b)


@pytest.mark.parametrize("noise_scale", [-1.0, math.nan, math.inf])
def test_generator_and_config_reject_a_negative_or_non_finite_noise_scale(noise_scale):
    with pytest.raises(ValueError, match="noise_scale must be finite and nonnegative"):
        gen_synthetic_load(3, 2, seed=0, noise_scale=noise_scale)
    with pytest.raises(ValueError, match="noise_scale must be finite and nonnegative"):
        DataConfig(noise_scale=noise_scale)


def test_noise_free_series_is_weekly_periodic():
    profiles = gen_synthetic_load(4, 14, seed=0, noise_scale=0.0)
    for p in profiles:
        days = p.series.reshape(14, SLOTS_PER_DAY)
        for day in range(7):
            assert np.array_equal(days[day], days[day + 7])


def test_weekends_scale_whole_days():
    (p,) = gen_synthetic_load(1, 7, seed=1, noise_scale=0.0)
    days = p.series.reshape(7, SLOTS_PER_DAY)
    arch = next(a for a in ARCHETYPES if a.name == p.archetype)
    # days 5 and 6 of a week starting Monday
    assert np.allclose(days[5], days[0] * arch.weekend_factor)
    assert np.allclose(days[6], days[0] * arch.weekend_factor)
    assert np.array_equal(days[5], days[6])


def test_series_nonnegative():
    profiles = gen_synthetic_load(10, 5, seed=3, noise_scale=0.5)
    for p in profiles:
        assert np.all(p.series >= 0)


def test_generator_rejects_empty():
    with pytest.raises(ValueError):
        gen_synthetic_load(0, 5, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic_load(5, 0, seed=0)


@pytest.mark.parametrize("households, days, seed", [(7, 4, 5), (100, 10, 0), (3, 1, 2), (20, 29, 9)])
def test_household_features_equal_the_per_profile_means(households, days, seed):
    profiles = gen_synthetic_load(households, days, seed)
    feats = household_features(profiles)
    assert feats.shape == (households, SLOTS_PER_DAY)
    assert feats.tobytes() == old_household_features(profiles).tobytes()


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    blobs = np.concatenate(
        [
            rng.normal(0.0, 0.05, size=(20, 3)),
            rng.normal(5.0, 0.05, size=(20, 3)),
            rng.normal(-5.0, 0.05, size=(20, 3)),
        ]
    )
    result = kmeans(blobs, 3, seed=1)
    labels = result.labels
    assert len(set(labels[:20])) == 1
    assert len(set(labels[20:40])) == 1
    assert len(set(labels[40:])) == 1
    assert len({labels[0], labels[20], labels[40]}) == 3


def test_kmeans_inertia_decreases():
    rng = np.random.default_rng(2)
    feats = rng.uniform(size=(50, 4))
    result = kmeans(feats, 4, seed=0)
    hist = result.inertia_history
    assert all(b <= a + 1e-12 for a, b in zip(hist, hist[1:]))
    assert result.inertia == pytest.approx(hist[-1])
    assert result.iterations >= 1


def test_kmeans_deterministic_per_seed():
    rng = np.random.default_rng(4)
    feats = rng.uniform(size=(30, 5))
    a = kmeans(feats, 3, seed=9)
    b = kmeans(feats, 3, seed=9)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_kmeans_on_real_features_groups_archetypes():
    profiles = gen_synthetic_load(60, 14, seed=11, noise_scale=0.02)
    feats = household_features(profiles)
    result = kmeans(feats, 3, seed=0)
    # Most households of one archetype should land in one cluster.
    agree = 0
    for name in ("morning", "evening", "business"):
        members = [i for i, p in enumerate(profiles) if p.archetype == name]
        if not members:
            continue
        counts = np.bincount(result.labels[members], minlength=3)
        agree += counts.max()
    assert agree >= 0.9 * len(profiles)


def test_window_minimal_series():
    series = np.arange(10.0)
    splits = window_dataset(series[None], lookback=6, horizon=4)
    assert splits["train"][0].shape == (1, 1, 6)
    assert splits["val"][0].shape == (1, 0, 6)
    assert splits["test"][1].shape == (1, 0, 4)
    assert np.allclose(splits["train"][1][0, 0], series[6:])


def test_window_split_sizes_and_order():
    series = np.stack([np.arange(100.0), 300.0 - np.arange(100.0)])
    lookback, horizon = 10, 1
    splits = window_dataset(series, lookback, horizon)
    n = 100 - lookback - horizon + 1  # 90
    assert [splits[name][0].shape for name in ("train", "val", "test")] == [
        (2, 63, lookback), (2, 13, lookback), (2, n - 63 - 13, lookback)
    ]
    # chronological: every val target comes after every train target
    (_, train), (_, val), (_, test) = splits["train"], splits["val"], splits["test"]
    assert train[0].max() < val[0].min() and val[0].max() < test[0].min()
    assert np.array_equal(train[1, :, 0], 300.0 - np.arange(10, 73))
    assert np.array_equal(test[1, :, 0], 300.0 - np.arange(86, 100))


def test_window_normalization_uses_train_stats_only():
    series = np.stack([np.arange(100.0), 5.0 + 2.0 * np.arange(100.0)])
    splits = window_dataset(series, 10, 1)
    # train inputs span [0, 71] and [5, 147]; each row's train range is exactly [0, 1]
    x_train, x_test = splits["train"][0], splits["test"][0]
    assert np.array_equal(x_train.min(axis=(1, 2)), [0.0, 0.0])
    assert np.array_equal(x_train.max(axis=(1, 2)), [1.0, 1.0])
    raw_test = np.lib.stride_tricks.sliding_window_view(series[1], 10)[76:90]
    assert np.array_equal(x_test[1], (raw_test - 5.0) / 142.0)
    # later windows exceed 1 after the same affine map
    assert np.all(x_test.max(axis=(1, 2)) > 1.0)
    # targets keep raw units
    assert np.array_equal(splits["test"][1][:, -1, 0], [99.0, 203.0])


def test_window_zero_range_guard():
    series = np.stack([np.ones(50), np.r_[np.ones(40), np.zeros(10)], np.arange(50.0)])
    splits = window_dataset(series, 8, 1)
    for name in ("train", "val", "test"):
        x = splits[name][0]
        assert np.all(x[:2] == 0.0) and not np.any(np.signbit(x[:2]))
        assert np.any(x[2] != 0.0)


def test_window_too_short_rejected():
    with pytest.raises(ValueError):
        window_dataset(np.arange(5.0)[None], lookback=4, horizon=2)
    # One household's series is a (1, slots) row, not a 1-d array.
    with pytest.raises(ValueError):
        window_dataset(np.arange(50.0), lookback=4, horizon=2)


def test_window_rejects_nonpositive_lookback_or_horizon():
    series = np.arange(50.0)[None]
    for lookback, horizon in ((0, 1), (4, 0), (-1, 2)):
        with pytest.raises(ValueError, match="lookback and horizon must be positive"):
            window_dataset(series, lookback, horizon)


def test_window_covers_every_window_of_generated_profiles():
    profiles = gen_synthetic_load(3, 3, seed=0)
    series = np.array([p.series for p in profiles])
    splits = window_dataset(series, lookback=48, horizon=1)
    sizes = [splits[name][1].shape[:2] for name in ("train", "val", "test")]
    assert all(rows == 3 for rows, _ in sizes)
    assert sum(n for _, n in sizes) == series.shape[1] - 48
    # Each household's targets, split by split, are its own series after the lookback.
    targets = np.concatenate([splits[name][1][:, :, 0] for name in ("train", "val", "test")], axis=1)
    assert np.array_equal(targets, series[:, 48:])


@settings(max_examples=100, deadline=None)
@given(
    households=st.integers(1, 4),
    lookback=st.integers(1, 12),
    horizon=st.integers(1, 4),
    extra=st.integers(0, 60),
    flat=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_windows_equal_the_per_household_windows_bit_for_bit(
    households, lookback, horizon, extra, flat, seed
):
    # Flat rows hold their train inputs at one value while later slots move
    # above and below it, so their val and test inputs would be nonzero (or
    # -0.0) under any normalization but the zeroing the old code did.
    rng = np.random.default_rng(seed)
    series = rng.uniform(0.0, 3.0, (households, lookback + horizon + extra))
    n_train = math.ceil(0.7 * (extra + 1))
    for i in np.flatnonzero(flat[:households]):
        series[i, : n_train + lookback - 1] = 1.5
    splits = window_dataset(series, lookback, horizon)
    for i in range(households):
        old = old_window_dataset(series[i], lookback, horizon)
        for name, (x, y) in splits.items():
            part = getattr(old, name)
            assert x[i].shape == part.features.shape and x[i].tobytes() == part.features.tobytes()
            assert y[i].shape == part.targets.shape and y[i].tobytes() == part.targets.tobytes()


def test_windows_equal_the_per_household_windows_at_workload_scale():
    series = np.array([p.series for p in gen_synthetic_load(30, 10, seed=3)])
    n_train = math.ceil(0.7 * (480 - 48))
    series[7, : n_train + 47] = 0.4  # one flat household; its later slots still move
    splits = window_dataset(series, 48, 1)
    for i in range(30):
        old = old_window_dataset(series[i], 48, 1)
        for name, (x, y) in splits.items():
            part = getattr(old, name)
            assert x[i].shape == part.features.shape and x[i].tobytes() == part.features.tobytes()
            assert y[i].shape == part.targets.shape and y[i].tobytes() == part.targets.tobytes()
    assert not np.any(splits["test"][0][7])
