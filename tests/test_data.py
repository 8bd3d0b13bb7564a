"""Tests for long-tail construction, CIFAR binary round-trips, synthetic
mixtures, augmentation, the dataset file format and atomic writes."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from tempcl.data import (
    AugmentationPolicy,
    DataFormatError,
    LongTailDataset,
    augment_batch,
    head_mid_tail_split,
    load_cifar10_bin,
    load_cifar100_bin,
    load_dataset,
    longtail_sizes,
    save_dataset,
    serialize_cifar10_bin,
    subsample_longtail,
    synth_mixture,
    write_atomic,
)


class TestLongtailSizes:
    def test_two_point_exponential(self):
        np.testing.assert_array_equal(longtail_sizes(2, 100, 4), [100, 25])

    def test_frozen_cifar_scale(self):
        """K=10, n_max=5000, imb=100: endpoints and the summed total."""
        sizes = longtail_sizes(10, 5000, 100)
        np.testing.assert_array_equal(
            sizes, [5000, 2997, 1797, 1077, 646, 387, 232, 139, 83, 50]
        )
        assert sizes[0] == 5000 and sizes[-1] == 50
        assert sizes[0] / sizes[-1] == 100.0
        assert sizes.sum() == 12408

    def test_no_decay(self):
        np.testing.assert_array_equal(longtail_sizes(7, 123, 1.0), np.full(7, 123))

    def test_non_increasing_and_endpoint_ratio(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            K = int(rng.integers(2, 40))
            n_max = int(rng.integers(10, 5000))
            imb = float(rng.uniform(1.0, 200.0))
            sizes = longtail_sizes(K, n_max, imb)
            assert np.all(np.diff(sizes) <= 0)
            assert sizes[0] == n_max
            # endpoint reproduces imb up to rounding of the smallest class
            assert abs(sizes[-1] - n_max / imb) <= 0.5 or sizes[-1] == 1

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            longtail_sizes(1, 10, 2)
        with pytest.raises(ValueError):
            longtail_sizes(5, 0, 2)
        with pytest.raises(ValueError):
            longtail_sizes(5, 10, 0.5)


def balanced_toy(K=10, per_class=5000, D=2, seed=0):
    rng = np.random.default_rng(seed)
    n = K * per_class
    feats = rng.standard_normal((n, D))
    labels = np.repeat(np.arange(K), per_class)
    return LongTailDataset(features=feats, labels=labels, num_classes=K)


class TestSubsampleLongtail:
    def test_identity_sizes_keep_everything(self):
        ds = balanced_toy(K=4, per_class=20)
        out = subsample_longtail(ds, np.full(4, 20), seed=1)
        assert out.n == ds.n
        np.testing.assert_array_equal(
            np.sort(out.features[:, 0]), np.sort(ds.features[:, 0])
        )

    def test_deterministic(self):
        ds = balanced_toy(K=4, per_class=20)
        a = subsample_longtail(ds, [20, 10, 5, 2], seed=7)
        b = subsample_longtail(ds, [20, 10, 5, 2], seed=7)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_histogram_equals_requested_sizes(self):
        ds = balanced_toy()
        sizes = longtail_sizes(10, 5000, 100)
        out = subsample_longtail(ds, sizes, seed=3)
        np.testing.assert_array_equal(np.bincount(out.labels, minlength=10), sizes)
        assert out.n == 12408

    def test_oversized_request_rejected(self):
        ds = balanced_toy(K=3, per_class=10)
        with pytest.raises(ValueError, match="only 10 available"):
            subsample_longtail(ds, [11, 5, 2], seed=0)

    def test_class_permutation_relabels(self):
        """A permutation seed changes which source class heads the tail."""
        ds = balanced_toy(K=5, per_class=30, seed=2)
        plain = subsample_longtail(ds, [30, 20, 10, 5, 2], seed=0)
        permuted = subsample_longtail(ds, [30, 20, 10, 5, 2], seed=0,
                                      class_permutation_seed=11)
        np.testing.assert_array_equal(np.bincount(plain.labels), np.bincount(permuted.labels))
        assert not np.array_equal(plain.features, permuted.features)


class TestSynthMixture:
    def test_zero_sigma_collapses_to_means(self):
        ds = synth_mixture(3, 8, 10, 2.0, class_separation=1.0, within_sigma=0.0, seed=4)
        for k in range(3):
            rows = ds.features[ds.labels == k]
            np.testing.assert_allclose(rows, np.broadcast_to(rows[0], rows.shape))

    def test_separable_limit(self):
        """Huge separation: nearest class mean classifies perfectly."""
        ds = synth_mixture(2, 8, 30, 3.0, class_separation=100.0, within_sigma=0.1, seed=5)
        means = np.stack([ds.features[ds.labels == k].mean(axis=0) for k in range(2)])
        pred = np.argmin(
            ((ds.features[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1
        )
        assert np.array_equal(pred, ds.labels)

    def test_counts_match_size_formula(self):
        ds = synth_mixture(10, 32, 500, 100.0, seed=6)
        np.testing.assert_array_equal(ds.class_sizes, longtail_sizes(10, 500, 100.0))
        assert ds.n == longtail_sizes(10, 500, 100.0).sum()

    def test_deterministic(self):
        a = synth_mixture(5, 16, 40, 10.0, seed=8)
        b = synth_mixture(5, 16, 40, 10.0, seed=8)
        np.testing.assert_array_equal(a.features, b.features)

    def test_balanced_companion_shares_means(self):
        lt = synth_mixture(4, 8, 20, 4.0, within_sigma=0.0, seed=9)
        test = synth_mixture(4, 8, 3, 1.0, within_sigma=0.0, seed=9, stream=2)
        for k in range(4):
            np.testing.assert_allclose(
                lt.features[lt.labels == k][0], test.features[test.labels == k][0]
            )

    def test_balanced_uses_fresh_noise(self):
        lt = synth_mixture(4, 8, 20, 1.0, within_sigma=0.5, seed=9)
        test = synth_mixture(4, 8, 20, 1.0, within_sigma=0.5, seed=9, stream=2)
        assert not np.allclose(lt.features[:5], test.features[:5])


def cifar10_fixture_bytes(n=6, seed=0):
    rng = np.random.default_rng(seed)
    recs = rng.integers(0, 256, size=(n, 3073), dtype=np.uint8)
    recs[:, 0] = rng.integers(0, 10, size=n)
    return recs.tobytes()


def cifar100_fixture_bytes(n=6, seed=0):
    rng = np.random.default_rng(seed)
    recs = rng.integers(0, 256, size=(n, 3074), dtype=np.uint8)
    recs[:, 0] = rng.integers(0, 20, size=n)
    recs[:, 1] = rng.integers(0, 100, size=n)
    return recs.tobytes()


def fine_records(raw, n_labels):
    """CIFAR records without a CIFAR-100 record's leading coarse byte: the
    CIFAR-10 records of the fine labels and the pixels."""
    return np.frombuffer(raw, np.uint8).reshape(-1, n_labels + 3072)[:, n_labels - 1:].tobytes()


class TestCifarLoaders:
    def test_two_record_file(self, tmp_path):
        p = tmp_path / "two.bin"
        p.write_bytes(cifar10_fixture_bytes(n=2))
        ds = load_cifar10_bin(p)
        assert ds.n == 2 and ds.dim == 3072

    def test_wrong_length_rejected(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\x00" * 3072)
        with pytest.raises(DataFormatError, match="not a multiple of 3073"):
            load_cifar10_bin(p)

    def test_label_out_of_range_offset(self, tmp_path):
        raw = bytearray(cifar10_fixture_bytes(n=1))
        raw[0] = 11
        p = tmp_path / "label.bin"
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="offset 0"):
            load_cifar10_bin(p)

    def test_round_trip_cifar10(self, tmp_path):
        raw = cifar10_fixture_bytes(n=10, seed=3)
        p = tmp_path / "f.bin"
        p.write_bytes(raw)
        assert serialize_cifar10_bin(load_cifar10_bin(p)) == raw

    def test_round_trip_cifar100(self, tmp_path):
        """A CIFAR-100 parse keeps each record's fine label and pixels."""
        raw = cifar100_fixture_bytes(n=10, seed=4)
        p = tmp_path / "f100.bin"
        p.write_bytes(raw)
        assert serialize_cifar10_bin(load_cifar100_bin(p)) == fine_records(raw, 2)

    def test_multiple_train_files_concatenate(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(cifar10_fixture_bytes(n=3, seed=5))
        b.write_bytes(cifar10_fixture_bytes(n=4, seed=6))
        ds = load_cifar10_bin([a, b])
        assert ds.n == 7

    def test_cifar100_multiple_files_concatenate(self, tmp_path):
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        a.write_bytes(cifar100_fixture_bytes(n=3, seed=5))
        b.write_bytes(cifar100_fixture_bytes(n=4, seed=6))
        ds = load_cifar100_bin([a, b])
        assert ds.n == 7
        assert serialize_cifar10_bin(ds) == fine_records(a.read_bytes() + b.read_bytes(), 2)

    def test_standardization_recorded(self, tmp_path):
        p = tmp_path / "s.bin"
        p.write_bytes(cifar10_fixture_bytes(n=8, seed=7))
        ds = load_cifar10_bin(p)
        mean, std = ds.channel_stats
        assert mean.shape == (3,) and std.shape == (3,)
        planes = ds.features.reshape(-1, 3, 1024)
        np.testing.assert_allclose(planes.mean(axis=(0, 2)), 0.0, atol=1e-12)
        np.testing.assert_allclose(planes.std(axis=(0, 2)), 1.0, atol=1e-12)

    def test_longtail_subset_keeps_its_source_records(self, tmp_path):
        raw = cifar10_fixture_bytes(n=60, seed=9)
        p = tmp_path / "lt.bin"
        p.write_bytes(raw)
        ds = load_cifar10_bin(p)
        sub = subsample_longtail(ds, (ds.class_sizes + 1) // 2, seed=3)
        assert 0 < sub.n < ds.n and sub.channel_stats is ds.channel_stats
        kept = [int(np.flatnonzero((ds.features == row).all(axis=1))[0]) for row in sub.features]
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3073)
        assert serialize_cifar10_bin(sub) == records[kept].tobytes()

    def test_synthetic_set_has_no_channel_stats(self):
        ds = synth_mixture(3, 3072, 4, 2.0, seed=0)
        assert ds.channel_stats is None
        pixel = AugmentationPolicy(augment="pixel")
        with pytest.raises(ValueError, match="channel statistics"):
            augment_batch(pixel, ds.features, np.random.default_rng(0), ds.channel_stats)
        with pytest.raises(ValueError, match="channel statistics"):
            serialize_cifar10_bin(ds)

    def test_cifar100_fine_label_out_of_range(self, tmp_path):
        raw = bytearray(cifar100_fixture_bytes(n=2))
        raw[3074 + 1] = 130
        p = tmp_path / "bad100.bin"
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match="offset 3075"):
            load_cifar100_bin(p)

    def test_cifar100_coarse_label_out_of_range(self, tmp_path):
        raw = bytearray(cifar100_fixture_bytes(n=2))
        raw[3074] = 20
        p = tmp_path / "bad100.bin"
        p.write_bytes(bytes(raw))
        with pytest.raises(DataFormatError, match=r"byte 20 out of range \[0, 19\] at offset 3074"):
            load_cifar100_bin(p)


def load_cifar_oracle(raws, n_labels):
    """The parse as first written, kept as the oracle: ``astype / 255``,
    NumPy's own ``planes.std`` and std 1 for a constant channel.  Returns
    (features, (mean, std))."""
    recs = np.vstack([np.frombuffer(raw, dtype=np.uint8).reshape(-1, n_labels + 3072)
                      for raw in raws])
    pixels = recs[:, n_labels:].astype(np.float64) / 255.0
    planes = pixels.reshape(-1, 3, 1024)
    mean, std = planes.mean(axis=(0, 2)), planes.std(axis=(0, 2))
    std = np.where(std > 0.0, std, 1.0)
    return standardize_planes(pixels, mean, std), (mean, std)


# format -> (fixture bytes, loader, label bytes per record)
CIFAR_FORMATS = {
    "cifar10": (cifar10_fixture_bytes, load_cifar10_bin, 1),
    "cifar100": (cifar100_fixture_bytes, load_cifar100_bin, 2),
}


def assert_parse_matches_oracle(ds, raws, n_labels):
    features, stats = load_cifar_oracle(raws, n_labels)
    assert ds.features.dtype == features.dtype and ds.features.shape == features.shape
    assert ds.features.tobytes() == features.tobytes()
    for got, expect in zip(ds.channel_stats, stats):
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()


def traced_peak(fn):
    """(fn(), the peak bytes that tracemalloc saw while it ran)."""
    tracemalloc.start()
    try:
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


class TestCifarParseMatchesOracle:
    """The one-buffer parse gives the oracle's features and channel
    constants byte for byte: its std sums in NumPy's own order."""

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    @pytest.mark.parametrize("fmt", sorted(CIFAR_FORMATS))
    def test_one_file(self, tmp_path, fmt, n):
        make, load, n_labels = CIFAR_FORMATS[fmt]
        raw = make(n=n, seed=20 + n)
        p = tmp_path / "f.bin"
        p.write_bytes(raw)
        assert_parse_matches_oracle(load(p), [raw], n_labels)

    @pytest.mark.parametrize("fmt", sorted(CIFAR_FORMATS))
    def test_two_files(self, tmp_path, fmt):
        make, load, n_labels = CIFAR_FORMATS[fmt]
        raws = [make(n=5, seed=30), make(n=9, seed=31)]
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for p, raw in zip(paths, raws):
            p.write_bytes(raw)
        assert_parse_matches_oracle(load(paths), raws, n_labels)

    @pytest.mark.parametrize("value", [0, 77, 255])
    def test_one_constant_channel(self, tmp_path, value):
        recs = np.frombuffer(cifar10_fixture_bytes(n=9, seed=32), dtype=np.uint8)
        recs = recs.reshape(-1, 3073).copy()
        recs[:, 1 + 1024:1 + 2048] = value
        p = tmp_path / "c.bin"
        p.write_bytes(recs.tobytes())
        ds = load_cifar10_bin(p)
        assert_parse_matches_oracle(ds, [recs.tobytes()], 1)
        if value in (0, 255):  # an exact mean: every deviation is 0
            assert ds.channel_stats[1][1] == 1.0
        assert serialize_cifar10_bin(ds) == recs.tobytes()


class TestCifarMemory:
    """A parse holds one float64 pixel buffer beside the file's bytes, and
    writing it back holds one block of rows beside the records."""

    ROWS = 2000

    def test_parse_peak(self, tmp_path):
        p = tmp_path / "big.bin"
        p.write_bytes(cifar10_fixture_bytes(n=self.ROWS, seed=40))
        ds, peak = traced_peak(lambda: load_cifar10_bin(p))
        assert peak < 1.1 * (ds.features.nbytes + p.stat().st_size)

    def test_serialize_peak(self, tmp_path):
        raw = cifar10_fixture_bytes(n=self.ROWS, seed=41)
        p = tmp_path / "big.bin"
        p.write_bytes(raw)
        ds = load_cifar10_bin(p)
        out, peak = traced_peak(lambda: serialize_cifar10_bin(ds))
        assert out == raw
        assert peak < ds.features.nbytes

    @pytest.mark.parametrize("n", [257, 513])
    @pytest.mark.parametrize("fmt", sorted(CIFAR_FORMATS))
    def test_round_trip_across_row_blocks(self, tmp_path, fmt, n):
        make, load, n_labels = CIFAR_FORMATS[fmt]
        raw = make(n=n, seed=n)
        p = tmp_path / "f.bin"
        p.write_bytes(raw)
        assert serialize_cifar10_bin(load(p)) == fine_records(raw, n_labels)


# channel statistics under which standardized rows are the [0, 1] pixels
IDENTITY_STATS = (np.zeros(3), np.ones(3))


class TestAugment:
    def test_identity_when_disabled(self):
        policy = AugmentationPolicy(augment="embedding_noise", noise_sigma=0.0, dropout_prob=0.0)
        x = np.arange(5.0)
        out = augment_batch(policy, x[None], np.random.default_rng(0))
        np.testing.assert_array_equal(out, x[None])

    def test_deterministic_given_rng_state(self):
        policy = AugmentationPolicy(augment="embedding_noise", noise_sigma=0.3, dropout_prob=0.2)
        x = np.linspace(-1, 1, 8)
        a = augment_batch(policy, x[None], np.random.default_rng(12))
        b = augment_batch(policy, x[None], np.random.default_rng(12))
        np.testing.assert_array_equal(a, b)

    def test_flip_involution(self):
        """Flipping twice with no crop or noise restores the image."""
        policy = AugmentationPolicy(augment="pixel", flip_prob=1.0, crop_padding=0,
                                    pixel_noise_sigma=0.0)
        x = np.random.default_rng(3).random(3072)
        once = augment_batch(policy, x[None], np.random.default_rng(0), IDENTITY_STATS)
        twice = augment_batch(policy, once, np.random.default_rng(0), IDENTITY_STATS)
        np.testing.assert_array_equal(twice[0], x)
        assert not np.array_equal(once[0], x)

    def test_pixel_clamped_to_unit_interval(self):
        policy = AugmentationPolicy(augment="pixel", flip_prob=0.5, crop_padding=2,
                                    pixel_noise_sigma=0.5)
        x = np.random.default_rng(4).random(3072)
        out = augment_batch(policy, x[None], np.random.default_rng(5), IDENTITY_STATS)
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_pixel_dim_checked(self):
        policy = AugmentationPolicy(augment="pixel")
        with pytest.raises(ValueError, match="3072"):
            augment_batch(policy, np.zeros((1, 10)), np.random.default_rng(0), IDENTITY_STATS)

    def test_batch_matches_distributional_params(self):
        policy = AugmentationPolicy(augment="embedding_noise", noise_sigma=0.1)
        X = np.zeros((200, 50))
        out = augment_batch(policy, X, np.random.default_rng(6))
        assert abs(out.std() - 0.1) < 0.005

    def test_dropout_zeroes_coordinates(self):
        policy = AugmentationPolicy(augment="embedding_noise", noise_sigma=0.0, dropout_prob=0.5)
        x = np.ones(2000)
        out = augment_batch(policy, x[None], np.random.default_rng(7))
        frac = (out == 0.0).mean()
        assert 0.4 < frac < 0.6


def standardize_planes(pixels, mean, std):
    """(x - mean) / std over each row's three 1024-pixel channel planes."""
    planes = pixels.reshape(-1, 3, 1024)
    return ((planes - mean[None, :, None]) / std[None, :, None]).reshape(-1, 3072)


def destandardize_planes(features, mean, std):
    planes = features.reshape(-1, 3, 1024)
    return (planes * std[None, :, None] + mean[None, :, None]).reshape(-1, 3072)


def augment_pixel_rows_oracle(policy, X, rng, channel_stats):
    """Pixel views made one row at a time: flip, reflect-pad and crop, add
    noise and clamp each row in turn, drawing its flip, its crop offsets
    and its noise from ``rng`` just before use."""
    def view(x):
        img = x.reshape(3, 32, 32)
        if rng.random() < policy.flip_prob:
            img = img[:, :, ::-1]
        p = policy.crop_padding
        if p > 0:
            padded = np.pad(img, ((0, 0), (p, p), (p, p)), mode="reflect")
            r, c = rng.integers(0, 2 * p + 1, size=2)
            img = padded[:, r : r + 32, c : c + 32]
        img = np.ascontiguousarray(img, dtype=np.float64)
        if policy.pixel_noise_sigma > 0:
            img += policy.pixel_noise_sigma * rng.standard_normal(img.shape)
        return np.clip(img, 0.0, 1.0).reshape(3072)

    pixels = destandardize_planes(X, *channel_stats)
    return standardize_planes(np.stack([view(row) for row in pixels]), *channel_stats)


class TestPixelViewsMatchRowOracle:
    @pytest.mark.parametrize("sigma", [0.0, 0.02])
    @pytest.mark.parametrize("padding", [0, 1, 4, 40])
    @pytest.mark.parametrize("flip", [0.0, 0.5, 1.0])
    def test_byte_equal_views_and_rng_state(self, flip, padding, sigma):
        """Batched views equal the row-by-row oracle byte for byte, and both
        leave the generator in the same state."""
        policy = AugmentationPolicy(augment="pixel", flip_prob=flip, crop_padding=padding,
                                    pixel_noise_sigma=sigma)
        data = np.random.default_rng(60)
        stats = (data.uniform(0.3, 0.6, size=3), data.uniform(0.15, 0.3, size=3))
        X = standardize_planes(data.random((9, 3072)), *stats)
        rng, oracle_rng = np.random.default_rng(61), np.random.default_rng(61)
        views = augment_batch(policy, X, rng, stats)
        expect = augment_pixel_rows_oracle(policy, X, oracle_rng, stats)
        assert views.tobytes() == expect.tobytes()
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def group_counts(K):
    """(n_head, n_mid, n_tail) of K classes: 34/33/33 at K = 100, else a
    head of round(0.4 K) (at least 1, leaving 2) and the rest halved, mid
    taking any odd one."""
    if K == 100:
        return 34, 33, 33
    n_head = max(1, min(K - 2, int(np.floor(0.4 * K + 0.5))))
    n_mid = (K - n_head + 1) // 2
    return n_head, n_mid, K - n_head - n_mid


class TestHeadMidTailSplit:
    def test_ten_classes(self):
        sizes = longtail_sizes(10, 5000, 100)
        np.testing.assert_array_equal(head_mid_tail_split(sizes), [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_hundred_classes(self):
        groups = head_mid_tail_split(longtail_sizes(100, 500, 100))
        np.testing.assert_array_equal(np.bincount(groups), [34, 33, 33])

    def test_three_classes(self):
        np.testing.assert_array_equal(head_mid_tail_split([2, 9, 5]), [2, 0, 1])

    def test_ties_broken_by_class_id(self):
        groups = head_mid_tail_split([5, 5, 5, 5, 5, 5, 5, 5, 5, 5])
        np.testing.assert_array_equal(groups, [0, 0, 0, 0, 1, 1, 1, 2, 2, 2])

    def test_too_few_classes(self):
        with pytest.raises(ValueError, match="at least 3"):
            head_mid_tail_split([3, 1])

    def test_partition_covers_all_classes(self):
        """Every class gets one id of 0, 1, 2, in the group counts of K, and
        the ids never fall along classes by descending size, ties by id."""
        rng = np.random.default_rng(8)
        for K in range(3, 121):
            sizes = rng.integers(1, 1 + int(rng.integers(1, 2 * K)), size=K)  # ties
            groups = head_mid_tail_split(sizes)
            assert groups.shape == (K,) and set(groups.tolist()) <= {0, 1, 2}
            assert tuple(np.bincount(groups, minlength=3)) == group_counts(K)
            assert np.all(np.diff(groups[np.argsort(-sizes, kind="stable")]) >= 0)


class TestDatasetFile:
    def test_round_trip_header_and_payload(self, tmp_path):
        ds = synth_mixture(5, 16, 40, 10.0, seed=1)
        p = tmp_path / "d.tcld"
        save_dataset(ds, p)
        back = load_dataset(p)
        assert back.num_classes == 5 and back.dim == 16 and back.n == ds.n
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(
            back.features, ds.features.astype(np.float32).astype(np.float64)
        )

    def test_header_size_is_16_bytes(self, tmp_path):
        ds = synth_mixture(3, 4, 5, 2.0, seed=2)
        p = tmp_path / "h.tcld"
        save_dataset(ds, p)
        raw = p.read_bytes()
        assert raw[:4] == b"TCLD"
        assert len(raw) == 16 + ds.n * (2 + 4 * ds.dim)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.tcld"
        p.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(DataFormatError, match="TCLD"):
            load_dataset(p)

    def test_truncated_rejected(self, tmp_path):
        ds = synth_mixture(3, 4, 5, 2.0, seed=2)
        p = tmp_path / "t.tcld"
        save_dataset(ds, p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(DataFormatError, match="expected"):
            load_dataset(p)


class TestDatasetValidation:
    def test_class_sizes_are_the_label_histogram(self):
        ds = LongTailDataset(features=np.zeros((3, 2)), labels=[0, 0, 2], num_classes=4)
        np.testing.assert_array_equal(ds.class_sizes, [2, 0, 1, 0])
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 2\)"):
            LongTailDataset(features=np.zeros((3, 2)), labels=[0, 0, 2], num_classes=2)

    def test_imbalance_ratio(self):
        ds = synth_mixture(4, 8, 100, 10.0, seed=0)
        assert abs(ds.class_sizes[0] / ds.class_sizes[-1] - 10.0) < 0.5


class TestWriteAtomic:
    def test_writes_text_and_bytes(self, tmp_path):
        p = tmp_path / "out.csv"
        write_atomic(p, "a,b\n1,2\n")
        assert p.read_text() == "a,b\n1,2\n"
        write_atomic(p, b"\x00\x01")
        assert p.read_bytes() == b"\x00\x01"
        assert [f.name for f in tmp_path.iterdir()] == ["out.csv"]

    def test_failed_write_keeps_the_earlier_file(self, tmp_path):
        """An exception while the new content is written leaves the earlier
        file intact and no temporary file behind."""
        p = tmp_path / "metrics.csv"
        p.write_text("earlier\n")
        with pytest.raises(TypeError):
            write_atomic(p, object())  # not bytes: the write itself fails
        assert p.read_text() == "earlier\n"
        assert [f.name for f in tmp_path.iterdir()] == ["metrics.csv"]

    def test_failed_rename_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        p = tmp_path / "d.tcld"
        save_dataset(synth_mixture(3, 4, 5, 2.0, seed=2), p)
        before = p.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_dataset(synth_mixture(3, 4, 9, 2.0, seed=3), p)
        assert p.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["d.tcld"]

    def test_two_threads_writing_one_path_leave_one_whole_file(self, tmp_path, monkeypatch):
        """Each thread has written its temporary file before either renames
        it: with one temporary name per thread both renames succeed, and one
        writer's whole content is left, with no temporary file."""
        p = tmp_path / "pca.csv"
        real_replace, both_written = os.replace, threading.Barrier(2, timeout=10)

        def replace(src, dst):
            both_written.wait()
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        contents = [bytes([ord("a") + i]) * (1 << 20) for i in range(2)]
        errors = []

        def write(content):
            try:
                write_atomic(p, content)
            except BaseException as err:
                errors.append(err)

        writers = [threading.Thread(target=write, args=(c,)) for c in contents]
        for w in writers:
            w.start()
        for w in writers:
            w.join(30)
        assert errors == []
        assert p.read_bytes() in contents
        assert [f.name for f in tmp_path.iterdir()] == ["pca.csv"]
