"""Synthetic generation, on-disk formats, stratified splits, and batching."""

import csv
import errno
import struct
import tracemalloc

import numpy as np
import pytest

from avdistill import (
    ConfigError,
    DataError,
    DatasetMeta,
    PairedBatch,
    ShapeError,
    SyntheticSpec,
    batches,
    generate_synthetic,
    load_features,
    one_hot,
    save_features,
    split,
)
from avdistill.data import infer_format

from oracles import nearest_centroid_accuracy


def _tiny_dataset():
    """A hand-sized 5-pair, 2-class dataset for format round trips."""
    rng = np.random.default_rng(3)
    data = PairedBatch(
        rng.standard_normal((5, 3)).astype(np.float32).astype(np.float64),
        rng.standard_normal((5, 4)).astype(np.float32).astype(np.float64),
        np.array([0, 0, 1, 1, 1]),
    )
    return DatasetMeta(n_pairs=5, audio_dim=3, visual_dim=4, n_classes=2), data


class TestSynthetic:
    def test_zero_noise_collapses_to_centroids(self):
        spec = SyntheticSpec(n_classes=2, pairs_per_class=3, audio_dim=8, visual_dim=6,
                             noise_scale=0.0, seed=1)
        meta, data = generate_synthetic(spec)
        np.testing.assert_array_equal(data.labels, [0, 0, 0, 1, 1, 1])
        np.testing.assert_array_equal(data.audio[0], data.audio[1])
        np.testing.assert_array_equal(data.audio[1], data.audio[2])
        np.testing.assert_array_equal(data.visual[3], data.visual[5])
        assert not np.array_equal(data.audio[0], data.audio[3])

    def test_meta_matches_spec(self):
        meta, data = generate_synthetic(SyntheticSpec(n_classes=3, pairs_per_class=4,
                                                      audio_dim=10, visual_dim=12))
        assert meta.n_pairs == 12 and len(data) == 12
        assert meta.audio_dim == 10 and meta.visual_dim == 12 and meta.n_classes == 3
        assert data.audio.shape == (12, 10) and data.visual.shape == (12, 12)

    def test_same_seed_is_bit_identical(self):
        spec = SyntheticSpec(n_classes=2, pairs_per_class=5, audio_dim=6, visual_dim=6, seed=9)
        _, a = generate_synthetic(spec)
        _, b = generate_synthetic(spec)
        np.testing.assert_array_equal(a.audio, b.audio)
        np.testing.assert_array_equal(a.visual, b.visual)
        np.testing.assert_array_equal(a.labels, b.labels)
        _, c = generate_synthetic(SyntheticSpec(n_classes=2, pairs_per_class=5,
                                                audio_dim=6, visual_dim=6, seed=10))
        assert not np.array_equal(a.audio, c.audio)

    def test_features_are_f32_quantized(self):
        _, data = generate_synthetic(SyntheticSpec(n_classes=2, pairs_per_class=2,
                                                   audio_dim=4, visual_dim=4))
        np.testing.assert_array_equal(data.audio, data.audio.astype(np.float32))
        np.testing.assert_array_equal(data.visual, data.visual.astype(np.float32))

    def test_low_noise_clusters_are_separable(self):
        _, data = generate_synthetic(SyntheticSpec(seed=7))
        assert nearest_centroid_accuracy(data.audio, data.labels) > 0.99
        assert nearest_centroid_accuracy(data.visual, data.labels) > 0.99

    def test_label_noise_flips_only_labels(self):
        noisy_spec = SyntheticSpec(n_classes=4, pairs_per_class=25, audio_dim=8,
                                   visual_dim=8, label_noise=0.2, seed=5)
        clean_spec = SyntheticSpec(n_classes=4, pairs_per_class=25, audio_dim=8,
                                   visual_dim=8, label_noise=0.0, seed=5)
        _, noisy = generate_synthetic(noisy_spec)
        _, clean = generate_synthetic(clean_spec)
        np.testing.assert_array_equal(noisy.audio, clean.audio)
        np.testing.assert_array_equal(noisy.visual, clean.visual)
        flipped = int((noisy.labels != clean.labels).sum())
        assert 0 < flipped <= round(0.2 * 100)
        assert noisy.labels.min() >= 0 and noisy.labels.max() < 4

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_classes=1)
        with pytest.raises(ConfigError):
            SyntheticSpec(noise_scale=-0.1)
        with pytest.raises(ConfigError):
            SyntheticSpec(correlation=1.5)
        with pytest.raises(ConfigError):
            SyntheticSpec(label_noise=-0.2)


class TestOneHot:
    def test_values(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_out_of_range_label(self):
        with pytest.raises(DataError, match=r"label 10 at position 0 outside \[0, 10\)"):
            one_hot(np.array([10]), 10)
        with pytest.raises(DataError):
            one_hot(np.array([0, -1]), 3)


class TestBinaryFormat:
    def test_roundtrip_bit_exact(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "tiny.avfd"
        save_features(path, meta, data)
        meta2, data2 = load_features(path)
        assert meta2.n_pairs == 5 and meta2.n_classes == 2
        np.testing.assert_array_equal(data2.audio, data.audio)
        np.testing.assert_array_equal(data2.visual, data.visual)
        np.testing.assert_array_equal(data2.labels, data.labels)

    def test_loaded_arrays_are_fresh_writeable_arrays(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "tiny.avfd"
        save_features(path, meta, data)
        _, back = load_features(path)
        arrays = [back.audio, back.visual, back.labels]
        for i, array in enumerate(arrays):
            assert array.flags.writeable and array.flags.c_contiguous
            # Its memory is numpy's own, not a view of a buffer the file's bytes were read into.
            owner = array
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            assert owner.base is None
            assert not any(np.shares_memory(array, other) for other in arrays[i + 1 :])

    def test_binary_features_load_as_float32_once(self, tmp_path):
        meta, data = generate_synthetic(SyntheticSpec(n_classes=10, pairs_per_class=400))
        path = tmp_path / "ref.avfd"
        save_features(path, meta, data)
        tracemalloc.start()
        try:
            _, back = load_features(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert back.audio.dtype == back.visual.dtype == np.float32
        # 4000 x (128 + 1024) float32 values, then int64 labels and indices.
        kept = 4000 * (128 + 1024) * 4 + 2 * 4000 * 8
        assert held <= kept + 2**16
        # The records stream through one read block of about 1 MiB.
        assert peak <= kept + 2**20 + 2**19
        np.testing.assert_array_equal(back.audio, data.audio)
        np.testing.assert_array_equal(back.visual, data.visual)

    def test_generated_dataset_roundtrip(self, tmp_path):
        meta, data = generate_synthetic(SyntheticSpec(n_classes=2, pairs_per_class=4,
                                                      audio_dim=6, visual_dim=9, seed=2))
        path = tmp_path / "gen.avfd"
        save_features(path, meta, data)
        _, back = load_features(path)
        np.testing.assert_array_equal(back.audio, data.audio)
        np.testing.assert_array_equal(back.visual, data.visual)

    def test_bad_magic(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "bad.avfd"
        save_features(path, meta, data)
        raw = bytearray(path.read_bytes())
        raw[0] = ord("Z")
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="bad magic"):
            load_features(path)

    def test_unsupported_version(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "v9.avfd"
        save_features(path, meta, data)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="unsupported dataset version 9"):
            load_features(path)

    def test_truncated_file_names_failing_record(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "cut.avfd"
        save_features(path, meta, data)
        record_size = (3 + 4) * 4 + 4
        header_size = 22
        path.write_bytes(path.read_bytes()[: header_size + 4 * record_size + 3])
        with pytest.raises(DataError, match=r"claims 5 records, found 4 complete \(failed at record 4\)"):
            load_features(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "pad.avfd"
        save_features(path, meta, data)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00")
        with pytest.raises(DataError, match="3 trailing bytes after record 4"):
            load_features(path)

    def test_label_out_of_range_in_record(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "lbl.avfd"
        save_features(path, meta, data)
        raw = bytearray(path.read_bytes())
        record_size = (3 + 4) * 4 + 4
        label_offset = 22 + 2 * record_size + (3 + 4) * 4
        raw[label_offset : label_offset + 4] = struct.pack("<I", 7)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=r"label 7 out of range \[0, 2\) at record 2"):
            load_features(path)

    def test_non_finite_feature_rejected(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "nan.avfd"
        save_features(path, meta, data)
        raw = bytearray(path.read_bytes())
        record_size = (3 + 4) * 4 + 4
        raw[22 + 3 * record_size : 22 + 3 * record_size + 4] = struct.pack("<f", np.nan)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="non-finite feature value at record 3"):
            load_features(path)

    def test_errors_name_their_record_across_read_blocks(self, tmp_path, monkeypatch):
        # Three-record read blocks over 10 records: a NaN in record 7 is named
        # by its place in the file, and a bad label in a later block (record
        # 8) still takes precedence over it, as when the file was read whole.
        monkeypatch.setattr("avdistill.data._READ_BYTES", 3 * ((3 + 4) * 4 + 4))
        meta, data = generate_synthetic(SyntheticSpec(n_classes=2, pairs_per_class=5,
                                                      audio_dim=3, visual_dim=4))
        path = tmp_path / "blocks.avfd"
        save_features(path, meta, data)
        _, back = load_features(path)
        np.testing.assert_array_equal(back.visual, data.visual)
        np.testing.assert_array_equal(back.labels, data.labels)
        raw = bytearray(path.read_bytes())
        record_size = (3 + 4) * 4 + 4
        raw[22 + 7 * record_size + 12 : 22 + 7 * record_size + 16] = struct.pack("<f", np.inf)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="non-finite feature value at record 7"):
            load_features(path)
        label_offset = 22 + 8 * record_size + (3 + 4) * 4
        raw[label_offset : label_offset + 4] = struct.pack("<I", 5)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match=r"label 5 out of range \[0, 2\) at record 8"):
            load_features(path)

    def test_header_too_short(self, tmp_path):
        path = tmp_path / "stub.avfd"
        path.write_bytes(b"AVFD\x01\x00")
        with pytest.raises(DataError, match="too short"):
            load_features(path)

    def test_header_without_records(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "empty.avfd"
        save_features(path, meta, data)
        raw = bytearray(path.read_bytes()[:22])
        raw[6:10] = struct.pack("<I", 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(DataError, match="no records"):
            load_features(path)

    @pytest.mark.parametrize("dim", [2**30, 2**32 - 1])
    def test_huge_header_dims_are_a_truncated_file(self, tmp_path, dim):
        # A record this wide is too large for a numpy dtype; the length check must come first.
        path = tmp_path / "wide.avfd"
        path.write_bytes(b"AVFD" + struct.pack("<HIIII", 1, 1, dim, dim, 2) + bytes(64))
        with pytest.raises(DataError, match="truncated file: header claims 1 records, found 0"):
            load_features(path)


class TestCsvFormat:
    def test_roundtrip_exact(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "tiny.csv"
        save_features(path, meta, data)
        meta2, data2 = load_features(path)
        assert meta2.n_classes == 2
        np.testing.assert_array_equal(data2.audio, data.audio)
        np.testing.assert_array_equal(data2.visual, data.visual)
        np.testing.assert_array_equal(data2.labels, data.labels)

    def test_header_layout(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "tiny.csv"
        save_features(path, meta, data)
        header = path.read_text().splitlines()[0]
        assert header == "pair_id,label,a_0,a_1,a_2,v_0,v_1,v_2,v_3"

    def test_ragged_row_rejected(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "tiny.csv"
        save_features(path, meta, data)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].rsplit(",", 1)[0]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="fields"):
            load_features(path)

    def test_unparseable_value(self, tmp_path):
        meta, data = _tiny_dataset()
        path = tmp_path / "tiny.csv"
        save_features(path, meta, data)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[2] = "oops"
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="unparseable"):
            load_features(path)

    def test_single_class_rejected(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("pair_id,label,a_0,v_0\n0,0,1.0,2.0\n1,0,3.0,4.0\n")
        with pytest.raises(DataError, match="at least 2 classes"):
            load_features(path)

    def test_empty_and_headerless(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty CSV"):
            load_features(path)
        path.write_text("pair_id,label,a_0,v_0\n")
        with pytest.raises(DataError, match="no records"):
            load_features(path)

    def test_format_inference(self):
        assert infer_format("features.csv") == "csv"
        assert infer_format("features.avfd") == "binary"
        assert infer_format("features.bin") == "binary"


class TestSaveValidation:
    def test_meta_pair_count_mismatch(self, tmp_path):
        meta, data = _tiny_dataset()
        wrong = DatasetMeta(n_pairs=6, audio_dim=3, visual_dim=4, n_classes=2)
        with pytest.raises(ShapeError, match="meta says 6 pairs"):
            save_features(tmp_path / "x.avfd", wrong, data)

    # Each dataset below would load as a `DataError`, so its save raises that
    # error, and a file already at the path keeps its bytes.
    @pytest.mark.parametrize("suffix", ["avfd", "csv"])
    @pytest.mark.parametrize("labels, message", [
        ([0, 0, 1, 1, 5], r"^label 5 out of range \[0, 2\) at record 4$"),
        ([0, -1, 1, 1, 1], r"^label -1 out of range \[0, 2\) at record 1$"),
    ], ids=["above", "negative"])
    def test_labels_outside_the_class_count_are_refused(self, tmp_path, suffix, labels, message):
        meta, data = _tiny_dataset()
        path = tmp_path / f"x.{suffix}"
        path.write_bytes(b"kept")
        bad = PairedBatch(data.audio, data.visual, np.array(labels))
        with pytest.raises(DataError, match=message):
            save_features(path, meta, bad)
        assert path.read_bytes() == b"kept"

    @pytest.mark.parametrize("suffix", ["avfd", "csv"])
    def test_a_nan_feature_is_refused(self, tmp_path, suffix):
        meta, data = _tiny_dataset()
        data.visual[3, 2] = np.nan
        path = tmp_path / f"x.{suffix}"
        path.write_bytes(b"kept")
        with pytest.raises(DataError, match=r"^non-finite feature value at record 3$"):
            save_features(path, meta, data)
        assert path.read_bytes() == b"kept"

    @pytest.mark.parametrize("suffix", ["avfd", "csv"])
    def test_a_dataset_without_pairs_is_refused(self, tmp_path, suffix):
        # Both loaders refuse a file that holds no records.
        path = tmp_path / f"x.{suffix}"
        path.write_bytes(b"kept")
        empty = PairedBatch(np.zeros((0, 3)), np.zeros((0, 4)), np.zeros(0, dtype=np.int64))
        with pytest.raises(DataError, match=r"^a dataset needs at least one pair"):
            save_features(path, DatasetMeta(n_pairs=0, audio_dim=3, visual_dim=4), empty)
        assert path.read_bytes() == b"kept"

    @pytest.mark.parametrize("labels, n_classes, message", [
        ([0, 0, 0, 0, 0], 2, r"^labels only reach 0: .*, so 2 classes would load as 1$"),
        ([0, 1, 1, 1, 1], 5, r"^labels only reach 1: .*, so 5 classes would load as 2$"),
    ], ids=["one-label", "short-of-the-count"])
    def test_a_csv_whose_labels_miss_the_top_class_is_refused(
        self, tmp_path, labels, n_classes, message
    ):
        # A CSV file keeps no class count; a load infers it from the top label.
        # The binary header keeps the count, so there the same dataset roundtrips.
        _, data = _tiny_dataset()
        meta = DatasetMeta(n_pairs=5, audio_dim=3, visual_dim=4, n_classes=n_classes)
        data = PairedBatch(data.audio, data.visual, np.array(labels))
        path = tmp_path / "x.csv"
        path.write_bytes(b"kept")
        with pytest.raises(DataError, match=message):
            save_features(path, meta, data)
        assert path.read_bytes() == b"kept"
        save_features(tmp_path / "x.avfd", meta, data)
        assert load_features(tmp_path / "x.avfd")[0] == meta

    def test_a_csv_save_that_fails_part_way_keeps_the_previous_file(
        self, tmp_path, monkeypatch
    ):
        meta, data = _tiny_dataset()
        path = tmp_path / "x.csv"
        save_features(path, meta, data)
        before = path.read_bytes()
        real_writer = csv.writer

        def disk_fills_after_the_header(f):
            writer, rows = real_writer(f), []

            class Writer:
                def writerow(self, row):
                    if rows:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    rows.append(row)
                    writer.writerow(row)

            return Writer()

        monkeypatch.setattr(csv, "writer", disk_fills_after_the_header)
        twice = PairedBatch(data.audio * 2.0, data.visual * 2.0, data.labels)
        with pytest.raises(OSError, match="No space left"):
            save_features(path, meta, twice)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_a_value_beyond_float32_range_is_refused_in_binary(self, tmp_path):
        # 1e39 is finite as float64 and written as a float32 inf; the CSV
        # writes the float64 value, which loads back as it is.
        meta, data = _tiny_dataset()
        data.audio[2, 0] = 1e39
        path = tmp_path / "x.avfd"
        path.write_bytes(b"kept")
        with pytest.raises(DataError, match=r"^non-finite feature value at record 2$"):
            save_features(path, meta, data)
        assert path.read_bytes() == b"kept"
        save_features(tmp_path / "x.csv", meta, data)
        assert load_features(tmp_path / "x.csv")[1].audio[2, 0] == 1e39


class TestSplit:
    def _data(self, per_class=10):
        rng = np.random.default_rng(0)
        n = 2 * per_class
        labels = np.repeat([0, 1], per_class)
        return PairedBatch(rng.standard_normal((n, 3)), rng.standard_normal((n, 3)), labels)

    def test_stratified_counts(self):
        train, test = split(self._data(), 0.8, seed=0)
        assert len(train) == 16 and len(test) == 4
        assert (train.labels == 0).sum() == 8 and (train.labels == 1).sum() == 8
        assert (test.labels == 0).sum() == 2 and (test.labels == 1).sum() == 2

    def test_disjoint_and_complete(self):
        train, test = split(self._data(), 0.8, seed=3)
        merged = np.sort(np.concatenate([train.indices, test.indices]))
        np.testing.assert_array_equal(merged, np.arange(20))

    def test_deterministic_per_seed(self):
        a_train, _ = split(self._data(), 0.8, seed=1)
        b_train, _ = split(self._data(), 0.8, seed=1)
        np.testing.assert_array_equal(a_train.indices, b_train.indices)
        c_train, _ = split(self._data(), 0.8, seed=2)
        assert not np.array_equal(a_train.indices, c_train.indices)

    def test_indices_are_sorted(self):
        train, test = split(self._data(), 0.8, seed=5)
        assert (np.diff(train.indices) > 0).all()
        assert (np.diff(test.indices) > 0).all()

    def test_singleton_class_rejected(self):
        rng = np.random.default_rng(0)
        data = PairedBatch(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)),
                           np.array([0, 0, 1]))
        with pytest.raises(DataError, match="class 1 has 1 sample"):
            split(data, 0.5, seed=0)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            split(self._data(), 0.0, seed=0)
        with pytest.raises(ConfigError):
            split(self._data(), 1.0, seed=0)


class TestBatches:
    def _data(self, n=10):
        rng = np.random.default_rng(1)
        return PairedBatch(rng.standard_normal((n, 3)), rng.standard_normal((n, 4)),
                           rng.integers(0, 2, size=n))

    def test_sizes_with_short_tail(self):
        out = batches(self._data(10), 4, epoch=0, seed=0)
        assert [len(b) for b in out] == [4, 4, 2]

    def test_singleton_tail_dropped(self):
        out = batches(self._data(9), 4, epoch=0, seed=0)
        assert [len(b) for b in out] == [4, 4]

    def test_epoch_changes_order(self):
        data = self._data(10)
        e0 = np.concatenate([b.indices for b in batches(data, 4, epoch=0, seed=0)])
        e1 = np.concatenate([b.indices for b in batches(data, 4, epoch=1, seed=0)])
        assert not np.array_equal(e0, e1)
        assert set(e0) == set(range(10))

    def test_same_epoch_same_order(self):
        data = self._data(10)
        a = np.concatenate([b.indices for b in batches(data, 4, epoch=2, seed=5)])
        b = np.concatenate([b.indices for b in batches(data, 4, epoch=2, seed=5)])
        np.testing.assert_array_equal(a, b)

    def test_pairs_stay_aligned(self):
        data = self._data(10)
        for batch in batches(data, 4, epoch=0, seed=0):
            np.testing.assert_array_equal(batch.audio, data.audio[batch.indices])
            np.testing.assert_array_equal(batch.visual, data.visual[batch.indices])
            np.testing.assert_array_equal(batch.labels, data.labels[batch.indices])

    def test_batch_size_floor(self):
        with pytest.raises(ConfigError):
            batches(self._data(10), 1, epoch=0, seed=0)


class TestPairedBatch:
    def test_mismatched_rows_rejected(self, rng):
        with pytest.raises(ShapeError):
            PairedBatch(rng.standard_normal((3, 2)), rng.standard_normal((4, 2)),
                        np.zeros(3, dtype=np.int64))

    def test_take_preserves_original_indices(self, rng):
        data = PairedBatch(rng.standard_normal((5, 2)), rng.standard_normal((5, 2)),
                           np.arange(5) % 2)
        sub = data.take(np.array([4, 1]))
        np.testing.assert_array_equal(sub.indices, [4, 1])
        np.testing.assert_array_equal(sub.audio, data.audio[[4, 1]])

    @pytest.mark.parametrize(
        "given, kept", [(np.float32, np.float32), (np.float64, np.float64),
                        (np.float16, np.float64), (np.int64, np.float64)],
    )
    def test_float32_features_stay_float32_and_others_become_float64(self, given, kept):
        x = np.arange(12).reshape(6, 2).astype(given)
        data = PairedBatch(x, x[:, :1], np.arange(6) % 2)
        assert data.audio.dtype == data.visual.dtype == kept
        for part in (data.take(np.array([4, 1])), *split(data, 0.5, seed=0),
                     *batches(data, 2, epoch=0, seed=0)):
            assert part.audio.dtype == part.visual.dtype == kept

    def test_generated_and_binary_features_are_float32_and_csv_float64(self, tmp_path):
        meta, data = generate_synthetic(SyntheticSpec(n_classes=2, pairs_per_class=3,
                                                      audio_dim=4, visual_dim=5))
        assert data.audio.dtype == data.visual.dtype == np.float32
        for name, dtype in (("d.avfd", np.float32), ("d.csv", np.float64)):
            save_features(tmp_path / name, meta, data)
            _, back = load_features(tmp_path / name)
            assert back.audio.dtype == back.visual.dtype == dtype
            np.testing.assert_array_equal(back.audio, data.audio)
            np.testing.assert_array_equal(back.visual, data.visual)


class TestDatasetMeta:
    def test_validation(self):
        with pytest.raises(ConfigError):
            DatasetMeta(n_pairs=-1)
        with pytest.raises(ConfigError):
            DatasetMeta(n_pairs=1, n_classes=1)
        with pytest.raises(ConfigError):
            DatasetMeta(n_pairs=1, audio_dim=0)
