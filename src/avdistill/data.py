"""Paired audio-visual dataset handling.

Covers the synthetic Gaussian-mixture generator, the two on-disk formats
(a packed little-endian binary and a flat CSV), stratified splitting, and
epoch-seeded batching. A dataset is always a set of (audio, visual, label)
pair records; audio and visual rows at the same position belong together and
are never separated.

Binary layout (all little-endian):

    magic "AVFD" | u16 version | u32 n_pairs | u32 audio_dim | u32 visual_dim
    | u32 n_classes | n_pairs records of [audio_dim f32][visual_dim f32][u32 label]

CSV layout: header ``pair_id,label,a_0..a_{A-1},v_0..v_{V-1}``, one pair per row.
Features are stored as f32 in the binary format; the generator quantizes
through f32 so write -> read roundtrips reproduce the arrays bit-exactly.

A `PairedBatch` keeps float32 features as float32 and turns features of any
other dtype into float64. So the generator and the binary loader hand over
float32 arrays, half the bytes of float64 ones with every bit kept, and the
CSV loader float64 ones. The towers compute in float64 whatever they are
given: a training forward widens its batch into an input block the tower
keeps, and an inference forward one row chunk at a time into a chunk-sized
slot (see `model.Tower`).
float32 widens to float64 exactly, so both kinds of input give the same bits.

A binary load reads its records in blocks of about `_READ_BYTES` and copies
each block's columns into the arrays it returns, checking each block as it
goes, so the file is never held whole.
"""

from __future__ import annotations

import csv
import math
import os
import secrets
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .nn import DTYPE

AVFD_MAGIC = b"AVFD"
AVFD_VERSION = 1

_SPLIT_TAG = 101
_BATCH_TAG = 102
# A binary load reads its records in blocks of about this many bytes.
_READ_BYTES = 1 << 20


@dataclass(frozen=True)
class DatasetMeta:
    """Shape card for a dataset: sizes, feature dims, class count."""

    n_pairs: int
    audio_dim: int = 128
    visual_dim: int = 1024
    n_classes: int = 10

    def __post_init__(self) -> None:
        if self.n_pairs < 0:
            raise ConfigError(f"n_pairs must be non-negative, got {self.n_pairs}")
        if self.audio_dim < 1 or self.visual_dim < 1:
            raise ConfigError(
                f"feature dims must be >= 1, got audio {self.audio_dim}, visual {self.visual_dim}"
            )
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")


def _as_features(x) -> np.ndarray:
    """`x` as a feature matrix: float32 stays float32, any other dtype becomes float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(DTYPE, copy=False)


@dataclass
class PairedBatch:
    """Aligned audio/visual feature rows with labels and original pair indices.

    float32 features are kept as they are, and features of any other dtype
    become float64 (`_as_features`); `take`, and so `split` and `batches`,
    keep the dtype they are given.
    """

    audio: np.ndarray
    visual: np.ndarray
    labels: np.ndarray
    indices: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.audio = _as_features(self.audio)
        self.visual = _as_features(self.visual)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.indices is None:
            self.indices = np.arange(len(self.labels), dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        n = self.audio.shape[0]
        if self.audio.ndim != 2 or self.visual.ndim != 2:
            raise ShapeError("audio and visual features must be 2-d matrices")
        if self.visual.shape[0] != n or self.labels.shape != (n,) or self.indices.shape != (n,):
            raise ShapeError(
                f"row counts disagree: audio {n}, visual {self.visual.shape[0]}, "
                f"labels {self.labels.shape}, indices {self.indices.shape}"
            )

    def __len__(self) -> int:
        return self.audio.shape[0]

    def take(self, idx: np.ndarray) -> "PairedBatch":
        """Row subset; pairs stay aligned because every array is sliced together."""
        idx = np.asarray(idx, dtype=np.int64)
        return PairedBatch(self.audio[idx], self.visual[idx], self.labels[idx], self.indices[idx])


@dataclass(frozen=True)
class SyntheticSpec:
    """Gaussian-mixture generator settings.

    Each class owns one audio and one visual centroid (standard normal draws,
    pairwise distinct). A pair of class k is sampled as

        audio  = audio_centroid[k] + noise
        visual = correlation * visual_centroid[k] + (1 - correlation) * independent_draw + noise

    with iid N(0, noise_scale^2) coordinate noise. `label_noise` reassigns that
    fraction of labels uniformly over all classes.
    """

    n_classes: int = 10
    pairs_per_class: int = 40
    audio_dim: int = 128
    visual_dim: int = 1024
    noise_scale: float = 0.05
    correlation: float = 1.0
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_classes < 2:
            raise ConfigError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.pairs_per_class < 1:
            raise ConfigError(f"pairs_per_class must be >= 1, got {self.pairs_per_class}")
        if self.audio_dim < 1 or self.visual_dim < 1:
            raise ConfigError("feature dims must be >= 1")
        if not 0.0 <= self.noise_scale < math.inf:
            raise ConfigError(
                f"noise_scale must be non-negative and finite, got {self.noise_scale}"
            )
        if not 0.0 <= self.correlation <= 1.0:
            raise ConfigError(f"correlation must lie in [0, 1], got {self.correlation}")
        if not 0.0 <= self.label_noise <= 1.0:
            raise ConfigError(f"label_noise must lie in [0, 1], got {self.label_noise}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


def generate_synthetic(spec: SyntheticSpec) -> tuple[DatasetMeta, PairedBatch]:
    """Deterministic synthetic dataset: same spec, same bytes."""
    rng = np.random.default_rng(spec.seed)
    c, p = spec.n_classes, spec.pairs_per_class
    n = c * p
    audio_centroids = rng.standard_normal((c, spec.audio_dim))
    visual_centroids = rng.standard_normal((c, spec.visual_dim))
    labels = np.repeat(np.arange(c, dtype=np.int64), p)

    audio = audio_centroids[labels] + spec.noise_scale * rng.standard_normal((n, spec.audio_dim))
    independent = rng.standard_normal((n, spec.visual_dim))
    visual = (
        spec.correlation * visual_centroids[labels]
        + (1.0 - spec.correlation) * independent
        + spec.noise_scale * rng.standard_normal((n, spec.visual_dim))
    )
    if spec.label_noise > 0.0:
        k = int(round(spec.label_noise * n))
        flip = rng.choice(n, size=k, replace=False)
        labels = labels.copy()
        labels[flip] = rng.integers(0, c, size=k)

    # Quantize to f32, the binary format's precision, so it roundtrips losslessly.
    audio = audio.astype(np.float32)
    visual = visual.astype(np.float32)
    meta = DatasetMeta(
        n_pairs=n, audio_dim=spec.audio_dim, visual_dim=spec.visual_dim, n_classes=c
    )
    return meta, PairedBatch(audio, visual, labels)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        bad = int(np.argmax((labels < 0) | (labels >= n_classes)))
        raise DataError(f"label {labels[bad]} at position {bad} outside [0, {n_classes})")
    out = np.zeros((labels.shape[0], n_classes), dtype=DTYPE)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _record_dtype(audio_dim: int, visual_dim: int) -> np.dtype:
    return np.dtype(
        [("audio", "<f4", (audio_dim,)), ("visual", "<f4", (visual_dim,)), ("label", "<u4")]
    )


def infer_format(path: str | Path) -> str:
    """`csv` for a `.csv` suffix (any case), `binary` for every other path."""
    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return "csv"
    return "binary"


def save_features(path: str | Path, meta: DatasetMeta, data: PairedBatch) -> None:
    """Write a dataset in the on-disk format its suffix names (`infer_format`).

    A dataset that `load_features` would refuse or read back differently (no
    pairs, a label outside [0, meta.n_classes), a value that is not finite as
    written, or in a CSV file, which keeps no class count, a top label other
    than meta.n_classes - 1) raises a `DataError` before the file is opened.
    The file replaces `path` in one rename (`_atomic_write`).
    """
    if len(data) != meta.n_pairs:
        raise ShapeError(f"meta says {meta.n_pairs} pairs but data has {len(data)}")
    if data.audio.shape[1] != meta.audio_dim or data.visual.shape[1] != meta.visual_dim:
        raise ShapeError("feature dims do not match the dataset meta")
    if meta.n_pairs == 0:
        raise DataError("a dataset needs at least one pair, and this one has none")
    _check_labels(data.labels, meta.n_classes)
    if infer_format(path) == "csv":
        top = int(data.labels.max())
        if top != meta.n_classes - 1:
            raise DataError(f"labels only reach {top}: a CSV file keeps no class count, "
                            f"so {meta.n_classes} classes would load as {top + 1}")
        _check_finite(data.audio, data.visual)
        _save_csv(Path(path), data)
    else:
        _save_binary(Path(path), meta, data)


def load_features(path: str | Path) -> tuple[DatasetMeta, PairedBatch]:
    """Read a dataset back; every record is validated (labels in range, finite values)."""
    if infer_format(path) == "csv":
        return _load_csv(Path(path))
    return _load_binary(Path(path))


@contextmanager
def _atomic_write(path: str | Path, mode: str, **open_args):
    """A temporary file beside `path` that replaces it in one rename when the block ends.

    An error inside the block keeps `path` as it was and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    try:
        with open(tmp, mode, **open_args) as f:
            yield f
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # gone already once the rename succeeded


def _save_binary(path: Path, meta: DatasetMeta, data: PairedBatch) -> None:
    header = AVFD_MAGIC + struct.pack(
        "<HIIII", AVFD_VERSION, meta.n_pairs, meta.audio_dim, meta.visual_dim, meta.n_classes
    )
    records = np.empty(len(data), dtype=_record_dtype(meta.audio_dim, meta.visual_dim))
    # A value beyond float32's range becomes inf here, and is refused below.
    with np.errstate(over="ignore"):
        records["audio"] = data.audio
        records["visual"] = data.visual
    _check_finite(records["audio"], records["visual"])
    records["label"] = data.labels
    with _atomic_write(path, "xb") as f:
        f.write(header)
        f.write(records.tobytes())


def _load_binary(path: Path) -> tuple[DatasetMeta, PairedBatch]:
    header_size = 4 + struct.calcsize("<HIIII")
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(header_size)
        if len(header) < header_size:
            raise DataError(f"file too short for a dataset header ({len(header)} bytes)")
        if header[:4] != AVFD_MAGIC:
            raise DataError(f"bad magic {header[:4]!r}, expected {AVFD_MAGIC!r}")
        version, n, audio_dim, visual_dim, n_classes = struct.unpack("<HIIII", header[4:])
        if version != AVFD_VERSION:
            raise DataError(f"unsupported dataset version {version}, expected {AVFD_VERSION}")
        if audio_dim < 1 or visual_dim < 1:
            raise DataError(
                f"invalid feature dims in header: audio {audio_dim}, visual {visual_dim}"
            )
        if n_classes < 2:
            raise DataError(f"invalid class count in header: {n_classes}")
        if n == 0:
            raise DataError("dataset header claims no records")
        # Sized with Python ints and checked against the body before numpy sees
        # the dims, so a crafted header is a truncated file, not a dtype too
        # large to build.
        record_size = 4 * (audio_dim + visual_dim) + 4
        body = size - header_size
        if body // record_size < n:
            raise _truncated(n, body // record_size)
        if body != n * record_size:
            raise DataError(f"{body - n * record_size} trailing bytes after record {n - 1}")
        audio = np.empty((n, audio_dim), dtype=np.float32)
        visual = np.empty((n, visual_dim), dtype=np.float32)
        labels = np.empty(n, dtype=np.int64)
        # Label errors take precedence over non-finite values, as on the CSV
        # path, so the first non-finite record waits for them.
        per_block = max(1, min(n, _READ_BYTES // record_size))
        raw = np.empty(per_block * record_size, dtype=np.uint8)
        record = _record_dtype(audio_dim, visual_dim)
        non_finite = None
        for lo in range(0, n, per_block):
            hi = min(n, lo + per_block)
            part = raw[: (hi - lo) * record_size]
            got = f.readinto(part)
            if got != part.nbytes:  # the file shrank after its size was read
                raise _truncated(n, lo + got // record_size)
            records = part.view(record)
            audio[lo:hi] = records["audio"]
            visual[lo:hi] = records["visual"]
            labels[lo:hi] = records["label"]
            bad = _first_non_finite(audio[lo:hi], visual[lo:hi])
            if non_finite is None and bad is not None:
                non_finite = lo + bad
    _check_labels(labels, n_classes)
    if non_finite is not None:
        raise DataError(f"non-finite feature value at record {non_finite}")
    meta = DatasetMeta(n_pairs=n, audio_dim=audio_dim, visual_dim=visual_dim, n_classes=n_classes)
    return meta, PairedBatch(audio, visual, labels)


def _truncated(n: int, complete: int) -> DataError:
    return DataError(
        f"truncated file: header claims {n} records, found {complete} complete "
        f"(failed at record {complete})"
    )


def _check_labels(labels: np.ndarray, n_classes: int) -> None:
    bad_label = (labels < 0) | (labels >= n_classes)
    if bad_label.any():
        i = int(np.argmax(bad_label))
        raise DataError(f"label {labels[i]} out of range [0, {n_classes}) at record {i}")


def _first_non_finite(audio: np.ndarray, visual: np.ndarray) -> int | None:
    """The first row with a non-finite feature value, or None."""
    finite = np.isfinite(audio).all(axis=1) & np.isfinite(visual).all(axis=1)
    return None if finite.all() else int(np.argmax(~finite))


def _check_finite(audio: np.ndarray, visual: np.ndarray) -> None:
    bad = _first_non_finite(audio, visual)
    if bad is not None:
        raise DataError(f"non-finite feature value at record {bad}")


def _csv_header(audio_dim: int, visual_dim: int) -> list[str]:
    return (
        ["pair_id", "label"]
        + [f"a_{i}" for i in range(audio_dim)]
        + [f"v_{i}" for i in range(visual_dim)]
    )


def _save_csv(path: Path, data: PairedBatch) -> None:
    with _atomic_write(path, "x", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(_csv_header(data.audio.shape[1], data.visual.shape[1]))
        for i in range(len(data)):
            writer.writerow(
                [int(data.indices[i]), int(data.labels[i])]
                + [repr(v) for v in data.audio[i].tolist()]
                + [repr(v) for v in data.visual[i].tolist()]
            )


def _load_csv(path: Path) -> tuple[DatasetMeta, PairedBatch]:
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV file") from None
        audio_dim = sum(1 for name in header if name.startswith("a_"))
        visual_dim = sum(1 for name in header if name.startswith("v_"))
        if header != _csv_header(audio_dim, visual_dim):
            raise DataError(
                "bad CSV header: expected pair_id,label,a_0..a_{A-1},v_0..v_{V-1}"
            )
        audio_rows, visual_rows, labels, indices = [], [], [], []
        for row_idx, row in enumerate(reader):
            if len(row) != len(header):
                raise DataError(f"row {row_idx} has {len(row)} fields, expected {len(header)}")
            try:
                indices.append(int(row[0]))
                labels.append(int(row[1]))
                values = [float(v) for v in row[2:]]
            except ValueError as e:
                raise DataError(f"unparseable value in row {row_idx}: {e}") from None
            audio_rows.append(values[:audio_dim])
            visual_rows.append(values[audio_dim:])
    if not labels:
        raise DataError("CSV contains a header but no records")
    audio = np.asarray(audio_rows, dtype=DTYPE)
    visual = np.asarray(visual_rows, dtype=DTYPE)
    label_arr = np.asarray(labels, dtype=np.int64)
    if label_arr.min() < 0:
        i = int(np.argmax(label_arr < 0))
        raise DataError(f"negative label at row {i}")
    # The CSV header carries no class count; infer it from the labels seen.
    n_classes = int(label_arr.max()) + 1
    if n_classes < 2:
        raise DataError(f"need at least 2 classes, labels only reach {n_classes - 1}")
    _check_finite(audio, visual)
    meta = DatasetMeta(
        n_pairs=len(labels), audio_dim=audio_dim, visual_dim=visual_dim, n_classes=n_classes
    )
    return meta, PairedBatch(audio, visual, label_arr, np.asarray(indices, dtype=np.int64))


def split(
    data: PairedBatch, train_fraction: float, seed: int
) -> tuple[PairedBatch, PairedBatch]:
    """Deterministic stratified split; per-class proportions hold within one sample."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    rng = np.random.default_rng([int(seed), _SPLIT_TAG])
    train_parts, test_parts = [], []
    for cls in np.unique(data.labels):
        members = np.flatnonzero(data.labels == cls)
        if members.size < 2:
            raise DataError(f"class {cls} has {members.size} sample(s), need at least 2 to split")
        perm = members[rng.permutation(members.size)]
        k = int(np.floor(train_fraction * members.size))
        train_parts.append(perm[:k])
        test_parts.append(perm[k:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return data.take(train_idx), data.take(test_idx)


def batches(data: PairedBatch, batch_size: int, epoch: int, seed: int) -> list[PairedBatch]:
    """Epoch-seeded shuffled batches; a final short batch survives only if it has >= 2 pairs."""
    if batch_size < 2:
        raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
    rng = np.random.default_rng([int(seed), _BATCH_TAG, int(epoch)])
    perm = rng.permutation(len(data))
    out = []
    for start in range(0, len(data), batch_size):
        chunk = perm[start : start + batch_size]
        if chunk.size >= 2:
            out.append(data.take(chunk))
    return out
