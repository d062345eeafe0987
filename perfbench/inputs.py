"""Seeded inputs: Gaussian-mixture paired features written as `.avfd` files.

The generator and the writer are the benchmark's own, so the inputs do not
change when the program's generator or writer does. Each class owns one
audio and one visual centroid; a pair of class k is its two centroids plus
N(0, NOISE^2) coordinate noise, stored as float32.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from workloads import Scale

NOISE = 0.05
_AVFD_MAGIC = b"AVFD"
_AVFD_VERSION = 1
_HEADER = "<HIIII"  # version, pairs, audio dim, visual dim, classes (after the magic)


def _record_dtype(a_dim: int, v_dim: int) -> np.dtype:
    return np.dtype([("audio", "<f4", (a_dim,)), ("visual", "<f4", (v_dim,)), ("label", "<u4")])


class Mixture:
    """Class centroids drawn from one seed; `sample` draws pairs around them."""

    def __init__(self, scale: Scale, seed: int) -> None:
        self.scale = scale
        self.rng = np.random.default_rng([seed, 0xDA7A])
        self.audio_centroids = self.rng.standard_normal((scale.classes, scale.audio_dim))
        self.visual_centroids = self.rng.standard_normal((scale.classes, scale.visual_dim))

    def sample(self, pairs_per_class: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        s = self.scale
        labels = np.repeat(np.arange(s.classes), pairs_per_class)
        self.rng.shuffle(labels)
        audio = self.audio_centroids[labels] + NOISE * self.rng.standard_normal(
            (labels.size, s.audio_dim)
        )
        visual = self.visual_centroids[labels] + NOISE * self.rng.standard_normal(
            (labels.size, s.visual_dim)
        )
        return audio.astype(np.float32), visual.astype(np.float32), labels


def write_avfd(
    path: Path, audio: np.ndarray, visual: np.ndarray, labels: np.ndarray, classes: int
) -> None:
    """Little-endian AVFD v1: 22-byte header, then [audio f32][visual f32][u32 label] per pair."""
    n, a_dim = audio.shape
    v_dim = visual.shape[1]
    records = np.empty(n, dtype=_record_dtype(a_dim, v_dim))
    records["audio"] = audio
    records["visual"] = visual
    records["label"] = labels
    with open(path, "wb") as f:
        f.write(_AVFD_MAGIC + struct.pack(_HEADER, _AVFD_VERSION, n, a_dim, v_dim, classes))
        f.write(records.tobytes())


def write_training_file(path: Path, mixture: Mixture, train_fraction: float) -> None:
    """Exactly one batch of training pairs per class-stratified split, the rest held out."""
    s = mixture.scale
    per_class = round(s.batch / s.classes / train_fraction)
    if int(per_class * train_fraction) * s.classes != s.batch:
        raise ValueError(f"batch {s.batch} does not split evenly over {s.classes} classes")
    write_avfd(path, *mixture.sample(per_class), s.classes)


def read_avfd(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Features as float64 and labels as int64, read without the program's loader."""
    raw = Path(path).read_bytes()
    start = len(_AVFD_MAGIC) + struct.calcsize(_HEADER)
    _, n, a_dim, v_dim, _ = struct.unpack(_HEADER, raw[len(_AVFD_MAGIC) : start])
    records = np.frombuffer(raw[start:], dtype=_record_dtype(a_dim, v_dim), count=n)
    return (
        records["audio"].astype(np.float64),
        records["visual"].astype(np.float64),
        records["label"].astype(np.int64),
    )
