"""Soft alignment between modalities, batch partitioning, and the labeled-fraction schedule.

A teacher pass over a batch scores every (audio i, visual j) candidate with
the logit A[i] . V[j]. Each sample "points at" the opposite-modality batch
position it scores highest; an (audio i, visual j) candidate counts as
positive exactly when both point at the same batch position. Because paired
samples share positions, perfectly aligned embeddings make every sample point
at its own pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, RangeError, ShapeError
from .model import EmbeddingBatch


@dataclass
class SoftAlignment:
    """Mutual-pointing masks over the (audio i, visual j) grid of one batch."""

    positive_mask: np.ndarray
    negative_mask: np.ndarray


def soft_alignment(emb: EmbeddingBatch) -> SoftAlignment:
    """Mutual argmax of the teacher's audio-visual logits A @ V.T."""
    if len(emb) < 1:
        raise ShapeError("soft alignment needs at least one pair")
    logits = emb.audio @ emb.visual.T
    return SoftAlignment(*alignment_masks(logits, logits.T))


def alignment_masks(
    audio_scores: np.ndarray, visual_scores: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mutual-pointing masks: positive[i, j] iff audio i and visual j point at the same position.

    audio_scores[i] scores audio i against every visual batch position and
    visual_scores[j] scores visual j against every audio position; any
    row-score matrices work (logits, softmax rows), since only each row's
    argmax is used. Argmax ties resolve to the lowest index. The two masks
    partition the full i x j grid, so positive XOR negative is all-ones by
    construction.
    """
    audio_scores = np.asarray(audio_scores)
    visual_scores = np.asarray(visual_scores)
    if (
        audio_scores.ndim != 2
        or audio_scores.shape[0] != audio_scores.shape[1]
        or audio_scores.shape != visual_scores.shape
    ):
        raise ShapeError(
            f"alignment matrices must be square and equal-shaped, "
            f"got {audio_scores.shape} and {visual_scores.shape}"
        )
    points_a = np.argmax(audio_scores, axis=1)
    points_v = np.argmax(visual_scores, axis=1)
    positive = points_a[:, None] == points_v[None, :]
    return positive, ~positive


def label_masks(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ground-truth masks: positive[i, j] iff the two pairs share a class label."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-d, got shape {labels.shape}")
    positive = labels[:, None] == labels[None, :]
    return positive, ~positive


@dataclass(frozen=True)
class PartitionPlan:
    """A batch split into a label-supervised part and a soft-supervised part."""

    labeled_idx: np.ndarray
    soft_idx: np.ndarray

    @property
    def n(self) -> int:
        return len(self.labeled_idx) + len(self.soft_idx)


def partition_batch(n: int, labeled_fraction: float, seed) -> PartitionPlan:
    """Uniform random split with exactly floor(labeled_fraction * n) labeled rows.

    Deterministic in (n, fraction, seed); callers derive the seed from
    (run seed, epoch, batch index) so every step has its own split.
    """
    if n < 1:
        raise ShapeError(f"cannot partition an empty batch (n={n})")
    if not 0.0 <= labeled_fraction <= 1.0:
        raise ConfigError(f"labeled_fraction must lie in [0, 1], got {labeled_fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    k = int(math.floor(labeled_fraction * n))
    labeled = np.sort(perm[:k])
    soft = np.sort(perm[k:])
    return PartitionPlan(labeled, soft)


_SCHEDULE_KINDS = ("step", "linear", "cosine")


@dataclass(frozen=True)
class RatioSchedule:
    """Labeled-fraction schedule over epochs, descending from start to end.

    step   : `steps` equal-width plateaus interpolated between start and end.
    linear : straight line from start (epoch 0) to end (epoch total-1).
    cosine : half-cosine from start to end.
    """

    kind: str = "step"
    start: float = 1.0
    end: float = 0.2
    total_epochs: int = 1000
    steps: int = 5

    def __post_init__(self) -> None:
        if self.kind not in _SCHEDULE_KINDS:
            raise ConfigError(f"unknown schedule kind {self.kind!r}, expected {_SCHEDULE_KINDS}")
        if not 0.0 <= self.end <= self.start <= 1.0:
            raise ConfigError(
                f"need 0 <= end <= start <= 1 for a non-increasing schedule, "
                f"got start={self.start}, end={self.end}"
            )
        if self.total_epochs < 1:
            raise ConfigError(f"total_epochs must be >= 1, got {self.total_epochs}")
        if self.steps < 1:
            raise ConfigError(f"steps must be >= 1, got {self.steps}")
        if self.kind == "step" and self.steps == 1 and self.start != self.end:
            raise ConfigError("a single-plateau step schedule requires start == end")

    def at(self, epoch: int) -> float:
        """Labeled fraction for one epoch; raises RangeError outside [0, total_epochs)."""
        if not 0 <= epoch < self.total_epochs:
            raise RangeError(
                f"epoch {epoch} outside schedule range [0, {self.total_epochs})"
            )
        if self.kind == "step":
            return self._plateaus()[(epoch * self.steps) // self.total_epochs]
        if epoch == 0:
            return self.start
        if epoch == self.total_epochs - 1:
            return self.end
        if self.kind == "linear":
            u = (self.total_epochs - 1 - epoch) / (self.total_epochs - 1)
        else:  # cosine
            u = (1.0 + math.cos(math.pi * epoch / (self.total_epochs - 1))) / 2.0
        # end + diff*u with u in [0,1] is monotone under rounding; clamp for safety.
        value = self.end + (self.start - self.end) * u
        return min(self.start, max(self.end, value))

    def _plateaus(self) -> list[float]:
        if self.steps == 1:
            return [self.start]
        values = []
        prev = self.start
        for k in range(self.steps):
            t = k / (self.steps - 1)
            # Two-sided interpolation reproduces decimal plateau values exactly;
            # the clamp stops rounding drift from escaping [end, start].
            v = (1.0 - t) * self.start + t * self.end
            v = min(prev, min(self.start, max(self.end, v)))
            values.append(v)
            prev = v
        return values
