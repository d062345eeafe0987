"""Bidirectional cross-modal retrieval evaluation.

Each test audio row queries the full visual gallery and vice versa; the
query's own counterpart stays in the gallery. Rankings sort ascending by
normalized distance (Euclidean between unit-length embeddings, as in the
triplet loss) with ties resolved to the lowest gallery index, a relevant item
is one sharing the query's class, and average precision is taken over the
full ranked list. Queries whose class has no gallery match are excluded from the
mean and counted in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import PairedBatch
from .errors import DataError, ShapeError
from .losses import pairwise_normalized_distances
from .model import TwoTowerModel
from .nn import DTYPE


@dataclass
class RetrievalReport:
    map_a2v: float
    map_v2a: float
    map_avg: float
    precision_at_k: dict[str, dict[int, float]] = field(default_factory=dict)
    n_queries_a2v: int = 0
    n_queries_v2a: int = 0
    n_excluded_a2v: int = 0
    n_excluded_v2a: int = 0

    def as_dict(self) -> dict:
        return {
            "map_a2v": self.map_a2v,
            "map_v2a": self.map_v2a,
            "map_avg": self.map_avg,
            "precision_at_k": {
                direction: {str(k): v for k, v in table.items()}
                for direction, table in self.precision_at_k.items()
            },
            "n_queries_a2v": self.n_queries_a2v,
            "n_queries_v2a": self.n_queries_v2a,
            "n_excluded_a2v": self.n_excluded_a2v,
            "n_excluded_v2a": self.n_excluded_v2a,
            "distance": "normalized",
        }

    def format_text(self) -> str:
        lines = [
            f"map_a2v = {self.map_a2v:.6f}",
            f"map_v2a = {self.map_v2a:.6f}",
            f"map_avg = {self.map_avg:.6f}",
        ]
        for direction, table in self.precision_at_k.items():
            for k, v in table.items():
                lines.append(f"precision_{direction}@{k} = {v:.6f}")
        lines.append(f"n_queries_a2v = {self.n_queries_a2v}")
        lines.append(f"n_queries_v2a = {self.n_queries_v2a}")
        lines.append(f"n_excluded_a2v = {self.n_excluded_a2v}")
        lines.append(f"n_excluded_v2a = {self.n_excluded_v2a}")
        lines.append("distance = normalized")
        return "\n".join(lines)


def rank_gallery(query: np.ndarray, gallery: np.ndarray) -> np.ndarray:
    """Gallery indices sorted by ascending distance, ties to the lowest index."""
    query = np.asarray(query, dtype=DTYPE).reshape(1, -1)
    gallery = np.asarray(gallery, dtype=DTYPE)
    if gallery.ndim != 2 or gallery.shape[0] == 0:
        raise ShapeError(f"gallery must be a non-empty matrix, got shape {gallery.shape}")
    if gallery.shape[1] != query.shape[1]:
        raise ShapeError(
            f"query dim {query.shape[1]} does not match gallery dim {gallery.shape[1]}"
        )
    return np.argsort(pairwise_normalized_distances(query, gallery)[0], kind="stable")


def average_precision(relevance: np.ndarray) -> float:
    """AP over a ranked 0/1 relevance list: (1/R) * sum over hits of (hits@k / k)."""
    rel = np.asarray(relevance).astype(bool)
    if rel.ndim != 1:
        raise ShapeError(f"relevance must be 1-d, got shape {rel.shape}")
    total = int(rel.sum())
    if total == 0:
        raise DataError("average precision is undefined without a relevant item")
    hits = np.cumsum(rel)
    ranks = np.arange(1, rel.size + 1)
    return float((hits[rel] / ranks[rel]).sum() / total)


def _direction_metrics(
    dist: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray, ks: tuple[int, ...]
) -> tuple[float, int, int, dict[int, float]]:
    aps = []
    excluded = 0
    usable_ks = [k for k in ks if 1 <= k <= gallery_labels.size]
    p_at_k = {k: [] for k in usable_ks}
    for i in range(dist.shape[0]):
        order = np.argsort(dist[i], kind="stable")
        rel = gallery_labels[order] == query_labels[i]
        if not rel.any():
            excluded += 1
            continue
        aps.append(average_precision(rel))
        for k in usable_ks:
            p_at_k[k].append(float(rel[:k].mean()))
    mean_ap = float(np.mean(aps)) if aps else 0.0
    table = {k: (float(np.mean(v)) if v else 0.0) for k, v in p_at_k.items()}
    return mean_ap, len(aps), excluded, table


def evaluate(
    model: TwoTowerModel, data: PairedBatch, *, ks: tuple[int, ...] = (1, 5, 10)
) -> RetrievalReport:
    """Encode a test set in inference mode and score retrieval both ways."""
    if len(data) < 1:
        raise ShapeError("evaluation needs at least one pair")
    emb = model.encode(data, training=False)
    dist = pairwise_normalized_distances(emb.audio, emb.visual)

    labels = data.labels
    map_a2v, n_a2v, excl_a2v, table_a2v = _direction_metrics(dist, labels, labels, ks)
    map_v2a, n_v2a, excl_v2a, table_v2a = _direction_metrics(dist.T, labels, labels, ks)
    return RetrievalReport(
        map_a2v=map_a2v,
        map_v2a=map_v2a,
        map_avg=(map_a2v + map_v2a) / 2.0,
        precision_at_k={"a2v": table_a2v, "v2a": table_v2a},
        n_queries_a2v=n_a2v,
        n_queries_v2a=n_v2a,
        n_excluded_a2v=excl_a2v,
        n_excluded_v2a=excl_v2a,
    )
