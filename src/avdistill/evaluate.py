"""Bidirectional cross-modal retrieval evaluation.

Each test audio row queries the full visual gallery and vice versa; the
query's own counterpart stays in the gallery. Rankings sort ascending by
normalized distance (Euclidean between unit-length embeddings, as in the
triplet loss) with ties resolved to the lowest gallery index, a relevant item
is one sharing the query's class, and average precision is taken over the
full ranked list. Queries whose class has no gallery match are excluded from the
mean and counted in the report.

Rows are sorted with numpy's default (unstable, vectorized) argsort. A row
whose sorted values strictly increase has exactly one ascending order, so that
order is already the lowest-index one; only rows with an equal pair (±0.0
included) or a NaN are sorted again with the stable argsort. Rankings, and so
every AP and P@k, are the same as a stable sort of every row.

When two or more CPUs are usable, the two directions rank at once through
`nn._overlap`: a2v on the worker thread, v2a on the caller, both reading the
one distance matrix. Each direction does the same float operations on the same
rows as it would alone, so the report is bit-identical to the serial order.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import PairedBatch
from .errors import NumericError, ShapeError
from .losses import pairwise_normalized_distances
from .model import TwoTowerModel
from .nn import _overlap

# Query rows ranked at once. The order, sorted-value, relevance and cumsum
# temporaries are block x gallery, and with two usable CPUs both directions
# hold one block each at the same time, so two blocks must fit where one
# serial block did. On the eval-4k benchmark (2-core host) the overlapped
# evaluate peaked at 366 MB with 256-row blocks and 310-325 MB with 64, against
# 310 MB for the serial 256-row ranking; 32 rows peaked no lower and ranked no
# faster than 64.
_BLOCK = 64


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
        out = dataclasses.asdict(self)
        out["precision_at_k"] = {
            direction: {str(k): v for k, v in table.items()}
            for direction, table in self.precision_at_k.items()
        }
        out["distance"] = "normalized"
        return out

    def format_text(self) -> str:
        """One `name = value` line per `as_dict()` entry, P@k as `precision_{dir}@{k}`."""
        lines = []
        for name, value in self.as_dict().items():
            if name == "precision_at_k":
                lines += [
                    f"precision_{direction}@{k} = {v:.6f}"
                    for direction, table in value.items()
                    for k, v in table.items()
                ]
            elif isinstance(value, float):
                lines.append(f"{name} = {value:.6f}")
            else:
                lines.append(f"{name} = {value}")
        return "\n".join(lines)


def _direction_metrics(
    dist: np.ndarray, labels: np.ndarray, ks: tuple[int, ...]
) -> tuple[float, int, int, dict[int, float]]:
    """Mean AP, query count, excluded count and mean P@k over the query rows of `dist`.

    Rows are ranked `_BLOCK` at a time, stably re-sorting only the tied rows
    (see the module docstring). AP of one query is (1/R) times the sum of
    hits@r / r over its R relevant ranks r.
    """
    n_gallery = dist.shape[1]
    usable_ks = [k for k in ks if 1 <= k <= n_gallery]
    ranks = np.arange(1, n_gallery + 1)
    aps = []
    p_at_k: dict[int, list[np.ndarray]] = {k: [] for k in usable_ks}
    for start in range(0, dist.shape[0], _BLOCK):
        rows = slice(start, start + _BLOCK)
        # A contiguous copy, so the v2a side (rows of dist.T) sorts
        # contiguous rows; for a2v the slice is contiguous already.
        block = np.ascontiguousarray(dist[rows])
        order = np.argsort(block, axis=1)
        ranked = np.take_along_axis(block, order, axis=1)
        tied = ~(ranked[:, 1:] > ranked[:, :-1]).all(axis=1)
        if tied.any():
            order[tied] = np.argsort(block[tied], axis=1, kind="stable")
        rel = labels[order] == labels[rows, None]
        hits = np.cumsum(rel, axis=1)
        kept = hits[:, -1] > 0
        rel, hits = rel[kept], hits[kept]
        aps.append(((hits / ranks) * rel).sum(axis=1) / hits[:, -1])
        for k in usable_ks:
            p_at_k[k].append(hits[:, k - 1] / k)
    ap = np.concatenate(aps)
    n = ap.size
    mean_ap = float(np.mean(ap)) if n else 0.0
    table = {k: float(np.mean(np.concatenate(v))) if n else 0.0 for k, v in p_at_k.items()}
    return mean_ap, n, dist.shape[0] - n, table


def evaluate(
    model: TwoTowerModel, data: PairedBatch, *, ks: tuple[int, ...] = (1, 5, 10)
) -> RetrievalReport:
    """Encode a test set in inference mode and score retrieval both ways."""
    if len(data) < 1:
        raise ShapeError("evaluation needs at least one pair")
    emb = model.encode(data, training=False)
    if not (np.isfinite(emb.audio).all() and np.isfinite(emb.visual).all()):
        raise NumericError("non-finite embedding values in evaluation")
    dist = pairwise_normalized_distances(emb.audio, emb.visual)
    (map_a2v, n_a2v, excl_a2v, table_a2v), (map_v2a, n_v2a, excl_v2a, table_v2a) = _overlap(
        lambda: _direction_metrics(dist, data.labels, ks),
        lambda: _direction_metrics(dist.T, data.labels, ks),
    )
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
