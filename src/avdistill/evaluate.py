"""Bidirectional cross-modal retrieval evaluation.

Each test audio row queries the full visual gallery and vice versa; the
query's own counterpart stays in the gallery. Rankings sort ascending by
normalized distance (Euclidean between unit-length embeddings, as in the
triplet loss) with ties resolved to the lowest gallery index, a relevant item
is one sharing the query's class, and average precision is taken over the
full ranked list. Queries whose class has no gallery match are excluded from the
mean and counted in the report.

Each row is ranked by one sort of unsigned 64-bit keys, `(distance bits << 1)
| relevant`: the sorted keys give the relevance of every rank, with no argsort
or gather. The keys are exact on non-negative distances. The bit patterns of
non-negative doubles order as their values do, and the shift drops only the
sign bit, which is 0 (-0.0 wraps to +0.0's key). So a row whose values
strictly increase sorts into its one ascending order, which is the lowest-index
one. Three kinds of row are re-sorted with the stable argsort instead: a row
with an equal pair (two sorted keys that differ in at most the relevance bit,
±0.0 included), a row with a NaN (its last key is above inf's), and a row with
a negative value. AP and P@k are then read from the relevant items' ranks
alone. Rankings, and so every AP and P@k, are the same as a stable sort of
every row. Each AP still sums a full gallery row of hits / rank with zeros at
the irrelevant ranks, so its float summation order is that of the dense
`(hits / ranks) * rel` row.

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

# Query rows ranked at once. The key buffer and the xor, relevance-bit and
# precision temporaries are block x gallery (2 MB each at 64 x 4000), and with
# two usable CPUs both directions hold one block each at the same time. On the
# eval-4k benchmark (2-core host, 4000 x 4000) the overlapped evaluate peaked at
# about 307 or 324 MB with 64 rows (the figure flips between runs), and at about
# 303 or 319 MB with 32 rows, which ranked faster in only 5 of 10 pairs; 128
# rows raised the peak by 20 MB and ranked slower.
_BLOCK = 64
# inf's key with the relevance bit set: only a NaN's key is larger.
_INF_KEY = np.uint64(0x7FF0000000000000 << 1 | 1)


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

    Rows are ranked `_BLOCK` at a time by one sort of their distance-and-
    relevance keys, stably re-sorting only the rows the keys cannot order
    (see the module docstring). AP of one query is (1/R) times the sum of
    hits@r / r over its R relevant ranks r.
    """
    n_rows, n_gallery = dist.shape
    usable_ks = [k for k in ks if 1 <= k <= n_gallery]
    # One pass for the whole direction; a NaN row reads False here, but its
    # last sorted key routes it below.
    negative = dist.min(axis=1) < 0
    keys = np.empty((min(_BLOCK, n_rows), n_gallery), dtype=np.uint64)
    aps = []
    p_at_k: dict[int, list[np.ndarray]] = {k: [] for k in usable_ks}
    for start in range(0, n_rows, _BLOCK):
        rows = slice(start, start + _BLOCK)
        block = dist[rows]
        key = keys[: block.shape[0]]
        # For v2a (rows of dist.T) the shift also gathers the rows contiguously.
        np.left_shift(block.view(np.uint64), 1, out=key)
        key |= labels == labels[rows, None]
        key.sort(axis=1)
        fallback = ((key[:, 1:] ^ key[:, :-1]) <= 1).any(axis=1)
        fallback |= (key[:, -1] > _INF_KEY) | negative[rows]
        if fallback.any():
            order = np.argsort(block[fallback], axis=1, kind="stable")
            # Only the relevance bit is read from here on.
            key[fallback] = labels[order] == labels[rows][fallback, None]
        # Flat indices of the relevant items: rows ascending, ranks within a row.
        relevant = np.flatnonzero(key & 1)
        row, rank = np.divmod(relevant, n_gallery)
        rank += 1
        n_relevant = np.bincount(row, minlength=key.shape[0])
        first = np.cumsum(n_relevant) - n_relevant
        hits = np.arange(1, relevant.size + 1) - np.repeat(first, n_relevant)
        # Zeros at the irrelevant ranks keep each row's pairwise summation
        # order that of the dense (hits / ranks) * rel row.
        precision = np.zeros(key.shape)
        precision.flat[relevant] = hits / rank
        kept = n_relevant > 0
        aps.append(precision.sum(axis=1)[kept] / n_relevant[kept])
        for k in usable_ks:
            p_at_k[k].append(np.bincount(row[rank <= k], minlength=key.shape[0])[kept] / k)
    ap = np.concatenate(aps)
    n = ap.size
    mean_ap = float(np.mean(ap)) if n else 0.0
    table = {k: float(np.mean(np.concatenate(v))) if n else 0.0 for k, v in p_at_k.items()}
    return mean_ap, n, n_rows - n, table


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
