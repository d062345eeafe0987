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

Every phase of `evaluate` splits its rows in two halves at h = n // 2, on any
number of CPUs: the encode (each tower's inference forward), the distance
passes, and the rankings. Through `nn._overlap` the worker thread ranks query
rows [0, h) of both a2v and v2a, and the caller ranks the rest, all reading the
one distance matrix; so the halves stay balanced whatever each direction
costs. A row takes the same float operations whichever half ranks it, and the
per-row AP and P@k are joined in row order before their means are taken, so
the report is bit-identical to one unsplit ranking of each direction. The
rows of dist.T (v2a) are strided, so their keys are built in column tiles.
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
# two usable CPUs both row halves hold one block each at the same time. On the
# eval-4k benchmark (2-core host, 4000 x 4000) evaluate peaked at 291.5-293.0 MB
# over 10 runs with 64 rows. When each thread ranked one whole direction, 64
# rows peaked at about 307 or 324 MB (the figure flipped between runs) and 32
# rows at about 303 or 319 MB, ranking faster in only 5 of 10 pairs; 128 rows
# raised the peak by 20 MB and ranked slower.
_BLOCK = 64
# Columns of a strided block shifted into its keys at once. The rows of dist.T
# are columns of dist, so shifting a whole block row reads one element per
# cache line; a 64 x 256 tile reads 64 contiguous elements from each of 256
# rows of dist and keeps its 128 KB of keys in cache.
_TILE = 256
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


def _ranked_rows(
    dist: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray, ks: tuple[int, ...]
) -> np.ndarray:
    """AP and P@k of each query row of `dist` that has a relevant item, in row order.

    Returns a (1 + len(ks), kept rows) array: AP in row 0, P@ks[j] in row
    1 + j. Every k must lie in [1, gallery size]. Rows are ranked `_BLOCK` at a
    time by one sort of their distance-and-relevance keys, stably re-sorting
    only the rows the keys cannot order (see the module docstring). AP of one
    query is (1/R) times the sum of hits@r / r over its R relevant ranks r.
    """
    n_rows, n_gallery = dist.shape
    # Contiguous rows (a2v) are shifted into their keys in one pass; strided
    # rows (v2a, the rows of dist.T) in column tiles that stay in cache.
    tile = n_gallery if dist.strides[1] == dist.itemsize else _TILE
    # One pass for the whole slice; a NaN row reads False here, but its last
    # sorted key routes it below.
    negative = dist.min(axis=1) < 0
    keys = np.empty((min(_BLOCK, n_rows), n_gallery), dtype=np.uint64)
    # The empty piece lets a half with no rows (one pair in all) concatenate.
    stats = [np.empty((1 + len(ks), 0))]
    for start in range(0, n_rows, _BLOCK):
        rows = slice(start, start + _BLOCK)
        bits = dist[rows].view(np.uint64)
        key = keys[: bits.shape[0]]
        for col in range(0, n_gallery, tile):
            np.left_shift(bits[:, col : col + tile], 1, out=key[:, col : col + tile])
        key |= gallery_labels == query_labels[rows, None]
        key.sort(axis=1)
        fallback = ((key[:, 1:] ^ key[:, :-1]) <= 1).any(axis=1)
        fallback |= (key[:, -1] > _INF_KEY) | negative[rows]
        if fallback.any():
            order = np.argsort(dist[rows][fallback], axis=1, kind="stable")
            # Only the relevance bit is read from here on.
            key[fallback] = gallery_labels[order] == query_labels[rows][fallback, None]
        # Flat indices of the relevant items: rows ascending, ranks within a row.
        relevant = np.flatnonzero((key & 1).astype(bool))
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
        block_stats = np.empty((1 + len(ks), int(kept.sum())))
        block_stats[0] = precision.sum(axis=1)[kept] / n_relevant[kept]
        for j, k in enumerate(ks, 1):
            block_stats[j] = np.bincount(row[rank <= k], minlength=key.shape[0])[kept] / k
        stats.append(block_stats)
    return np.concatenate(stats, axis=1)


def _direction_means(
    stats: np.ndarray, ks: tuple[int, ...]
) -> tuple[float, int, dict[int, float]]:
    """Mean AP, query count and mean P@k of `_ranked_rows` stats, rows in order."""
    n = stats.shape[1]
    mean_ap = float(np.mean(stats[0])) if n else 0.0
    table = {k: float(np.mean(stats[j])) if n else 0.0 for j, k in enumerate(ks, 1)}
    return mean_ap, n, table


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
    labels, n = data.labels, len(data)
    usable_ks = tuple(k for k in ks if 1 <= k <= n)

    def rank(rows: slice) -> list[np.ndarray]:
        return [_ranked_rows(d[rows], labels[rows], labels, usable_ks) for d in (dist, dist.T)]

    half = n // 2
    top, bottom = _overlap(lambda: rank(slice(0, half)), lambda: rank(slice(half, n)))
    (map_a2v, n_a2v, table_a2v), (map_v2a, n_v2a, table_v2a) = (
        _direction_means(np.concatenate(halves, axis=1), usable_ks)
        for halves in zip(top, bottom)
    )
    return RetrievalReport(
        map_a2v=map_a2v,
        map_v2a=map_v2a,
        map_avg=(map_a2v + map_v2a) / 2.0,
        precision_at_k={"a2v": table_a2v, "v2a": table_v2a},
        n_queries_a2v=n_a2v,
        n_queries_v2a=n_v2a,
        n_excluded_a2v=n - n_a2v,
        n_excluded_v2a=n - n_v2a,
    )
