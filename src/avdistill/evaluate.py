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

No n x n array is built. `evaluate` normalizes both embedding sets once, and
each block of query rows gets its distances to the whole gallery in one
buffer, reused block after block: the rows of `ua @ ub.T` for a2v and of
`ub @ ua.T` for v2a, finished in place as the training distances are. A
product's rounding can depend on its shape, but every block starts on a
multiple of `_BLOCK` and ends on one or at the last row, and then (see
`_BLOCK`) its product equals those rows of the whole product bit for bit. The
two orientations are not always bit-equal to each other: `ub @ ua.T` equals
the transpose of `ua @ ub.T` at the reference sizes, 600 and 4000 pairs of
10-d embeddings, but at 599 pairs some distances differ by one ulp.

Every phase of `evaluate` splits its rows in two halves, on any number of
CPUs: the encode (each tower's inference forward, at n // 2) and the rankings,
at n // 2 rounded down to a block boundary. Through `nn._overlap` the worker
thread ranks query rows [0, h) of both a2v and v2a, and the caller ranks the
rest, each through its own buffers; so the halves stay balanced whatever each
direction costs. A row takes the same float operations whichever half ranks
it, and the per-row AP and P@k are joined in row order before their means are
taken, so the report is bit-identical to one unsplit ranking of each
direction.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import PairedBatch
from .errors import NumericError, ShapeError
from .losses import _gram_to_distances, normalize_rows
from .model import TwoTowerModel
from .nn import _overlap

# Query rows ranked at once, and the granule of every row split. With OpenBLAS
# 0.3.31 and one BLAS thread on an AVX-512 Xeon, a block of rows of `ua @ ub.T`
# whose bounds are multiples of 12 (or the last row) equals those rows of the
# whole product bit for bit, at 1 to 4001 rows of 2- to 32-d embeddings;
# blocks at multiples of 64 differed in the last bit at 299, 599 and 1599
# rows. The distance and key buffers and the xor, relevance-bit and precision
# temporaries are block x gallery (1.9 MB each at 60 x 4000), and with two
# usable CPUs both row halves hold one set each at the same time. On the
# eval-4k benchmark (2-core host) the process peaked at 169.9-170.3 MB over 12
# runs, with the features held as float32; with them held as float64 it
# peaked at 187.5-187.9 MB, and at 291.5-292.8 MB when it also built the
# 4000 x 4000 matrix. 36 to 72 rows ranked 4000 pairs equally fast
# in-process, 96 and 120 rows slower.
_BLOCK = 60
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


def _row_blocks(n_rows: int) -> list[slice]:
    """`_BLOCK`-row slices over n_rows rows, a one-row tail folded into the block before it.

    A one-row product would take numpy's matrix-vector path, which rounds
    differently, so only a single query ranks alone.
    """
    starts = list(range(0, n_rows, _BLOCK))
    if len(starts) > 1 and n_rows - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n_rows])]


def _ranked_rows(
    queries: np.ndarray,
    gallery: np.ndarray,
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    ks: tuple[int, ...],
) -> np.ndarray:
    """AP and P@k of each unit-length query row that has a relevant gallery row, in row order.

    Each `_row_blocks` block of queries gets its normalized distances to every
    gallery row in one reused buffer, `queries[rows] @ gallery.T` finished by
    `losses._gram_to_distances`, and is ranked by `_ranked_block`.
    """
    blocks = _row_blocks(queries.shape[0])
    height = max((rows.stop - rows.start for rows in blocks), default=0)
    dist = np.empty((height, gallery.shape[0]))
    keys = np.empty(dist.shape, dtype=np.uint64)
    # The empty piece lets an empty half (below two blocks) concatenate.
    stats = [np.empty((1 + len(ks), 0))]
    for rows in blocks:
        block = dist[: rows.stop - rows.start]
        np.matmul(queries[rows], gallery.T, out=block)
        _gram_to_distances(block)
        key = keys[: len(block)]
        stats.append(_ranked_block(block, query_labels[rows], gallery_labels, ks, key))
    return np.concatenate(stats, axis=1)


def _ranked_block(
    dist: np.ndarray,
    query_labels: np.ndarray,
    gallery_labels: np.ndarray,
    ks: tuple[int, ...],
    keys: np.ndarray,
) -> np.ndarray:
    """AP and P@k of each query row of a distance block that has a relevant item, in row order.

    Returns a (1 + len(ks), kept rows) array: AP in row 0, P@ks[j] in row
    1 + j. Every k must lie in [1, gallery size]. `keys` is a uint64 buffer of
    the block's shape. The rows are ranked by one sort of their
    distance-and-relevance keys, stably re-sorting only the rows the keys
    cannot order (see the module docstring). AP of one query is (1/R) times
    the sum of hits@r / r over its R relevant ranks r.
    """
    n_gallery = dist.shape[1]
    np.left_shift(dist.view(np.uint64), 1, out=keys)
    keys |= gallery_labels == query_labels[:, None]
    keys.sort(axis=1)
    fallback = ((keys[:, 1:] ^ keys[:, :-1]) <= 1).any(axis=1)
    # A NaN row reads False in the minimum, but its last sorted key routes it.
    fallback |= (keys[:, -1] > _INF_KEY) | (dist.min(axis=1) < 0)
    if fallback.any():
        order = np.argsort(dist[fallback], axis=1, kind="stable")
        # Only the relevance bit is read from here on.
        keys[fallback] = gallery_labels[order] == query_labels[fallback, None]
    # Flat indices of the relevant items: rows ascending, ranks within a row.
    relevant = np.flatnonzero((keys & 1).astype(bool))
    row, rank = np.divmod(relevant, n_gallery)
    rank += 1
    n_relevant = np.bincount(row, minlength=keys.shape[0])
    first = np.cumsum(n_relevant) - n_relevant
    hits = np.arange(1, relevant.size + 1) - np.repeat(first, n_relevant)
    # Zeros at the irrelevant ranks keep each row's pairwise summation
    # order that of the dense (hits / ranks) * rel row.
    precision = np.zeros(keys.shape)
    precision.flat[relevant] = hits / rank
    kept = n_relevant > 0
    stats = np.empty((1 + len(ks), int(kept.sum())))
    stats[0] = precision.sum(axis=1)[kept] / n_relevant[kept]
    for j, k in enumerate(ks, 1):
        stats[j] = np.bincount(row[rank <= k], minlength=keys.shape[0])[kept] / k
    return stats


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
    ua, _ = normalize_rows(emb.audio, "audio embeddings")
    ub, _ = normalize_rows(emb.visual, "visual embeddings")
    labels, n = data.labels, len(data)
    usable_ks = tuple(k for k in ks if 1 <= k <= n)

    def rank(rows: slice) -> list[np.ndarray]:
        return [
            _ranked_rows(queries[rows], gallery, labels[rows], labels, usable_ks)
            for queries, gallery in ((ua, ub), (ub, ua))
        ]

    # The halves meet on a block boundary; below two blocks the caller ranks every row.
    half = n // 2 // _BLOCK * _BLOCK
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
