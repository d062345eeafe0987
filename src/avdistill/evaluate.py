"""Bidirectional cross-modal retrieval evaluation.

One labeled set is ranked against itself: each of its audio rows queries all
of its visual rows and vice versa. Rankings sort ascending by normalized
distance (Euclidean between unit-length embeddings, as in the triplet loss)
with ties resolved to the lowest gallery index, a relevant item is one sharing
the query's class, and average precision is taken over the full ranked list.
The query's own counterpart stays in the gallery, so every query has R >= 1
relevant items and counts in the mean.

A query row is *clear* when every relevant gallery item lies strictly nearer
than every irrelevant one. Its AP is then exactly 1 and its P@k exactly
min(k, R) / k, where R is its number of relevant items: the dense AP row
sums R ones, which is exact, and P@k divides the same integer count by k.
Each row either is *certified* clear before any of its distances exist, and
takes those values with no Gram row, distance finish, sort or AP tail, bit
for bit what the ranking gives, or is ranked. A clear row the certificate
misses is ranked, and gets the same values.

The certificate bounds the row's Gram values g = q . x. Its least g over
its own class is computed exactly, from the query's products with that
class's gallery rows. Every other class is bounded by one ball (the bound of
Elkan, "Using the Triangle Inequality to Accelerate k-Means", ICML 2003,
applied to the clear test): class c gets the mean mu_c of its gallery rows
as centre and a radius r_c no less than any of those rows' distance from
mu_c, and for a query q with |q| <= 1 the Gram value of every class-c item
is at most q . mu_c + r_c, because |q . (x - mu_c)| <= |x - mu_c|. A row is
certified when its least own-class value exceeds the bound of every other
class by more than 2 * `_SLACK`. This is exact. While every row of both sets
has a squared norm of at most 1 + `_SLACK` / 64 (only an underflowed
normalization gives more, and then no row is certified), rounding moves
each of these values by at most a few d * 2^-53 plus the norm slack, under
5e-11 for embedding widths d up to 10^4: the own-class product and the
ranking's Gram block sum the same d terms of near-unit rows, each in its own
order, and so do q . mu_c, r_c and the test's own sums. So a certified row's
least relevant Gram value, as the ranking would compute it, exceeds its
greatest irrelevant one by more than `_SLACK`, and the latter lies below 1 -
`_SLACK`. Every distance is finished from its Gram value by the same four
operations, sqrt(max(2 + (-2g), 0)), each correctly rounded and monotone, so
the finish is monotone non-increasing in g. The two values of 2 + (-2g)
differ by more than 2 * `_SLACK`, the larger one positive, a gap far above
the rounding of that sum and of the square root: the farthest relevant
distance finishes strictly below the nearest irrelevant one, and the row is
clear. A tie at the boundary or a ±0 pair (both finish to sqrt(2)) leaves
no such gap, and its row is ranked.

Every row that is not certified is ranked by one sort of unsigned 64-bit
keys, `(distance bits << 1) | relevant`: the sorted keys give the relevance
of every rank, with no argsort or gather. Every distance is finite and at
least +0: `evaluate` rejects non-finite embeddings and rows whose norm is
zero or overflows, so the Gram values of its unit rows are finite and about
1 at most, and `losses._gram_to_distances` finishes each to sqrt(max(2 +
(-2g), 0)) >= +0. The bit patterns of non-negative doubles order as their
values do, and the shift drops only the sign bit, which is 0. So a row whose
values strictly increase sorts into its one ascending order, which is the
lowest-index one. Only a row with an equal pair (two sorted keys that differ
in at most the relevance bit) is re-sorted, with the stable argsort. AP and
P@k are then read from the relevant items' ranks alone. Rankings, and so
every AP and P@k, are the same as a stable sort of every row. Each AP still
sums a full gallery row of hits / rank with zeros at the irrelevant ranks,
so its float summation order is that of the dense `(hits / ranks) * rel`
row.

No n x n array is built. `evaluate` normalizes both embedding sets once, and
each product of query rows gets its Gram rows against the whole gallery in one
buffer, reused product after product: the rows of `ua @ ub.T` for a2v and of
`ub @ ua.T` for v2a. Only its uncertified rows are kept. They are finished
into distances in place, as the training distances are, and only they get a
relevance mask. A BLAS product's rounding can depend on its shape and, with
more than one BLAS thread, on the position of a row within the product, but
not on the values of its other rows (see `_BLOCK` for the measurement). So the
uncertified rows before the last block are gathered into products of one whole
block each, every row at the position it holds in its own block (the other
positions take certified rows, whose values are not read), and the last block
is multiplied as it stands: every Gram row gets the bits of its block's
product, as if each block were multiplied, and with one BLAS thread those of
the whole product. The two orientations are not always bit-equal to each
other: `ub @ ua.T` equals the transpose of `ua @ ub.T` at the reference sizes,
600 and 4000 pairs of 10-d embeddings, but at 599 pairs some distances differ
by one ulp.

Every long phase of `evaluate` splits its rows in two halves, on any number
of CPUs: the encode (each tower's inference forward, at n // 2) and the
rankings, at n // 2 rounded down to a block boundary. The certificate,
about 1.5 ms per direction on the 4000 pairs of the eval-4k checkpoint, runs
once per direction before the rankings. Through `nn._overlap` the worker
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
from .errors import ShapeError
from .losses import _finite, _gram_to_distances, normalize_rows
from .model import TwoTowerModel
from .nn import _overlap

# Query rows ranked at once, and the granule of every row split. With OpenBLAS
# 0.3.31 and one BLAS thread on an AVX-512 Xeon, a block of rows of
# `ua @ ub.T` whose bounds are multiples of 12 (or the last row) equals those
# rows of the whole product bit for bit, at 1 to 4001 rows of 2- to 32-d
# embeddings; blocks at multiples of 64 differed in the last bit at 299, 599
# and 1599 rows. The reused Gram and key buffers and the xor temporary are at
# most block x gallery (1.9 MB each at 60 x 4000), the relevance mask of a
# product's ranked rows at most an eighth of that, and with two usable CPUs
# both row halves hold one set each at the same time;
# no product of the certificate holds more values than one block. On the
# eval-4k benchmark (2-core host) the process peaks at 157.3-159.3 MB (10
# runs), with the features held as float32. Measured before the class-ball
# certificate, 36 to 72 rows ranked 4000 pairs equally fast in-process, 96 and
# 120 rows slower; 96 rows lift the traced peak of an untrained 3000-pair
# evaluate from 14.2 to 19.7 MB, above a quarter of one distance matrix. Rows
# packed from several blocks into one product at their own block positions
# (see `_ranked_rows`) equalled those rows of the blocks bit for bit in 15
# draws at each of 130 to 4000 rows of 2- to 300-d embeddings, under
# OpenBLAS's SkylakeX, Haswell (also chosen for Zen) and SandyBridge kernels,
# each with 1, 2 and 4 BLAS threads. Rows gathered compactly instead, into
# products of 12 to 60 rows at other positions, kept their bits on every
# kernel with one thread but not on SkylakeX with two or four, at 399, 599 and
# 1599 rows.
_BLOCK = 60
# The certificate's margin (see the module docstring): a row is certified
# clear when its bounds leave a Gram gap above 2 * _SLACK. The rounding the
# bounds must absorb stays below 5e-11 for embedding widths up to 10^4; the
# rows certified on the eval-4k checkpoint leave median gaps of 0.25 (a2v) and
# 0.33 (v2a).
_SLACK = 1e-9


@dataclass
class RetrievalReport:
    """Mean AP and P@k of each direction over every row of one labeled set.

    `n_queries_*` count those rows. `n_excluded_*` are 0 by construction,
    because every query's own counterpart is relevant; they stay so that
    reports and `metrics.jsonl` keep their fields.
    """

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


def _classes(labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's class index, and its class size: the relevant count R >= 1.

    The indices take the smallest unsigned dtype that holds them, which
    compares fastest.
    """
    classes, index, counts = np.unique(labels, return_inverse=True, return_counts=True)
    return index.astype(np.min_scalar_type(classes.size - 1)), counts[index]


def _balls(
    queries: np.ndarray, gallery: np.ndarray, classes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each query's least Gram value over its own class, and each class's centre and radius.

    The queries are the rows of the set the gallery holds, so both share the
    `_classes` indices `classes`. The gallery rows are listed class by class.
    Each class's queries are multiplied by its rows, at most `_BLOCK * n`
    values per product (one Gram block of the set), and each query keeps its
    least value. One `np.add.reduceat` sums each class into its centre, the
    mean of its rows, and one `np.maximum.reduceat` takes its radius, the
    greatest distance of those rows from the centre.
    """
    n = classes.size
    sizes = np.bincount(classes)
    starts = np.cumsum(sizes) - sizes
    order = np.argsort(classes, kind="stable")
    members = np.take(gallery, order, axis=0)
    least = np.empty(n)
    for lo, hi in zip(starts, starts + sizes):
        step = _BLOCK * n // (hi - lo)
        for part in range(lo, hi, step):
            rows = order[part : min(part + step, hi)]
            least[rows] = (queries[rows] @ members[lo:hi].T).min(axis=1)
    centres = np.add.reduceat(members, starts, axis=0) / sizes[:, None]
    members -= np.repeat(centres, sizes, axis=0)
    return least, centres, np.sqrt(np.maximum.reduceat(_squared_norms(members), starts))


def _certified(
    queries: np.ndarray,
    query_class: np.ndarray,
    least: np.ndarray,
    centres: np.ndarray,
    radii: np.ndarray,
) -> np.ndarray:
    """Which unit query rows their class bounds prove clear (see the module docstring).

    `least` holds each query's least Gram value over its own class. Every
    Gram value of a unit query q against a gallery row of class c is at most
    `q . centres[c] + radii[c]`. A row is certified when its least value
    exceeds the bound of every other class by more than `2 * _SLACK`. The
    bounds are computed for column chunks of the queries; a chunk holds no
    more bounds than a Gram block of the set holds values.
    """
    n = queries.shape[0]
    certified = np.empty(n, dtype=bool)
    chunk = _BLOCK * max(1, n // radii.size)
    for lo in range(0, n, chunk):
        rows = slice(lo, min(lo + chunk, n))
        bounds = centres @ queries[rows].T
        bounds += radii[:, None]
        bounds[query_class[rows], np.arange(rows.stop - lo)] = -np.inf
        certified[rows] = least[rows] - bounds.max(axis=0) > 2.0 * _SLACK
    return certified


def _squared_norms(rows: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", rows, rows)


def _ranked_rows(
    queries: np.ndarray,
    gallery: np.ndarray,
    query_class: np.ndarray,
    gallery_class: np.ndarray,
    n_relevant: np.ndarray,
    ks: tuple[int, ...],
    certified: np.ndarray,
) -> np.ndarray:
    """AP and P@k of each query row, in row order.

    The queries are rows of the set the gallery holds, so each has R >= 1
    relevant items; the classes and relevant counts are `_classes`', and
    `certified` marks the rows that `_certified` proves clear. A certified
    row takes AP 1 and P@k min(k, R) / k at once, with no sort. The other
    rows are ranked. Those before the last `_row_blocks` block are packed
    into products of `_BLOCK` rows, each row at its position in its own
    block and certified rows filling the rest, so most certified rows get no
    Gram product; the last block is multiplied as it stands (see the module
    docstring). Every product is an index array of rows, multiplied into
    one reused Gram buffer as `queries[rows] @ gallery.T`. Only its
    uncertified rows are kept (the product itself when every row is): they
    are finished into distances in place by `losses._gram_to_distances`, and
    their relevance mask is built for them alone. `_ranked_block` ranks
    them, and their stats are written to their columns.
    """
    n = queries.shape[0]
    unsure = ~certified
    stats = np.empty((1 + len(ks), n))
    stats[0] = 1.0
    for j, k in enumerate(ks, 1):
        stats[j] = np.minimum(n_relevant, k) / k
    # Product j gathers, at each position of the blocks before the last, the
    # j-th uncertified row there, or a certified row once they run out.
    blocks = _row_blocks(n)
    last = blocks[-1].start if blocks else 0
    packed = unsure[:last].reshape(-1, _BLOCK)
    picks = np.argsort(~packed, axis=0, kind="stable")[: packed.sum(axis=0).max(initial=0)]
    groups = list(picks * _BLOCK + np.arange(_BLOCK))
    if unsure[last:].any():
        groups.append(np.arange(last, n))
    height = max((rows.stop - rows.start for rows in blocks), default=0)
    gram = np.empty((height, gallery.shape[0]))
    keys = np.empty(gram.shape, dtype=np.uint64)
    for rows in groups:
        ranked = unsure[rows]
        kept = rows[ranked]
        # Built before the product: built after it and the row copy, the mask
        # made glibc's malloc fault in 43% more pages per eval-4k evaluate.
        relevant = gallery_class == query_class[kept, None]
        dist = np.matmul(queries[rows], gallery.T, out=gram[: rows.size])
        if kept.size < rows.size:
            dist = dist[ranked]
        _gram_to_distances(dist)
        stats[:, kept] = _ranked_block(dist, relevant, n_relevant[kept], ks, keys[: kept.size])
    return stats


def _ranked_block(
    dist: np.ndarray,
    relevant: np.ndarray,
    n_relevant: np.ndarray,
    ks: tuple[int, ...],
    keys: np.ndarray,
) -> np.ndarray:
    """AP and P@k of each row of a distance block, in row order.

    `dist` must hold finite distances of at least +0, as `evaluate` gives
    them (see the module docstring). `relevant` is the block's relevance
    mask, which this overwrites, and `n_relevant` its row counts, each at
    least 1. Returns a (1 + len(ks), rows) array: AP in row 0, P@ks[j] in
    row 1 + j. Every k must lie in [1, gallery size]. `keys` is a uint64
    buffer of the block's shape. The rows are ranked by one sort of their
    distance-and-relevance keys, stably re-sorting only the rows with an
    equal pair. AP of one query is (1/R) times the sum of hits@r / r over
    its R relevant ranks r.
    """
    n_gallery = dist.shape[1]
    np.left_shift(dist.view(np.uint64), 1, out=keys)
    keys |= relevant
    keys.sort(axis=1)
    fallback = ((keys[:, 1:] ^ keys[:, :-1]) <= 1).any(axis=1)
    if fallback.any():
        order = np.argsort(dist[fallback], axis=1, kind="stable")
        # Only the relevance bit is read from here on.
        keys[fallback] = np.take_along_axis(relevant[fallback], order, axis=1)
    # The relevance of each rank, and the flat indices of the relevant ranks:
    # rows ascending, ranks within a row.
    hit = np.bitwise_and(keys, 1, out=relevant, casting="unsafe")
    flat = np.flatnonzero(hit)
    first = np.cumsum(n_relevant) - n_relevant
    rank = flat + 1 - np.repeat(np.arange(0, dist.size, n_gallery), n_relevant)
    hits = np.arange(1, flat.size + 1) - np.repeat(first, n_relevant)
    # Zeros at the irrelevant ranks keep each row's pairwise summation
    # order that of the dense (hits / ranks) * rel row. The keys are spent.
    precision = keys.view(np.float64)
    precision.fill(0.0)
    np.put(precision, flat, hits / rank)
    stats = np.empty((1 + len(ks), len(dist)))
    stats[0] = precision.sum(axis=1) / n_relevant
    for j, k in enumerate(ks, 1):
        stats[j] = hit[:, :k].sum(axis=1) / k
    return stats


def _direction_means(stats: np.ndarray, ks: tuple[int, ...]) -> tuple[float, dict[int, float]]:
    """Mean AP and mean P@k of `_ranked_rows` stats, rows in order."""
    return float(np.mean(stats[0])), {k: float(np.mean(stats[j])) for j, k in enumerate(ks, 1)}


def evaluate(
    model: TwoTowerModel, data: PairedBatch, *, ks: tuple[int, ...] = (1, 5, 10)
) -> RetrievalReport:
    """Encode a test set in inference mode and score retrieval both ways."""
    if len(data) < 1:
        raise ShapeError("evaluation needs at least one pair")
    emb = _finite(model.encode(data, training=False), "evaluation")
    ua, _ = normalize_rows(emb.audio, "audio embeddings")
    ub, _ = normalize_rows(emb.visual, "visual embeddings")
    n = len(data)
    usable_ks = tuple(k for k in ks if 1 <= k <= n)
    classes, n_relevant = _classes(data.labels)
    # The balls bound unit rows; only an underflowed normalization leaves a longer one.
    unit = max(_squared_norms(ua).max(), _squared_norms(ub).max()) <= 1.0 + _SLACK / 64
    directions = [
        (queries, gallery, _certified(queries, classes, *_balls(queries, gallery, classes))
         if unit else np.zeros(n, dtype=bool))
        for queries, gallery in ((ua, ub), (ub, ua))
    ]

    def rank(rows: slice) -> list[np.ndarray]:
        return [
            _ranked_rows(queries[rows], gallery, classes[rows], classes, n_relevant[rows],
                         usable_ks, certified[rows])
            for queries, gallery, certified in directions
        ]

    # The halves meet on a block boundary; below two blocks the caller ranks every row.
    half = n // 2 // _BLOCK * _BLOCK
    top, bottom = _overlap(lambda: rank(slice(0, half)), lambda: rank(slice(half, n)))
    (map_a2v, table_a2v), (map_v2a, table_v2a) = (
        _direction_means(np.concatenate(halves, axis=1), usable_ks)
        for halves in zip(top, bottom)
    )
    return RetrievalReport(
        map_a2v=map_a2v,
        map_v2a=map_v2a,
        map_avg=(map_a2v + map_v2a) / 2.0,
        precision_at_k={"a2v": table_a2v, "v2a": table_v2a},
        n_queries_a2v=n,
        n_queries_v2a=n,
    )
