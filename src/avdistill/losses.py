"""Training objective: three-term composite loss with hand-derived gradients.

    total = label_term + triplet_term + pair_weight * pair_term

label_term   : mean Euclidean distance of each labeled projection to its
               one-hot label row, audio and visual terms added.
triplet_term : cross-modal margin triplets under the normalized distance.
               Each subset reads one positive mask (labels on the labeled
               subset, teacher alignment on the soft one) and takes every
               other cell as a negative; each is reduced as the mean hinge
               over its triples and the two added. Training reduces batch-all
               with per-anchor sorts, in blocks of `_ANCHOR_BLOCK` anchor rows,
               and batch-hard with masked argmax / argmin, never building the
               triples; a batch-all side holds one n x n count array plus one
               block's temporaries. The explicit-triples reference it must
               match lives in tests/oracles.py.
pair_term    : mean Euclidean distance between the two projections of each pair.

pair_weight is the only weight: the paper's ablation drops the pair term.
Embeddings may first pass through an anchor-aware proxy that mixes correlated
same-modality batch rows via attention: out = softmax(E E^T) @ E. All
backward passes here are written by hand against the cached forward state;
every distance's subgradient at zero is zero.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .data import PairedBatch, one_hot
from .errors import ConfigError, NormalizationError, NumericError, ShapeError
from .model import EmbeddingBatch, TwoTowerModel
from .nn import DTYPE, SeedLike, _overlap, softmax_rows
from .softalign import PartitionPlan, label_masks, soft_alignment

_STRATEGIES = ("all", "hard")
_ANCHOR_MODES = ("audio", "visual", "symmetric")
_PROXIES = ("identity", "attention")
# The batch-all reducer sorts and counts this many anchor rows at a time, so a
# side's temporaries are a few block x n arrays rather than about eight n x n.
_ANCHOR_BLOCK = 64


@dataclass(frozen=True)
class LossConfig:
    margin: float = 1.2
    strategy: str = "all"
    anchor_mode: str = "symmetric"
    proxy: str = "attention"
    pair_weight: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.margin < math.inf:
            raise ConfigError(f"margin must be positive and finite, got {self.margin}")
        if self.strategy not in _STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}, expected {_STRATEGIES}")
        if self.anchor_mode not in _ANCHOR_MODES:
            raise ConfigError(f"unknown anchor_mode {self.anchor_mode!r}, expected {_ANCHOR_MODES}")
        if self.proxy not in _PROXIES:
            raise ConfigError(f"unknown proxy {self.proxy!r}, expected {_PROXIES}")
        if not 0.0 <= self.pair_weight < math.inf:
            raise ConfigError(
                f"pair_weight must be non-negative and finite, got {self.pair_weight}"
            )


@dataclass
class LossBreakdown:
    label_term: float
    triplet_term: float
    pair_term: float
    total: float

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


@dataclass
class TripletSet:
    """Parallel arrays of (anchor, positive, negative) batch-row indices.

    anchor_is_audio marks the anchor's modality: audio anchors rank visual
    candidates and vice versa. Positions refer to rows of one batch, so the
    same set indexes audio and visual matrices interchangeably.

    Training never builds triples; this class and build_triplets stay here
    only because the benchmark wraps and imports build_triplets, and move to
    tests/oracles.py with the next benchmark change.
    """

    anchor: np.ndarray
    positive: np.ndarray
    negative: np.ndarray
    anchor_is_audio: np.ndarray

    def __post_init__(self) -> None:
        self.anchor = np.asarray(self.anchor, dtype=np.int64)
        self.positive = np.asarray(self.positive, dtype=np.int64)
        self.negative = np.asarray(self.negative, dtype=np.int64)
        self.anchor_is_audio = np.asarray(self.anchor_is_audio, dtype=bool)
        n = self.anchor.shape[0]
        if not (
            self.positive.shape == (n,)
            and self.negative.shape == (n,)
            and self.anchor_is_audio.shape == (n,)
        ):
            raise ShapeError("triplet arrays must have equal lengths")

    def __len__(self) -> int:
        return self.anchor.shape[0]

    @classmethod
    def empty(cls) -> "TripletSet":
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z, z, np.zeros(0, dtype=bool))

    @classmethod
    def concatenate(cls, parts: list["TripletSet"]) -> "TripletSet":
        if not parts:
            return cls.empty()
        return cls(
            np.concatenate([p.anchor for p in parts]),
            np.concatenate([p.positive for p in parts]),
            np.concatenate([p.negative for p in parts]),
            np.concatenate([p.anchor_is_audio for p in parts]),
        )


# ---------------------------------------------------------------------------
# anchor-aware proxy


def _proxy_forward(emb: np.ndarray, cfg: LossConfig) -> tuple[np.ndarray, dict | None]:
    emb = np.asarray(emb, dtype=DTYPE)
    if emb.ndim != 2:
        raise ShapeError(f"embeddings must be 2-d, got shape {emb.shape}")
    if cfg.proxy == "identity" or emb.shape[0] == 0:
        return emb, None
    weights = softmax_rows(emb @ emb.T)
    return weights @ emb, {"emb": emb, "weights": weights}


def _proxy_backward(cache: dict | None, upstream: np.ndarray) -> np.ndarray:
    if cache is None:  # identity proxy
        return upstream
    emb, weights = cache["emb"], cache["weights"]
    # out = S @ E with S = softmax(E E^T): three gradient paths. The softmax
    # backward S * (dS - rowsum(dS * S)) runs in place on dS = upstream @ E^T.
    d_emb = weights.T @ upstream
    d_scores = upstream @ emb.T
    inner = (d_scores * weights).sum(axis=1, keepdims=True)
    d_scores -= inner
    d_scores *= weights
    d_scores += d_scores.T.copy()
    d_emb += d_scores @ emb
    return d_emb


# ---------------------------------------------------------------------------
# distances


def _over_distance(num: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """num / dist, with a zero subgradient wherever the distance is zero."""
    return np.where(dist > 0.0, num / np.where(dist > 0.0, dist, 1.0), 0.0)


def _mean_distance(x: np.ndarray, y: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean Euclidean distance between paired rows of x and y, and its gradient w.r.t. x."""
    diff = x - y
    dist = np.linalg.norm(diff, axis=1)
    return float(dist.mean()), _over_distance(diff, dist[:, None]) / dist.size


def normalize_rows(m: np.ndarray, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize rows; a zero or an overflowing norm is an error, never silently fudged."""
    m = np.asarray(m, dtype=DTYPE)
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(m, axis=1)
    for bad, problem in ((norms == 0.0, "zero vector"), (np.isinf(norms), "norm overflows")):
        if bad.any():
            raise NormalizationError(f"{problem} at row {int(np.argmax(bad))} of {what}")
    return m / norms[:, None], norms


def pairwise_normalized_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of normalized distances between rows of a and rows of b."""
    return _distances_with_cache(a, b)["dist"]


# ---------------------------------------------------------------------------
# triplet construction


def build_triplets(
    positive_mask: np.ndarray,
    negative_mask: np.ndarray,
    strategy: str,
    anchor_mode: str,
    distances: np.ndarray,
) -> TripletSet:
    """Enumerate (anchor, positive, negative) index triples from the masks.

    "all" takes every combination per anchor; "hard" keeps one triple per
    anchor, pairing its farthest positive with its nearest negative (argmax /
    argmin ties resolve to the lowest index). Anchors missing a positive or a
    negative are skipped. Audio anchors read mask rows, visual anchors read
    mask columns; `distances` is the audio x visual matrix the hard strategy
    mines against. Training never calls it; see TripletSet.
    """
    if strategy not in _STRATEGIES:
        raise ConfigError(f"unknown strategy {strategy!r}, expected {_STRATEGIES}")
    if anchor_mode not in _ANCHOR_MODES:
        raise ConfigError(f"unknown anchor_mode {anchor_mode!r}, expected {_ANCHOR_MODES}")
    positive_mask = np.asarray(positive_mask, dtype=bool)
    negative_mask = np.asarray(negative_mask, dtype=bool)
    distances = np.asarray(distances, dtype=DTYPE)
    n = positive_mask.shape[0]
    if positive_mask.shape != (n, n) or negative_mask.shape != (n, n):
        raise ShapeError("masks must be square and equal-shaped")
    if distances.shape != (n, n):
        raise ShapeError(f"distances shape {distances.shape} does not match masks {(n, n)}")

    parts = []
    if anchor_mode in ("audio", "symmetric"):
        parts.append(_triplets_one_side(positive_mask, negative_mask, distances, strategy, True))
    if anchor_mode in ("visual", "symmetric"):
        parts.append(
            _triplets_one_side(positive_mask.T, negative_mask.T, distances.T, strategy, False)
        )
    return TripletSet.concatenate(parts)


def _triplets_one_side(
    pos: np.ndarray, neg: np.ndarray, dist: np.ndarray, strategy: str, audio_anchor: bool
) -> TripletSet:
    anchors, positives, negatives = [], [], []
    for a in range(pos.shape[0]):
        p_cand = np.flatnonzero(pos[a])
        n_cand = np.flatnonzero(neg[a])
        if p_cand.size == 0 or n_cand.size == 0:
            continue  # degenerate anchor contributes nothing
        if strategy == "hard":
            p_sel = np.array([p_cand[np.argmax(dist[a, p_cand])]])
            n_sel = np.array([n_cand[np.argmin(dist[a, n_cand])]])
            anchors.append(np.array([a]))
            positives.append(p_sel)
            negatives.append(n_sel)
        else:
            anchors.append(np.full(p_cand.size * n_cand.size, a))
            positives.append(np.repeat(p_cand, n_cand.size))
            negatives.append(np.tile(n_cand, p_cand.size))
    if not anchors:
        return TripletSet.empty()
    anchor = np.concatenate(anchors)
    return TripletSet(
        anchor,
        np.concatenate(positives),
        np.concatenate(negatives),
        np.full(anchor.shape[0], audio_anchor, dtype=bool),
    )


# ---------------------------------------------------------------------------
# loss terms with gradients


def _batch_triplet_reduce(
    positive_mask: np.ndarray,
    dist: np.ndarray,
    strategy: str,
    anchor_mode: str,
    margin: float,
) -> tuple[float, np.ndarray]:
    """Mean hinge over the triples build_triplets would enumerate, and d/d(dist).

    Every cell outside `positive_mask` is a negative. The training path's
    reducer: it equals build_triplets(positive_mask, ~positive_mask, ...)
    followed by the explicit-triples reference `triplet_terms` in
    tests/oracles.py, but never materializes the triples, so memory stays
    O(n^2). Audio anchors read mask and distance rows; visual anchors read
    the transposes, and their gradient counts are added back transposed.
    Under "symmetric" the two sides share nothing they write, so they run at
    once (`nn._overlap`).
    """
    reduce_side = _batch_all_side if strategy == "all" else _batch_hard_side

    def audio() -> tuple[np.ndarray, np.ndarray, int]:
        return reduce_side(positive_mask, dist, margin)

    def visual() -> tuple[np.ndarray, np.ndarray, int]:
        hinge, counts, n_triples = reduce_side(positive_mask.T, dist.T, margin)
        return hinge, counts.T, n_triples

    if anchor_mode == "symmetric":
        sides = _overlap(audio, visual)
    else:
        sides = (audio() if anchor_mode == "audio" else visual(),)
    n_triples = sum(side_triples for _, _, side_triples in sides)
    if n_triples == 0:
        return 0.0, np.zeros_like(dist)
    # Audio-then-visual order, so "hard" sums exactly as the reference's mean.
    # The counts are integers (gradient in units of 1 / n_triples), so their
    # sum is exact in any order.
    value = float(np.concatenate([hinge for hinge, _, _ in sides]).sum() / n_triples)
    counts = sum(side_counts for _, side_counts, _ in sides)
    return value, counts * (1.0 / n_triples)


def _batch_all_side(
    pos: np.ndarray, dist: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Batch-all for anchors on rows, `_ANCHOR_BLOCK` anchors at a time.

    Every non-positive cell of a row is a negative of its anchor. Positive p
    of anchor a is violated by the k negatives q with d_aq < d_ap + margin,
    whose hinges sum to k * (d_ap + margin) - prefix[k]. O(n^2 log n) time.
    Returns one hinge sum per positive cell in row-major order, the gradient
    counts and the number of triples.

    Each anchor's sort, prefix sum and search read only its own row, so a
    block of rows gives the bits the whole array would; the blocks' hinges
    are concatenated in row order. The memory is one block's temporaries
    (about eight block x n arrays) plus the one n x n count array the blocks
    write their rows of.
    """
    n = dist.shape[0]
    grad_counts = np.empty((n, n), dtype=np.int64)
    hinges, n_triples = [], 0
    for lo in range(0, n, _ANCHOR_BLOCK):
        block = slice(lo, lo + _ANCHOR_BLOCK)
        hinge, block_triples = _batch_all_block(pos[block], dist[block], margin, grad_counts[block])
        hinges.append(hinge)
        n_triples += block_triples
    return np.concatenate(hinges), grad_counts, n_triples


def _batch_all_block(
    pos: np.ndarray, dist: np.ndarray, margin: float, grad_counts: np.ndarray
) -> tuple[np.ndarray, int]:
    """Batch-all for one block of anchor rows; writes their rows of `grad_counts`.

    The sort need not be stable: the order of tied values changes no output.
    Sorted values, and so `prefix` and every k, are the same in any tie order.
    When tied finite negatives sit in slots j and j + 1, no positive has
    k = j + 1, because k counts values strictly smaller than its threshold;
    so `k_at_most`, the only thing written through `order`, is equal at the
    two slots. Positives sort last as +inf, past every k, and receive 0 there.
    """
    rows_in_block, n = dist.shape
    neg_dist = np.where(pos, np.inf, dist)  # positives sort last and are never counted
    order = np.argsort(neg_dist, axis=1)
    sorted_neg = np.take_along_axis(neg_dist, order, axis=1)
    del neg_dist
    prefix = np.zeros((rows_in_block, n + 1), dtype=dist.dtype)
    np.cumsum(sorted_neg, axis=1, out=prefix[:, 1:])
    # The tie rule: negative q is active for positive p iff d_aq < d_ap + margin.
    # Only positive cells are ranked; a boolean index lists them row by row.
    pos_count = pos.sum(axis=1)
    bounds = np.concatenate(([0], np.cumsum(pos_count)))
    rows = np.repeat(np.arange(rows_in_block), pos_count)
    pos_threshold = dist[pos] + margin
    pos_k = np.empty(rows.size, dtype=np.int64)
    for a in np.flatnonzero(pos_count):
        lo, hi = bounds[a], bounds[a + 1]
        pos_k[lo:hi] = np.searchsorted(sorted_neg[a], pos_threshold[lo:hi], side="left")
    del sorted_neg
    hinge = pos_k * pos_threshold - prefix[rows, pos_k]
    del prefix, pos_threshold

    # The negative in sorted slot j is active for every positive with k > j,
    # so its count is minus pos_count less the positives with k <= j.
    k_hist = np.bincount(rows * (n + 1) + pos_k, minlength=rows_in_block * (n + 1))
    del rows
    k_at_most = np.cumsum(k_hist.reshape(rows_in_block, n + 1)[:, :-1], axis=1)
    del k_hist
    k_at_most -= pos_count[:, None]
    np.put_along_axis(grad_counts, order, k_at_most, axis=1)
    del order, k_at_most
    grad_counts[pos] += pos_k
    return hinge, int(pos_count @ (n - pos_count))


def _batch_hard_side(
    pos: np.ndarray, dist: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Batch-hard for anchors on rows: farthest positive against nearest negative.

    Anchors missing a positive or a negative are skipped; argmax / argmin ties
    resolve to the lowest index, as in build_triplets.
    """
    anchors = np.flatnonzero(pos.any(axis=1) & ~pos.all(axis=1))
    p = np.argmax(np.where(pos, dist, -np.inf), axis=1)[anchors]
    q = np.argmin(np.where(pos, np.inf, dist), axis=1)[anchors]
    hinge = dist[anchors, p] - dist[anchors, q] + margin
    active = hinge > 0.0
    # One triple per anchor row, so no cell is indexed twice within one update.
    grad_counts = np.zeros(dist.shape, dtype=np.int64)
    grad_counts[anchors[active], p[active]] += 1
    grad_counts[anchors[active], q[active]] -= 1
    return np.maximum(hinge, 0.0), grad_counts, anchors.size


def _distances_with_cache(
    a: np.ndarray, b: np.ndarray, what: tuple[str, str] = ("audio embeddings", "visual embeddings")
) -> dict:
    """Normalized distances between the rows of a and b; `what` names each side's rows in errors."""
    ua, na = normalize_rows(a, what[0])
    ub, nb = normalize_rows(b, what[1])
    # One product over all rows: a row-blocked product rounds differently.
    dist = ua @ ub.T
    _gram_to_distances(dist)
    return {"ua": ua, "ub": ub, "na": na, "nb": nb, "dist": dist}


def _gram_to_distances(gram: np.ndarray) -> None:
    """sqrt(max(2 - 2g, 0)) in place.

    2 + (-2g) rounds exactly as 2 - 2g. Each element takes the same four
    operations whatever rows it is given, so the bits do not depend on how a
    caller splits them: training passes the whole Gram matrix, `evaluate`
    each ranking block.
    """
    gram *= -2.0
    gram += 2.0
    np.maximum(gram, 0.0, out=gram)
    np.sqrt(gram, out=gram)


def _distance_backward(cache: dict, d_dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward of D[i, j] = |ua_i - ub_j| through the row normalization."""
    ua, ub, dist = cache["ua"], cache["ub"], cache["dist"]
    # dD/d(ua_i) = (ua_i - ub_j) / D.
    g = _over_distance(d_dist, dist)
    row_sum = g.sum(axis=1)
    col_sum = g.sum(axis=0)
    d_ua = row_sum[:, None] * ua - g @ ub
    d_ub = col_sum[:, None] * ub - g.T @ ua
    d_a = (d_ua - (d_ua * ua).sum(axis=1, keepdims=True) * ua) / cache["na"][:, None]
    d_b = (d_ub - (d_ub * ub).sum(axis=1, keepdims=True) * ub) / cache["nb"][:, None]
    return d_a, d_b


def _triplet_term(
    emb: EmbeddingBatch,
    subset_positives: list[tuple[np.ndarray, np.ndarray]],
    cfg: LossConfig,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Summed per-subset triplet means and their gradient w.r.t. the raw tower outputs.

    Proxy and distances run once over the whole batch; each subset reduces
    the grid of its own rows under its own positive mask. The audio and visual
    proxies share nothing, so each pass runs them at once (`nn._overlap`).
    Kept out of composite_loss so its n x n temporaries are freed before the
    tower backward.
    """
    (proxied_a, cache_a), (proxied_v, cache_v) = _overlap(
        lambda: _proxy_forward(emb.audio, cfg), lambda: _proxy_forward(emb.visual, cfg)
    )
    dcache = _distances_with_cache(proxied_a, proxied_v, (
        "proxied audio embeddings (triplet distances)",
        "proxied visual embeddings (triplet distances)",
    ))
    dist = dcache["dist"]
    value, d_dist = 0.0, np.zeros_like(dist)
    for idx, pos in subset_positives:
        grid = np.ix_(idx, idx)
        local_value, d_local = _batch_triplet_reduce(
            pos, dist[grid], cfg.strategy, cfg.anchor_mode, cfg.margin
        )
        value += local_value
        d_dist[grid] = d_local  # subset grids never overlap
    d_pa, d_pv = _distance_backward(dcache, d_dist)
    return value, _overlap(
        lambda: _proxy_backward(cache_a, d_pa), lambda: _proxy_backward(cache_v, d_pv)
    )


def label_loss(
    emb: EmbeddingBatch, labels: np.ndarray, subset: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean distance of the subset's projections to their one-hot label rows."""
    labels = np.asarray(labels)
    if labels.shape != (len(emb),):
        raise ShapeError(f"labels shape {labels.shape} does not match {len(emb)} embedding rows")
    subset = np.asarray(subset, dtype=np.int64)
    d_audio = np.zeros_like(emb.audio)
    d_visual = np.zeros_like(emb.visual)
    if subset.size == 0:
        return 0.0, (d_audio, d_visual)
    targets = one_hot(labels[subset], emb.audio.shape[1])
    value = 0.0
    for matrix, grad in ((emb.audio, d_audio), (emb.visual, d_visual)):
        term, rows = _mean_distance(matrix[subset], targets)
        value += term
        np.add.at(grad, subset, rows)
    return value, (d_audio, d_visual)


def pair_distance_loss(emb: EmbeddingBatch) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean Euclidean distance between the two projections of each pair."""
    if len(emb) == 0:
        return 0.0, (np.zeros_like(emb.audio), np.zeros_like(emb.visual))
    value, d_audio = _mean_distance(emb.audio, emb.visual)
    return value, (d_audio, -d_audio)


# ---------------------------------------------------------------------------
# composite


def _finite(emb: EmbeddingBatch, phase: str) -> EmbeddingBatch:
    """`emb` unchanged, or a `NumericError` naming the pass that produced it."""
    if not (np.isfinite(emb.audio).all() and np.isfinite(emb.visual).all()):
        raise NumericError(f"non-finite embedding values in the {phase} pass")
    return emb


def composite_loss(
    model: TwoTowerModel,
    batch: PairedBatch,
    plan: PartitionPlan,
    cfg: LossConfig,
    *,
    step_seed: SeedLike = 0,
) -> tuple[LossBreakdown, list[np.ndarray]]:
    """One training step's loss and parameter gradients.

    Teacher first: an inference-mode encode of the soft subset yields its
    positive mask, which carries no gradient. Then one training-mode student
    encode of the full batch feeds all three terms; triplet distances are
    computed once over the whole batch (proxy included) and each subset
    contributes the triples its own positive mask allows.
    """
    n = len(batch)
    if plan.n != n:
        raise ConfigError(f"partition plan covers {plan.n} rows but the batch has {n}")
    subset_positives = []
    if plan.labeled_idx.size > 0:
        positive, _ = label_masks(batch.labels[plan.labeled_idx])
        subset_positives.append((plan.labeled_idx, positive))
    if plan.soft_idx.size > 0:
        # An all-NaN logit row's argmax is 0: unchecked, NaN would pass as positives.
        teacher = _finite(model.encode(batch.take(plan.soft_idx), training=False), "teacher")
        subset_positives.append((plan.soft_idx, soft_alignment(teacher).positive_mask))

    emb = _finite(model.encode(batch, training=True, step_seed=step_seed), "student")

    triplet_value, (d_audio_trip, d_visual_trip) = _triplet_term(emb, subset_positives, cfg)

    label_value, (d_audio_lab, d_visual_lab) = label_loss(emb, batch.labels, plan.labeled_idx)
    pair_value, (d_audio_pair, d_visual_pair) = pair_distance_loss(emb)

    total = label_value + triplet_value + cfg.pair_weight * pair_value
    d_audio = d_audio_lab + d_audio_trip + cfg.pair_weight * d_audio_pair
    d_visual = d_visual_lab + d_visual_trip + cfg.pair_weight * d_visual_pair
    grads = model.backward(d_audio, d_visual)
    return LossBreakdown(label_value, triplet_value, pair_value, total), grads
