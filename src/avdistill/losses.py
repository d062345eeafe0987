"""Training objective: three-term composite loss with hand-derived gradients.

    total = label_weight * label_term + triplet_weight * triplet_term
          + pair_weight * pair_term

label_term   : mean Euclidean distance of each labeled projection to its
               one-hot label row, audio and visual terms added.
triplet_term : cross-modal margin triplets under the normalized distance,
               built from label masks on the labeled subset and teacher
               alignment masks on the soft subset, each reduced as the mean
               hinge over its triples and the two added. Training reduces
               batch-all with per-anchor sorts and batch-hard with masked
               argmax / argmin, never building the triples; the explicit-triples
               reference it must match lives in tests/oracles.py.
pair_term    : mean Euclidean distance between the two projections of each pair.

Embeddings may first pass through an anchor-aware proxy that mixes correlated
same-modality batch rows via attention: out = softmax(E E^T / tau) @ E. All
backward passes here are written by hand against the cached forward state.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .data import PairedBatch, one_hot
from .errors import ConfigError, DataError, NormalizationError, NumericError, ShapeError
from .model import EmbeddingBatch, TwoTowerModel
from .nn import DTYPE, SeedLike, softmax_rows
from .softalign import PartitionPlan, label_masks, soft_alignment

_STRATEGIES = ("all", "hard")
_ANCHOR_MODES = ("audio", "visual", "symmetric")
_PROXIES = ("identity", "attention")


@dataclass(frozen=True)
class LossConfig:
    margin: float = 1.2
    strategy: str = "all"
    anchor_mode: str = "symmetric"
    proxy: str = "attention"
    proxy_temperature: float = 1.0
    label_weight: float = 1.0
    triplet_weight: float = 1.0
    pair_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.margin <= 0.0:
            raise ConfigError(f"margin must be positive, got {self.margin}")
        if self.strategy not in _STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}, expected {_STRATEGIES}")
        if self.anchor_mode not in _ANCHOR_MODES:
            raise ConfigError(f"unknown anchor_mode {self.anchor_mode!r}, expected {_ANCHOR_MODES}")
        if self.proxy not in _PROXIES:
            raise ConfigError(f"unknown proxy {self.proxy!r}, expected {_PROXIES}")
        if self.proxy_temperature <= 0.0:
            raise ConfigError(f"proxy_temperature must be positive, got {self.proxy_temperature}")
        for name in ("label_weight", "triplet_weight", "pair_weight"):
            if getattr(self, name) < 0.0:
                raise ConfigError(f"{name} must be non-negative, got {getattr(self, name)}")


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
    scores = emb @ emb.T / cfg.proxy_temperature
    weights = softmax_rows(scores)
    return weights @ emb, {"emb": emb, "weights": weights}


def _proxy_backward(cache: dict | None, upstream: np.ndarray, cfg: LossConfig) -> np.ndarray:
    if cache is None:  # identity proxy
        return upstream
    emb, weights = cache["emb"], cache["weights"]
    # out = S @ E with S = softmax(E E^T / tau): three gradient paths.
    d_emb = weights.T @ upstream
    d_weights = upstream @ emb.T
    inner = (d_weights * weights).sum(axis=1, keepdims=True)
    d_scores = weights * (d_weights - inner)
    d_emb += (d_scores + d_scores.T) @ emb / cfg.proxy_temperature
    return d_emb


# ---------------------------------------------------------------------------
# normalized distances


def normalize_rows(m: np.ndarray, what: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize rows; a zero row is an error, never silently fudged."""
    m = np.asarray(m, dtype=DTYPE)
    norms = np.linalg.norm(m, axis=1)
    if (norms == 0.0).any():
        row = int(np.argmax(norms == 0.0))
        raise NormalizationError(f"zero vector at row {row} of {what}")
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
    negative_mask: np.ndarray,
    dist: np.ndarray,
    strategy: str,
    anchor_mode: str,
    margin: float,
) -> tuple[float, np.ndarray]:
    """Mean hinge over the triples build_triplets would enumerate, and d/d(dist).

    The training path's reducer: it equals build_triplets followed by the
    explicit-triples reference `triplet_terms` in tests/oracles.py, but never
    materializes the triples, so memory stays O(n^2). Audio anchors read
    mask and distance rows; visual anchors read the transposes, and their
    gradient is added back transposed.
    """
    reduce_side = _batch_all_side if strategy == "all" else _batch_hard_side
    counts = np.zeros(dist.shape, dtype=np.int64)  # gradient in units of 1 / n_triples
    sides = []
    if anchor_mode in ("audio", "symmetric"):
        sides.append((positive_mask, negative_mask, dist, counts))
    if anchor_mode in ("visual", "symmetric"):
        sides.append((positive_mask.T, negative_mask.T, dist.T, counts.T))
    hinges, n_triples = [], 0
    for pos, neg, d, side_counts in sides:
        hinge, grad_counts, side_triples = reduce_side(pos, neg, d, margin)
        side_counts += grad_counts
        hinges.append(hinge)
        n_triples += side_triples
    if n_triples == 0:
        return 0.0, np.zeros_like(dist)
    # Audio-then-visual order, so "hard" sums exactly as the reference's mean.
    value = float(np.concatenate(hinges).sum() / n_triples)
    return value, counts * (1.0 / n_triples)


def _batch_all_side(
    pos: np.ndarray, neg: np.ndarray, dist: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Batch-all for anchors on rows: one sort and prefix sum per anchor.

    Positive p of anchor a is violated by the k negatives q with
    d_aq < d_ap + margin, whose hinges sum to k * (d_ap + margin) - prefix[k].
    O(n^2 log n) time. Returns per-anchor hinge sums, the gradient counts and
    the number of triples.
    """
    n = dist.shape[0]
    neg_dist = np.where(neg, dist, np.inf)  # non-negatives sort last and are never counted
    order = np.argsort(neg_dist, axis=1, kind="stable")
    sorted_neg = np.take_along_axis(neg_dist, order, axis=1)
    prefix = np.zeros((n, n + 1), dtype=dist.dtype)
    np.cumsum(sorted_neg, axis=1, out=prefix[:, 1:])
    threshold = dist + margin
    # The tie rule: negative q is active for positive p iff d_aq < d_ap + margin.
    k = np.stack([np.searchsorted(row, t, side="left") for row, t in zip(sorted_neg, threshold)])
    k = np.where(pos, k, 0)
    hinge = (k * threshold - np.take_along_axis(prefix, k, axis=1)).sum(axis=1)

    # The negative in sorted slot j is active for every positive with k > j.
    cells = (np.arange(n)[:, None] * (n + 1) + k)[pos]
    k_hist = np.bincount(cells, minlength=n * (n + 1)).reshape(n, n + 1)
    at_least = k_hist[:, ::-1].cumsum(axis=1)[:, ::-1]  # [a, j]: positives with k >= j
    grad_counts = np.empty((n, n), dtype=np.int64)
    np.put_along_axis(grad_counts, order, -at_least[:, 1:], axis=1)
    grad_counts += k
    n_triples = int(pos.sum(axis=1) @ neg.sum(axis=1))
    return hinge, grad_counts, n_triples


def _batch_hard_side(
    pos: np.ndarray, neg: np.ndarray, dist: np.ndarray, margin: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Batch-hard for anchors on rows: farthest positive against nearest negative.

    Anchors missing a positive or a negative are skipped; argmax / argmin ties
    resolve to the lowest index, as in build_triplets.
    """
    anchors = np.flatnonzero(pos.any(axis=1) & neg.any(axis=1))
    p = np.argmax(np.where(pos, dist, -np.inf), axis=1)[anchors]
    q = np.argmin(np.where(neg, dist, np.inf), axis=1)[anchors]
    hinge = dist[anchors, p] - dist[anchors, q] + margin
    active = hinge > 0.0
    # One triple per anchor row, so no cell is indexed twice within one update.
    grad_counts = np.zeros(dist.shape, dtype=np.int64)
    grad_counts[anchors[active], p[active]] += 1
    grad_counts[anchors[active], q[active]] -= 1
    return np.maximum(hinge, 0.0), grad_counts, anchors.size


def _distances_with_cache(a: np.ndarray, b: np.ndarray) -> dict:
    ua, na = normalize_rows(a, "audio embeddings")
    ub, nb = normalize_rows(b, "visual embeddings")
    # 2 - 2g built in one n x m buffer; 2 + (-2g) rounds exactly as 2 - 2g.
    dist = ua @ ub.T
    dist *= -2.0
    dist += 2.0
    np.clip(dist, 0.0, None, out=dist)
    np.sqrt(dist, out=dist)
    return {"ua": ua, "ub": ub, "na": na, "nb": nb, "dist": dist}


def _distance_backward(cache: dict, d_dist: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Backward of D[i, j] = |ua_i - ub_j| through the row normalization."""
    ua, ub, dist = cache["ua"], cache["ub"], cache["dist"]
    # dD/d(ua_i) = (ua_i - ub_j) / D; zero-distance pairs get a zero subgradient.
    safe = np.where(dist > 0.0, dist, 1.0)
    g = np.where(dist > 0.0, d_dist / safe, 0.0)
    row_sum = g.sum(axis=1)
    col_sum = g.sum(axis=0)
    d_ua = row_sum[:, None] * ua - g @ ub
    d_ub = col_sum[:, None] * ub - g.T @ ua
    d_a = (d_ua - (d_ua * ua).sum(axis=1, keepdims=True) * ua) / cache["na"][:, None]
    d_b = (d_ub - (d_ub * ub).sum(axis=1, keepdims=True) * ub) / cache["nb"][:, None]
    return d_a, d_b


def _triplet_term(
    emb: EmbeddingBatch,
    subset_masks: list[tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]],
    cfg: LossConfig,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Summed per-subset triplet means and their gradient w.r.t. the raw tower outputs.

    Proxy and distances run once over the whole batch; each subset reduces
    the grid of its own rows under its own masks. Kept out of composite_loss
    so its n x n temporaries are freed before the tower backward.
    """
    proxied_a, cache_a = _proxy_forward(emb.audio, cfg)
    proxied_v, cache_v = _proxy_forward(emb.visual, cfg)
    dcache = _distances_with_cache(proxied_a, proxied_v)
    dist = dcache["dist"]
    value, d_dist = 0.0, np.zeros_like(dist)
    for idx, (pos, neg) in subset_masks:
        grid = np.ix_(idx, idx)
        local_value, d_local = _batch_triplet_reduce(
            pos, neg, dist[grid], cfg.strategy, cfg.anchor_mode, cfg.margin
        )
        value += local_value
        d_dist[grid] += d_local
    d_pa, d_pv = _distance_backward(dcache, d_dist)
    return value, (_proxy_backward(cache_a, d_pa, cfg), _proxy_backward(cache_v, d_pv, cfg))


def label_loss(
    emb: EmbeddingBatch, labels_one_hot: np.ndarray, subset: np.ndarray
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean distance of the subset's projections to their one-hot label rows."""
    labels_one_hot = np.asarray(labels_one_hot, dtype=DTYPE)
    if labels_one_hot.shape != emb.audio.shape:
        raise ShapeError(
            f"one-hot labels shape {labels_one_hot.shape} does not match "
            f"embeddings {emb.audio.shape}"
        )
    is_binary = np.isin(labels_one_hot, (0.0, 1.0)).all(axis=1)
    row_ok = is_binary & (labels_one_hot.sum(axis=1) == 1.0)
    if not row_ok.all():
        raise DataError(f"row {int(np.argmax(~row_ok))} of the label matrix is not one-hot")
    subset = np.asarray(subset, dtype=np.int64)
    d_audio = np.zeros_like(emb.audio)
    d_visual = np.zeros_like(emb.visual)
    if subset.size == 0:
        return 0.0, (d_audio, d_visual)
    value = 0.0
    for matrix, grad in ((emb.audio, d_audio), (emb.visual, d_visual)):
        diff = matrix[subset] - labels_one_hot[subset]
        dist = np.linalg.norm(diff, axis=1)
        value += float(dist.mean())
        safe = np.where(dist > 0.0, dist, 1.0)
        rows = np.where(dist[:, None] > 0.0, diff / safe[:, None], 0.0) / subset.size
        np.add.at(grad, subset, rows)
    return value, (d_audio, d_visual)


def pair_distance_loss(emb: EmbeddingBatch) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean Euclidean distance between the two projections of each pair."""
    n = len(emb)
    if n == 0:
        return 0.0, (np.zeros_like(emb.audio), np.zeros_like(emb.visual))
    diff = emb.audio - emb.visual
    dist = np.linalg.norm(diff, axis=1)
    value = float(dist.mean())
    safe = np.where(dist > 0.0, dist, 1.0)
    d_audio = np.where(dist[:, None] > 0.0, diff / safe[:, None], 0.0) / n
    return value, (d_audio, -d_audio)


# ---------------------------------------------------------------------------
# composite


def composite_loss(
    model: TwoTowerModel,
    batch: PairedBatch,
    plan: PartitionPlan,
    cfg: LossConfig,
    *,
    step_seed: SeedLike = 0,
) -> tuple[LossBreakdown, list[np.ndarray]]:
    """One training step's loss and parameter gradients.

    Teacher first: an inference-mode encode of the soft subset yields alignment
    masks that carry no gradient. Then one training-mode student encode of the
    full batch feeds all three terms; triplet distances are computed once over
    the whole batch (proxy included) and each subset contributes the triples
    its own masks allow.
    """
    n = len(batch)
    if plan.n != n:
        raise ConfigError(f"partition plan covers {plan.n} rows but the batch has {n}")
    subset_masks = []
    if plan.labeled_idx.size > 0:
        subset_masks.append((plan.labeled_idx, label_masks(batch.labels[plan.labeled_idx])))
    if plan.soft_idx.size > 0:
        align = soft_alignment(model.encode(batch.take(plan.soft_idx), training=False))
        subset_masks.append((plan.soft_idx, (align.positive_mask, align.negative_mask)))

    emb = model.encode(batch, training=True, step_seed=step_seed)
    if not (np.isfinite(emb.audio).all() and np.isfinite(emb.visual).all()):
        raise NumericError("non-finite embedding values in the student pass")

    triplet_value, (d_audio_trip, d_visual_trip) = _triplet_term(emb, subset_masks, cfg)

    label_value, (d_audio_lab, d_visual_lab) = label_loss(
        emb, one_hot(batch.labels, model.output_dim), plan.labeled_idx
    )
    pair_value, (d_audio_pair, d_visual_pair) = pair_distance_loss(emb)

    total = (
        cfg.label_weight * label_value
        + cfg.triplet_weight * triplet_value
        + cfg.pair_weight * pair_value
    )
    d_audio = (
        cfg.label_weight * d_audio_lab
        + cfg.triplet_weight * d_audio_trip
        + cfg.pair_weight * d_audio_pair
    )
    d_visual = (
        cfg.label_weight * d_visual_lab
        + cfg.triplet_weight * d_visual_trip
        + cfg.pair_weight * d_visual_pair
    )
    grads = model.backward(d_audio, d_visual)
    return LossBreakdown(label_value, triplet_value, pair_value, total), grads
