"""Deliberately naive reference implementations used to verify the engine.

Everything here trades speed for obviousness: plain Python loops, one triple
at a time, one query at a time. None of it imports the vectorized code paths
it is checking, beyond the shared dataclasses used to pass inputs around.
`stable_direction_metrics` and the dense-step formulas (`whole_tensor_adam_step`,
`dense_forward`, `dense_backward`) are the vectorized exceptions: they pin the
engine's fast paths to the plain whole-tensor forms they must match bit for bit.

The explicit-triples loss (`proxy_transform`, `triplet_terms`,
`cross_modal_triplet_loss`) is the reference for the training path's
batch-all / batch-hard reducer. It gathers one hinge per materialized triple,
and reuses the engine's private proxy and distance code around it:
`losses._proxy_forward`, `losses._distances_with_cache`,
`losses._distance_backward` and `losses._proxy_backward`. The slow triple loop
`slow_triplet_loss` checks those pieces independently.
"""

from __future__ import annotations

import math

import numpy as np

from avdistill import (
    EmbeddingBatch,
    LossConfig,
    NormalizationError,
    ShapeError,
)
from avdistill.losses import (
    TripletSet,
    _distance_backward,
    _distances_with_cache,
    _proxy_backward,
    _proxy_forward,
)
from avdistill.nn import softmax_rows


def unit(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(float(np.dot(v, v)))


def normalized_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Euclidean distance between unit-normalized vectors; lives in [0, 2]."""
    x = np.asarray(x, dtype=np.float64).reshape(-1)
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    if x.shape != y.shape:
        raise ShapeError(f"vectors disagree in length: {x.shape} vs {y.shape}")
    nx = float(np.linalg.norm(x))
    ny = float(np.linalg.norm(y))
    if nx == 0.0 or ny == 0.0:
        raise NormalizationError("cannot normalize a zero vector")
    return float(np.linalg.norm(x / nx - y / ny))


def slow_softmax_row(row: np.ndarray) -> np.ndarray:
    shifted = [x - max(row) for x in row]
    exps = [math.exp(x) for x in shifted]
    total = sum(exps)
    return np.array([e / total for e in exps])


def softmax_pointing_masks(
    audio: np.ndarray, visual: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mutual-pointing masks from two separate softmax matrices, A.V^T and V.A^T.

    Softmax is monotone within a row, so these masks match the engine's, which
    takes both directions' argmax off the one logits matrix A.V^T. Each side
    points at its row's argmax, the lowest index on ties.
    """
    points_a = np.argmax(softmax_rows(audio @ visual.T), axis=1)
    points_v = np.argmax(softmax_rows(visual @ audio.T), axis=1)
    positive = points_a[:, None] == points_v[None, :]
    return positive, ~positive


def slow_proxy(emb: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """Row-by-row attention mix, or the embeddings untouched."""
    if cfg.proxy == "identity":
        return np.array(emb, copy=True)
    n = emb.shape[0]
    out = np.zeros_like(emb)
    for i in range(n):
        scores = np.array([np.dot(emb[i], emb[j]) for j in range(n)])
        weights = slow_softmax_row(scores)
        for j in range(n):
            out[i] += weights[j] * emb[j]
    return out


def proxy_transform(emb: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """The engine's proxy forward alone (identity or batch attention)."""
    return _proxy_forward(emb, cfg)[0]


def triplet_terms(
    distances: np.ndarray, triplets: TripletSet, margin: float
) -> tuple[float, np.ndarray]:
    """Mean hinge over the triples plus its gradient w.r.t. the distance matrix."""
    d_dist = np.zeros_like(distances)
    if len(triplets) == 0:
        return 0.0, d_dist
    # Audio anchors index (anchor, candidate) cells, visual anchors (candidate, anchor).
    a, p, q = triplets.anchor, triplets.positive, triplets.negative
    is_a = triplets.anchor_is_audio
    rows_pos, cols_pos = np.where(is_a, a, p), np.where(is_a, p, a)
    rows_neg, cols_neg = np.where(is_a, a, q), np.where(is_a, q, a)
    hinge = distances[rows_pos, cols_pos] - distances[rows_neg, cols_neg] + margin
    active = hinge > 0.0
    value = float(np.maximum(hinge, 0.0).mean())
    coef = 1.0 / len(triplets)
    np.add.at(d_dist, (rows_pos[active], cols_pos[active]), coef)
    np.add.at(d_dist, (rows_neg[active], cols_neg[active]), -coef)
    return value, d_dist


def cross_modal_triplet_loss(
    emb: EmbeddingBatch, triplets: TripletSet, cfg: LossConfig
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Mean hinge over the given triples; returns the loss and d/d(embeddings).

    The proxy and row normalization sit inside the loss, so the returned
    gradients are with respect to the raw tower outputs.
    """
    if len(triplets) == 0:
        return 0.0, (np.zeros_like(emb.audio), np.zeros_like(emb.visual))
    proxied_a, cache_a = _proxy_forward(emb.audio, cfg)
    proxied_v, cache_v = _proxy_forward(emb.visual, cfg)
    dcache = _distances_with_cache(proxied_a, proxied_v)
    value, d_dist = triplet_terms(dcache["dist"], triplets, cfg.margin)
    d_pa, d_pv = _distance_backward(dcache, d_dist)
    return value, (_proxy_backward(cache_a, d_pa), _proxy_backward(cache_v, d_pv))


def slow_triplet_loss(
    audio: np.ndarray, visual: np.ndarray, triplets: TripletSet, cfg: LossConfig
) -> float:
    """Mean hinge over the triples, one at a time, distances from scratch."""
    if len(triplets) == 0:
        return 0.0
    pa = slow_proxy(audio, cfg)
    pv = slow_proxy(visual, cfg)
    total = 0.0
    for a, p, q, is_audio in zip(
        triplets.anchor, triplets.positive, triplets.negative, triplets.anchor_is_audio
    ):
        if is_audio:
            anchor, pos, neg = pa[a], pv[p], pv[q]
        else:
            anchor, pos, neg = pv[a], pa[p], pa[q]
        d_pos = float(np.linalg.norm(unit(anchor) - unit(pos)))
        d_neg = float(np.linalg.norm(unit(anchor) - unit(neg)))
        total += max(0.0, d_pos - d_neg + cfg.margin)
    return total / len(triplets)


def slow_build_all_triplets(
    pos_mask: np.ndarray, neg_mask: np.ndarray, anchor_mode: str
) -> list[tuple[int, int, int, bool]]:
    """Every admissible (anchor, positive, negative, anchor_is_audio) tuple."""
    n = pos_mask.shape[0]
    out = []
    if anchor_mode in ("audio", "symmetric"):
        for a in range(n):
            for p in range(n):
                for q in range(n):
                    if pos_mask[a][p] and neg_mask[a][q]:
                        out.append((a, p, q, True))
    if anchor_mode in ("visual", "symmetric"):
        for a in range(n):
            for p in range(n):
                for q in range(n):
                    if pos_mask[p][a] and neg_mask[q][a]:
                        out.append((a, p, q, False))
    return out


def slow_build_hard_triplets(
    pos_mask: np.ndarray,
    neg_mask: np.ndarray,
    audio: np.ndarray,
    visual: np.ndarray,
    anchor_mode: str,
) -> list[tuple[int, int, int, bool]]:
    """Each anchor's farthest positive and nearest negative, one distance at a time.

    Ties go to the lowest index; anchors missing a positive or a negative are skipped.
    """
    n = pos_mask.shape[0]
    out = []
    for is_audio in (True, False):
        if anchor_mode != "symmetric" and (anchor_mode == "audio") != is_audio:
            continue
        for a in range(n):
            farthest = nearest = None
            for c in range(n):
                if is_audio:
                    d = normalized_distance(audio[a], visual[c])
                    is_pos, is_neg = pos_mask[a][c], neg_mask[a][c]
                else:
                    d = normalized_distance(visual[a], audio[c])
                    is_pos, is_neg = pos_mask[c][a], neg_mask[c][a]
                if is_pos and (farthest is None or d > farthest[0]):
                    farthest = (d, c)
                if is_neg and (nearest is None or d < nearest[0]):
                    nearest = (d, c)
            if farthest is not None and nearest is not None:
                out.append((a, farthest[1], nearest[1], is_audio))
    return out


def slow_average_precision(relevance: list[int]) -> float:
    hits = 0
    total = 0.0
    for rank, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            total += hits / rank
    if hits == 0:
        raise ValueError("no relevant item")
    return total / hits


def slow_map(dist: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray) -> float:
    """Mean AP over queries, ranking by (distance, index) to mirror the tie rule."""
    aps = []
    for i in range(dist.shape[0]):
        order = sorted(range(dist.shape[1]), key=lambda j: (dist[i][j], j))
        relevance = [int(gallery_labels[j] == query_labels[i]) for j in order]
        if sum(relevance) == 0:
            continue
        aps.append(slow_average_precision(relevance))
    return sum(aps) / len(aps) if aps else 0.0


def slow_precision_at_k(
    dist: np.ndarray, query_labels: np.ndarray, gallery_labels: np.ndarray, k: int
) -> float:
    """Mean share of relevant items in each query's top k, over the queries slow_map keeps."""
    shares = []
    for i in range(dist.shape[0]):
        order = sorted(range(dist.shape[1]), key=lambda j: (dist[i][j], j))
        relevance = [int(gallery_labels[j] == query_labels[i]) for j in order]
        if sum(relevance) == 0:
            continue
        shares.append(sum(relevance[:k]) / k)
    return sum(shares) / len(shares) if shares else 0.0


def stable_direction_metrics(
    dist: np.ndarray, labels: np.ndarray, ks: tuple[int, ...]
) -> tuple[float, int, int, dict[int, float]]:
    """The retrieval kernel with a stable argsort on every row, unblocked.

    `evaluate._direction_metrics` ranks by sorted keys and reads only the
    relevant ranks; the two share only the per-row float summation order: each
    AP sums its full gallery row of (hits / ranks) * rel, zeros included, so
    neither the ranking method nor blocking changes the bits. The two must
    agree exactly.
    """
    ranks = np.arange(1, dist.shape[1] + 1)
    order = np.argsort(dist, axis=1, kind="stable")
    rel = labels[order] == labels[:, None]
    hits = np.cumsum(rel, axis=1)
    kept = hits[:, -1] > 0
    rel, hits = rel[kept], hits[kept]
    ap = ((hits / ranks) * rel).sum(axis=1) / hits[:, -1]
    n = ap.size
    mean_ap = float(np.mean(ap)) if n else 0.0
    table = {
        k: float(np.mean(hits[:, k - 1] / k)) if n else 0.0
        for k in ks
        if 1 <= k <= dist.shape[1]
    }
    return mean_ap, n, dist.shape[0] - n, table


def whole_tensor_adam_step(
    params: list[np.ndarray],
    grads: list[np.ndarray],
    m: list[np.ndarray],
    v: list[np.ndarray],
    t: int,
    lr: float,
    b1: float = 0.9,
    b2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """Adam step `t` (1-based) on whole tensors, updating params, m and v in place."""
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for p, g, mi, vi in zip(params, grads, m, v):
        mi *= b1
        mi += (1.0 - b1) * g
        vi *= b2
        vi += (1.0 - b2) * g * g
        p -= lr * (mi / bias1) / (np.sqrt(vi / bias2) + eps)


def dense_forward(
    x: np.ndarray, weights: np.ndarray, bias: np.ndarray, activation: str, rate: float, seed
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Training forward of one dense layer: (out, pre, mask), every product out of place.

    The inverted-dropout mask is the keep test cast to float, divided by the keep share.
    """
    pre = x @ weights + bias
    out = np.maximum(pre, 0.0) if activation == "relu" else pre
    mask = None
    if rate > 0.0:
        keep = 1.0 - rate
        mask = (np.random.default_rng(seed).random(out.shape) >= rate).astype(np.float64) / keep
        out = out * mask
    return out, pre, mask


def dense_backward(
    x: np.ndarray,
    weights: np.ndarray,
    pre: np.ndarray,
    mask: np.ndarray | None,
    activation: str,
    upstream: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d_weights, d_bias, d_input) of one dense layer, the input gradient always formed."""
    if mask is not None:
        upstream = upstream * mask
    if activation == "relu":
        upstream = upstream * (pre > 0.0)
    return x.T @ upstream, upstream.sum(axis=0), upstream @ weights.T


def nearest_centroid_accuracy(features: np.ndarray, labels: np.ndarray) -> float:
    """Fit per-class means, classify every row by the closest mean."""
    classes = sorted(set(int(c) for c in labels))
    centroids = {c: features[labels == c].mean(axis=0) for c in classes}
    correct = 0
    for i in range(features.shape[0]):
        best = min(classes, key=lambda c: float(np.linalg.norm(features[i] - centroids[c])))
        if best == int(labels[i]):
            correct += 1
    return correct / features.shape[0]


def numeric_gradient(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Dense central-difference gradient of a scalar function of one array."""
    x = np.array(x, dtype=np.float64, copy=True)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        plus = f(x)
        flat[i] = orig - h
        minus = f(x)
        flat[i] = orig
        gflat[i] = (plus - minus) / (2.0 * h)
    return grad
