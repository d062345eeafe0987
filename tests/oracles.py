"""Deliberately naive reference implementations used to verify the engine.

Everything here trades speed for obviousness: plain Python loops, one triple
at a time, one query at a time. None of it imports the vectorized code paths
it is checking, beyond the shared dataclasses used to pass inputs around.
"""

from __future__ import annotations

import math

import numpy as np

from avdistill import LossConfig, TripletSet, alignment_masks, softmax_rows


def unit(v: np.ndarray) -> np.ndarray:
    return v / math.sqrt(float(np.dot(v, v)))


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
    takes both directions' argmax off the one logits matrix A.V^T.
    """
    return alignment_masks(softmax_rows(audio @ visual.T), softmax_rows(visual @ audio.T))


def slow_proxy(emb: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """Row-by-row attention mix, or the embeddings untouched."""
    if cfg.proxy == "identity":
        return np.array(emb, copy=True)
    n = emb.shape[0]
    out = np.zeros_like(emb)
    for i in range(n):
        scores = np.array([np.dot(emb[i], emb[j]) / cfg.proxy_temperature for j in range(n)])
        weights = slow_softmax_row(scores)
        for j in range(n):
            out[i] += weights[j] * emb[j]
    return out


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
