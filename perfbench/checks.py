"""Independent recomputation of retrieval mAP, to check `evaluate` against.

`retrieval_aps` re-encodes the features from raw parameter arrays, ranks every
query with a stable sort (ties to the lowest gallery index) and scores AP with
cumulative sums, in row chunks so memory stays near one distance matrix.
`naive_ap` scores one query with plain Python loops; it checks the vectorized
scores on a fixed subsample of queries.
"""

from __future__ import annotations

import numpy as np

_CHUNK = 500


def encode(params: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """ReLU stack from [w0, b0, w1, b1, ...]; the last layer is linear."""
    h = np.asarray(x, dtype=np.float64)
    n_layers = len(params) // 2
    for i in range(n_layers):
        h = h @ params[2 * i] + params[2 * i + 1]
        if i < n_layers - 1:
            h = np.maximum(h, 0.0)
    return h


def normalized_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """|a_i/|a_i| - b_j/|b_j||, via the Gram matrix of the unit rows."""
    ua = a / np.linalg.norm(a, axis=1)[:, None]
    ub = b / np.linalg.norm(b, axis=1)[:, None]
    return np.sqrt(np.clip(2.0 - 2.0 * (ua @ ub.T), 0.0, None))


def retrieval_aps(dist: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """AP of every row of `dist` as a query against its columns as the gallery."""
    aps = np.empty(dist.shape[0])
    ranks = np.arange(1, dist.shape[1] + 1)
    for start in range(0, dist.shape[0], _CHUNK):
        rows = dist[start : start + _CHUNK]
        order = np.argsort(rows, axis=1, kind="stable")
        rel = labels[order] == labels[start : start + rows.shape[0], None]
        precision = np.cumsum(rel, axis=1) / ranks
        aps[start : start + rows.shape[0]] = (precision * rel).sum(axis=1) / rel.sum(axis=1)
    return aps


def naive_ap(distances: list[float], labels: list[int], query_label: int) -> float:
    order = sorted(range(len(distances)), key=lambda j: (distances[j], j))
    hits = 0
    total = 0.0
    for rank, j in enumerate(order, start=1):
        if labels[j] == query_label:
            hits += 1
            total += hits / rank
    return total / hits


def check_map(
    params: list[np.ndarray],
    audio: np.ndarray,
    visual: np.ndarray,
    labels: np.ndarray,
    reported_map: float,
    subsample: int,
    tol: float = 1e-9,
) -> list[str]:
    """Problems found comparing `reported_map` with the recomputation; empty if none."""
    half = len(params) // 2
    emb_a = encode(params[:half], audio)
    emb_v = encode(params[half:], visual)
    dist = normalized_distances(emb_a, emb_v)
    problems = []
    maps = []
    for direction, d in (("a2v", dist), ("v2a", dist.T)):
        aps = retrieval_aps(d, labels)
        maps.append(float(aps.mean()))
        step = max(1, d.shape[0] // subsample)
        for q in range(0, d.shape[0], step):
            slow = naive_ap(d[q].tolist(), labels.tolist(), int(labels[q]))
            if abs(slow - aps[q]) > tol:
                problems.append(f"{direction} query {q}: naive AP {slow!r} vs {aps[q]!r}")
    recomputed = sum(maps) / 2.0
    if abs(recomputed - reported_map) > tol:
        problems.append(f"map_avg {reported_map!r} but recomputed {recomputed!r}")
    return problems
