"""Cross-modal retrieval scoring: ranked galleries, AP by hand, MAP both ways.

Every audio embedding queries the full visual gallery and vice versa; a
gallery item is relevant when it shares the query's class. The demo walks
one query's ranking by hand and confirms the reported MAP against it.

Run from the repository root:

    python3 demos/04_retrieval_evaluation.py
"""

import numpy as np

from avdistill import (
    RunConfig,
    SyntheticSpec,
    evaluate,
    generate_synthetic,
    pairwise_normalized_distances,
    split,
    train,
)

config = RunConfig(
    synthetic=SyntheticSpec(n_classes=3, pairs_per_class=10, audio_dim=12,
                            visual_dim=16, noise_scale=0.1, seed=3),
    hidden_dims=(16, 16),
    batch_size=8,
    epochs=8,
    learning_rate=1e-3,
    seed=5,
    eval_every=0,
)
result = train(config)

meta, data = generate_synthetic(config.synthetic)
_, test_data = split(data, config.train_fraction, config.seed)
report = evaluate(result.model, test_data, ks=(1, 3))

print(report.format_text())

# Re-derive one query's ranking by hand: ascending distance, ties to the lowest index.
emb = result.model.encode(test_data)
dist = pairwise_normalized_distances(emb.audio, emb.visual)
labels = test_data.labels


def query_ap(i: int) -> float:
    """AP = (1/R) * sum over relevant ranks r of hits@r / r."""
    order = np.argsort(dist[i], kind="stable")
    relevance = labels[order] == labels[i]
    hits = np.cumsum(relevance)
    ranks = np.arange(1, relevance.size + 1)
    return float((hits[relevance] / ranks[relevance]).sum() / hits[-1])


order = np.argsort(dist[0], kind="stable")
relevance = (labels[order] == labels[0]).astype(int)
print(f"\nquery 0 (class {labels[0]}) gallery order: {order.tolist()}")
print(f"relevance along the ranking: {relevance.tolist()}")
print(f"hits at each rank: {np.cumsum(relevance).tolist()}")
print(f"average precision for query 0: {query_ap(0):.4f}")

# Averaging per-query AP over all audio queries reproduces map_a2v.
aps = [query_ap(i) for i in range(len(test_data))]
print(f"\nmean of per-query APs: {np.mean(aps):.6f}")
print(f"reported map_a2v     : {report.map_a2v:.6f}")
assert abs(np.mean(aps) - report.map_a2v) < 1e-12
