"""How the teacher turns embeddings into soft labels and cross-modal triplets.

The teacher scores every (audio i, visual j) pair with the logit A[i].V[j].
Audio i points at the visual row it scores highest (the argmax of row i) and
visual j at the audio row it scores highest (the argmax of column j). Two
positions count as a positive pair when they point at the same batch
position; every other pair is negative, so the two masks always partition
the grid. The labeled fraction of each batch
follows a ratio schedule that decays as training progresses.

Run from the repository root:

    python3 demos/02_soft_alignment_tour.py
"""

import numpy as np

from avdistill import (
    EmbeddingBatch,
    RatioSchedule,
    label_masks,
    one_hot,
    partition_batch,
    soft_alignment,
)

rng = np.random.default_rng(5)
emb = EmbeddingBatch(rng.standard_normal((4, 3)), rng.standard_normal((4, 3)))
logits = emb.audio @ emb.visual.T
align = soft_alignment(emb)

print("teacher logits A.V^T (row i: audio i against every visual j):")
for i, row in enumerate(logits):
    print(f"  audio {i}: " + " ".join(f"{x:+.3f}" for x in row))
print("audio i points at visual  :", logits.argmax(axis=1).tolist())
print("visual j points at audio  :", logits.argmax(axis=0).tolist())

print("\npositive mask (True = treated as a matching pair):")
print(align.positive_mask.astype(int))
# The two masks cover every cell exactly once.
assert (align.positive_mask ^ align.negative_mask).all()

# With exact one-hot class codes the discovered pairs equal the label pairs.
labels = np.array([0, 1, 1, 0])
codes = one_hot(labels, 2).astype(float)
discovered = soft_alignment(EmbeddingBatch(codes.copy(), codes.copy()))
expected_pos, _ = label_masks(labels)
assert np.array_equal(discovered.positive_mask, expected_pos)
print("\none-hot embeddings recover the label mask exactly")

sched = RatioSchedule(kind="step", start=1.0, end=0.2, total_epochs=10, steps=5)
print("\nstep schedule over 10 epochs:",
      [sched.at(e) for e in range(10)])

# At ratio 0.6 a 10-row batch keeps 6 labeled rows and frees 4 for the teacher.
plan = partition_batch(10, sched.at(4), [0, 201])
print(f"epoch 4 partition: {len(plan.labeled_idx)} labeled rows "
      f"{plan.labeled_idx.tolist()}, {len(plan.soft_idx)} soft rows "
      f"{plan.soft_idx.tolist()}")
