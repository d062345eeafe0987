"""The benchmark's workloads, scales and metric names.

Each workload is one configuration of the public API, run on generated
`.avfd` inputs. `why` says what the workload stresses; BENCHMARK.json repeats
it, and the smoke test checks the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Scale:
    batch: int
    hidden: tuple[int, ...]
    audio_dim: int
    visual_dim: int
    classes: int
    eval_pairs: int  # size of the evaluation file of the "eval" workload
    epochs: int | None  # overrides every workload's epochs when set


# The reference training step of the paper: batch 400, three 1024-unit hidden
# layers, 128-d audio and 1024-d visual features, 10 classes.
REFERENCE = Scale(400, (1024, 1024, 1024), 128, 1024, 10, eval_pairs=4000, epochs=None)
# Tiny shapes for the smoke test; every code path runs, nothing is timed.
SMOKE = Scale(20, (16, 16, 16), 8, 12, 5, eval_pairs=60, epochs=2)

# Training files hold batch / TRAIN_FRACTION pairs, so every epoch is exactly
# one reference step and the remaining pairs are the held-out test split that
# train() evaluates.
TRAIN_FRACTION = 0.4
# Lowest acceptable final map_avg of a train() call at reference scale. On the
# commit that added the benchmark, every run over 20 seeds ended at 0.93 or
# more on labeled-all and soft-hard, and the eval-4k checkpoint at 0.98 or
# more; chance is about 0.1.
MAP_FLOOR = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "train": one operation is a train() call; "eval": load + evaluate
    labeled_fraction: float  # pinned for every epoch (schedule start == end)
    strategy: str
    # Enough epochs for map_avg to converge near 1, so that it does not swing
    # with the seed the way it does over the first ten steps.
    epochs: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="labeled-all",
            why="every row labeled with batch-all triplets: the materialized triplet "
            "build and hinge reduce dominate step time and peak memory",
            kind="train",
            labeled_fraction=1.0,
            strategy="all",
            epochs=12,
        ),
        Workload(
            name="soft-hard",
            why="80% soft rows with batch-hard mining: teacher pass, soft alignment, "
            "dense towers and Adam dominate; the batch-all reducer is bypassed",
            kind="train",
            labeled_fraction=0.2,
            strategy="hard",
            epochs=20,
        ),
        Workload(
            name="eval-4k",
            why="load a reference checkpoint and features, then rank 8000 queries: "
            "the per-query ranking loop dominates and training is bypassed",
            kind="eval",
            # Settings of the train() call that writes the checkpoint in set-up.
            labeled_fraction=1.0,
            strategy="hard",
            epochs=12,
        ),
    )
}

# name -> (unit, better). The order is the order of the result line.
END_TO_END = {
    "train_pairs_per_s": ("1/s", "higher"),
    "eval_queries_per_s": ("1/s", "higher"),
    "map_avg": ("ratio", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# Traced spans: (layer.function, role). A role splits one function by caller;
# its metrics read `<span>.<role>_<field>`, the others `<span>.<field>`.
PER_LAYER = {
    "losses.build_triplets.ms": ("ms/call", "lower"),
    "losses.composite_loss.self_ms": ("ms/call", "lower"),
    "losses.triplets": ("count/step", "lower"),
    "losses.triplets_active_share": ("ratio", "higher"),
    "model.encode.student_ms": ("ms/call", "lower"),
    "model.encode.teacher_ms": ("ms/call", "lower"),
    "model.encode.eval_ms": ("ms/call", "lower"),
    "model.backward.ms": ("ms/call", "lower"),
    "model.gflop": ("GFLOP/op", "lower"),
    "model.gflops": ("GFLOP/s", "higher"),
    "nn.optimizer.apply.ms": ("ms/call", "lower"),
    "nn.optimizer.bytes": ("B/call", "lower"),
    "softalign.soft_alignment.ms": ("ms/call", "lower"),
    "softalign.soft_positives": ("count/step", "higher"),
    "softalign.soft_positive_precision": ("ratio", "higher"),
    "softalign.partition_batch.ms": ("ms/call", "lower"),
    "evaluate.evaluate.self_ms": ("ms/call", "lower"),
    "checkpoint.load.ms": ("ms/call", "lower"),
    "checkpoint.save.ms": ("ms/call", "lower"),
    "data.load_features.ms": ("ms/call", "lower"),
    "data.resolve_dataset.ms": ("ms/call", "lower"),
    "data.batches.ms": ("ms/call", "lower"),
    "train.train.self_ms": ("ms/call", "lower"),
    "train.step_ms": ("ms/step", "lower"),
    "trace.overhead_pct": ("%", "lower"),
    "trace.absent_spans": ("count", "lower"),
    "error_rate": ("ratio", "lower"),
}

