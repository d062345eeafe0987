"""Training loop: schedule-driven self-distillation over shuffled batches.

Every step partitions its batch into a labeled part and a soft part according
to the labeled-fraction schedule, computes the composite loss, and applies the
optimizer. One metrics record is emitted per step plus one evaluation record
at the configured cadence (and always after the final epoch). With a fixed
config and seed the whole run is deterministic: partitions, dropout masks, and
batch order are all derived from (seed, epoch, batch index).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .checkpoint import save_checkpoint
from .config import RunConfig
from .data import DatasetMeta, PairedBatch, batches, generate_synthetic, load_features, split
from .errors import EngineError, NumericError
from .evaluate import RetrievalReport, evaluate
from .losses import LossBreakdown, composite_loss
from .model import TwoTowerModel
from .nn import make_optimizer
from .softalign import partition_batch

_PARTITION_TAG = 201
_DROPOUT_TAG = 202

CHECKPOINT_NAME = "model.xmdl"
METRICS_NAME = "metrics.jsonl"


@dataclass
class MetricsRecord:
    kind: str  # "step" or "eval"
    epoch: int
    step: int
    labeled_fraction: float
    loss: LossBreakdown | None = None
    report: RetrievalReport | None = None
    wall_ms: float = 0.0

    def as_dict(self) -> dict:
        out: dict = {
            "kind": self.kind,
            "epoch": self.epoch,
            "step": self.step,
            "labeled_fraction": self.labeled_fraction,
        }
        if self.loss is not None:
            out["loss"] = self.loss.as_dict()
        if self.report is not None:
            out["report"] = self.report.as_dict()
        out["wall_ms"] = self.wall_ms
        return out


@dataclass
class TrainResult:
    model: TwoTowerModel
    meta: DatasetMeta
    records: list[MetricsRecord] = field(default_factory=list)
    final_report: RetrievalReport | None = None
    checkpoint_path: str | None = None
    metrics_path: str | None = None


def resolve_dataset(config: RunConfig) -> tuple[DatasetMeta, PairedBatch]:
    """Load the configured dataset file, or generate the synthetic one."""
    if config.data_path is not None:
        return load_features(config.data_path, config.data_format)
    return generate_synthetic(config.synthetic)


def build_model(config: RunConfig, meta: DatasetMeta) -> TwoTowerModel:
    return TwoTowerModel.create(
        config.tower_spec(meta.audio_dim, meta.n_classes),
        config.tower_spec(meta.visual_dim, meta.n_classes),
        seed=config.seed,
    )


def _check_gradients_finite(grads: list[np.ndarray], epoch: int, batch: int) -> None:
    """Raise before the optimizer sees a NaN or infinite gradient entry."""
    for t, g in enumerate(grads):
        flat = g.ravel()
        # One reduction per tensor; a finite tensor whose square sum overflows
        # is told apart by the full check, which runs only then.
        if not np.isfinite(np.dot(flat, flat)) and not np.isfinite(flat).all():
            raise NumericError(
                f"non-finite gradient at epoch {epoch} batch {batch} "
                f"(phase gradient, tensor {t})"
            )


def train(config: RunConfig) -> TrainResult:
    """Run a full training job; returns the model, metrics, and final evaluation."""
    meta, full = resolve_dataset(config)
    train_data, test_data = split(full, config.train_fraction, config.seed)
    model = build_model(config, meta)
    optimizer = make_optimizer(config.optimizer, config.learning_rate)
    schedule = config.schedule

    out_dir = Path(config.output_dir) if config.output_dir else None
    metrics_file = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        metrics_file = open(out_dir / METRICS_NAME, "w")

    result = TrainResult(model=model, meta=meta)

    def emit(record: MetricsRecord) -> None:
        result.records.append(record)
        if metrics_file is not None:
            metrics_file.write(json.dumps(record.as_dict()) + "\n")

    step = 0
    try:
        for epoch in range(config.epochs):
            fraction = schedule.at(epoch)
            for b, batch in enumerate(batches(train_data, config.batch_size, epoch, config.seed)):
                t0 = time.perf_counter()
                plan = partition_batch(
                    len(batch), fraction, [config.seed, _PARTITION_TAG, epoch, b]
                )
                try:
                    breakdown, grads = composite_loss(
                        model,
                        batch,
                        plan,
                        config.loss,
                        step_seed=[config.seed, _DROPOUT_TAG, epoch, b],
                    )
                except EngineError as e:
                    raise type(e)(f"epoch {epoch} batch {b}: {e}") from e
                values = breakdown.as_dict()
                if not all(np.isfinite(v) for v in values.values()):
                    raise NumericError(
                        f"non-finite loss at epoch {epoch} batch {b}: {values}"
                    )
                _check_gradients_finite(grads, epoch, b)
                optimizer.apply(model.parameters(), grads)
                emit(
                    MetricsRecord(
                        kind="step",
                        epoch=epoch,
                        step=step,
                        labeled_fraction=fraction,
                        loss=breakdown,
                        wall_ms=(time.perf_counter() - t0) * 1000.0,
                    )
                )
                step += 1
            is_last = epoch == config.epochs - 1
            if is_last or (config.eval_every > 0 and (epoch + 1) % config.eval_every == 0):
                t0 = time.perf_counter()
                try:
                    report = evaluate(model, test_data, ks=config.eval_ks)
                except EngineError as e:
                    raise type(e)(f"epoch {epoch} eval: {e}") from e
                result.final_report = report
                emit(
                    MetricsRecord(
                        kind="eval",
                        epoch=epoch,
                        step=step,
                        labeled_fraction=fraction,
                        report=report,
                        wall_ms=(time.perf_counter() - t0) * 1000.0,
                    )
                )
    finally:
        if metrics_file is not None:
            metrics_file.close()

    if out_dir is not None:
        checkpoint_path = out_dir / CHECKPOINT_NAME
        save_checkpoint(model, checkpoint_path)
        result.checkpoint_path = str(checkpoint_path)
        result.metrics_path = str(out_dir / METRICS_NAME)
    return result
