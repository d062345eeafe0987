"""Cross-modal audio-visual metric learning with progressive self-distillation.

A from-scratch numpy engine: two dense towers project paired audio and visual
features into a shared label-dimension space, trained with a three-term
objective (label regression, cross-modal margin triplets over soft or label
adjacency, pair distance) where a declining fraction of each batch keeps its
ground-truth labels while the rest is supervised by the model's own
inference-mode alignments.
"""

from .bench import bench, format_table
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_manifest
from .data import (
    DatasetMeta,
    PairedBatch,
    SyntheticSpec,
    batches,
    generate_synthetic,
    load_features,
    one_hot,
    save_features,
    split,
)
from .errors import (
    ConfigError,
    DataError,
    DeterminismError,
    EngineError,
    FormatError,
    NormalizationError,
    NumericError,
    RangeError,
    ShapeError,
    StateError,
)
from .evaluate import RetrievalReport, evaluate
from .gradcheck import grad_check
from .losses import (
    LossBreakdown,
    LossConfig,
    build_triplets,
    composite_loss,
    pairwise_normalized_distances,
)
from .model import EmbeddingBatch, TowerSpec, TwoTowerModel
from .softalign import (
    PartitionPlan,
    RatioSchedule,
    label_masks,
    partition_batch,
    soft_alignment,
)
from .train import MetricsRecord, TrainResult, build_model, resolve_dataset, train

__version__ = "0.1.0"
