"""Two-tower encoder: one dense stack per modality projecting into a shared space.

Both towers end in a linear prediction layer whose width equals the label
space, so audio and visual embeddings are directly comparable there. Hidden
layers are ReLU with dropout; the prediction layer is linear without dropout
and emits raw (unnormalized) projections.

The towers share no state, so `TwoTowerModel.encode` and `backward` run the
audio tower on a worker thread while the caller runs the visual tower (see
`nn._overlap`), for batches of at most `_OVERLAP_ROWS` rows. Each tower does
the same float operations either way, so results are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PairedBatch
from .errors import ConfigError, ShapeError
from .nn import DTYPE, DenseLayer, DropoutSpec, SeedLike, _overlap, seed_list

_AUDIO_TAG = 0
_VISUAL_TAG = 1

# Batches of at most this many rows run their two towers at once: the training
# step (400 rows), the teacher pass and train()'s evaluations (600 rows at the
# reference scale). Larger batches, such as a 4000-row evaluate, stay on the
# caller: overlapping one raised peak RSS by 25% (310.6 -> 388.6 MB on the
# eval-4k benchmark), because the worker's malloc arena keeps its freed 31 MiB
# activations, for a 5% faster evaluation.
_OVERLAP_ROWS = 1024


@dataclass(frozen=True)
class TowerSpec:
    """Architecture card for one tower."""

    input_dim: int
    output_dim: int
    hidden_dims: tuple[int, ...] = (1024, 1024, 1024)
    dropout_rate: float = 0.1

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
        if self.input_dim < 1:
            raise ConfigError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.output_dim < 2:
            raise ConfigError(f"output_dim must be >= 2, got {self.output_dim}")
        if not self.hidden_dims:
            raise ConfigError("hidden_dims must name at least one hidden layer")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_dims, self.output_dim]
        return list(zip(dims[:-1], dims[1:]))


def _activations(spec: TowerSpec) -> list[str]:
    """ReLU for every hidden layer, identity for the prediction layer."""
    return ["relu"] * len(spec.hidden_dims) + ["identity"]


class Tower:
    """A stack of DenseLayers built from a TowerSpec."""

    def __init__(self, spec: TowerSpec, layers: list[DenseLayer]) -> None:
        self.spec = spec
        self.layers = layers

    @classmethod
    def build(cls, spec: TowerSpec, rng: np.random.Generator) -> "Tower":
        layers = [
            DenseLayer.create(d_in, d_out, activation, rng)
            for (d_in, d_out), activation in zip(spec.layer_dims, _activations(spec))
        ]
        return cls(spec, layers)

    @classmethod
    def from_parameters(cls, spec: TowerSpec, tensors: list[np.ndarray]) -> "Tower":
        """Rebuild a tower from a flat [w0, b0, w1, b1, ...] tensor list."""
        activations = _activations(spec)
        if len(tensors) != 2 * len(activations):
            raise ShapeError(f"expected {2 * len(activations)} tensors, got {len(tensors)}")
        layers = [
            DenseLayer(w, b, activation)
            for w, b, activation in zip(tensors[::2], tensors[1::2], activations)
        ]
        return cls(spec, layers)

    def forward(self, x: np.ndarray, *, training: bool = False, seed_base: list[int] | None = None) -> np.ndarray:
        out = np.asarray(x, dtype=DTYPE)
        if out.ndim != 2 or out.shape[1] != self.spec.input_dim:
            raise ShapeError(
                f"input shape {out.shape} does not match tower input dim {self.spec.input_dim}"
            )
        base = seed_base or [0]
        for i, layer in enumerate(self.layers):
            dropout = None
            if training and i < len(self.layers) - 1 and self.spec.dropout_rate > 0.0:
                dropout = DropoutSpec(self.spec.dropout_rate, rng_seed=[*base, i])
            out = layer.forward(out, training=training, dropout=dropout)
        return out

    def backward(self, upstream: np.ndarray) -> list[np.ndarray]:
        """Push a gradient through the cached forward; returns [dw0, db0, ...]."""
        grads: list[np.ndarray] = []
        grad = upstream
        for i in reversed(range(len(self.layers))):
            # Layer 0's input gradient would reach the features; nothing reads it.
            dw, db, grad = self.layers[i].backward(grad, input_grad=i > 0)
            grads[:0] = [dw, db]
        return grads

    def parameters(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for layer in self.layers:
            out.append(layer.weights)
            out.append(layer.bias)
        return out


@dataclass
class EmbeddingBatch:
    """Paired projections in the shared space, one row per pair."""

    audio: np.ndarray
    visual: np.ndarray

    def __post_init__(self) -> None:
        self.audio = np.asarray(self.audio, dtype=DTYPE)
        self.visual = np.asarray(self.visual, dtype=DTYPE)
        if self.audio.shape != self.visual.shape:
            raise ShapeError(
                f"audio {self.audio.shape} and visual {self.visual.shape} embeddings must agree"
            )

    def __len__(self) -> int:
        return self.audio.shape[0]


def _towers(rows: int, audio, visual):
    """(audio(), visual()), overlapped when the batch has at most `_OVERLAP_ROWS` rows."""
    if rows <= _OVERLAP_ROWS:
        return _overlap(audio, visual)
    return audio(), visual()


class TwoTowerModel:
    """Audio tower + visual tower sharing an output space."""

    def __init__(self, audio: Tower, visual: Tower) -> None:
        if audio.spec.output_dim != visual.spec.output_dim:
            raise ConfigError(
                f"towers must share an output dim: audio {audio.spec.output_dim}, "
                f"visual {visual.spec.output_dim}"
            )
        self.audio = audio
        self.visual = visual

    @classmethod
    def create(cls, audio_spec: TowerSpec, visual_spec: TowerSpec, seed: int = 0) -> "TwoTowerModel":
        """Seeded init; the same (specs, seed) always yields identical parameters."""
        audio = Tower.build(audio_spec, np.random.default_rng([int(seed), _AUDIO_TAG]))
        visual = Tower.build(visual_spec, np.random.default_rng([int(seed), _VISUAL_TAG]))
        return cls(audio, visual)

    @property
    def output_dim(self) -> int:
        return self.audio.spec.output_dim

    def encode(
        self,
        batch: PairedBatch,
        *,
        training: bool = False,
        step_seed: SeedLike = 0,
    ) -> EmbeddingBatch:
        """Project a batch through both towers.

        Inference mode (training=False) is a pure function of the inputs and
        parameters. Training mode applies dropout with masks derived from
        `step_seed`, so a trainer varies the seed per step and a gradient
        checker keeps it fixed.
        """
        base = seed_list(step_seed)
        a, v = _towers(
            len(batch),
            lambda: self.audio.forward(
                batch.audio, training=training, seed_base=[*base, _AUDIO_TAG]
            ),
            lambda: self.visual.forward(
                batch.visual, training=training, seed_base=[*base, _VISUAL_TAG]
            ),
        )
        return EmbeddingBatch(a, v)

    def backward(self, d_audio: np.ndarray, d_visual: np.ndarray) -> list[np.ndarray]:
        """Gradients for every parameter, aligned with parameters()."""
        d_a, d_v = _towers(
            np.shape(d_audio)[0] if np.ndim(d_audio) else 0,
            lambda: self.audio.backward(d_audio),
            lambda: self.visual.backward(d_visual),
        )
        return d_a + d_v

    def parameters(self) -> list[np.ndarray]:
        return self.audio.parameters() + self.visual.parameters()
