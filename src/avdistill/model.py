"""Two-tower encoder: one dense stack per modality projecting into a shared space.

Both towers end in a linear prediction layer whose width equals the label
space, so audio and visual embeddings are directly comparable there. Hidden
layers are ReLU with dropout; the prediction layer is linear without dropout
and emits raw (unnormalized) projections.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PairedBatch
from .errors import ConfigError, ShapeError
from .nn import DTYPE, DenseLayer, DropoutSpec, SeedLike, seed_list

_AUDIO_TAG = 0
_VISUAL_TAG = 1


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


class Tower:
    """A stack of DenseLayers built from a TowerSpec."""

    def __init__(self, spec: TowerSpec, layers: list[DenseLayer]) -> None:
        self.spec = spec
        self.layers = layers

    @classmethod
    def build(cls, spec: TowerSpec, rng: np.random.Generator) -> "Tower":
        layers = []
        pairs = spec.layer_dims
        for i, (d_in, d_out) in enumerate(pairs):
            activation = "identity" if i == len(pairs) - 1 else "relu"
            layers.append(DenseLayer.create(d_in, d_out, activation, rng))
        return cls(spec, layers)

    @classmethod
    def from_parameters(cls, spec: TowerSpec, tensors: list[np.ndarray]) -> "Tower":
        """Rebuild a tower from a flat [w0, b0, w1, b1, ...] tensor list."""
        pairs = spec.layer_dims
        if len(tensors) != 2 * len(pairs):
            raise ShapeError(f"expected {2 * len(pairs)} tensors, got {len(tensors)}")
        layers = []
        for i in range(len(pairs)):
            activation = "identity" if i == len(pairs) - 1 else "relu"
            layers.append(DenseLayer(tensors[2 * i], tensors[2 * i + 1], activation))
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
        for layer in reversed(self.layers):
            dw, db, grad = layer.backward(grad)
            grads.insert(0, db)
            grads.insert(0, dw)
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
        a = self.audio.forward(batch.audio, training=training, seed_base=[*base, _AUDIO_TAG])
        v = self.visual.forward(batch.visual, training=training, seed_base=[*base, _VISUAL_TAG])
        return EmbeddingBatch(a, v)

    def backward(self, d_audio: np.ndarray, d_visual: np.ndarray) -> list[np.ndarray]:
        """Gradients for every parameter, aligned with parameters()."""
        return self.audio.backward(d_audio) + self.visual.backward(d_visual)

    def parameters(self) -> list[np.ndarray]:
        return self.audio.parameters() + self.visual.parameters()

    def parameter_names(self) -> list[str]:
        names = []
        for tower_name, tower in (("audio", self.audio), ("visual", self.visual)):
            for i in range(len(tower.layers)):
                names.append(f"{tower_name}.layer{i}.weights")
                names.append(f"{tower_name}.layer{i}.bias")
        return names

    def parameter_count(self) -> int:
        return sum(p.size for p in self.parameters())
