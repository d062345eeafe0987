"""Dense-network numeric core.

Everything here runs on 64-bit numpy arrays: fully connected layers with
cached forward state for hand-written backprop, inverted dropout, numerically
stable row softmax, and the two optimizers (SGD, Adam). No autodiff graph is
involved; each layer knows how to push an upstream gradient through itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError, StateError

DTYPE = np.float64

SeedLike = int | Sequence[int]

_ACTIVATIONS = ("relu", "identity")


def seed_list(seed: SeedLike) -> list[int]:
    """Normalize a seed (int or sequence of ints) to a list for np RNG seeding."""
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction so large logits cannot overflow."""
    m = np.asarray(logits, dtype=DTYPE)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"softmax_rows needs a non-empty 2-d matrix, got shape {m.shape}")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def he_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init scaled for ReLU layers: limit = sqrt(6 / fan_in)."""
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(DTYPE)


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init for linear output layers: limit = sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(DTYPE)


@dataclass(frozen=True)
class DropoutSpec:
    """Inverted dropout: zero units with probability `rate`, scale the rest by 1/(1-rate).

    The mask is drawn from a generator seeded with `rng_seed`, so the same spec
    always produces the same mask for a given shape.
    """

    rate: float
    rng_seed: SeedLike = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate must lie in [0, 1), got {self.rate}")


class DenseLayer:
    """One fully connected layer: out = act(x @ weights + bias), optionally masked.

    A training-mode forward caches its inputs, pre-activations, and dropout
    mask; backward replays that cache. Inference-mode forwards leave the cache
    untouched so a pending backward is never invalidated by a side evaluation.
    """

    def __init__(self, weights: np.ndarray, bias: np.ndarray, activation: str = "relu") -> None:
        weights = np.asarray(weights, dtype=DTYPE)
        bias = np.asarray(bias, dtype=DTYPE)
        if weights.ndim != 2:
            raise ShapeError(f"weights must be 2-d, got shape {weights.shape}")
        if bias.shape != (weights.shape[1],):
            raise ShapeError(
                f"bias shape {bias.shape} does not match weight columns {weights.shape[1]}"
            )
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {activation!r}, expected one of {_ACTIVATIONS}")
        self.weights = weights
        self.bias = bias
        self.activation = activation
        self._cache: dict | None = None

    @classmethod
    def create(
        cls,
        in_dim: int,
        out_dim: int,
        activation: str,
        rng: np.random.Generator,
    ) -> "DenseLayer":
        """Seeded init: He-uniform for relu layers, Xavier-uniform otherwise."""
        if activation == "relu":
            w = he_uniform(rng, in_dim, out_dim)
        else:
            w = xavier_uniform(rng, in_dim, out_dim)
        return cls(w, np.zeros(out_dim, dtype=DTYPE), activation)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    def forward(
        self,
        x: np.ndarray,
        *,
        training: bool = False,
        dropout: DropoutSpec | None = None,
    ) -> np.ndarray:
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"input shape {x.shape} does not match layer input dim {self.in_dim}")
        pre = x @ self.weights + self.bias
        out = relu(pre) if self.activation == "relu" else pre
        mask = None
        if training and dropout is not None and dropout.rate > 0.0:
            rng = np.random.default_rng(seed_list(dropout.rng_seed))
            keep = 1.0 - dropout.rate
            mask = (rng.random(out.shape) >= dropout.rate).astype(DTYPE) / keep
            out = out * mask
        if training:
            self._cache = {"x": x, "pre": pre, "mask": mask}
        return out

    def backward(self, upstream: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (d_weights, d_bias, d_input) for the cached training forward."""
        if self._cache is None:
            raise StateError("backward called without a cached training-mode forward pass")
        upstream = np.asarray(upstream, dtype=DTYPE)
        x, pre, mask = self._cache["x"], self._cache["pre"], self._cache["mask"]
        if upstream.shape != pre.shape:
            raise ShapeError(
                f"upstream gradient shape {upstream.shape} does not match output {pre.shape}"
            )
        if mask is not None:
            upstream = upstream * mask
        if self.activation == "relu":
            upstream = upstream * (pre > 0.0)
        d_weights = x.T @ upstream
        d_bias = upstream.sum(axis=0)
        d_input = upstream @ self.weights.T
        return d_weights, d_bias, d_input


class Sgd:
    """Plain gradient descent: p <- p - lr * g."""

    kind = "sgd"

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate

    def apply(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        _check_aligned(params, grads)
        for p, g in zip(params, grads):
            p -= self.learning_rate * g
        return params


class Adam:
    """Adam with bias correction."""

    kind = "adam"
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float) -> None:
        if learning_rate <= 0.0:
            raise ConfigError(f"learning rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None

    def apply(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        _check_aligned(params, grads)
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        if len(self._m) != len(params):
            raise ShapeError("parameter list length changed between optimizer steps")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        for p, g, m, v in zip(params, grads, self._m, self._v):
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            p -= self.learning_rate * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        return params


Optimizer = Sgd | Adam

_OPTIMIZERS: dict[str, type[Optimizer]] = {"adam": Adam, "sgd": Sgd}


def make_optimizer(kind: str, learning_rate: float) -> Optimizer:
    if kind not in _OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {kind!r}, expected one of {tuple(_OPTIMIZERS)}")
    return _OPTIMIZERS[kind](learning_rate)


def _check_aligned(params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    if len(params) != len(grads):
        raise ShapeError(f"{len(params)} parameters but {len(grads)} gradients")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ShapeError(f"gradient {i} shape {g.shape} does not match parameter {p.shape}")
