"""Two-tower encoder: one dense stack per modality projecting into a shared space.

Both towers end in a linear prediction layer whose width equals the label
space, so audio and visual embeddings are directly comparable there. Hidden
layers are ReLU with dropout; the prediction layer is linear without dropout
and emits raw (unnormalized) projections. Each `Tower` owns its layers: it
holds their weights and biases and writes out their forward and backward.

The towers share no state, so a training-mode `TwoTowerModel.encode` and
`backward` run the audio tower on a worker thread while the caller runs the
visual tower (see `nn._overlap`). An inference encode runs the towers one
after the other and splits each tower's hidden layers by rows instead: the
worker runs the first half of the rows and the caller the rest, each half in
equal chunks of at most `_CHUNK` rows through a chunk-sized buffer, and the
narrow last layer runs once over all rows. So only one full-height activation
is held: a 4000-row reference forward peaks at 39 MiB under tracemalloc,
where two full-height activations took 63 MiB. Nor is the input widened at
full height: layer 0 reads each chunk from the buffer it does not write,
into which the chunk's feature rows are first copied as float64. So a
float32 input (see `data.PairedBatch`) is never held as float64 beyond one
chunk, and gives the same bits as its float64 copy, since widening is exact.
The split depends on the row count alone, so an encode gives the same bits
on any number of CPUs. A half or chunk takes the same BLAS product as the
whole wherever both pick the same kernel: halves keep two or more rows,
because a one-row product goes through numpy's matrix-vector path, which
rounds differently. OpenBLAS may still give a small chunk its small-matrix
kernel, which sums a layer deeper than its block depth in another order; on
an AVX-512 build that changed bits for 512-deep layers at some row counts,
never for the 128- and 1024-deep layers of the reference model. The last
layer stays whole for the same reason: with OpenBLAS 0.3.31, row chunks of a
1024 -> 10 product (128-row chunks of 4000 rows; 128-, 256- and 512-row
chunks of 600) differed from the whole product.

Training runs in buffers each tower keeps between steps; a model that only
runs inference allocates none of them. The first training forward allocates,
per tower a float64 input block into which each training batch is widened,
per hidden layer an output block and a one-byte keep mask, and per tower two
flat float scratch blocks (the dropout draw, then the backward's running
gradient), all sized to the largest batch seen so far; a shorter batch uses
their leading rows. The training cache holds each layer's input, keep mask
and output, and nothing else: the backward rebuilds the ReLU mask as
`output > 0`, which equals `pre > 0` wherever a unit was kept, and a dropped
unit's gradient is ±0 (or NaN) whatever that mask says. The first backward
allocates one gradient array per parameter tensor and every backward writes
into them, so the gradients it returns stay valid only until the next
backward. After its first step, a 400-row reference training step (encode,
backward and Adam) allocates 1.0 MiB under tracemalloc, where fresh arrays
took 106 MiB, and its results keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PairedBatch, _as_features
from .errors import ConfigError, ShapeError, StateError
from .nn import DTYPE, SeedLike, _overlap, he_uniform, seed_list, xavier_uniform

_AUDIO_TAG = 0
_VISUAL_TAG = 1
# An inference forward runs each row half's hidden layers over equal chunks of
# at most this many rows, so no chunk is a short tail: the 400-row teacher pass
# and the 600-pair evaluations in training run one chunk per half, and a
# 4000-row encode four 500-row chunks per half.
_CHUNK = 512


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


def _relu_dropout(pre: np.ndarray, keep: np.ndarray | None, scale: float) -> None:
    """A hidden layer's activation, in place: ReLU, then inverted dropout if `keep` is given.

    `(x * keep) * scale` equals x times the float mask `keep * scale` bit for
    bit: (x * 1) * s is x * s, and (x * 0) * s is x * 0, for ±0, inf and NaN too.
    """
    np.maximum(pre, 0.0, out=pre)
    if keep is not None:
        pre *= keep
        pre *= scale


def _relu_dropout_grad(
    grad: np.ndarray, keep: np.ndarray | None, out: np.ndarray, scale: float
) -> None:
    """Turn the gradient at hidden output `out` into the one at its pre-activation, in place.

    The ReLU mask is rebuilt as `out > 0`. Where a unit was kept this equals
    `pre > 0`: a scale >= 1 rounds no positive value to 0, and NaN compares
    False either way. Where a unit was dropped the gradient is already ±0 or
    NaN, which either mask leaves as it is.
    """
    if keep is not None:
        np.multiply(grad, keep, out=grad)
        grad *= scale
    np.multiply(grad, out > 0.0, out=grad)


class Tower:
    """One modality's encoder: ReLU hidden layers with inverted dropout, then a linear layer.

    The tower holds its flat [w0, b0, w1, b1, ...] parameter list. A
    training-mode forward caches (input, keep mask, output) per layer for
    backward; the keep mask is None where no dropout applies. Hidden outputs
    and keep masks live in buffers the first training forward allocates and
    later ones reuse, growing them only for a batch larger than any before.
    `backward` writes into one gradient array per parameter, allocated on its
    first call, and returns them; they stay valid until the next `backward`.
    An inference forward leaves the cache and these buffers alone, so a side
    evaluation never invalidates a pending backward, and runs its hidden layers
    in row chunks (see `_hidden_in_place`), the first half of the rows on the
    `_overlap` worker and the rest on the caller.
    """

    def __init__(self, spec: TowerSpec, params: list[np.ndarray]) -> None:
        self.spec = spec
        self._params = params
        self._cache: list[tuple | None] = [None] * len(spec.layer_dims)
        # Training buffers: the float64 input, per hidden layer an output block
        # and a keep mask, two flat scratch blocks, and the gradients (see
        # `_reserve`, `backward`).
        self._input = np.empty((0, spec.input_dim), dtype=DTYPE)
        self._outputs: list[np.ndarray] = []
        self._keeps: list[np.ndarray] = []
        self._scratch: list[np.ndarray] = []
        self._grads: list[np.ndarray] = []

    @classmethod
    def build(cls, spec: TowerSpec, rng: np.random.Generator) -> "Tower":
        """Seeded init: He-uniform hidden weights, Xavier-uniform last weights, zero biases."""
        params: list[np.ndarray] = []
        for i, (d_in, d_out) in enumerate(spec.layer_dims):
            init = he_uniform if i < len(spec.hidden_dims) else xavier_uniform
            params += [init(rng, d_in, d_out), np.zeros(d_out, dtype=DTYPE)]
        return cls(spec, params)

    @classmethod
    def from_parameters(cls, spec: TowerSpec, tensors: list[np.ndarray]) -> "Tower":
        """Rebuild a tower from a flat [w0, b0, w1, b1, ...] list shaped as `spec` says."""
        shapes = [shape for d_in, d_out in spec.layer_dims for shape in ((d_in, d_out), (d_out,))]
        if len(tensors) != len(shapes):
            raise ShapeError(f"expected {len(shapes)} tensors, got {len(tensors)}")
        params = [np.asarray(t, dtype=DTYPE) for t in tensors]
        for i, (p, shape) in enumerate(zip(params, shapes)):
            if p.shape != shape:
                raise ShapeError(f"tensor {i} has shape {p.shape}, expected {shape}")
        return cls(spec, params)

    def forward(self, x: np.ndarray, *, training: bool = False, seed_base: list[int] | None = None) -> np.ndarray:
        """The tower's output; training mode applies dropout and caches for backward.

        Dropout zeroes each hidden unit with probability `spec.dropout_rate` and
        scales the rest by 1/(1-rate). Layer i's mask comes from a generator
        seeded with [*seed_base, i], so a seed and shape always give the same mask.
        A training forward copies `x` into the float64 input block the tower
        keeps, and computes on and caches that block; an inference forward
        takes float32 or float64 rows as they are and widens each chunk itself.
        """
        h = _as_features(x)
        if h.ndim != 2 or h.shape[1] != self.spec.input_dim:
            raise ShapeError(
                f"input shape {h.shape} does not match tower input dim {self.spec.input_dim}"
            )
        rows, last = h.shape[0], len(self.spec.hidden_dims)
        if training:
            self._reserve(rows)
            np.copyto(self._input[:rows], h)
            h = self._input[:rows]
            base, rate = seed_base or [0], self.spec.dropout_rate
            for i, d in enumerate(self.spec.hidden_dims):
                out, keep = self._outputs[i][:rows], None
                np.matmul(h, self._params[2 * i], out=out)
                out += self._params[2 * i + 1]
                if rate > 0.0:
                    draw = self._scratch[0][: rows * d].reshape(rows, d)
                    np.random.default_rng([*base, i]).random(out=draw)
                    keep = np.greater_equal(draw, rate, out=self._keeps[i][:rows])
                _relu_dropout(out, keep, 1.0 / (1.0 - rate))
                self._cache[i] = (h, keep, out)
                h = out
        else:
            # Layers L-1, L-3, ... write full-height rows of `hidden`, the rest
            # one chunk-sized slot per thread, and the input chunk goes where
            # layer 0 does not write (see `_hidden_in_place`). A layer narrower
            # than its buffer writes the leading columns of its rows.
            # The widths a chunk holds: its input, then each hidden layer's output.
            widths = (self.spec.input_dim, *self.spec.hidden_dims)
            hidden = np.empty((rows, max(widths[::-2])), dtype=DTYPE)
            # A one-row half would take numpy's matrix-vector product, which
            # rounds differently; below 4 rows the caller runs them all.
            split = rows // 2 if rows >= 4 else 0
            _overlap(
                lambda: self._hidden_in_place(h[:split], hidden[:split]),
                lambda: self._hidden_in_place(h[split:], hidden[split:]),
            )
            h = hidden[:, : widths[-1]]
        # A fresh array: the output must not alias `hidden`.
        out = h @ self._params[2 * last] + self._params[2 * last + 1]
        if training:
            self._cache[last] = (h, None, out)
        return out

    def _reserve(self, rows: int) -> None:
        """Allocate the training buffers for `rows` rows, unless those held are tall enough.

        The scratch blocks are flat, so a view of any rows and width is contiguous.
        """
        if self._outputs and self._outputs[0].shape[0] >= rows:
            return
        widths = self.spec.hidden_dims
        self._input = np.empty((rows, self.spec.input_dim), dtype=DTYPE)
        self._outputs = [np.empty((rows, d), dtype=DTYPE) for d in widths]
        self._keeps = [np.empty((rows, d), dtype=bool) for d in widths]
        self._scratch = [np.empty(rows * max(widths), dtype=DTYPE) for _ in range(2)]

    def _hidden_in_place(self, x: np.ndarray, hidden: np.ndarray) -> None:
        """Run rows `x` through the hidden layers without dropout, the last one writing `hidden`.

        The rows run in equal chunks of at most `_CHUNK`, each through every
        layer before the next chunk starts. Layer i of a chunk writes the
        chunk's rows of `hidden` when an even number of layers follow it, and
        otherwise one slot that the chunks reuse, so the two alternate and
        the last hidden layer lands in `hidden`. Layer 0 reads the chunk from
        the buffer it does not write: the slot when the hidden-layer count is
        odd, the chunk's rows of `hidden` when it is even. `np.copyto` widens
        the chunk's rows of `x` into it, so a float32 `x` is widened one chunk
        at a time, with no temporary. Both buffers are sized over every width
        they hold, the input's included; at the reference shapes (128 or
        1024 inputs, three 1024-wide layers) the input adds no width.
        """
        # The widths a chunk holds: its input, then each hidden layer's output.
        widths, rows = (self.spec.input_dim, *self.spec.hidden_dims), x.shape[0]
        n_chunks = max(1, -(-rows // _CHUNK))
        bounds = [rows * c // n_chunks for c in range(n_chunks + 1)]
        slot = np.empty((-(-rows // n_chunks), max(widths[-2::-2])), dtype=DTYPE)
        for lo, hi in zip(bounds, bounds[1:]):
            # Entry k (the input, then each layer's output) is held in `hidden`
            # when an even number of entries follow it, otherwise in the slot.
            held = [
                hidden[lo:hi, :d] if (len(widths) - k) % 2 else slot[: hi - lo, :d]
                for k, d in enumerate(widths)
            ]
            np.copyto(held[0], x[lo:hi])
            for i, (h, out) in enumerate(zip(held, held[1:])):
                np.matmul(h, self._params[2 * i], out=out)
                out += self._params[2 * i + 1]
                np.maximum(out, 0.0, out=out)

    def backward(self, upstream: np.ndarray) -> list[np.ndarray]:
        """Push a gradient through the cached training forward; returns [dw0, db0, ...].

        The returned arrays are the tower's own gradient buffers: the next
        `backward` overwrites them. The cache is only read, so a second
        `backward` after one forward gives the same gradients.
        """
        if self._cache[-1] is None:
            raise StateError("backward called without a cached training-mode forward pass")
        grad = np.asarray(upstream, dtype=DTYPE)
        output = self._cache[-1][2]
        if grad.shape != output.shape:
            raise ShapeError(
                f"upstream gradient shape {grad.shape} does not match output {output.shape}"
            )
        if not self._grads:
            self._grads = [np.empty_like(p) for p in self._params]
        rows, last = grad.shape[0], len(self.spec.hidden_dims)
        scale = 1.0 / (1.0 - self.spec.dropout_rate)
        for i in reversed(range(last + 1)):
            x, keep, out = self._cache[i]
            if i < last:
                _relu_dropout_grad(grad, keep, out, scale)  # `grad` is a scratch block here
            np.matmul(x.T, grad, out=self._grads[2 * i])
            np.sum(grad, axis=0, out=self._grads[2 * i + 1])
            # Layer 0's input gradient would reach the features; nothing reads it.
            if i > 0:
                w = self._params[2 * i]
                # Layers alternate scratch blocks, so this never overwrites `grad`.
                below = self._scratch[i % 2][: rows * w.shape[0]].reshape(rows, w.shape[0])
                grad = np.matmul(grad, w.T, out=below)
        return list(self._grads)

    def parameters(self) -> list[np.ndarray]:
        return list(self._params)


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
        if not training:
            # Each forward splits its rows over both cores; in sequence, only
            # one tower's activation block is alive at a time.
            audio = self.audio.forward(batch.audio)
            return EmbeddingBatch(audio, self.visual.forward(batch.visual))
        base = seed_list(step_seed)
        a, v = _overlap(
            lambda: self.audio.forward(
                batch.audio, training=True, seed_base=[*base, _AUDIO_TAG]
            ),
            lambda: self.visual.forward(
                batch.visual, training=True, seed_base=[*base, _VISUAL_TAG]
            ),
        )
        return EmbeddingBatch(a, v)

    def backward(self, d_audio: np.ndarray, d_visual: np.ndarray) -> list[np.ndarray]:
        """Gradients for every parameter, aligned with parameters().

        The arrays are the towers' gradient buffers, valid until the next
        `backward`: copy them to keep them longer.
        """
        d_a, d_v = _overlap(
            lambda: self.audio.backward(d_audio),
            lambda: self.visual.backward(d_visual),
        )
        return d_a + d_v

    def parameters(self) -> list[np.ndarray]:
        return self.audio.parameters() + self.visual.parameters()
