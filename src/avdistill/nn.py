"""Dense-network numeric core.

Everything here runs on 64-bit numpy arrays: fully connected layers with
cached forward state for hand-written backprop, inverted dropout, numerically
stable row softmax, and the two optimizers (SGD, Adam). No autodiff graph is
involved; each layer knows how to push an upstream gradient through itself,
and can skip the input gradient, which a network's first layer never needs.
Adam walks each parameter in cache-sized chunks through preallocated scratch,
with the same float operations in the same order as the whole-tensor formula.
Settings are checked once, by their owner: `make_optimizer` checks the
learning rate and `model.TowerSpec` the dropout rate, so the layers and
optimizers here take them as given.

When two or more CPUs are usable, `_overlap` runs two independent pieces of
work at once: one on a persistent worker thread, one on the caller. Five
pairs go through it, and none nests another:

- the two towers' forward and backward (model.py);
- the two halves of Adam's chunk walk (below);
- the audio-anchor and visual-anchor sides of the triplet reducer (losses.py);
- the audio and visual proxies' forward and backward (losses.py);
- evaluate's a2v and v2a rankings (evaluate.py).

Each piece does exactly the float operations it would do alone, and the
pieces share no output or scratch, so results are bit-identical to the serial
order; numpy's BLAS and ufunc loops release the GIL, so the pieces really do
run on two cores.
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np

from .errors import ConfigError, ShapeError, StateError

DTYPE = np.float64

SeedLike = int | Sequence[int]

_ACTIVATIONS = ("relu", "identity")

# Adam updates each parameter this many elements at a time. A chunk of p, g,
# m, v and the two scratch buffers is 6 x 256 KiB = 1.5 MiB of float64, which
# stays in a 2 MiB per-core L2 between the elementwise passes. On a 2-core
# Xeon VM, one step over the reference model's 5.4M parameters took 57-63 ms
# at 32K, 59-62 ms at 16K, 61-68 ms at 64K, 83 ms at 128K and 126-130 ms
# with whole-tensor temporaries.
_ADAM_CHUNK = 32 * 1024

_A = TypeVar("_A")
_B = TypeVar("_B")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# Marked on the worker thread when it starts, so `_overlap` can refuse to nest.
_thread_state = threading.local()


def _mark_worker_thread() -> None:
    _thread_state.is_worker = True


def _new_worker() -> ThreadPoolExecutor:
    # The executor starts its one thread when the first task is submitted.
    return ThreadPoolExecutor(
        max_workers=1, thread_name_prefix="avdistill-overlap", initializer=_mark_worker_thread
    )


_worker = _new_worker()


def _renew_worker() -> None:
    # A forked child inherits the executor but not its thread.
    global _worker
    _worker = _new_worker()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renew_worker)


def _overlap(first: Callable[[], _A], second: Callable[[], _B]) -> tuple[_A, _B]:
    """Run `first` on the worker thread and `second` on the caller; return both results.

    With fewer than 2 usable CPUs this is the plain call `(first(), second())`.
    `first` runs in a copy of the caller's context, so context-local state such
    as `np.errstate` holds on the worker too. The worker is always waited for,
    also when `second` raises, so neither task is still running once this
    returns or raises; an exception from `first` wins, as in the serial order.
    The worker is one thread, so a task run on it that called `_overlap` again
    would queue behind itself forever; such a nested call raises `StateError`.
    """
    if getattr(_thread_state, "is_worker", False):
        raise StateError(
            "nested _overlap: called from a task on the overlap worker thread, "
            "which would wait on itself forever"
        )
    if _usable_cpus() < 2:
        return first(), second()
    future = _worker.submit(contextvars.copy_context().run, first)
    try:
        second_result = second()
    finally:
        first_result = future.result()
    return first_result, second_result


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
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init for linear output layers: limit = sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


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
        dropout_rate: float = 0.0,
        dropout_seed: SeedLike = 0,
    ) -> np.ndarray:
        """The layer's output; training mode caches it and applies inverted dropout.

        Dropout zeroes each unit with probability `dropout_rate` and scales the
        rest by 1/(1-rate). The mask comes from a generator seeded with
        `dropout_seed`, so a seed and shape always give the same mask. The rate
        is taken as given; `TowerSpec` checks it.
        """
        x = np.asarray(x, dtype=DTYPE)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ShapeError(f"input shape {x.shape} does not match layer input dim {self.in_dim}")
        pre = x @ self.weights + self.bias
        out = relu(pre) if self.activation == "relu" else pre
        mask = None
        if training and dropout_rate > 0.0:
            rng = np.random.default_rng(seed_list(dropout_seed))
            mask = (rng.random(out.shape) >= dropout_rate) * (1.0 / (1.0 - dropout_rate))
            if out is pre:
                out = out * mask  # the cache keeps `pre` for backward
            else:
                out *= mask
        if training:
            self._cache = {"x": x, "pre": pre, "mask": mask}
        return out

    def backward(
        self, upstream: np.ndarray, *, input_grad: bool = True
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Return (d_weights, d_bias, d_input) for the cached training forward.

        With `input_grad=False` d_input is None and its matrix product is skipped.
        """
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
        d_input = upstream @ self.weights.T if input_grad else None
        return d_weights, d_bias, d_input


class Sgd:
    """Plain gradient descent: p <- p - lr * g."""

    kind = "sgd"

    def __init__(self, learning_rate: float) -> None:
        self.learning_rate = learning_rate

    def apply(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        _check_aligned(params, grads)
        for p, g in zip(params, grads):
            p -= self.learning_rate * g
        return params


class Adam:
    """Adam with bias correction, applied in `_ADAM_CHUNK`-element chunks.

    The chunks are walked in two halves of about equal element count, each
    through its own scratch buffers, and the halves are `_overlap`ped.
    Parameters must be C-contiguous: they are updated in place through flat views.
    """

    kind = "adam"
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, learning_rate: float) -> None:
        self.learning_rate = learning_rate
        self.t = 0
        self._m: list[np.ndarray] | None = None
        self._v: list[np.ndarray] | None = None
        # Two scratch buffers for each half of the chunk walk.
        self._scratch = [np.empty((2, _ADAM_CHUNK), dtype=DTYPE) for _ in range(2)]

    def apply(self, params: list[np.ndarray], grads: list[np.ndarray]) -> list[np.ndarray]:
        _check_aligned(params, grads)
        if self._m is None:
            self._m = [np.zeros_like(p) for p in params]
            self._v = [np.zeros_like(p) for p in params]
        if len(self._m) != len(params):
            raise ShapeError("parameter list length changed between optimizer steps")
        for i, (p, m) in enumerate(zip(params, self._m)):
            if p.shape != m.shape:
                raise ShapeError(
                    f"parameter {i} shape {p.shape} does not match its moment buffer {m.shape}"
                )
            if not p.flags.c_contiguous:
                raise ShapeError(f"parameter {i} is not C-contiguous; Adam updates it in place")
        self.t += 1
        chunks = []
        for p, g, m, v in zip(params, grads, self._m, self._v):
            p, g, m, v = p.reshape(-1), g.reshape(-1), m.reshape(-1), v.reshape(-1)
            chunks += [
                (p, g, m, v, lo, min(lo + _ADAM_CHUNK, p.size))
                for lo in range(0, p.size, _ADAM_CHUNK)
            ]
        # Split after the chunk whose running element count is nearest to half the total.
        done = np.cumsum([hi - lo for *_, lo, hi in chunks])
        half = int(np.abs(2 * done - done[-1]).argmin()) + 1 if chunks else 0
        first, second = self._scratch
        _overlap(
            lambda: self._walk(chunks[:half], first),
            lambda: self._walk(chunks[half:], second),
        )
        return params

    def _walk(self, chunks: list, scratch: np.ndarray) -> None:
        """Update each (p, g, m, v, lo, hi) chunk in place through `scratch`'s two rows."""
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        lr, eps = self.learning_rate, self.eps
        for p, g, m, v, lo, hi in chunks:
            pc, gc, mc, vc = p[lo:hi], g[lo:hi], m[lo:hi], v[lo:hi]
            s, s2 = scratch[0, : hi - lo], scratch[1, : hi - lo]
            # m = b1*m + (1-b1)*g
            mc *= b1
            np.multiply(gc, 1.0 - b1, out=s)
            mc += s
            # v = b2*v + ((1-b2)*g)*g
            vc *= b2
            np.multiply(gc, 1.0 - b2, out=s)
            s *= gc
            vc += s
            # p -= (lr*(m/bias1)) / (sqrt(v/bias2) + eps)
            np.divide(vc, bias2, out=s2)
            np.sqrt(s2, out=s2)
            s2 += eps
            np.divide(mc, bias1, out=s)
            s *= lr
            s /= s2
            pc -= s


Optimizer = Sgd | Adam

_OPTIMIZERS: dict[str, type[Optimizer]] = {"adam": Adam, "sgd": Sgd}


def make_optimizer(kind: str, learning_rate: float) -> Optimizer:
    """The named optimizer; the one place an optimizer's settings are checked."""
    if kind not in _OPTIMIZERS:
        raise ConfigError(f"unknown optimizer {kind!r}, expected one of {tuple(_OPTIMIZERS)}")
    if not 0.0 < learning_rate < math.inf:
        raise ConfigError(f"learning rate must be positive and finite, got {learning_rate}")
    return _OPTIMIZERS[kind](learning_rate)


def _check_aligned(params: list[np.ndarray], grads: list[np.ndarray]) -> None:
    if len(params) != len(grads):
        raise ShapeError(f"{len(params)} parameters but {len(grads)} gradients")
    for i, (p, g) in enumerate(zip(params, grads)):
        if p.shape != g.shape:
            raise ShapeError(f"gradient {i} shape {g.shape} does not match parameter {p.shape}")
