"""Dense-network numeric core.

Everything here runs on 64-bit numpy arrays: the weight initializers and
numerically stable row softmax that the towers and losses use, and the
two optimizers (SGD, Adam). No autodiff graph is involved; `model.Tower`
writes out its own layers' forward and backward. Adam walks each parameter in
cache-sized chunks through preallocated scratch, with the same float
operations in the same order as the whole-tensor formula; every tensor is cut
at a chunk boundary near its middle, and the first halves and the second
halves are walked as two pieces. Settings are
checked once, by their owner: `make_optimizer` checks the learning rate and
`model.TowerSpec` the dropout rate.

When two or more CPUs are usable, `_overlap` runs two independent pieces of
work at once: one on a persistent worker thread, one on the caller. These
pairs go through it, and none nests another:

- the two towers' training forward and backward (model.py);
- the two row halves of a tower's inference forward, each run in row chunks
  through every layer, the prediction layer included (model.py);
- the first and second halves of every tensor in Adam's walk (below);
- the audio-anchor and visual-anchor sides of the triplet reducer (losses.py);
- the audio and visual proxies' forward and backward (losses.py);
- evaluate's two row halves, each building the distance blocks of both
  directions and ranking them (evaluate.py).

A row split depends on the row count alone, never on the CPU count.

Each piece does exactly the float operations it would do alone, and neither
piece writes memory the other reads or writes (row halves write disjoint rows
of one output), so results are bit-identical to the serial order; numpy's
BLAS and ufunc loops release the GIL, so the pieces really do run on two cores.
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


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction so large logits cannot overflow.

    Allocates one array the size of `logits`: `exp` and the divide run in
    place on the shifted logits.
    """
    m = np.asarray(logits, dtype=DTYPE)
    if m.ndim != 2 or m.shape[0] == 0 or m.shape[1] == 0:
        raise ShapeError(f"softmax_rows needs a non-empty 2-d matrix, got shape {m.shape}")
    e = m - m.max(axis=1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def he_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init scaled for ReLU layers: limit = sqrt(6 / fan_in)."""
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform init for linear output layers: limit = sqrt(6 / (fan_in + fan_out))."""
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


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

    Every tensor splits at the chunk boundary at or below `size // 2` of its
    flat view: the `_overlap` worker walks the first halves of all tensors and
    the caller the second halves, each through its own scratch buffers, so
    both walk the chunks a whole-tensor walk would. Parameters must be
    C-contiguous: they are updated in place through flat views.
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
        # Two scratch buffers for each half of the walk.
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
        flat = [[x.reshape(-1) for x in t] for t in zip(params, grads, self._m, self._v)]
        # A tensor of less than two chunks goes whole to the caller: two threads
        # walking its small halves would pass the GIL back and forth.
        cuts = [p.size // 2 // _ADAM_CHUNK * _ADAM_CHUNK for p in params]
        first, second = self._scratch
        _overlap(
            lambda: self._walk([[x[:c] for x in t] for t, c in zip(flat, cuts)], first),
            lambda: self._walk([[x[c:] for x in t] for t, c in zip(flat, cuts)], second),
        )
        return params

    def _walk(self, tensors: list, scratch: np.ndarray) -> None:
        """Update each flat (p, g, m, v) in place, in `_ADAM_CHUNK` pieces through `scratch`."""
        b1, b2 = self.beta1, self.beta2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        lr, eps = self.learning_rate, self.eps
        for p, g, m, v in tensors:
            for lo in range(0, p.size, _ADAM_CHUNK):
                hi = min(lo + _ADAM_CHUNK, p.size)
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
