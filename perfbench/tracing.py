"""Spans around the calls into each layer, attached from outside the program.

A wrapper replaces the attribute that the caller looks up at call time: the
module global a caller resolves (`avdistill.train.composite_loss`,
`avdistill.losses.build_triplets`) or a class attribute (`TwoTowerModel.encode`).
Modules are taken from `sys.modules` via importlib, because the package
attributes `avdistill.train` and `avdistill.evaluate` are functions that shadow
their submodules. A target that no longer exists is listed as absent and
records no calls.

Each span records calls, total time and self time (total minus child spans).
Work the wrappers do to count things is timed and taken out of every open
span, so counters do not inflate the layers they describe.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


@dataclass
class _Frame:
    key: tuple[str, str]
    start: float
    child_s: float = 0.0
    excluded_s: float = 0.0


@dataclass
class Tracer:
    margin: float  # the triplet margin, for the active-triplet count
    stats: dict = field(default_factory=lambda: defaultdict(SpanStats))
    counters: dict = field(default_factory=lambda: defaultdict(float))
    absent: list = field(default_factory=list)
    bookkeeping_s: float = 0.0
    soft_labels: np.ndarray | None = None  # labels of the current step's soft rows
    _stack: list = field(default_factory=list)

    # -- spans ---------------------------------------------------------------

    def parent(self) -> str | None:
        return self._stack[-1].key[0] if self._stack else None

    def _enter(self, key: tuple[str, str]) -> _Frame:
        frame = _Frame(key, time.perf_counter())
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame) -> None:
        self._stack.pop()
        duration = time.perf_counter() - frame.start - frame.excluded_s
        stats = self.stats[frame.key]
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame.child_s
        if self._stack:
            self._stack[-1].child_s += duration

    @contextmanager
    def _bookkeeping(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            spent = time.perf_counter() - t0
            self.bookkeeping_s += spent
            for frame in self._stack:
                frame.excluded_s += spent

    def wrap(self, span: str, fn, role=None, before=None, after=None):
        """`fn` timed as `span`; `role(tracer, args, kwargs)` names a sub-span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                with self._bookkeeping():
                    before(self, args, kwargs)
            frame = self._enter((span, role(self, args, kwargs) if role else ""))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                with self._bookkeeping():
                    after(self, frame.key[1], args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def attached(self):
        """Install every wrapper in TARGETS for the duration of the block."""
        saved = []
        try:
            for span, target, hooks in TARGETS:
                module_name, _, attr_path = target.partition(":")
                owner = importlib.import_module(module_name)
                *owner_path, attr = attr_path.split(".")
                try:
                    for part in owner_path:
                        owner = getattr(owner, part)
                    # A class attribute must be the class's own, not an inherited one.
                    original = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (AttributeError, KeyError):
                    if target not in self.absent:
                        self.absent.append(target)
                    continue
                setattr(owner, attr, self.wrap(span, original, **hooks))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# -- hooks: counts taken at the layer boundaries ---------------------------------


def _encode_role(tracer: Tracer, args, kwargs) -> str:
    parent = tracer.parent()
    if parent == "evaluate.evaluate":
        return "eval"
    if parent == "losses.composite_loss":
        return "student" if kwargs.get("training") else "teacher"
    return "other"


def _dense_flop(model, rows: int) -> int:
    """2 * rows * (d_in * d_out) summed over every layer of both towers."""
    dims = model.audio.spec.layer_dims + model.visual.spec.layer_dims
    return 2 * rows * sum(d_in * d_out for d_in, d_out in dims)


def _after_encode(tracer: Tracer, role, args, kwargs, result) -> None:
    tracer.counters[f"flop.{role}"] += _dense_flop(args[0], len(args[1]))


def _after_backward(tracer: Tracer, role, args, kwargs, result) -> None:
    # d_weights and d_input: two matrix products per layer, each as costly as the forward.
    tracer.counters["flop.backward"] += 2 * _dense_flop(args[0], np.shape(args[1])[0])


def _after_apply(tracer: Tracer, role, args, kwargs, result) -> None:
    optimizer, params = args[0], args[1]
    arrays = 4 if getattr(optimizer, "kind", "") == "adam" else 2  # p, g (+ m, v)
    tracer.counters["optimizer.bytes"] += arrays * sum(p.nbytes for p in params)


def _before_composite(tracer: Tracer, args, kwargs) -> None:
    batch, plan = args[1], args[2]
    tracer.soft_labels = batch.labels[plan.soft_idx]


def _after_soft_alignment(tracer: Tracer, role, args, kwargs, result) -> None:
    positive = result.positive_mask
    labels = tracer.soft_labels
    tracer.counters["soft.positives"] += int(positive.sum())
    if labels is not None and labels.shape[0] == positive.shape[0]:
        agree = positive & (labels[:, None] == labels[None, :])
        tracer.counters["soft.agree"] += int(agree.sum())


def _after_build_triplets(tracer: Tracer, role, args, kwargs, result) -> None:
    pos, neg, strategy, anchor_mode, dist = args[:5]
    tracer.counters["triplets"] += len(result)
    tracer.counters["triplets.active"] += _active_triplets(
        np.asarray(pos, bool), np.asarray(neg, bool), strategy, anchor_mode, dist, result,
        tracer.margin,
    )


def _active_triplets(pos, neg, strategy, anchor_mode, dist, triplets, margin) -> int:
    """Triples whose hinge d(a, p) - d(a, n) + margin is positive.

    For "all" the triples are counted from the masks with one sort per anchor,
    because gathering the materialized triples would cost as much as the
    reduction being measured.
    """
    if strategy != "all":
        a, p, q = triplets.anchor, triplets.positive, triplets.negative
        is_audio = triplets.anchor_is_audio
        d_pos = np.where(is_audio, dist[a, p], dist[p, a])
        d_neg = np.where(is_audio, dist[a, q], dist[q, a])
        return int((d_pos - d_neg + margin > 0.0).sum())
    sides = []
    if anchor_mode in ("audio", "symmetric"):
        sides.append((pos, neg, dist))
    if anchor_mode in ("visual", "symmetric"):
        sides.append((pos.T, neg.T, dist.T))
    active = 0
    for pos_s, neg_s, dist_s in sides:
        for row_pos, row_neg, row_d in zip(pos_s, neg_s, dist_s):
            negatives = np.sort(row_d[row_neg])
            if negatives.size:
                active += int(np.searchsorted(negatives, row_d[row_pos] + margin).sum())
    return active


# (span, "module:attribute path", hooks). Module globals are wrapped in the
# module whose code looks them up; the benchmark itself resolves every public
# call through its defining module at call time, so it goes through these too.
TARGETS = [
    ("train.train", "avdistill.train:train", {}),
    ("data.resolve_dataset", "avdistill.train:resolve_dataset", {}),
    ("data.load_features", "avdistill.train:load_features", {}),
    ("data.load_features", "avdistill.data:load_features", {}),
    ("data.batches", "avdistill.train:batches", {}),
    ("softalign.partition_batch", "avdistill.train:partition_batch", {}),
    ("losses.composite_loss", "avdistill.train:composite_loss", {"before": _before_composite}),
    ("softalign.soft_alignment", "avdistill.losses:soft_alignment",
     {"after": _after_soft_alignment}),
    ("losses.build_triplets", "avdistill.losses:build_triplets", {"after": _after_build_triplets}),
    ("model.encode", "avdistill.model:TwoTowerModel.encode",
     {"role": _encode_role, "after": _after_encode}),
    ("model.backward", "avdistill.model:TwoTowerModel.backward", {"after": _after_backward}),
    ("nn.optimizer.apply", "avdistill.nn:Adam.apply", {"after": _after_apply}),
    ("nn.optimizer.apply", "avdistill.nn:Sgd.apply", {"after": _after_apply}),
    ("evaluate.evaluate", "avdistill.train:evaluate", {}),
    ("evaluate.evaluate", "avdistill.evaluate:evaluate", {}),
    ("checkpoint.save", "avdistill.train:save_checkpoint", {}),
    ("checkpoint.load", "avdistill.checkpoint:load_checkpoint", {}),
]


def call(target: str, *args, **kwargs):
    """Call a public function through its defining module, so wrappers see it."""
    module_name, _, attr = target.partition(":")
    return getattr(importlib.import_module(module_name), attr)(*args, **kwargs)
