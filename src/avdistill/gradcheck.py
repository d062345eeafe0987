"""Central finite-difference verification of analytic gradients.

The closure contract: closure(params) -> (loss_value, grads), where grads is a
list aligned with params. The closure must be deterministic; any internal
randomness has to be seed-pinned so two calls at the same point agree exactly.
The returned gradients may be buffers that the next call overwrites, as the
towers' are: the checker copies them before it calls the closure again.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import ConfigError, DeterminismError, NumericError, ShapeError
from .nn import DTYPE

Closure = Callable[[list[np.ndarray]], tuple[float, list[np.ndarray]]]


def grad_check(
    model_closure: Closure,
    params: list[np.ndarray],
    tolerance: float = 1e-3,
    *,
    step: float = 1e-4,
    max_coords_per_tensor: int = 256,
    seed: int = 0,
) -> float:
    """Compare analytic gradients against central differences.

    Samples at most `max_coords_per_tensor` coordinates of each tensor (seeded,
    so the check is reproducible), perturbs each by +/- step, and reports the
    maximum relative error |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    Raises ConfigError for a negative or non-finite `tolerance`, NumericError
    when a relative error is not finite (naming the tensor and coordinate) or
    the maximum exceeds `tolerance`, and DeterminismError when two evaluations
    at the same point disagree.
    """
    if not 0.0 <= tolerance < math.inf:
        raise ConfigError(f"tolerance must be non-negative and finite, got {tolerance}")
    work = [np.array(p, dtype=DTYPE, copy=True) for p in params]
    value, grads = model_closure(work)
    grads = [np.array(g, dtype=DTYPE, copy=True) for g in grads]
    value2, _ = model_closure(work)
    if value != value2:
        raise DeterminismError(
            f"closure is not deterministic: two identical evaluations gave {value} and {value2}"
        )
    if len(grads) != len(work):
        raise ShapeError(f"closure returned {len(grads)} gradients for {len(work)} parameters")
    for g, p in zip(grads, work):
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} does not match parameter {p.shape}")

    rng = np.random.default_rng(seed)
    max_rel = 0.0
    for t, p in enumerate(work):
        size = p.size
        if size == 0:
            continue
        if size <= max_coords_per_tensor:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=max_coords_per_tensor, replace=False)
        flat = p.reshape(-1)
        analytic_flat = grads[t].reshape(-1)
        for idx in coords:
            original = flat[idx]
            flat[idx] = original + step
            plus, _ = model_closure(work)
            flat[idx] = original - step
            minus, _ = model_closure(work)
            flat[idx] = original
            # Python floats: a NaN or infinity flows into `rel` without a warning.
            numeric = (float(plus) - float(minus)) / (2.0 * step)
            analytic = float(analytic_flat[idx])
            rel = abs(analytic - numeric) / max(1e-8, abs(analytic) + abs(numeric))
            if not math.isfinite(rel):
                coord = tuple(int(i) for i in np.unravel_index(idx, p.shape))
                raise NumericError(
                    f"gradient check failed: non-finite relative error at tensor {t} "
                    f"coordinate {coord} (analytic {analytic}, numeric {numeric})"
                )
            max_rel = max(max_rel, rel)
    if max_rel > tolerance:
        raise NumericError(
            f"gradient check failed: max relative error {max_rel:.3e} exceeds {tolerance:.1e}"
        )
    return max_rel
