"""Ablation grid: named config variants trained under shared seeds.

The grid mirrors the usual ablation axes: drop the pair-distance term, hold
the labeled fraction at 1 (no self-distillation), swap the attention proxy for
identity, combine the two, switch the schedule shape, and switch triplet
mining. Every variant records its effective settings in the result manifest.
"""

from __future__ import annotations

import json
from pathlib import Path

from .config import RunConfig, _with_keys, config_manifest
from .errors import ConfigError
from .train import train

# variant name -> the config keys it overrides, with their typed values
VARIANTS: dict[str, dict[str, object]] = {
    "full": {},
    "no-ldis": {"loss.pair_weight": 0.0},
    # Labeled fraction pinned at 1: every batch is fully label-supervised.
    "no-self-dis": {"schedule.start": 1.0, "schedule.end": 1.0},
    "no-aa": {"loss.proxy": "identity"},
    "no-ldis-no-aa": {"loss.pair_weight": 0.0, "loss.proxy": "identity"},
    "linear": {"schedule.kind": "linear"},
    "cosine": {"schedule.kind": "cosine"},
    "hard-triplet": {"loss.strategy": "hard"},
}
DEFAULT_VARIANTS = tuple(VARIANTS)


def variant_config(base: RunConfig, name: str) -> RunConfig:
    """The base config with the named variant's keys overridden; unknown names are config errors."""
    if name not in VARIANTS:
        raise ConfigError(f"unknown bench variant {name!r}, expected one of {DEFAULT_VARIANTS}")
    return _with_keys(base, VARIANTS[name])


def bench(
    base: RunConfig,
    variants: tuple[str, ...] = DEFAULT_VARIANTS,
    out_dir: str | Path | None = None,
) -> list[dict]:
    """Train every variant and tabulate final retrieval quality."""
    rows = []
    base_out = Path(out_dir) if out_dir else None
    # Resolve every name first, so a typo fails before hours of training.
    configs = [(name, variant_config(base, name)) for name in variants]
    for name, cfg in configs:
        if base_out is not None:
            cfg = _with_keys(cfg, {"train.out": str(base_out / name)})
        report = train(cfg).final_report
        rows.append(
            {
                "variant": name,
                "map_a2v": report.map_a2v,
                "map_v2a": report.map_v2a,
                "map_avg": report.map_avg,
                "manifest": config_manifest(cfg),
            }
        )
    if base_out is not None:
        base_out.mkdir(parents=True, exist_ok=True)
        with open(base_out / "bench.json", "w") as f:
            json.dump(rows, f, indent=2)
    return rows


def format_table(rows: list[dict]) -> str:
    """Aligned text table of the grid results."""
    header = f"{'variant':<16} {'map_a2v':>9} {'map_v2a':>9} {'map_avg':>9}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row['variant']:<16} "
            f"{row['map_a2v']:>9.4f} {row['map_v2a']:>9.4f} {row['map_avg']:>9.4f}"
        )
    return "\n".join(lines)
