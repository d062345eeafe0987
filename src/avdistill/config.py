"""Run configuration: defaults, flat `key = value` config files, CLI overrides.

Config files hold one dotted key per line (`loss.margin = 1.2`); blank lines
and `#` comments are ignored. Each value is parsed as it is read, so an
unknown key or a bad value names its file and line. Command-line flags
override file values, which override the built-in defaults; every group
checks its own values when the config is built, and no numeric setting may
be NaN or infinite. The defaults mirror the reference training
setup: three 1024-unit hidden layers, dropout 0.1, Adam at 1e-4, batch 400,
1000 epochs, margin 1.2, step schedule from 1.0 down to 0.2 in five plateaus.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from pathlib import Path

from .data import SyntheticSpec
from .errors import ConfigError
from .losses import LossConfig
from .model import TowerSpec
from .nn import make_optimizer
from .softalign import RatioSchedule


@dataclass(frozen=True)
class RunConfig:
    data_path: str | None = None
    synthetic: SyntheticSpec = field(default_factory=SyntheticSpec)
    hidden_dims: tuple[int, ...] = (1024, 1024, 1024)
    dropout_rate: float = 0.1
    loss: LossConfig = field(default_factory=LossConfig)
    schedule_kind: str = "step"
    schedule_start: float = 1.0
    schedule_end: float = 0.2
    schedule_steps: int = 5
    optimizer: str = "adam"
    learning_rate: float = 1e-4
    batch_size: int = 400
    epochs: int = 1000
    seed: int = 0
    eval_every: int = 10
    train_fraction: float = 0.8
    eval_ks: tuple[int, ...] = (1, 5, 10)
    output_dir: str | None = None

    def __post_init__(self) -> None:
        # Reject what train() would reject, before any dataset is generated or loaded:
        # the schedule, a tower (placeholder dims) and the optimizer check themselves.
        self.schedule
        self.tower_spec(input_dim=1, output_dim=2)
        make_optimizer(self.optimizer, self.learning_rate)
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must lie in (0, 1), got {self.train_fraction}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.eval_every < 0:
            raise ConfigError(f"eval_every must be >= 0, got {self.eval_every}")
        if any(k < 1 for k in self.eval_ks):
            raise ConfigError(f"eval ks must be >= 1, got {self.eval_ks}")
        # An empty path would read as no path: no data file, or a run that writes nothing.
        for name in ("data_path", "output_dir"):
            if getattr(self, name) == "":
                raise ConfigError(f"{name} must not be empty")

    @property
    def schedule(self) -> RatioSchedule:
        """The labeled-fraction schedule over the run's epochs."""
        return RatioSchedule(
            self.schedule_kind, self.schedule_start, self.schedule_end, self.epochs,
            self.schedule_steps,
        )

    def tower_spec(self, input_dim: int, output_dim: int) -> TowerSpec:
        """One tower of the configured architecture."""
        return TowerSpec(input_dim, output_dim, self.hidden_dims, self.dropout_rate)


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part.strip()) for part in text.split(",") if part.strip())


# key -> (target dataclass field path, parser)
_KEYS: dict[str, tuple[str, object]] = {
    "data.path": ("data_path", str),
    "synthetic.classes": ("synthetic.n_classes", int),
    "synthetic.pairs_per_class": ("synthetic.pairs_per_class", int),
    "synthetic.audio_dim": ("synthetic.audio_dim", int),
    "synthetic.visual_dim": ("synthetic.visual_dim", int),
    "synthetic.noise": ("synthetic.noise_scale", float),
    "synthetic.correlation": ("synthetic.correlation", float),
    "synthetic.label_noise": ("synthetic.label_noise", float),
    "synthetic.seed": ("synthetic.seed", int),
    "model.hidden": ("hidden_dims", _parse_int_list),
    "model.dropout": ("dropout_rate", float),
    "loss.margin": ("loss.margin", float),
    "loss.strategy": ("loss.strategy", str),
    # Checked as it is read, so a refused mode names its line.
    "loss.anchor": ("loss.anchor_mode", lambda text: LossConfig(anchor_mode=text).anchor_mode),
    "loss.proxy": ("loss.proxy", str),
    "loss.pair_weight": ("loss.pair_weight", float),
    "schedule.kind": ("schedule_kind", str),
    "schedule.start": ("schedule_start", float),
    "schedule.end": ("schedule_end", float),
    "schedule.steps": ("schedule_steps", int),
    "train.optimizer": ("optimizer", str),
    "train.lr": ("learning_rate", float),
    "train.batch": ("batch_size", int),
    "train.epochs": ("epochs", int),
    "train.seed": ("seed", int),
    "train.eval_every": ("eval_every", int),
    "train.fraction": ("train_fraction", float),
    "train.out": ("output_dir", str),
    "eval.ks": ("eval_ks", _parse_int_list),
}


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Read typed key/value pairs; syntax, unknown-key and bad-value errors name the line."""
    values: dict[str, object] = {}
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{path}:{line_no}: unknown config key {key!r}")
        _, parser = _KEYS[key]
        try:
            values[key] = parser(value.strip())  # type: ignore[operator]
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"{path}:{line_no}: bad value for {key!r}: {e}") from None
    return values


def build_run_config(values: dict[str, object] | None = None) -> RunConfig:
    """The defaults with each dotted key set to its already-typed value, validated.

    The CLI passes config-file values overlaid with flag values, so flags win.
    """
    return _with_keys(RunConfig(), values or {})


def _with_keys(config: RunConfig, values: dict[str, object]) -> RunConfig:
    """`config` with each dotted key set to its already-typed value.

    The setter twin of `config_manifest`: each key's target path names the
    group and field to replace. Changed groups are revalidated, and invalid
    values are config errors. With no values, `config` itself comes back.
    """
    for key in values:
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
    changes: dict[str, object] = {}
    # Table order, so which bad group is reported does not hang on the caller's order.
    for key, (target, _) in _KEYS.items():
        if key in values:
            *groups, attr = target.split(".")
            node = changes
            for group in groups:
                node = node.setdefault(group, {})
            node[attr] = values[key]
    try:
        return _replaced(config, changes)
    except ConfigError:
        raise
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid configuration: {e}") from None


def _replaced(obj, changes: dict[str, object]):
    if not changes:
        return obj
    return dataclasses.replace(obj, **{
        name: _replaced(getattr(obj, name), value) if isinstance(value, dict) else value
        for name, value in changes.items()
    })


def config_manifest(config: RunConfig) -> dict[str, object]:
    """Every setting of a run under its config-file key, for logs and bench tables.

    Tuples become lists; written back as `key = value` lines (lists joined by
    commas, None values left out) the manifest parses to an equal RunConfig.
    """
    manifest: dict[str, object] = {}
    for key, (target, _) in _KEYS.items():
        value = functools.reduce(getattr, target.split("."), config)
        manifest[key] = list(value) if isinstance(value, tuple) else value
    return manifest
