"""Command-line entry point.

Subcommands: train, eval, bench, gen-data, grad-check. Exit codes: 0 on
success, 1 on usage errors, 2 on data or configuration errors, 3 on numeric
failures (non-finite losses, failed gradient checks).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .bench import DEFAULT_VARIANTS, bench, format_table
from .checkpoint import load_checkpoint
from .config import _KEYS, RunConfig, _parse_int_list, build_run_config, parse_config_file
from .data import SyntheticSpec, generate_synthetic, load_features, save_features
from .errors import ConfigError, DeterminismError, EngineError, NumericError
from .evaluate import evaluate
from .gradcheck import grad_check
from .losses import _PROXIES, _STRATEGIES, LossConfig, composite_loss
from .nn import _OPTIMIZERS
from .softalign import _SCHEDULE_KINDS, partition_batch
from .train import build_model, resolve_dataset, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avdistill",
        description="Cross-modal metric learning with progressive self-distillation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write checkpoint + metrics")
    _add_train_flags(p_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p_eval.add_argument("--model", required=True, help="checkpoint file")
    p_eval.add_argument("--data", required=True, help="dataset file (.avfd or .csv)")
    p_eval.add_argument("--out", default=None, help="optional JSON report path")

    p_bench = sub.add_parser("bench", help="run the ablation grid")
    _add_train_flags(p_bench)
    p_bench.add_argument(
        "--variants",
        default=",".join(DEFAULT_VARIANTS),
        help="comma-separated variant names",
    )

    p_gen = sub.add_parser("gen-data", help="generate a synthetic dataset file")
    _key_flag(p_gen, "--classes", "synthetic.classes")
    _key_flag(p_gen, "--per-class", "synthetic.pairs_per_class")
    _key_flag(p_gen, "--audio-dim", "synthetic.audio_dim")
    _key_flag(p_gen, "--visual-dim", "synthetic.visual_dim")
    _key_flag(p_gen, "--noise", "synthetic.noise")
    _key_flag(p_gen, "--correlation", "synthetic.correlation")
    _key_flag(p_gen, "--label-noise", "synthetic.label_noise")
    _key_flag(p_gen, "--seed", "synthetic.seed")
    p_gen.add_argument("--out", required=True, help="output path (.avfd or .csv)")

    p_check = sub.add_parser("grad-check", help="finite-difference check of the composite loss")
    p_check.add_argument("--seed", type=int, default=7)
    p_check.add_argument("--pairs", type=int, default=8)
    p_check.add_argument("--tolerance", type=float, default=1e-3)
    return parser


def _key_flag(p: argparse.ArgumentParser, flag: str, key: str, **kwargs) -> None:
    """A flag that stores its value under config key `key`, parsed as the config file parses it."""
    kwargs.setdefault("type", _KEYS[key][1])
    p.add_argument(flag, dest=key, **kwargs)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return _parse_int_list(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="flat key = value config file")
    _key_flag(p, "--seed", "train.seed")
    _key_flag(p, "--data", "data.path", help="dataset file; omitted -> synthetic data")
    _key_flag(p, "--out", "train.out", help="output directory")
    _key_flag(p, "--epochs", "train.epochs")
    _key_flag(p, "--batch", "train.batch")
    _key_flag(p, "--lr", "train.lr")
    _key_flag(p, "--optimizer", "train.optimizer", choices=_OPTIMIZERS)
    _key_flag(p, "--schedule", "schedule.kind", choices=_SCHEDULE_KINDS)
    _key_flag(p, "--r-start", "schedule.start")
    _key_flag(p, "--r-end", "schedule.end")
    _key_flag(p, "--strategy", "loss.strategy", choices=_STRATEGIES)
    _key_flag(p, "--aa", "loss.proxy", choices=_PROXIES)
    p.add_argument(
        "--no-ldis",
        dest="loss.pair_weight",
        action="store_const",
        const=0.0,
        help="drop the pair-distance term",
    )
    _key_flag(p, "--hidden", "model.hidden", type=_int_list,
              help="comma-separated hidden layer widths")
    _key_flag(p, "--dropout", "model.dropout")
    _key_flag(p, "--margin", "loss.margin")
    _key_flag(p, "--eval-every", "train.eval_every")


def _key_overrides(args: argparse.Namespace) -> dict[str, object]:
    """The config keys the given flags set; absent flags leave keys unset."""
    return {k: v for k, v in vars(args).items() if k in _KEYS and v is not None}


def _run_config_from_args(args: argparse.Namespace) -> RunConfig:
    file_values = parse_config_file(args.config) if args.config else {}
    return build_run_config({**file_values, **_key_overrides(args)})


def _cmd_train(args: argparse.Namespace) -> int:
    config = _run_config_from_args(args)
    result = train(config)
    print(result.final_report.format_text())
    if result.checkpoint_path:
        print(f"checkpoint = {result.checkpoint_path}")
        print(f"metrics = {result.metrics_path}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    model = load_checkpoint(args.model)
    _, data = load_features(args.data)
    report = evaluate(model, data)
    print(report.format_text())
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report.as_dict(), f, indent=2)
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    config = _run_config_from_args(args)
    names = tuple(v.strip() for v in args.variants.split(",") if v.strip())
    rows = bench(config, names, out_dir=config.output_dir)
    print(format_table(rows))
    return EXIT_OK


def _cmd_gen_data(args: argparse.Namespace) -> int:
    spec = build_run_config(_key_overrides(args)).synthetic
    meta, data = generate_synthetic(spec)
    save_features(args.out, meta, data)
    print(f"wrote {meta.n_pairs} pairs ({meta.n_classes} classes) to {args.out}")
    return EXIT_OK


def _cmd_grad_check(args: argparse.Namespace) -> int:
    """Check the full composite-loss gradient on a small synthetic rig."""
    if args.pairs < 2:
        raise ConfigError(f"--pairs must be >= 2, got {args.pairs}")
    spec = SyntheticSpec(
        n_classes=3,
        pairs_per_class=max(2, (args.pairs + 2) // 3),
        audio_dim=24,
        visual_dim=40,
        noise_scale=0.3,
        seed=args.seed,
    )
    config = RunConfig(synthetic=spec, hidden_dims=(16, 16, 16), seed=args.seed)
    meta, data = resolve_dataset(config)
    rng = np.random.default_rng(args.seed)
    rows = rng.choice(len(data), size=args.pairs, replace=False)
    batch = data.take(np.sort(rows))
    model = build_model(config, meta)
    plan = partition_batch(len(batch), 0.5, [args.seed, 1])
    cfg = LossConfig()

    def closure(params: list[np.ndarray]) -> tuple[float, list[np.ndarray]]:
        for target, source in zip(model.parameters(), params):
            target[...] = source
        breakdown, grads = composite_loss(
            model, batch, plan, cfg, step_seed=[args.seed, 2]
        )
        return breakdown.total, grads

    max_rel = grad_check(
        closure,
        model.parameters(),
        tolerance=args.tolerance,
        max_coords_per_tensor=24,
        seed=args.seed,
    )
    print(f"max relative error = {max_rel:.3e} (tolerance {args.tolerance:.1e})")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage problems and 0 for --help; fold into our contract.
        return EXIT_OK if e.code == 0 else EXIT_USAGE
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "bench": _cmd_bench,
        "gen-data": _cmd_gen_data,
        "grad-check": _cmd_grad_check,
    }
    try:
        return handlers[args.command](args)
    except (NumericError, DeterminismError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (EngineError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
