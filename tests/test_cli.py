"""Command-line surface: subcommands, flag plumbing, and exit codes."""

import json
import re

import numpy as np
import pytest

from avdistill import SyntheticSpec, generate_synthetic, save_features
from avdistill.cli import (
    EXIT_DATA,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _key_overrides,
    _run_config_from_args,
    build_parser,
    main,
)

SMALL_GEN = [
    "gen-data",
    "--classes", "3",
    "--per-class", "6",
    "--audio-dim", "12",
    "--visual-dim", "16",
    "--noise", "0.1",
    "--seed", "3",
]

SMALL_TRAIN = [
    "train",
    "--epochs", "2",
    "--batch", "8",
    "--hidden", "16,16",
    "--lr", "0.001",
    "--eval-every", "0",
]


def _gen(tmp_path, name="data.avfd"):
    path = tmp_path / name
    assert main(SMALL_GEN + ["--out", str(path)]) == EXIT_OK
    return path


class TestEndToEnd:
    def test_gen_train_eval_pipeline(self, tmp_path, capsys):
        data = _gen(tmp_path)
        assert "wrote 18 pairs (3 classes)" in capsys.readouterr().out

        out_dir = tmp_path / "run"
        code = main(SMALL_TRAIN + ["--data", str(data), "--out", str(out_dir)])
        assert code == EXIT_OK
        train_out = capsys.readouterr().out
        assert "map_avg = " in train_out
        assert f"checkpoint = {out_dir / 'model.xmdl'}" in train_out
        assert (out_dir / "model.xmdl").exists()
        assert (out_dir / "metrics.jsonl").exists()

        report_path = tmp_path / "report.json"
        code = main([
            "eval",
            "--model", str(out_dir / "model.xmdl"),
            "--data", str(data),
            "--out", str(report_path),
        ])
        assert code == EXIT_OK
        assert "map_a2v = " in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        assert 0.0 <= report["map_avg"] <= 1.0
        assert report["distance"] == "normalized"

    def test_train_on_synthetic_without_data_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "synthetic.classes = 3\n"
            "synthetic.pairs_per_class = 6\n"
            "synthetic.audio_dim = 12\n"
            "synthetic.visual_dim = 16\n"
            "synthetic.noise = 0.1\n"
        )
        code = main(SMALL_TRAIN + ["--config", str(cfg)])
        assert code == EXIT_OK
        assert "map_avg = " in capsys.readouterr().out

    def test_csv_dataset_roundtrip(self, tmp_path, capsys):
        data = _gen(tmp_path, "data.csv")
        capsys.readouterr()
        out_dir = tmp_path / "run"
        assert main(SMALL_TRAIN + ["--data", str(data), "--out", str(out_dir)]) == EXIT_OK

    def test_no_ldis_flag(self, tmp_path, capsys):
        data = _gen(tmp_path)
        capsys.readouterr()
        code = main(SMALL_TRAIN + ["--data", str(data), "--no-ldis"])
        assert code == EXIT_OK

    def test_bench_grid(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "synthetic.classes = 3\n"
            "synthetic.pairs_per_class = 6\n"
            "synthetic.audio_dim = 12\n"
            "synthetic.visual_dim = 16\n"
            "train.epochs = 2\n"
            "train.batch = 8\n"
            "train.eval_every = 0\n"
            "model.hidden = 16,16\n"
            f"train.out = {tmp_path / 'grid'}\n"
        )
        code = main(["bench", "--config", str(cfg), "--variants", "full,no-aa"])
        assert code == EXIT_OK
        table = capsys.readouterr().out
        assert "variant" in table and "no-aa" in table
        saved = json.loads((tmp_path / "grid" / "bench.json").read_text())
        assert [row["variant"] for row in saved] == ["full", "no-aa"]


class TestTrainFlags:
    def test_flags_set_their_config_keys(self, tmp_path):
        args = build_parser().parse_args([
            "train",
            "--seed", "4", "--data", "d.avfd", "--out", str(tmp_path),
            "--epochs", "3", "--batch", "5", "--lr", "0.5", "--optimizer", "sgd",
            "--schedule", "linear", "--r-start", "0.9", "--r-end", "0.1",
            "--strategy", "hard", "--aa", "identity", "--anchor", "visual",
            "--no-ldis", "--hidden", "7,6", "--dropout", "0.2", "--margin", "0.3",
            "--eval-every", "2",
        ])
        cfg = _run_config_from_args(args)
        assert (cfg.seed, cfg.data_path, cfg.output_dir) == (4, "d.avfd", str(tmp_path))
        assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (3, 5, 0.5)
        assert (cfg.optimizer, cfg.schedule_kind) == ("sgd", "linear")
        assert (cfg.schedule_start, cfg.schedule_end) == (0.9, 0.1)
        assert (cfg.loss.strategy, cfg.loss.proxy, cfg.loss.anchor_mode) == (
            "hard", "identity", "visual"
        )
        assert (cfg.loss.pair_weight, cfg.loss.margin) == (0.0, 0.3)
        assert (cfg.hidden_dims, cfg.dropout_rate, cfg.eval_every) == ((7, 6), 0.2, 2)

    def test_absent_flags_keep_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("loss.pair_weight = 0.25\nmodel.hidden = 9\ntrain.lr = 0.01\n")
        args = build_parser().parse_args(["train", "--config", str(path), "--lr", "0.5"])
        cfg = _run_config_from_args(args)
        assert (cfg.loss.pair_weight, cfg.hidden_dims, cfg.learning_rate) == (0.25, (9,), 0.5)


class TestGenDataFlags:
    def test_flags_set_their_synthetic_keys(self):
        args = build_parser().parse_args([
            "gen-data", "--out", "x.avfd",
            "--classes", "3", "--per-class", "6", "--audio-dim", "12", "--visual-dim", "16",
            "--noise", "0.1", "--correlation", "0.5", "--label-noise", "0.2", "--seed", "9",
        ])
        assert _key_overrides(args) == {
            "synthetic.classes": 3,
            "synthetic.pairs_per_class": 6,
            "synthetic.audio_dim": 12,
            "synthetic.visual_dim": 16,
            "synthetic.noise": 0.1,
            "synthetic.correlation": 0.5,
            "synthetic.label_noise": 0.2,
            "synthetic.seed": 9,
        }

    def test_no_flags_writes_the_default_spec(self, tmp_path, capsys):
        out, expected = tmp_path / "x.avfd", tmp_path / "expected.avfd"
        assert main(["gen-data", "--out", str(out)]) == EXIT_OK
        save_features(expected, *generate_synthetic(SyntheticSpec()))
        assert out.read_bytes() == expected.read_bytes()


class TestGradCheckCommand:
    def test_default_rig_passes(self, capsys):
        assert main(["grad-check"]) == EXIT_OK
        out = capsys.readouterr().out
        assert re.search(r"max relative error = \d\.\d{3}e[-+]\d+ \(tolerance 1\.0e-03\)", out)

    def test_impossible_tolerance_fails_numerically(self, capsys):
        assert main(["grad-check", "--tolerance", "1e-12"]) == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err

    def test_pairs_floor(self, capsys):
        assert main(["grad-check", "--pairs", "1"]) == EXIT_DATA


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        assert main(["transmogrify"]) == EXIT_USAGE

    def test_unknown_flag(self, capsys):
        assert main(["train", "--warp-speed", "9"]) == EXIT_USAGE

    def test_missing_required_flag(self, capsys):
        assert main(["eval", "--model", "x.xmdl"]) == EXIT_USAGE

    def test_bad_choice_value(self, capsys):
        assert main(["train", "--optimizer", "rmsprop"]) == EXIT_USAGE

    def test_bad_hidden_list(self, capsys):
        assert main(["train", "--hidden", "16,x"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--hidden" in err and "comma-separated integers" in err
        assert "_parse_int_list" not in err

    def test_help_is_success(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["train", "--help"]) == EXIT_OK


class TestDataErrors:
    def test_missing_dataset(self, tmp_path, capsys):
        code = main(SMALL_TRAIN + ["--data", str(tmp_path / "absent.avfd")])
        assert code == EXIT_DATA
        assert "error:" in capsys.readouterr().err

    def test_corrupt_dataset(self, tmp_path, capsys):
        bad = tmp_path / "garbage.avfd"
        bad.write_bytes(b"this is not a dataset at all")
        assert main(SMALL_TRAIN + ["--data", str(bad)]) == EXIT_DATA
        assert "bad magic" in capsys.readouterr().err

    def test_missing_checkpoint(self, tmp_path, capsys):
        data = _gen(tmp_path)
        capsys.readouterr()
        code = main(["eval", "--model", str(tmp_path / "absent.xmdl"), "--data", str(data)])
        assert code == EXIT_DATA

    def test_truncated_checkpoint(self, tmp_path, capsys):
        data = _gen(tmp_path)
        out_dir = tmp_path / "run"
        assert main(SMALL_TRAIN + ["--data", str(data), "--out", str(out_dir)]) == EXIT_OK
        capsys.readouterr()
        ckpt = out_dir / "model.xmdl"
        ckpt.write_bytes(ckpt.read_bytes()[:50])
        assert main(["eval", "--model", str(ckpt), "--data", str(data)]) == EXIT_DATA

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus.key = 1\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "gen-data", "grad-check"])
    def test_negative_seed_is_a_config_error(self, command, tmp_path, capsys):
        argv = {
            "train": SMALL_TRAIN + ["--out", str(tmp_path / "run")],
            "gen-data": SMALL_GEN + ["--out", str(tmp_path / "data.avfd")],
            "grad-check": ["grad-check"],
        }[command]
        assert main(argv + ["--seed", "-1"]) == EXIT_DATA
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err

    def test_unknown_bench_variant(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("train.epochs = 1\n")
        code = main(["bench", "--config", str(cfg), "--variants", "no-such-variant"])
        assert code == EXIT_DATA
        assert "unknown bench variant" in capsys.readouterr().err


class TestNumericErrors:
    def test_divergent_training(self, tmp_path, capsys):
        data = _gen(tmp_path)
        capsys.readouterr()
        with np.errstate(all="ignore"):
            code = main([
                "train",
                "--data", str(data),
                "--epochs", "2",
                "--batch", "8",
                "--hidden", "16,16",
                "--optimizer", "sgd",
                "--lr", "1e150",
                "--eval-every", "0",
            ])
        assert code == EXIT_NUMERIC
        assert "numeric failure" in capsys.readouterr().err
