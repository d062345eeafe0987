"""Command-line surface: subcommands, flag plumbing, and exit codes."""

import json
import re
import struct

import numpy as np
import pytest

from avdistill import (
    SyntheticSpec,
    generate_synthetic,
    load_checkpoint,
    save_checkpoint,
    save_features,
)
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

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-1e-3"])
    def test_bad_tolerance_is_a_config_error(self, capsys, tolerance):
        assert main(["grad-check", "--pairs", "4", f"--tolerance={tolerance}"]) == EXIT_DATA
        assert "tolerance must be non-negative and finite" in capsys.readouterr().err


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

    def test_dataset_without_records(self, tmp_path, capsys):
        data = _gen(tmp_path)
        raw = bytearray(data.read_bytes()[:22])
        raw[6:10] = struct.pack("<I", 0)  # header claims 0 records
        empty = tmp_path / "empty.avfd"
        empty.write_bytes(bytes(raw))
        capsys.readouterr()
        assert main(SMALL_TRAIN + ["--data", str(empty)]) == EXIT_DATA
        assert "no records" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "bench"])
    def test_empty_output_directory_is_refused(self, tmp_path, monkeypatch, command, capsys):
        # "" would read as no output directory: the run would train and
        # report, then write nothing.
        data = _gen(tmp_path)
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        args = [command, *SMALL_TRAIN[1:], "--data", str(data), "--out", ""]
        assert main(args) == EXIT_DATA
        assert "output_dir must not be empty" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["data.avfd"]

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

    def test_checkpoint_with_huge_tensor_shape(self, tmp_path, capsys):
        data = _gen(tmp_path)
        capsys.readouterr()
        big = 2**32 - 1
        raw = b"XMDL" + struct.pack("<HB", 1, 1) + struct.pack("<IIIId", big, 1, big, 2, 0.0) * 2
        ckpt = tmp_path / "huge.xmdl"
        ckpt.write_bytes(raw + struct.pack("<III", 2, big, big))
        assert main(["eval", "--model", str(ckpt), "--data", str(data)]) == EXIT_DATA
        assert "values of audio.layer0.weights" in capsys.readouterr().err

    def test_dataset_with_huge_feature_dims(self, tmp_path, capsys):
        wide = tmp_path / "wide.avfd"
        wide.write_bytes(b"AVFD" + struct.pack("<HIIII", 1, 1, 2**30, 2**30, 2) + bytes(64))
        assert main(SMALL_TRAIN + ["--data", str(wide)]) == EXIT_DATA
        assert "truncated file" in capsys.readouterr().err

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus.key = 1\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA
        assert "unknown config key" in capsys.readouterr().err

    def test_removed_loss_knob_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("loss.proxy_temperature = 1.0\n")
        assert main(["train", "--config", str(cfg)]) == EXIT_DATA
        assert "unknown config key 'loss.proxy_temperature'" in capsys.readouterr().err

    def test_data_format_key_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "old.cfg"
        cfg.write_text("data.format = csv\n")
        argv = SMALL_TRAIN + ["--config", str(cfg), "--out", str(tmp_path / "run")]
        assert main(argv) == EXIT_DATA
        assert "unknown config key 'data.format'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "gen-data", "grad-check"])
    def test_negative_seed_is_a_config_error(self, command, tmp_path, capsys):
        argv = {
            "train": SMALL_TRAIN + ["--out", str(tmp_path / "run")],
            "gen-data": SMALL_GEN + ["--out", str(tmp_path / "data.avfd")],
            "grad-check": ["grad-check"],
        }[command]
        assert main(argv + ["--seed", "-1"]) == EXIT_DATA
        assert "error: seed must be >= 0, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value, message", [
        ("train", "--lr", "nan", "learning rate must be positive and finite, got nan"),
        ("train", "--lr", "inf", "learning rate must be positive and finite, got inf"),
        ("gen-data", "--noise", "inf", "noise_scale must be non-negative and finite, got inf"),
    ], ids=["train --lr nan", "train --lr inf", "gen-data --noise inf"])
    def test_non_finite_setting_is_a_config_error(
        self, command, flag, value, message, tmp_path, capsys
    ):
        argv = {
            "train": SMALL_TRAIN + ["--out", str(tmp_path / "run")],
            "gen-data": SMALL_GEN + ["--out", str(tmp_path / "data.avfd")],
        }[command]
        assert main(argv + [flag, value]) == EXIT_DATA
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "run").exists() and not (tmp_path / "data.avfd").exists()

    def test_zero_epochs_is_a_config_error(self, tmp_path, capsys):
        # A run always ends in an evaluation, so it has at least one epoch.
        assert main(SMALL_TRAIN + ["--out", str(tmp_path / "run"), "--epochs", "0"]) == EXIT_DATA
        assert "error: total_epochs must be >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

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

    def test_checkpoint_with_nan_weight(self, tmp_path, capsys):
        data = _gen(tmp_path)
        out_dir = tmp_path / "run"
        assert main(SMALL_TRAIN + ["--data", str(data), "--out", str(out_dir)]) == EXIT_OK
        ckpt = out_dir / "model.xmdl"
        model = load_checkpoint(ckpt)
        model.parameters()[0][0, 0] = np.nan
        save_checkpoint(model, ckpt)
        capsys.readouterr()
        assert main(["eval", "--model", str(ckpt), "--data", str(data)]) == EXIT_NUMERIC
        assert "non-finite embedding values in the evaluation pass" in capsys.readouterr().err

    def test_checkpoint_with_overflowing_output_bias(self, tmp_path, capsys):
        # Finite embeddings whose norms overflow would normalize to zero rows
        # and rank without an error.
        data = _gen(tmp_path)
        out_dir = tmp_path / "run"
        assert main(SMALL_TRAIN + ["--data", str(data), "--out", str(out_dir)]) == EXIT_OK
        ckpt = out_dir / "model.xmdl"
        model = load_checkpoint(ckpt)
        model.audio.parameters()[-1][:] = 1e200
        save_checkpoint(model, ckpt)
        capsys.readouterr()
        assert main(["eval", "--model", str(ckpt), "--data", str(data)]) == EXIT_DATA
        assert "norm overflows at row 0 of audio embeddings" in capsys.readouterr().err
