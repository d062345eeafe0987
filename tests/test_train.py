"""Training loop orchestration, run configuration, and the ablation grid."""

import dataclasses
import importlib
import json
import threading

import numpy as np
import pytest

from avdistill import (
    ConfigError,
    LossConfig,
    NormalizationError,
    NumericError,
    RatioSchedule,
    RunConfig,
    ShapeError,
    SyntheticSpec,
    bench,
    config_manifest,
    evaluate,
    format_table,
    load_checkpoint,
    save_features,
    split,
    train,
)
from avdistill.bench import VARIANTS, variant_config
from avdistill.config import _KEYS, build_run_config, parse_config_file
from avdistill.model import Tower
from avdistill.train import build_model, resolve_dataset


def _config(**kw):
    """A seconds-scale run: 30 pairs, 3 classes, 4 epochs."""
    synth = SyntheticSpec(n_classes=3, pairs_per_class=10, audio_dim=12, visual_dim=16,
                          noise_scale=0.1, seed=3)
    defaults = dict(
        synthetic=synth,
        hidden_dims=(16, 16),
        batch_size=8,
        epochs=4,
        learning_rate=1e-3,
        optimizer="adam",
        seed=5,
        eval_every=2,
        schedule_kind="step",
        schedule_start=1.0,
        schedule_end=0.2,
        schedule_steps=2,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestResolveAndBuild:
    def test_synthetic_source(self):
        meta, data = resolve_dataset(_config())
        assert meta.n_pairs == 30 and meta.n_classes == 3
        assert data.audio.shape == (30, 12) and data.visual.shape == (30, 16)

    def test_file_source(self, tmp_path):
        meta, data = resolve_dataset(_config())
        path = tmp_path / "run.avfd"
        save_features(path, meta, data)
        meta2, data2 = resolve_dataset(_config(data_path=str(path)))
        assert meta2.n_pairs == 30
        np.testing.assert_array_equal(data2.audio, data.audio)

    def test_model_matches_dataset(self):
        cfg = _config()
        meta, _ = resolve_dataset(cfg)
        model = build_model(cfg, meta)
        assert model.audio.spec.output_dim == 3
        assert model.audio.spec.input_dim == 12
        assert model.visual.spec.input_dim == 16
        assert model.audio.spec.hidden_dims == (16, 16)


class TestTrainLoop:
    def test_record_counts_and_kinds(self):
        result = train(_config())
        steps = [r for r in result.records if r.kind == "step"]
        evals = [r for r in result.records if r.kind == "eval"]
        # 24 train pairs in batches of 8 gives 3 steps per epoch.
        assert len(steps) == 4 * 3
        assert [r.step for r in steps] == list(range(12))
        # eval_every=2 fires after epochs 1 and 3; epoch 3 is also the last.
        assert [r.epoch for r in evals] == [1, 3]
        assert result.final_report is evals[-1].report

    def test_labeled_fraction_tracks_schedule(self):
        cfg = _config()
        result = train(cfg)
        sched = RatioSchedule(kind="step", start=1.0, end=0.2,
                              total_epochs=cfg.epochs, steps=2)
        for record in result.records:
            assert record.labeled_fraction == sched.at(record.epoch)

    def test_loss_decreases(self):
        result = train(_config(epochs=6, eval_every=0))
        steps = [r for r in result.records if r.kind == "step"]
        first_epoch = np.mean([r.loss.total for r in steps if r.epoch == 0])
        last_epoch = np.mean([r.loss.total for r in steps if r.epoch == 5])
        assert last_epoch < first_epoch

    def test_eval_every_zero_evaluates_once(self):
        result = train(_config(eval_every=0))
        evals = [r for r in result.records if r.kind == "eval"]
        assert [r.epoch for r in evals] == [3]
        assert result.final_report is not None

    def test_runs_are_bit_deterministic(self):
        a = train(_config())
        b = train(_config())
        for p, q in zip(a.model.parameters(), b.model.parameters()):
            np.testing.assert_array_equal(p, q)
        assert a.final_report.map_avg == b.final_report.map_avg
        for ra, rb in zip(a.records, b.records):
            da, db = ra.as_dict(), rb.as_dict()
            da.pop("wall_ms")
            db.pop("wall_ms")
            assert da == db

    def test_seed_changes_the_run(self):
        a = train(_config())
        b = train(_config(seed=6))
        assert any(
            not np.array_equal(p, q)
            for p, q in zip(a.model.parameters(), b.model.parameters())
        )

    def test_divergence_names_epoch_and_batch(self):
        cfg = _config(optimizer="sgd", learning_rate=1e150)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match=r"epoch \d+ batch \d+"):
                train(cfg)

    def test_non_finite_gradient_stops_before_the_optimizer(self, monkeypatch):
        train_module = importlib.import_module("avdistill.train")
        real_loss = train_module.composite_loss
        seen = {}

        def nan_gradient_loss(model, *args, **kwargs):
            breakdown, grads = real_loss(model, *args, **kwargs)
            seen["model"] = model
            seen["before"] = [p.copy() for p in model.parameters()]
            grads[1] = grads[1].copy()
            grads[1].flat[0] = np.nan
            return breakdown, grads

        monkeypatch.setattr(train_module, "composite_loss", nan_gradient_loss)
        with pytest.raises(NumericError, match=r"gradient at epoch 0 batch 0 \(phase gradient"):
            train(_config())
        for p, q in zip(seen["model"].parameters(), seen["before"]):
            np.testing.assert_array_equal(p, q)

    def test_non_finite_loss_stops_before_the_optimizer(self, monkeypatch):
        # Output biases of +-1.3e154 on coordinate 0 keep the embeddings, their
        # norms and the attention logits finite, but the pair distance overflows.
        train_module = importlib.import_module("avdistill.train")
        seen = {}

        def overflowing_outputs(config, meta):
            model = build_model(config, meta)
            model.audio.parameters()[-1][0] = 1.3e154
            model.visual.parameters()[-1][0] = -1.3e154
            seen["model"], seen["before"] = model, [p.copy() for p in model.parameters()]
            return model

        monkeypatch.setattr(train_module, "build_model", overflowing_outputs)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match=r"^non-finite loss at epoch 0 batch 0: "):
                train(_config())
        for p, q in zip(seen["model"].parameters(), seen["before"], strict=True):
            np.testing.assert_array_equal(p, q)

    def test_triplet_distance_failure_names_its_phase(self, monkeypatch):
        # Zero output layers give zero embeddings: the triplet distances
        # cannot normalize them, and the failure says so, apart from the
        # evaluation's "zero vector at row 0 of audio embeddings".
        train_module = importlib.import_module("avdistill.train")

        def zero_outputs(config, meta):
            model = build_model(config, meta)
            for tower in (model.audio, model.visual):
                for tensor in tower.parameters()[-2:]:
                    tensor[...] = 0.0
            return model

        monkeypatch.setattr(train_module, "build_model", zero_outputs)
        with pytest.raises(NormalizationError, match=(
            r"^epoch 0 batch 0: zero vector at row 0 of proxied audio embeddings "
            r"\(triplet distances\)$"
        )):
            train(_config())

    def test_eval_failure_names_its_epoch(self, monkeypatch):
        train_module = importlib.import_module("avdistill.train")

        def dead_row_evaluate(*args, **kwargs):
            raise NormalizationError("zero vector at row 3 of audio embeddings")

        monkeypatch.setattr(train_module, "evaluate", dead_row_evaluate)
        # eval_every=2: the first evaluation follows epoch 1.
        with pytest.raises(NormalizationError, match=r"^epoch 1 eval: zero vector at row 3"):
            train(_config())


class TestTrainOutputs:
    def test_checkpoint_and_metrics_files(self, tmp_path):
        out = tmp_path / "run"
        cfg = _config(output_dir=str(out))
        result = train(cfg)
        assert result.checkpoint_path == str(out / "model.xmdl")
        assert result.metrics_path == str(out / "metrics.jsonl")

        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == len(result.records)
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["kind"] == "step"
        assert set(parsed[0]["loss"]) == {"label_term", "triplet_term", "pair_term", "total"}
        assert parsed[-1]["kind"] == "eval"
        assert "map_avg" in parsed[-1]["report"]
        # wall_ms is informational and always the trailing key.
        assert all(list(p)[-1] == "wall_ms" for p in parsed)

    def test_checkpoint_reloads_to_the_same_scores(self, tmp_path):
        out = tmp_path / "run"
        cfg = _config(output_dir=str(out))
        result = train(cfg)
        loaded = load_checkpoint(result.checkpoint_path)
        _, full = resolve_dataset(cfg)
        _, test_data = split(full, cfg.train_fraction, cfg.seed)
        report = evaluate(loaded, test_data, ks=cfg.eval_ks)
        assert abs(report.map_avg - result.final_report.map_avg) < 1e-9

    def test_no_output_dir_writes_nothing(self):
        result = train(_config())
        assert result.checkpoint_path is None
        assert result.metrics_path is None


class TestTowerOverlap:
    def test_worker_leaves_checkpoint_and_metrics_unchanged(self, tmp_path, usable_cpus):
        runs = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            out = tmp_path / f"cpus-{cpus}"
            train(_config(output_dir=str(out)))
            records = [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]
            for record in records:
                record.pop("wall_ms")
            runs.append(((out / "model.xmdl").read_bytes(), records))
        assert runs[0] == runs[1]

    def test_worker_failure_names_epoch_and_batch(self, usable_cpus, monkeypatch):
        usable_cpus(2)
        forward = Tower.forward
        on_caller = []

        def failing_audio(tower, x, **kwargs):
            if tower.spec.input_dim == 12:  # the audio tower, run on the worker
                on_caller.append(threading.current_thread() is threading.main_thread())
                raise ShapeError("audio tower failed")
            return forward(tower, x, **kwargs)

        monkeypatch.setattr(Tower, "forward", failing_audio)
        with pytest.raises(ShapeError, match=r"^epoch 0 batch 0: audio tower failed$"):
            train(_config())
        assert on_caller == [False]
        # The worker serves the next run.
        monkeypatch.setattr(Tower, "forward", forward)
        assert train(_config(epochs=1)).final_report is not None


class TestConfigFile:
    def test_parse_and_build(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "\n"
            "train.lr = 0.01\n"
            "model.hidden = 32,16\n"
            "loss.anchor = symmetric\n"
            "synthetic.classes = 4\n"
            "schedule.kind = cosine\n"
            "eval.ks = 1,5\n"
        )
        values = parse_config_file(path)
        assert values["train.lr"] == 0.01
        assert values["model.hidden"] == (32, 16)
        cfg = build_run_config(values)
        assert cfg.learning_rate == 0.01
        assert cfg.hidden_dims == (32, 16)
        assert cfg.loss.anchor_mode == "symmetric"
        assert cfg.synthetic.n_classes == 4
        assert cfg.schedule_kind == "cosine"
        assert cfg.eval_ks == (1, 5)

    def test_overrides_beat_file_values(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.lr = 0.01\ntrain.epochs = 50\n")
        cfg = build_run_config({**parse_config_file(path), "train.lr": 0.5})
        assert cfg.learning_rate == 0.5
        assert cfg.epochs == 50

    def test_unknown_key_names_the_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.lr = 0.01\nbogus.key = 3\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: unknown config key"):
            parse_config_file(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config_file(path)

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.lr = 0.01\ntrain.epochs = many\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: bad value for 'train.epochs'"):
            parse_config_file(path)

    def test_values_are_checked_together_and_a_refusal_names_its_line(self, tmp_path):
        # A start of 0.1 alone is refused against the default end of 0.2; the
        # end on the next line mends it.
        path = tmp_path / "run.cfg"
        path.write_text("schedule.start = 0.1\nschedule.end = 0.05\n")
        assert build_run_config(parse_config_file(path)).schedule_start == 0.1
        path.write_text("schedule.start = 0.1\ntrain.lr = 0.5\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1: bad value for 'schedule\.start'"):
            parse_config_file(path)
        # The line named is the last one after which the file stays refused.
        path.write_text(
            "schedule.start = 0.1\nschedule.end = 0.05\n# comment\n"
            "train.batch = 1\ntrain.lr = 0.5\n"
        )
        with pytest.raises(ConfigError, match=r"run\.cfg:4: bad value for 'train\.batch': batch"):
            parse_config_file(path)
        # A repeated key counts from its last line.
        path.write_text("train.batch = 8\ntrain.lr = 0.5\ntrain.batch = 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:3: bad value for 'train\.batch'"):
            parse_config_file(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read config file"):
            parse_config_file(tmp_path / "absent.cfg")

    def test_invalid_final_config(self):
        with pytest.raises(ConfigError):
            build_run_config({"loss.margin": -2.0})

    @pytest.mark.parametrize("key, raw, message", [
        *(pytest.param(key, raw, message, id=key) for key, raw, message in [
            ("train.optimizer", "rmsprop", "unknown optimizer 'rmsprop'"),
            ("train.lr", "0", "learning rate must be positive"),
            ("schedule.kind", "zigzag", "unknown schedule kind 'zigzag'"),
            ("train.epochs", "0", "total_epochs must be >= 1"),
            ("train.batch", "-3", "batch_size must be >= 2, got -3"),
            ("train.fraction", "7", r"train_fraction must lie in \(0, 1\), got 7.0"),
            ("model.dropout", "1.5", r"dropout_rate must lie in \[0, 1\), got 1.5"),
            ("model.hidden", "0", r"hidden dims must be >= 1, got \(0,\)"),
            ("train.seed", "-1", "seed must be >= 0, got -1"),
            ("synthetic.seed", "-1", "seed must be >= 0, got -1"),
            ("train.eval_every", "-3", "eval_every must be >= 0, got -3"),
            ("eval.ks", "0,-2", r"eval ks must be >= 1, got \(0, -2\)"),
            ("data.path", "", "data_path must not be empty"),
            ("train.out", "", "output_dir must not be empty"),
        ]),
        # float() accepts these; each would train a NaN model or write unloadable data.
        *(pytest.param(key, raw, message, id=f"{key}={raw}") for key, raw, message in [
            ("train.lr", "nan", "learning rate must be positive and finite, got nan"),
            ("train.lr", "inf", "learning rate must be positive and finite, got inf"),
            ("loss.margin", "nan", "margin must be positive and finite, got nan"),
            ("loss.margin", "inf", "margin must be positive and finite, got inf"),
            ("loss.pair_weight", "nan", "pair_weight must be non-negative and finite, got nan"),
            ("synthetic.noise", "inf", "noise_scale must be non-negative and finite, got inf"),
        ]),
    ])
    def test_run_settings_are_checked_when_the_config_is_built(
        self, key, raw, message, tmp_path
    ):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = {raw}\n")
        with pytest.raises(ConfigError, match=message):
            build_run_config(parse_config_file(path))

    @pytest.mark.parametrize(
        "key", ["loss.label_weight", "loss.triplet_weight", "loss.proxy_temperature"]
    )
    def test_removed_loss_knobs_are_unknown_keys(self, key, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(f"{key} = 1.0\n")
        with pytest.raises(ConfigError, match=rf"run\.cfg:1: unknown config key '{key}'"):
            parse_config_file(path)
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            build_run_config({key: 1.0})

    def test_data_format_is_an_unknown_key(self, tmp_path):
        # The dataset format follows the file suffix; there is no override.
        path = tmp_path / "run.cfg"
        path.write_text("data.format = csv\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1: unknown config key 'data\.format'"):
            parse_config_file(path)
        with pytest.raises(ConfigError, match=r"unknown config key 'data\.format'"):
            build_run_config({"data.format": "csv"})

    def test_manifest_is_flat_and_complete(self):
        manifest = config_manifest(_config())
        assert manifest["loss.proxy"] == "attention"
        assert manifest["schedule.start"] == 1.0
        assert manifest["schedule.end"] == 0.2
        assert manifest["model.hidden"] == [16, 16]
        assert all(not isinstance(v, dict) for v in manifest.values())

    def test_every_run_config_field_has_one_key(self):
        base = RunConfig()
        leaves = []
        for f in dataclasses.fields(base):
            group = getattr(base, f.name)
            if dataclasses.is_dataclass(group):
                leaves += [f"{f.name}.{g.name}" for g in dataclasses.fields(group)]
            else:
                leaves.append(f.name)
        assert sorted(target for target, _ in _KEYS.values()) == sorted(leaves)

    def test_manifest_has_exactly_the_config_keys(self):
        assert list(config_manifest(_config())) == list(_KEYS)

    def test_manifest_written_back_rebuilds_the_config(self, tmp_path):
        config = _config(data_path="feats.avfd", eval_ks=(1, 3), output_dir="out",
                         loss=LossConfig(proxy="identity", margin=0.7))
        lines = []
        for key, value in config_manifest(config).items():
            if value is None:
                continue
            if isinstance(value, list):
                value = ",".join(str(v) for v in value)
            lines.append(f"{key} = {value}")
        path = tmp_path / "manifest.cfg"
        path.write_text("\n".join(lines) + "\n")
        assert build_run_config(parse_config_file(path)) == config


class TestBench:
    def test_variant_transforms(self):
        base = _config()
        assert variant_config(base, "full") is base
        assert variant_config(base, "no-ldis").loss.pair_weight == 0.0
        no_sd = variant_config(base, "no-self-dis")
        assert no_sd.schedule_start == 1.0 and no_sd.schedule_end == 1.0
        assert variant_config(base, "no-aa").loss.proxy == "identity"
        both = variant_config(base, "no-ldis-no-aa")
        assert both.loss.pair_weight == 0.0 and both.loss.proxy == "identity"
        assert variant_config(base, "linear").schedule_kind == "linear"
        assert variant_config(base, "cosine").schedule_kind == "cosine"
        assert variant_config(base, "hard-triplet").loss.strategy == "hard"
        with pytest.raises(ConfigError, match="unknown bench variant"):
            variant_config(base, "no-such-thing")

    @pytest.mark.parametrize("base", [_config(), RunConfig()], ids=["small", "default"])
    def test_variant_manifest_is_base_plus_overrides(self, base):
        for name, overrides in VARIANTS.items():
            assert set(overrides) <= set(_KEYS)
            expected = {**config_manifest(base), **overrides}
            assert config_manifest(variant_config(base, name)) == expected

    def test_every_variant_name_is_checked_before_training(self, monkeypatch):
        bench_module = importlib.import_module("avdistill.bench")
        calls = []
        monkeypatch.setattr(bench_module, "train", lambda cfg: calls.append(cfg))
        with pytest.raises(ConfigError, match="unknown bench variant"):
            bench(_config(), ("full", "no-such"))
        assert calls == []

    def test_no_self_dis_never_uses_soft_labels(self):
        result = train(variant_config(_config(), "no-self-dis"))
        assert all(
            r.labeled_fraction == 1.0 for r in result.records if r.kind == "step"
        )

    def test_grid_rows_and_json(self, tmp_path):
        base = _config(epochs=2, eval_every=0)
        rows = bench(base, variants=("full", "no-aa"), out_dir=tmp_path / "grid")
        assert [row["variant"] for row in rows] == ["full", "no-aa"]
        for row in rows:
            for key in ("map_a2v", "map_v2a", "map_avg"):
                assert 0.0 <= row[key] <= 1.0
        assert rows[1]["manifest"]["loss.proxy"] == "identity"
        assert rows[0]["manifest"]["loss.proxy"] == "attention"

        saved = json.loads((tmp_path / "grid" / "bench.json").read_text())
        assert [row["variant"] for row in saved] == ["full", "no-aa"]
        assert (tmp_path / "grid" / "full" / "model.xmdl").exists()
        assert (tmp_path / "grid" / "no-aa" / "metrics.jsonl").exists()

    def test_format_table(self):
        rows = [
            {"variant": "full", "map_a2v": 0.5, "map_v2a": 0.25, "map_avg": 0.375},
        ]
        text = format_table(rows)
        assert "variant" in text.splitlines()[0]
        assert "full" in text.splitlines()[2]
        assert "0.3750" in text


class TestVariantEquivalence:
    def test_full_vs_no_self_dis_share_the_supervised_path(self):
        """With the schedule pinned at 1.0 the full variant IS no-self-dis."""
        base = _config(schedule_start=1.0, schedule_end=1.0)
        a = train(base)
        b = train(variant_config(base, "no-self-dis"))
        for p, q in zip(a.model.parameters(), b.model.parameters()):
            np.testing.assert_array_equal(p, q)
