"""End-to-end guarantees the package ships with.

One test per shipped guarantee; the terminal summary prints one verdict line
for each. Empirical instances (learning quality, chance level, distillation
benefit) run frozen seeded configurations, so every assertion here is
deterministic.
"""

import json
import time

import numpy as np
import pytest

from avdistill import (
    DataError,
    EmbeddingBatch,
    FormatError,
    LossConfig,
    PairedBatch,
    RatioSchedule,
    RunConfig,
    SyntheticSpec,
    TowerSpec,
    TripletSet,
    TwoTowerModel,
    build_triplets,
    composite_loss,
    evaluate,
    generate_synthetic,
    label_masks,
    load_checkpoint,
    load_features,
    one_hot,
    pairwise_normalized_distances,
    partition_batch,
    save_checkpoint,
    save_features,
    soft_alignment,
    split,
    train,
    variant_config,
)
from avdistill.cli import EXIT_DATA, EXIT_OK, main
from avdistill.data import DatasetMeta
from avdistill.train import build_model

from oracles import (
    cross_modal_triplet_loss,
    proxy_transform,
    slow_map,
    slow_triplet_loss,
    softmax_pointing_masks,
)


def test_accept_external_features_end_to_end(tmp_path):
    """Feature files built outside the generator train and evaluate unmodified."""
    rng = np.random.default_rng(42)
    n_classes, per_class = 10, 4
    labels = np.repeat(np.arange(n_classes), per_class)
    audio_centroids = rng.standard_normal((n_classes, 128))
    visual_centroids = rng.standard_normal((n_classes, 1024))
    audio = (audio_centroids[labels] + 0.1 * rng.standard_normal((40, 128)))
    visual = (visual_centroids[labels] + 0.1 * rng.standard_normal((40, 1024)))
    audio = audio.astype(np.float32).astype(np.float64)
    visual = visual.astype(np.float32).astype(np.float64)

    path = tmp_path / "external.avfd"
    meta = DatasetMeta(n_pairs=40, audio_dim=128, visual_dim=1024, n_classes=10)
    save_features(path, meta, PairedBatch(audio, visual, labels))

    out_dir = tmp_path / "run"
    code = main([
        "train",
        "--data", str(path),
        "--epochs", "2",
        "--batch", "16",
        "--hidden", "32,32",
        "--eval-every", "0",
        "--out", str(out_dir),
    ])
    assert code == EXIT_OK
    assert main([
        "eval", "--model", str(out_dir / "model.xmdl"), "--data", str(path)
    ]) == EXIT_OK


def test_accept_oracle_equivalence():
    """Vectorized losses agree with naive enumerations on 100+ random instances."""
    rng = np.random.default_rng(7)

    # Triplet loss against the triple loop, 1e-9.
    proxies = (LossConfig(proxy="identity"), LossConfig(proxy="attention"),
               LossConfig(proxy="attention", proxy_temperature=0.5))
    for i in range(100):
        n = int(rng.integers(2, 9))
        emb = EmbeddingBatch(rng.standard_normal((n, 4)), rng.standard_normal((n, 4)))
        pos, neg = label_masks(rng.integers(0, 3, size=n))
        cfg = proxies[i % len(proxies)]
        strategy = ("all", "hard")[i % 2]
        dist = pairwise_normalized_distances(
            proxy_transform(emb.audio, cfg), proxy_transform(emb.visual, cfg)
        )
        trip = build_triplets(pos, neg, strategy, "symmetric", dist)
        value, _ = cross_modal_triplet_loss(emb, trip, cfg)
        assert abs(value - slow_triplet_loss(emb.audio, emb.visual, trip, cfg)) <= 1e-9

    # The training path's triplet term against the triple loop, 1e-9: labeled-only,
    # soft-only and mixed plans, the proxy over the whole batch, each subset's
    # triples from its own masks and a mean per subset.
    spec = TowerSpec(input_dim=5, output_dim=3, hidden_dims=(8,), dropout_rate=0.0)
    checked = 0
    while checked < 100:
        i = checked
        n = int(rng.integers(2, 9))
        model = TwoTowerModel.create(spec, spec, seed=int(rng.integers(0, 10_000)))
        batch = PairedBatch(
            rng.standard_normal((n, 5)), rng.standard_normal((n, 5)), rng.integers(0, 3, size=n)
        )
        emb = model.encode(batch, training=True, step_seed=i)
        if min(np.linalg.norm(emb.audio, axis=1).min(),
               np.linalg.norm(emb.visual, axis=1).min()) <= 1e-9:
            continue  # dead-ReLU row: normalized distance undefined
        plan = partition_batch(n, (1.0, 0.0, 0.5)[i % 3], seed=i)
        proxy = proxies[(i // 3) % len(proxies)]
        cfg = LossConfig(strategy=("all", "hard")[i % 2], proxy=proxy.proxy,
                         proxy_temperature=proxy.proxy_temperature,
                         label_weight=0.0, pair_weight=0.0)
        breakdown, _ = composite_loss(model, batch, plan, cfg, step_seed=i)

        subsets = [(plan.labeled_idx, label_masks(batch.labels[plan.labeled_idx]))]
        if plan.soft_idx.size > 0:
            teacher = model.encode(batch.take(plan.soft_idx), training=False)
            subsets.append((plan.soft_idx, softmax_pointing_masks(teacher.audio, teacher.visual)))
        dist = pairwise_normalized_distances(
            proxy_transform(emb.audio, cfg), proxy_transform(emb.visual, cfg)
        )
        expected = 0.0
        for idx, (pos, neg) in subsets:
            local = build_triplets(pos, neg, cfg.strategy, "symmetric", dist[np.ix_(idx, idx)])
            trip = TripletSet(idx[local.anchor], idx[local.positive], idx[local.negative],
                              local.anchor_is_audio)
            expected += slow_triplet_loss(emb.audio, emb.visual, trip, cfg)
        assert abs(breakdown.triplet_term - expected) <= 1e-9
        checked += 1

    # MAP against brute-force AP enumeration, 1e-12.
    checked = 0
    while checked < 100:
        n = int(rng.integers(2, 13))
        model = TwoTowerModel.create(
            TowerSpec(input_dim=5, output_dim=3, hidden_dims=(6,)),
            TowerSpec(input_dim=5, output_dim=3, hidden_dims=(6,)),
            seed=int(rng.integers(0, 10_000)),
        )
        data = PairedBatch(
            rng.standard_normal((n, 5)),
            rng.standard_normal((n, 5)),
            rng.integers(0, 3, size=n),
        )
        emb = model.encode(data)
        norms = min(
            float(np.linalg.norm(emb.audio, axis=1).min()),
            float(np.linalg.norm(emb.visual, axis=1).min()),
        )
        if norms <= 1e-9:
            continue  # dead-ReLU row: normalized distance undefined
        report = evaluate(model, data)
        dist = pairwise_normalized_distances(emb.audio, emb.visual)
        assert abs(report.map_a2v - slow_map(dist, data.labels, data.labels)) < 1e-12
        assert abs(report.map_v2a - slow_map(dist.T, data.labels, data.labels)) < 1e-12
        checked += 1


def test_accept_gradient_correctness():
    """The composite loss gradient survives finite differences in under a minute."""
    t0 = time.perf_counter()
    assert main(["grad-check"]) == EXIT_OK
    assert time.perf_counter() - t0 < 60.0


def test_accept_adjacency_laws():
    """Positive and negative masks partition every grid; one-hot codes recover labels."""
    rng = np.random.default_rng(11)
    for _ in range(1000):
        n = int(rng.integers(1, 13))
        emb = EmbeddingBatch(rng.standard_normal((n, 4)), rng.standard_normal((n, 4)))
        align = soft_alignment(emb)
        assert (align.positive_mask ^ align.negative_mask).all()
        assert not (align.positive_mask & align.negative_mask).any()

    for _ in range(200):
        n = int(rng.integers(1, 13))
        labels = rng.integers(0, 5, size=n)
        codes = one_hot(labels, 5).astype(float)
        align = soft_alignment(EmbeddingBatch(codes.copy(), codes.copy()))
        expect_pos, expect_neg = label_masks(labels)
        np.testing.assert_array_equal(align.positive_mask, expect_pos)
        np.testing.assert_array_equal(align.negative_mask, expect_neg)


def test_accept_schedule_contract():
    """Step plateaus are exact; linear and cosine are monotone with exact endpoints."""
    step = RatioSchedule(kind="step", start=1.0, end=0.2, total_epochs=1000, steps=5)
    assert {step.at(e) for e in range(1000)} == {1.0, 0.8, 0.6, 0.4, 0.2}
    assert step.at(0) == 1.0 and step.at(999) == 0.2

    for kind in ("linear", "cosine"):
        for total in (2, 5, 17, 1000):
            sched = RatioSchedule(kind=kind, start=1.0, end=0.2, total_epochs=total)
            seq = [sched.at(e) for e in range(total)]
            assert seq[0] == 1.0
            assert seq[-1] == 0.2
            assert all(a >= b for a, b in zip(seq, seq[1:]))


def test_accept_desk_scale_learning():
    """Separable 10x40 synthetic data trains to map >= 0.95 both ways in < 2 min."""
    config = RunConfig(
        synthetic=SyntheticSpec(seed=7),
        hidden_dims=(256, 256, 256),
        optimizer="adam",
        learning_rate=1e-3,
        batch_size=64,
        epochs=40,
        seed=7,
        eval_every=0,
    )
    t0 = time.perf_counter()
    result = train(config)
    elapsed = time.perf_counter() - t0
    assert result.final_report.map_a2v >= 0.95
    assert result.final_report.map_v2a >= 0.95
    assert elapsed < 120.0


def test_accept_self_distillation_benefit():
    """With noisy labels, scheduled self-supervision beats always-full supervision."""
    def mean_map(variant):
        scores = []
        for seed in (7, 11, 13):
            base = RunConfig(
                synthetic=SyntheticSpec(label_noise=0.2, seed=seed),
                hidden_dims=(256, 256, 256),
                optimizer="adam",
                learning_rate=3e-4,
                batch_size=64,
                epochs=100,
                seed=seed,
                eval_every=0,
            )
            result = train(variant_config(base, variant))
            scores.append(result.final_report.map_avg)
        return float(np.mean(scores))

    full = mean_map("full")
    ablated = mean_map("no-self-dis")
    assert full >= ablated


def test_accept_determinism(tmp_path):
    """Identical config and seed reproduce checkpoints bit-for-bit."""
    def run(tag):
        out = tmp_path / tag
        config = RunConfig(
            synthetic=SyntheticSpec(n_classes=4, pairs_per_class=8, audio_dim=16,
                                    visual_dim=20, noise_scale=0.1, seed=2),
            hidden_dims=(24, 24),
            batch_size=8,
            epochs=5,
            learning_rate=1e-3,
            seed=9,
            eval_every=2,
            output_dir=str(out),
        )
        train(config)
        return out

    a, b = run("first"), run("second")
    assert (a / "model.xmdl").read_bytes() == (b / "model.xmdl").read_bytes()

    # Metrics streams match except for the informational wall-clock field.
    lines_a = (a / "metrics.jsonl").read_text().splitlines()
    lines_b = (b / "metrics.jsonl").read_text().splitlines()
    assert len(lines_a) == len(lines_b)
    for la, lb in zip(lines_a, lines_b):
        da, db = json.loads(la), json.loads(lb)
        da.pop("wall_ms")
        db.pop("wall_ms")
        assert da == db


def test_accept_chance_level():
    """An untrained encoder scores near the random baseline on blurred clusters."""
    for seed in (0, 7, 11):
        spec = SyntheticSpec(noise_scale=1.0, seed=seed)
        meta, data = generate_synthetic(spec)
        _, test_data = split(data, 0.8, seed)
        model = build_model(RunConfig(seed=seed), meta)
        report = evaluate(model, test_data)
        assert 0.05 <= report.map_avg <= 0.20, f"seed {seed}: {report.map_avg}"


def test_accept_format_robustness(tmp_path):
    """Corrupt files fail with the documented error class; valid files roundtrip."""
    meta, data = generate_synthetic(
        SyntheticSpec(n_classes=3, pairs_per_class=4, audio_dim=8, visual_dim=8, seed=5)
    )
    data_path = tmp_path / "set.avfd"
    save_features(data_path, meta, data)

    # Dataset roundtrip is byte-lossless.
    meta2, data2 = load_features(data_path)
    resaved = tmp_path / "set2.avfd"
    save_features(resaved, meta2, data2)
    assert data_path.read_bytes() == resaved.read_bytes()

    # Truncated and corrupted datasets raise DataError and exit nonzero.
    cut = tmp_path / "cut.avfd"
    cut.write_bytes(data_path.read_bytes()[:-7])
    with pytest.raises(DataError):
        load_features(cut)
    bad = tmp_path / "bad.avfd"
    raw = bytearray(data_path.read_bytes())
    raw[0] = 0
    bad.write_bytes(bytes(raw))
    with pytest.raises(DataError):
        load_features(bad)
    train_args = ["train", "--epochs", "1", "--batch", "4", "--hidden", "8",
                  "--eval-every", "0"]
    assert main(train_args + ["--data", str(cut)]) == EXIT_DATA
    assert main(train_args + ["--data", str(bad)]) == EXIT_DATA

    # Checkpoint roundtrip is byte-lossless; truncation is rejected.
    model = TwoTowerModel.create(
        TowerSpec(input_dim=8, output_dim=3, hidden_dims=(8,)),
        TowerSpec(input_dim=8, output_dim=3, hidden_dims=(8,)),
        seed=1,
    )
    ckpt = tmp_path / "model.xmdl"
    save_checkpoint(model, ckpt)
    ckpt2 = tmp_path / "model2.xmdl"
    save_checkpoint(load_checkpoint(ckpt), ckpt2)
    assert ckpt.read_bytes() == ckpt2.read_bytes()

    broken = tmp_path / "broken.xmdl"
    broken.write_bytes(ckpt.read_bytes()[:-9])
    with pytest.raises(FormatError):
        load_checkpoint(broken)
    assert main(["eval", "--model", str(broken), "--data", str(data_path)]) == EXIT_DATA
