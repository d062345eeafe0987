"""Proxy transforms, triplet mining, the three loss terms, and their composite."""

import math
import tracemalloc

import numpy as np
import pytest

from avdistill import (
    ConfigError,
    DataError,
    EmbeddingBatch,
    LossConfig,
    NormalizationError,
    NumericError,
    ShapeError,
    build_triplets,
    composite_loss,
    label_masks,
    one_hot,
    pairwise_normalized_distances,
    partition_batch,
)
from avdistill.losses import (
    _ANCHOR_BLOCK,
    TripletSet,
    _batch_all_side,
    _batch_triplet_reduce,
    label_loss,
    normalize_rows,
    pair_distance_loss,
)

from oracles import (
    cross_modal_triplet_loss,
    explicit_batch_all,
    explicit_batch_all_side,
    normalized_distance,
    numeric_gradient,
    proxy_transform,
    slow_build_all_triplets,
    slow_build_hard_triplets,
    slow_proxy,
    slow_triplet_loss,
    softmax_pointing_masks,
    triplet_terms,
)

IDENTITY = LossConfig(proxy="identity")
ATTENTION = LossConfig(proxy="attention")


def _random_embeddings(rng, n=6, dim=4):
    return EmbeddingBatch(rng.standard_normal((n, dim)), rng.standard_normal((n, dim)))


class TestLossConfig:
    def test_defaults(self):
        cfg = LossConfig()
        assert cfg.margin == 1.2
        assert cfg.strategy == "all"
        assert cfg.anchor_mode == "symmetric"
        assert cfg.proxy == "attention"
        assert cfg.pair_weight == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            LossConfig(margin=0.0)
        with pytest.raises(ConfigError):
            LossConfig(strategy="semi-hard")
        # Training always anchors both modalities; the one-sided modes are refused.
        for mode in ("both", "audio", "visual"):
            with pytest.raises(ConfigError, match=f"anchor_mode must be 'symmetric', got '{mode}'"):
                LossConfig(anchor_mode=mode)
        with pytest.raises(ConfigError):
            LossConfig(proxy="mlp")
        with pytest.raises(ConfigError):
            LossConfig(pair_weight=-1.0)


class TestProxyTransform:
    def test_identity_is_bitwise(self, rng):
        emb = rng.standard_normal((5, 3))
        np.testing.assert_array_equal(proxy_transform(emb, IDENTITY), emb)

    def test_attention_single_row_is_fixed_point(self, rng):
        emb = rng.standard_normal((1, 4))
        np.testing.assert_allclose(proxy_transform(emb, ATTENTION), emb, atol=1e-12)

    def test_attention_identical_rows_stay_identical(self):
        emb = np.tile([[1.0, -2.0, 0.5]], (2, 1))
        out = proxy_transform(emb, ATTENTION)
        np.testing.assert_allclose(out, emb, atol=1e-12)

    def test_attention_matches_row_loop(self, rng):
        emb = rng.standard_normal((6, 5))
        np.testing.assert_allclose(
            proxy_transform(emb, ATTENTION), slow_proxy(emb, ATTENTION), atol=1e-12
        )

    def test_attention_mixes_within_modality(self, rng):
        emb = rng.standard_normal((4, 3))
        out = proxy_transform(emb, ATTENTION)
        assert not np.allclose(out, emb)


class TestNormalizedDistance:
    def test_identical_vectors(self):
        v = np.array([1.0, 2.0, 3.0])
        assert normalized_distance(v, v) == 0.0

    def test_orthogonal_unit_vectors(self):
        d = normalized_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert abs(d - math.sqrt(2.0)) < 1e-12

    def test_scale_invariance(self):
        e1 = np.array([1.0, 0.0])
        assert normalized_distance(2.0 * e1, e1) == 0.0

    def test_range_is_zero_to_two(self, rng):
        for _ in range(20):
            d = normalized_distance(rng.standard_normal(5), rng.standard_normal(5))
            assert 0.0 <= d <= 2.0 + 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(NormalizationError, match="zero vector"):
            normalized_distance(np.zeros(3), np.ones(3))

    def test_normalize_rows_names_offender(self):
        m = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(NormalizationError, match="zero vector at row 1 of probe"):
            normalize_rows(m, "probe")

    def test_normalize_rows_rejects_an_overflowing_norm(self):
        # Each entry is finite, but the sum of squares overflows: the row
        # would divide to the zero vector.
        m = np.array([[1.0, 0.0], [1e200, 1e200], [0.0, 3.0]])
        with pytest.raises(NormalizationError, match="norm overflows at row 1 of probe"):
            normalize_rows(m, "probe")

    def test_normalize_rows_keeps_rows_with_finite_norms(self):
        # Up to about 1.3e154 an entry's square stays finite.
        m = np.array([[3.0, 4.0], [1e150, 1e150], [-1e154, 0.0]])
        unit, norms = normalize_rows(m)
        want = np.linalg.norm(m, axis=1)
        assert norms.tobytes() == want.tobytes() and norms[[0, 2]].tolist() == [5.0, 1e154]
        assert unit.tobytes() == (m / want[:, None]).tobytes()

    def test_pairwise_matches_scalar(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        dist = pairwise_normalized_distances(a, b)
        assert dist.shape == (4, 5)
        for i in range(4):
            for j in range(5):
                assert abs(dist[i, j] - normalized_distance(a[i], b[j])) < 1e-12

    def test_pairwise_bytes_match_formula(self, rng):
        a = rng.standard_normal((30, 7))
        # Shared rows make exact self-pairs, where rounding can push 2 - 2g below 0.
        b = np.concatenate([rng.standard_normal((20, 7)), a[:10], 3.0 * a[10:20]])
        for x, y in ((a, b), (a, a), (b, a)):
            ux, _ = normalize_rows(x)
            uy, _ = normalize_rows(y)
            expected = np.sqrt(np.clip(2.0 - 2.0 * (ux @ uy.T), 0.0, None))
            assert pairwise_normalized_distances(x, y).tobytes() == expected.tobytes()

    def test_row_halves_match_formula_at_odd_rows(self, rng):
        # 29 rows split into unequal halves of 14 and 15; one row leaves the
        # first half empty.
        a = rng.standard_normal((29, 7))
        b = np.concatenate([rng.standard_normal((21, 7)), a[:10], 3.0 * a[10:20]])
        for x, y in ((a, b), (b, a), (a[:1], b)):
            ux, _ = normalize_rows(x)
            uy, _ = normalize_rows(y)
            expected = np.sqrt(np.clip(2.0 - 2.0 * (ux @ uy.T), 0.0, None))
            assert pairwise_normalized_distances(x, y).tobytes() == expected.tobytes()

    def test_pairwise_holds_one_matrix(self, rng):
        n = 2000
        a = rng.standard_normal((n, 10))
        b = rng.standard_normal((n, 10))
        tracemalloc.start()
        try:
            pairwise_normalized_distances(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n * n * 8


class TestBuildTriplets:
    def test_identity_masks_audio_anchors(self):
        pos = np.eye(2, dtype=bool)
        dist = np.ones((2, 2))
        trip = build_triplets(pos, ~pos, "all", "audio", dist)
        got = set(zip(trip.anchor.tolist(), trip.positive.tolist(), trip.negative.tolist()))
        assert got == {(0, 0, 1), (1, 1, 0)}
        assert trip.anchor_is_audio.all()

    def test_symmetric_doubles_the_identity_case(self):
        pos = np.eye(2, dtype=bool)
        trip = build_triplets(pos, ~pos, "all", "symmetric", np.ones((2, 2)))
        assert len(trip) == 4
        assert trip.anchor_is_audio.sum() == 2

    def test_no_positives_yields_empty(self):
        zeros = np.zeros((3, 3), dtype=bool)
        trip = build_triplets(zeros, zeros, "all", "symmetric", np.ones((3, 3)))
        assert len(trip) == 0

    def test_hard_picks_farthest_positive_nearest_negative(self):
        pos = np.array([[1, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=bool)
        neg = np.array([[0, 0, 1], [0, 0, 0], [0, 0, 0]], dtype=bool)
        dist = np.array([[0.1, 0.9, 0.5], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        trip = build_triplets(pos, neg, "hard", "audio", dist)
        assert len(trip) == 1
        assert (trip.anchor[0], trip.positive[0], trip.negative[0]) == (1 - 1, 1, 2)

    def test_hard_ties_resolve_low(self):
        pos = np.array([[1, 1, 0]], dtype=bool).repeat(3, axis=0)
        neg = ~pos
        dist = np.full((3, 3), 0.4)
        trip = build_triplets(pos, neg, "hard", "audio", dist)
        np.testing.assert_array_equal(trip.positive, [0, 0, 0])
        np.testing.assert_array_equal(trip.negative, [2, 2, 2])

    def test_all_strategy_matches_enumeration(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 7))
            pos = rng.random((n, n)) < 0.4
            neg = rng.random((n, n)) < 0.4
            for mode in ("audio", "visual", "symmetric"):
                trip = build_triplets(pos, neg, "all", mode, rng.random((n, n)))
                got = set(
                    zip(
                        trip.anchor.tolist(),
                        trip.positive.tolist(),
                        trip.negative.tolist(),
                        trip.anchor_is_audio.tolist(),
                    )
                )
                assert got == set(slow_build_all_triplets(pos, neg, mode))

    def test_mask_shape_validation(self):
        with pytest.raises(ShapeError):
            build_triplets(np.zeros((2, 3), dtype=bool), np.zeros((2, 3), dtype=bool),
                           "all", "audio", np.zeros((2, 3)))
        with pytest.raises(ShapeError):
            build_triplets(np.zeros((2, 2), dtype=bool), np.zeros((2, 2), dtype=bool),
                           "all", "audio", np.zeros((3, 3)))


class TestTripletLoss:
    def _single_triplet(self, d_pos, d_neg):
        """Unit-circle construction giving exact normalized distances.

        Pair 0's audio row anchors against visual rows 0 (positive) and 1
        (negative); audio row 1 is unused filler to keep the batch paired.
        """
        cos_p = 1.0 - d_pos**2 / 2.0
        cos_n = 1.0 - d_neg**2 / 2.0
        audio = np.array([[1.0, 0.0], [0.0, 1.0]])
        visual = np.array(
            [[cos_p, math.sqrt(1.0 - cos_p**2)], [cos_n, -math.sqrt(1.0 - cos_n**2)]]
        )
        emb = EmbeddingBatch(audio, visual)
        trip = TripletSet(np.array([0]), np.array([0]), np.array([1]), np.array([True]))
        return emb, trip

    def test_satisfied_margin_is_zero(self):
        emb, trip = self._single_triplet(0.5, 2.0)
        value, (ga, gv) = cross_modal_triplet_loss(emb, trip, IDENTITY)
        assert value == 0.0
        assert not ga.any() and not gv.any()

    def test_violated_margin_value(self):
        emb, trip = self._single_triplet(1.0, 1.5)
        value, _ = cross_modal_triplet_loss(emb, trip, IDENTITY)
        assert abs(value - 0.7) < 1e-12

    def test_empty_set_is_zero(self, rng):
        emb = _random_embeddings(rng)
        value, (ga, gv) = cross_modal_triplet_loss(emb, TripletSet.empty(), IDENTITY)
        assert value == 0.0
        assert ga.shape == emb.audio.shape and not ga.any()
        assert gv.shape == emb.visual.shape and not gv.any()

    def test_matches_slow_loop_both_proxies(self, rng):
        for cfg in (IDENTITY, ATTENTION):
            for _ in range(15):
                n = int(rng.integers(3, 7))
                emb = _random_embeddings(rng, n=n)
                pos, neg = label_masks(rng.integers(0, 3, size=n))
                dist = pairwise_normalized_distances(
                    proxy_transform(emb.audio, cfg), proxy_transform(emb.visual, cfg)
                )
                trip = build_triplets(pos, neg, "all", "symmetric", dist)
                value, _ = cross_modal_triplet_loss(emb, trip, cfg)
                assert abs(value - slow_triplet_loss(emb.audio, emb.visual, trip, cfg)) <= 1e-9

    def test_hard_at_least_balanced_all(self, rng):
        # With equal per-anchor triple counts the pooled mean equals the
        # per-anchor mean, which hard mining can only push up.
        labels = np.array([0, 0, 1, 1])
        pos, neg = label_masks(labels)
        for _ in range(10):
            emb = _random_embeddings(rng, n=4)
            dist = pairwise_normalized_distances(emb.audio, emb.visual)
            all_trip = build_triplets(pos, neg, "all", "symmetric", dist)
            hard_trip = build_triplets(pos, neg, "hard", "symmetric", dist)
            v_all, _ = cross_modal_triplet_loss(emb, all_trip, IDENTITY)
            v_hard, _ = cross_modal_triplet_loss(emb, hard_trip, IDENTITY)
            assert v_hard >= v_all - 1e-12

    def test_scale_invariance_under_identity_proxy(self, rng):
        emb = _random_embeddings(rng, n=5)
        pos, neg = label_masks(np.array([0, 0, 1, 1, 2]))
        dist = pairwise_normalized_distances(emb.audio, emb.visual)
        trip = build_triplets(pos, neg, "all", "symmetric", dist)
        base, _ = cross_modal_triplet_loss(emb, trip, IDENTITY)
        scaled_audio = emb.audio.copy()
        scaled_audio[2] *= 37.0
        scaled, _ = cross_modal_triplet_loss(
            EmbeddingBatch(scaled_audio, emb.visual), trip, IDENTITY
        )
        assert abs(base - scaled) < 1e-9

    def test_gradients_match_finite_differences(self, rng):
        for cfg in (IDENTITY, ATTENTION):
            emb = _random_embeddings(rng, n=5)
            pos, neg = label_masks(np.array([0, 1, 0, 2, 1]))
            dist = pairwise_normalized_distances(
                proxy_transform(emb.audio, cfg), proxy_transform(emb.visual, cfg)
            )
            trip = build_triplets(pos, neg, "all", "symmetric", dist)
            assert len(trip) > 0
            value, (ga, gv) = cross_modal_triplet_loss(emb, trip, cfg)

            na = numeric_gradient(
                lambda a: cross_modal_triplet_loss(EmbeddingBatch(a, emb.visual), trip, cfg)[0],
                emb.audio,
            )
            nv = numeric_gradient(
                lambda v: cross_modal_triplet_loss(EmbeddingBatch(emb.audio, v), trip, cfg)[0],
                emb.visual,
            )
            for analytic, numeric in ((ga, na), (gv, nv)):
                denom = np.maximum(1e-6, np.abs(analytic) + np.abs(numeric))
                assert (np.abs(analytic - numeric) / denom).max() < 1e-4


class TestLabelLoss:
    def test_exact_projections_cost_nothing(self):
        labels = np.array([0, 1, 0])
        targets = one_hot(labels, 2).astype(float)
        emb = EmbeddingBatch(targets.copy(), targets.copy())
        value, (ga, gv) = label_loss(emb, labels, np.arange(3))
        assert value == 0.0
        assert not ga.any() and not gv.any()

    def test_unit_offset_costs_one(self):
        labels = np.array([1])
        targets = one_hot(labels, 3).astype(float)
        audio = targets + np.array([[1.0, 0.0, 0.0]])
        emb = EmbeddingBatch(audio, targets.copy())
        value, _ = label_loss(emb, labels, np.array([0]))
        assert abs(value - 1.0) < 1e-12

    def test_empty_subset_is_zero(self, rng):
        emb = EmbeddingBatch(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        value, (ga, gv) = label_loss(emb, np.array([0, 1]), np.array([], dtype=np.int64))
        assert value == 0.0 and not ga.any() and not gv.any()

    def test_subset_rows_only(self, rng):
        labels = np.array([0, 1, 1])
        targets = one_hot(labels, 2).astype(float)
        audio = targets.copy()
        audio[1] += [3.0, 4.0]
        emb = EmbeddingBatch(audio, targets.copy())
        value, (ga, _) = label_loss(emb, labels, np.array([0, 2]))
        assert value == 0.0
        assert not ga[1].any()

    def test_label_outside_the_classes_rejected(self, rng):
        emb = EmbeddingBatch(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        with pytest.raises(DataError, match=r"label 2 at position 1 outside \[0, 2\)"):
            label_loss(emb, np.array([1, 2]), np.arange(2))

    def test_one_label_per_row(self, rng):
        emb = EmbeddingBatch(rng.standard_normal((3, 2)), rng.standard_normal((3, 2)))
        with pytest.raises(ShapeError, match=r"labels shape \(2,\) does not match 3"):
            label_loss(emb, np.array([0, 1]), np.arange(2))

    def test_gradient_matches_finite_differences(self, rng):
        labels = np.array([0, 1, 2, 1])
        emb = _random_embeddings(rng, n=4, dim=3)
        subset = np.array([0, 2, 3])
        _, (ga, gv) = label_loss(emb, labels, subset)
        na = numeric_gradient(
            lambda a: label_loss(EmbeddingBatch(a, emb.visual), labels, subset)[0], emb.audio
        )
        np.testing.assert_allclose(ga, na, atol=1e-7)
        nv = numeric_gradient(
            lambda v: label_loss(EmbeddingBatch(emb.audio, v), labels, subset)[0], emb.visual
        )
        np.testing.assert_allclose(gv, nv, atol=1e-7)


class TestPairDistanceLoss:
    def test_identical_projections(self, rng):
        m = rng.standard_normal((4, 3))
        value, (ga, gv) = pair_distance_loss(EmbeddingBatch(m, m.copy()))
        assert value == 0.0 and not ga.any() and not gv.any()

    def test_single_unit_offset(self):
        audio = np.array([[1.0, 0.0]])
        visual = np.array([[0.0, 0.0]])
        value, _ = pair_distance_loss(EmbeddingBatch(audio, visual))
        assert value == 1.0

    def test_mean_over_pairs(self):
        audio = np.array([[1.0, 0.0], [0.0, 0.0]])
        visual = np.zeros((2, 2))
        value, _ = pair_distance_loss(EmbeddingBatch(audio, visual))
        assert abs(value - 0.5) < 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        emb = _random_embeddings(rng, n=5, dim=3)
        _, (ga, gv) = pair_distance_loss(emb)
        na = numeric_gradient(
            lambda a: pair_distance_loss(EmbeddingBatch(a, emb.visual))[0], emb.audio
        )
        np.testing.assert_allclose(ga, na, atol=1e-7)
        np.testing.assert_allclose(gv, -na, atol=1e-7)


class TestCompositeLoss:
    def test_total_is_the_weighted_sum(self, small_model, small_batch):
        cfg = LossConfig(pair_weight=0.5)
        plan = partition_batch(len(small_batch), 0.5, seed=1)
        breakdown, _ = composite_loss(small_model, small_batch, plan, cfg, step_seed=2)
        expected = breakdown.label_term + breakdown.triplet_term + 0.5 * breakdown.pair_term
        assert abs(breakdown.total - expected) < 1e-12
        d = breakdown.as_dict()
        assert set(d) == {"label_term", "triplet_term", "pair_term", "total"}

    def test_fully_labeled_plan_is_pure_supervision(self, small_model, small_batch):
        """With r = 1.0 every term must come from stored labels alone."""
        cfg = LossConfig()
        n = len(small_batch)
        plan = partition_batch(n, 1.0, seed=0)
        breakdown, _ = composite_loss(small_model, small_batch, plan, cfg, step_seed=9)

        emb = small_model.encode(small_batch, training=True, step_seed=9)
        label_value, _ = label_loss(emb, small_batch.labels, np.arange(n))
        pos, neg = label_masks(small_batch.labels)
        dist = pairwise_normalized_distances(
            proxy_transform(emb.audio, cfg), proxy_transform(emb.visual, cfg)
        )
        trip = build_triplets(pos, neg, cfg.strategy, cfg.anchor_mode, dist)
        trip_value, _ = cross_modal_triplet_loss(emb, trip, cfg)
        pair_value, _ = pair_distance_loss(emb)

        assert abs(breakdown.label_term - label_value) < 1e-9
        assert abs(breakdown.triplet_term - trip_value) < 1e-9
        assert abs(breakdown.pair_term - pair_value) < 1e-9

    def test_plan_size_mismatch(self, small_model, small_batch):
        plan = partition_batch(4, 0.5, seed=0)
        with pytest.raises(ConfigError, match="partition plan covers 4 rows but the batch has 6"):
            composite_loss(small_model, small_batch, plan, LossConfig())

    def test_non_finite_weights_detected(self, small_model, small_batch):
        small_model.parameters()[0][:] = np.inf
        # Fully labeled: no teacher pass runs, so the student pass sees them first.
        plan = partition_batch(len(small_batch), 1.0, seed=0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="student pass"):
                composite_loss(small_model, small_batch, plan, LossConfig(), step_seed=0)

    def test_non_finite_teacher_pass_is_named(self, small_model, small_batch):
        # Unchecked, an all-NaN logit row's argmax (0) would pass as soft positives.
        small_model.parameters()[0][0, 0] = np.nan
        plan = partition_batch(len(small_batch), 0.5, seed=0)
        with np.errstate(invalid="ignore"):
            with pytest.raises(NumericError, match="non-finite embedding values in the teacher pass"):
                composite_loss(small_model, small_batch, plan, LossConfig(), step_seed=0)

    @pytest.mark.parametrize("strategy", ["all", "hard"])
    @pytest.mark.parametrize("fraction", [1.0, 0.5, 0.0], ids=["labeled", "mixed", "soft"])
    def test_float32_batch_matches_its_float64_copy(
        self, small_model, small_batch, float32_twins, strategy, fraction
    ):
        cfg = LossConfig(strategy=strategy)
        plan = partition_batch(len(small_batch), fraction, seed=2)
        runs = []
        for batch in float32_twins(small_batch):
            breakdown, grads = composite_loss(small_model, batch, plan, cfg, step_seed=3)
            runs.append((breakdown, [g.copy() for g in grads]))  # the next backward overwrites them
        (got, got_grads), (want, want_grads) = runs
        assert got == want
        for g, expected in zip(got_grads, want_grads, strict=True):
            assert np.array_equal(g, expected)

    def test_mixed_plan_uses_both_sources(self, small_model, small_batch):
        cfg = LossConfig()
        full = partition_batch(len(small_batch), 1.0, seed=3)
        mixed = partition_batch(len(small_batch), 0.5, seed=3)
        b_full, _ = composite_loss(small_model, small_batch, full, cfg, step_seed=5)
        b_mixed, _ = composite_loss(small_model, small_batch, mixed, cfg, step_seed=5)
        assert b_full.total != b_mixed.total

    def test_gradients_survive_grad_check(self):
        _grad_check_composite(LossConfig())

    @pytest.mark.parametrize("cfg", [LossConfig(strategy="hard")], ids=["hard"])
    def test_gradients_survive_grad_check_per_mode(self, cfg):
        _grad_check_composite(cfg)

    def test_batch_of_800_stays_quadratic_in_memory(self):
        from avdistill import PairedBatch, TowerSpec, TwoTowerModel

        n = 800
        rng = np.random.default_rng(8)
        batch = PairedBatch(
            rng.standard_normal((n, 4)), rng.standard_normal((n, 5)), np.arange(n) % 10
        )
        model = TwoTowerModel.create(TowerSpec(4, 10, (8,)), TowerSpec(5, 10, (8,)), seed=0)
        plan = partition_batch(n, 1.0, seed=0)
        tracemalloc.start()
        try:
            breakdown, _ = composite_loss(model, batch, plan, LossConfig(), step_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The explicit triples would number 92M here, several GB of indices.
        assert math.isfinite(breakdown.triplet_term)
        assert peak < 128 * 2**20

    @pytest.mark.parametrize("n, bound_mb", [(400, 16), (800, 60)])
    def test_fully_labeled_batch_all_step_stays_within_its_memory_bound(self, n, bound_mb):
        # Reference dims. The warm-up call sizes the towers' training buffers,
        # so the traced call allocates only the loss path's temporaries. Two
        # batch-all sides reducing whole n x n arrays at once take about 27 MB
        # at 400 rows and 99 MB at 800, past these bounds.
        from avdistill import PairedBatch, TowerSpec, TwoTowerModel

        rng = np.random.default_rng(8)
        batch = PairedBatch(
            rng.standard_normal((n, 128)), rng.standard_normal((n, 1024)), np.arange(n) % 10
        )
        model = TwoTowerModel.create(
            TowerSpec(128, 10, (1024,) * 3), TowerSpec(1024, 10, (1024,) * 3), seed=0
        )
        plan = partition_batch(n, 1.0, seed=0)
        composite_loss(model, batch, plan, LossConfig(), step_seed=0)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            composite_loss(model, batch, plan, LossConfig(), step_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= bound_mb * 1e6


def _grad_check_composite(cfg):
    from avdistill import SyntheticSpec, TowerSpec, TwoTowerModel, generate_synthetic, grad_check
    from avdistill.model import Tower

    # Clustered inputs keep the teacher's alignment argmaxes decisive, so
    # the finite-difference probe never crosses a mask boundary.
    _, batch = generate_synthetic(
        SyntheticSpec(n_classes=3, pairs_per_class=2, audio_dim=6, visual_dim=9,
                      noise_scale=0.3, seed=1)
    )
    a_spec = TowerSpec(input_dim=6, output_dim=3, hidden_dims=(8, 8), dropout_rate=0.1)
    v_spec = TowerSpec(input_dim=9, output_dim=3, hidden_dims=(8, 8), dropout_rate=0.1)
    model = TwoTowerModel.create(a_spec, v_spec, seed=2)
    plan = partition_batch(len(batch), 0.5, seed=4)

    def closure(params):
        probe = TwoTowerModel(
            Tower.from_parameters(a_spec, [p.copy() for p in params[:6]]),
            Tower.from_parameters(v_spec, [p.copy() for p in params[6:]]),
        )
        breakdown, grads = composite_loss(
            probe, batch, plan, cfg, step_seed=11
        )
        return breakdown.total, grads

    err = grad_check(closure, model.parameters(), tolerance=1e-3, max_coords_per_tensor=12)
    assert err < 1e-3


def _mutual_pointing_mask(rng, n):
    points_a = rng.random((n, n)).argmax(axis=1)
    points_v = rng.random((n, n)).argmax(axis=1)
    return points_a[:, None] == points_v[None, :]


# Row counts on each side of the batch-all reducer's anchor-block edges, with
# the classes of their label masks: few enough triples to materialize.
_BLOCK_EDGE_ROWS = (
    (1, 1),
    (_ANCHOR_BLOCK - 1, 4),
    (_ANCHOR_BLOCK, 4),
    (_ANCHOR_BLOCK + 1, 4),
    (2 * _ANCHOR_BLOCK + 1, 8),
    (400, 200),
)


def _reducer_cases(rng):
    """Positive masks and distances covering the reducer's edge cases, several of each kind.

    Every non-positive cell is a negative, as in training. The last cases
    cross the batch-all reducer's anchor blocks.
    """
    for i in range(40):
        n = int(rng.integers(1, 12))
        kind = i % 4
        if kind == 0:  # label masks, some classes singletons
            pos, _ = label_masks(rng.integers(0, 4, size=n))
        elif kind == 1:  # mutual-pointing masks of two random score matrices
            pos = _mutual_pointing_mask(rng, n)
        elif kind == 2:  # sparse masks: anchors with no positive or no negative
            pos = rng.random((n, n)) < 0.3
            if i % 8 == 2:
                pos[0] = False
            else:
                pos[:, -1] = True
        else:  # all-positive rows next to ordinary ones
            pos, _ = label_masks(rng.integers(0, 3, size=n))
            pos[rng.random(n) < 0.3] = True
        yield from _with_distances(rng, pos)
    for n, classes in _BLOCK_EDGE_ROWS:
        for pos in (label_masks(rng.integers(0, classes, size=n))[0],
                    _mutual_pointing_mask(rng, n)):
            yield from _with_distances(rng, pos)


def _with_distances(rng, pos):
    n = pos.shape[0]
    dist = rng.uniform(0.0, 2.0, size=(n, n))
    yield pos, dist, 1.2
    # Quantized distances with margin 0.5 produce exact d_aq == d_ap + margin ties.
    yield pos, np.round(dist * 4.0) / 4.0, 0.5


def _assert_batch_all_matches_explicit_triples(pos, dist, margin, value, d_dist):
    """Bit for bit: each side's hinges, counts and triple count, then the reduced mean and gradient."""
    for side_pos, side_dist in ((pos, dist), (pos.T, dist.T)):
        hinge, counts, n_triples = _batch_all_side(side_pos, side_dist, margin)
        ref_hinge, ref_counts, ref_n_triples = explicit_batch_all_side(side_pos, side_dist, margin)
        assert hinge.tobytes() == ref_hinge.tobytes()
        np.testing.assert_array_equal(counts, ref_counts)
        assert n_triples == ref_n_triples
    ref_value, ref_d_dist = explicit_batch_all(pos, dist, "symmetric", margin)
    assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
    assert d_dist.tobytes() == ref_d_dist.tobytes()


class TestBatchTripletReducer:
    """The training path's reducer against the explicit-triples reference.

    The reducer always anchors both modalities: the references' "symmetric" mode.
    """

    @pytest.mark.parametrize("anchor_mode", ["symmetric"])
    def test_all_matches_materialized_triples(self, rng, anchor_mode):
        for pos, dist, margin in _reducer_cases(rng):
            value, d_dist = _batch_triplet_reduce(pos, dist, "all", margin)
            _assert_batch_all_matches_explicit_triples(pos, dist, margin, value, d_dist)
            trip = build_triplets(pos, ~pos, "all", anchor_mode, dist)
            ref_value, ref_d_dist = triplet_terms(dist, trip, margin)
            assert abs(value - ref_value) <= 1e-12
            np.testing.assert_allclose(d_dist, ref_d_dist, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("anchor_mode", ["symmetric"])
    def test_hard_is_bit_identical_to_materialized_triples(self, rng, anchor_mode):
        for pos, dist, margin in _reducer_cases(rng):
            value, d_dist = _batch_triplet_reduce(pos, dist, "hard", margin)
            trip = build_triplets(pos, ~pos, "hard", anchor_mode, dist)
            ref_value, ref_d_dist = triplet_terms(dist, trip, margin)
            assert value == ref_value
            np.testing.assert_array_equal(d_dist, ref_d_dist)

    def test_tie_at_the_margin_is_inactive(self):
        # d_ap + margin == d_aq exactly: the hinge is zero and carries no gradient.
        pos = np.array([[True, False], [False, True]])
        dist = np.array([[0.25, 0.75], [0.75, 0.25]])
        for strategy in ("all", "hard"):
            value, d_dist = _batch_triplet_reduce(pos, dist, strategy, 0.5)
            assert value == 0.0
            assert not d_dist.any()


def _tie_heavy_cases(rng):
    """One-decimal embeddings with duplicated rows, under label and soft positive masks.

    Each positive mask is edited so that audio anchor 0 has no positive or,
    in alternate cases, visual anchor n - 1 has no negative. Every
    non-positive cell is a negative, so one cell cannot serve both edits.
    The last cases sit on each side of the batch-all reducer's first anchor
    block edge, with more classes so their triples stay few.
    """
    for i in range(40):
        yield from _tie_heavy_case(rng, i, int(rng.integers(2, 10)), classes=3)
    for i, n in enumerate((_ANCHOR_BLOCK - 1, _ANCHOR_BLOCK, _ANCHOR_BLOCK + 1)):
        yield from _tie_heavy_case(rng, i, n, classes=n // 4)


def _tie_heavy_case(rng, i, n, classes):
    audio, visual = (np.round(rng.standard_normal((n, 3)), 1) for _ in range(2))
    for m in (audio, visual):
        m[~m.any(axis=1), 0] = 0.1  # no zero rows: their distance is undefined
    audio[-1] = audio[0]
    visual[n // 2] = visual[0]
    labeled, _ = label_masks(rng.integers(0, classes, size=n))
    soft, _ = softmax_pointing_masks(audio, visual)
    for j, pos in enumerate((labeled, soft)):
        if (i + j) % 2 == 0:
            pos[0] = False
        else:
            pos[:, -1] = True
        yield audio, visual, pos


def _triplet_set(triples):
    return TripletSet(*zip(*triples)) if triples else TripletSet.empty()


class TestTieHeavyReducer:
    """Tied distances, duplicate rows and degenerate anchors, on one CPU and on two.

    The reducer always anchors both modalities: the triple loops' "symmetric" mode.
    """

    @pytest.mark.parametrize("strategy", ["all", "hard"])
    @pytest.mark.parametrize("anchor_mode", ["symmetric"])
    def test_matches_the_triple_loop_bytewise_across_cpus(
        self, rng, usable_cpus, strategy, anchor_mode
    ):
        for audio, visual, pos in _tie_heavy_cases(rng):
            dist = pairwise_normalized_distances(audio, visual)
            if strategy == "all":
                trip = _triplet_set(slow_build_all_triplets(pos, ~pos, anchor_mode))
            else:
                trip = _triplet_set(
                    slow_build_hard_triplets(pos, ~pos, audio, visual, anchor_mode)
                )
            for margin in (0.5, 1.2):
                runs = []
                for cpus in (1, 2):
                    usable_cpus(cpus)
                    runs.append(_batch_triplet_reduce(pos, dist, strategy, margin))
                (value, d_dist), (value_2, d_dist_2) = runs
                assert np.float64(value).tobytes() == np.float64(value_2).tobytes()
                assert d_dist.tobytes() == d_dist_2.tobytes()
                if strategy == "all":
                    _assert_batch_all_matches_explicit_triples(pos, dist, margin, value, d_dist)
                cfg = LossConfig(proxy="identity", margin=margin)
                assert abs(value - slow_triplet_loss(audio, visual, trip, cfg)) <= 1e-9
                _, ref_d_dist = triplet_terms(dist, trip, margin)
                np.testing.assert_allclose(d_dist, ref_d_dist, rtol=0.0, atol=1e-15)
