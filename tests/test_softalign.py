"""Soft alignment, mutual-pointing masks, batch partitions, and the ratio schedule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdistill import (
    ConfigError,
    EmbeddingBatch,
    RangeError,
    RatioSchedule,
    ShapeError,
    label_masks,
    one_hot,
    partition_batch,
    soft_alignment,
)

from oracles import softmax_pointing_masks


class TestSoftAlignment:
    def test_single_pair_degenerates_to_certainty(self, rng):
        emb = EmbeddingBatch(rng.standard_normal((1, 4)), rng.standard_normal((1, 4)))
        align = soft_alignment(emb)
        np.testing.assert_array_equal(align.positive_mask, [[True]])

    def test_orthonormal_embeddings_align_diagonally(self):
        emb = EmbeddingBatch(np.eye(3), np.eye(3))
        align = soft_alignment(emb)
        np.testing.assert_array_equal(align.positive_mask, np.eye(3, dtype=bool))
        np.testing.assert_array_equal(align.negative_mask, ~np.eye(3, dtype=bool))

    def test_validation(self):
        empty = EmbeddingBatch(np.zeros((0, 4)), np.zeros((0, 4)))
        with pytest.raises(ShapeError):
            soft_alignment(empty)

    @pytest.mark.parametrize("kind", ["gaussian", "one_hot", "quarter_grid"])
    def test_matches_softmax_pointing_oracle(self, kind):
        # Argmax of the logits and argmax of their softmax rows can part only
        # where logits less than one ulp apart round to a softmax tie.
        rng = np.random.default_rng(29)
        for n in range(1, 14):
            for _ in range(20):
                if kind == "gaussian":
                    audio, visual = rng.standard_normal((2, n, 5))
                elif kind == "one_hot":
                    audio = one_hot(rng.integers(0, 4, size=n), 4).astype(float)
                    visual = one_hot(rng.integers(0, 4, size=n), 4).astype(float)
                else:
                    audio, visual = rng.integers(-2, 3, size=(2, n, 3)) * 0.25
                align = soft_alignment(EmbeddingBatch(audio, visual))
                expect_pos, expect_neg = softmax_pointing_masks(audio, visual)
                np.testing.assert_array_equal(align.positive_mask, expect_pos)
                np.testing.assert_array_equal(align.negative_mask, expect_neg)


def _from_logits(logits) -> EmbeddingBatch:
    """A batch whose teacher logits A @ V.T are exactly `logits` (V is the identity)."""
    logits = np.asarray(logits, dtype=float)
    return EmbeddingBatch(logits, np.eye(len(logits)))


class TestAlignmentMasks:
    def test_mutual_pointing_on_distinct_argmaxes(self):
        align = soft_alignment(_from_logits([[0.9, 0.1], [0.2, 0.8]]))
        np.testing.assert_array_equal(align.positive_mask, [[True, False], [False, True]])
        np.testing.assert_array_equal(align.negative_mask, [[False, True], [True, False]])

    def test_shared_argmax_collapses_to_all_positive(self):
        # Audio 0 scores highest in every row and every column.
        align = soft_alignment(_from_logits([[0.9, 0.7], [0.8, 0.6]]))
        assert align.positive_mask.all()
        assert not align.negative_mask.any()

    def test_argmax_ties_take_lowest_index(self):
        align = soft_alignment(_from_logits(np.full((2, 2), 0.5)))
        assert align.positive_mask.all()
        # Audio 0 ties between visuals 0 and 1, visual 1 between audios 0 and 1:
        # both take index 0, so only the cells pointing at position 0 are positive.
        align = soft_alignment(_from_logits([[1.0, 1.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(align.positive_mask, [[True, True], [False, False]])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_masks_partition_the_grid(self, seed, n):
        rng = np.random.default_rng(seed)
        align = soft_alignment(EmbeddingBatch(rng.random((n, n)), rng.random((n, n))))
        assert (align.positive_mask ^ align.negative_mask).all()
        assert not (align.positive_mask & align.negative_mask).any()


class TestLabelMasks:
    def test_block_structure(self):
        positive, negative = label_masks(np.array([0, 0, 1]))
        np.testing.assert_array_equal(
            positive, [[True, True, False], [True, True, False], [False, False, True]]
        )
        np.testing.assert_array_equal(negative, ~positive)

    def test_all_same_class_has_no_negatives(self):
        _, negative = label_masks(np.zeros(4, dtype=np.int64))
        assert not negative.any()

    def test_all_distinct_is_identity(self):
        positive, _ = label_masks(np.arange(5))
        np.testing.assert_array_equal(positive, np.eye(5, dtype=bool))

    def test_requires_1d(self):
        with pytest.raises(ShapeError):
            label_masks(np.zeros((2, 2), dtype=np.int64))


class TestPartitionBatch:
    def test_full_labeled_fraction(self):
        plan = partition_batch(400, 1.0, seed=0)
        assert len(plan.labeled_idx) == 400
        assert len(plan.soft_idx) == 0
        assert plan.n == 400

    def test_quarter_fraction_floors(self):
        plan = partition_batch(10, 0.25, seed=0)
        assert len(plan.labeled_idx) == 2
        assert len(plan.soft_idx) == 8

    def test_zero_fraction(self):
        plan = partition_batch(5, 0.0, seed=3)
        assert len(plan.labeled_idx) == 0
        assert len(plan.soft_idx) == 5

    def test_deterministic_per_seed(self):
        a = partition_batch(20, 0.5, seed=7)
        b = partition_batch(20, 0.5, seed=7)
        np.testing.assert_array_equal(a.labeled_idx, b.labeled_idx)
        c = partition_batch(20, 0.5, seed=8)
        assert not np.array_equal(a.labeled_idx, c.labeled_idx)

    def test_validation(self):
        with pytest.raises(ShapeError):
            partition_batch(0, 0.5, seed=0)
        with pytest.raises(ConfigError):
            partition_batch(5, -0.1, seed=0)
        with pytest.raises(ConfigError):
            partition_batch(5, 1.1, seed=0)

    @given(st.integers(1, 64), st.floats(0.0, 1.0), st.integers(0, 1000))
    @settings(max_examples=80, deadline=None)
    def test_partition_invariants(self, n, fraction, seed):
        plan = partition_batch(n, fraction, seed)
        assert len(plan.labeled_idx) == int(np.floor(fraction * n))
        merged = np.concatenate([plan.labeled_idx, plan.soft_idx])
        np.testing.assert_array_equal(np.sort(merged), np.arange(n))
        # Both halves come back sorted so downstream masks are reproducible.
        assert (np.diff(plan.labeled_idx) > 0).all()
        assert (np.diff(plan.soft_idx) > 0).all()


class TestRatioSchedule:
    def test_step_plateaus_are_exact(self):
        sched = RatioSchedule(kind="step", start=1.0, end=0.2, total_epochs=1000, steps=5)
        assert sched.at(0) == 1.0
        assert sched.at(999) == 0.2
        assert sched.at(500) == 0.6
        values = {sched.at(e) for e in range(1000)}
        assert values == {1.0, 0.8, 0.6, 0.4, 0.2}

    def test_step_plateaus_have_equal_width(self):
        sched = RatioSchedule(kind="step", start=1.0, end=0.2, total_epochs=1000, steps=5)
        seq = [sched.at(e) for e in range(1000)]
        for value in (1.0, 0.8, 0.6, 0.4, 0.2):
            assert seq.count(value) == 200

    def test_linear_midpoint(self):
        sched = RatioSchedule(kind="linear", start=1.0, end=0.2, total_epochs=5)
        assert sched.at(0) == 1.0
        assert sched.at(4) == 0.2
        assert abs(sched.at(2) - 0.6) < 1e-12

    def test_cosine_midpoint(self):
        sched = RatioSchedule(kind="cosine", start=1.0, end=0.2, total_epochs=5)
        assert sched.at(0) == 1.0
        assert sched.at(4) == 0.2
        assert abs(sched.at(2) - 0.6) < 1e-12

    def test_single_epoch_schedule(self):
        assert RatioSchedule(kind="linear", start=0.9, end=0.3, total_epochs=1).at(0) == 0.9

    def test_range_errors(self):
        sched = RatioSchedule(kind="step", total_epochs=10, steps=5)
        with pytest.raises(RangeError):
            sched.at(-1)
        with pytest.raises(RangeError):
            sched.at(10)

    def test_validation(self):
        with pytest.raises(ConfigError):
            RatioSchedule(kind="exponential")
        with pytest.raises(ConfigError):
            RatioSchedule(start=0.2, end=0.8)
        with pytest.raises(ConfigError):
            RatioSchedule(start=1.2, end=0.2)
        with pytest.raises(ConfigError):
            RatioSchedule(total_epochs=0)
        with pytest.raises(ConfigError):
            RatioSchedule(kind="step", steps=0)
        with pytest.raises(ConfigError):
            RatioSchedule(kind="step", steps=1, start=1.0, end=0.2)

    def test_constant_schedule_allowed(self):
        sched = RatioSchedule(kind="step", start=1.0, end=1.0, total_epochs=50, steps=1)
        assert all(sched.at(e) == 1.0 for e in range(50))

    @given(
        kind=st.sampled_from(["step", "linear", "cosine"]),
        start=st.floats(0.2, 1.0),
        drop=st.floats(0.0, 0.2),
        total=st.integers(2, 200),
        steps=st.integers(2, 10),
    )
    @settings(max_examples=80, deadline=None)
    def test_schedule_is_monotone_and_bounded(self, kind, start, drop, total, steps):
        end = max(0.0, start - drop)
        sched = RatioSchedule(kind=kind, start=start, end=end, total_epochs=total, steps=steps)
        seq = [sched.at(e) for e in range(total)]
        assert seq[0] == start
        # A step schedule with more plateaus than epochs never reaches the
        # final plateau, so only the other cases must land on end exactly.
        if kind != "step" or steps <= total:
            assert seq[-1] == end
        assert all(end <= v <= start for v in seq)
        assert all(a >= b for a, b in zip(seq, seq[1:]))
