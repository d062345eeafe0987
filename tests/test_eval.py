"""Retrieval ranking, average precision, and bidirectional MAP reports."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdistill import (
    DataError,
    PairedBatch,
    ShapeError,
    TowerSpec,
    TwoTowerModel,
    average_precision,
    evaluate,
    one_hot,
    pairwise_normalized_distances,
    rank_gallery,
)
from avdistill.model import Tower

from oracles import slow_average_precision, slow_map


def _identity_model(n_classes):
    """Towers whose projections reproduce one-hot inputs exactly."""
    spec = TowerSpec(input_dim=n_classes, output_dim=n_classes,
                     hidden_dims=(n_classes,), dropout_rate=0.0)
    eye = np.eye(n_classes)
    zeros = np.zeros(n_classes)
    tensors = [eye.copy(), zeros.copy(), eye.copy(), zeros.copy()]
    return TwoTowerModel(
        Tower.from_parameters(spec, [t.copy() for t in tensors]),
        Tower.from_parameters(spec, [t.copy() for t in tensors]),
    )


def _random_instance(rng, n_pairs, n_classes=2, dim=4):
    # Reroll instances whose ReLU towers kill an embedding row outright;
    # normalized distances are undefined on zero vectors.
    while True:
        model = TwoTowerModel.create(
            TowerSpec(input_dim=dim, output_dim=n_classes, hidden_dims=(6,)),
            TowerSpec(input_dim=dim, output_dim=n_classes, hidden_dims=(6,)),
            seed=int(rng.integers(0, 1000)),
        )
        data = PairedBatch(
            rng.standard_normal((n_pairs, dim)),
            rng.standard_normal((n_pairs, dim)),
            rng.integers(0, n_classes, size=n_pairs),
        )
        emb = model.encode(data)
        norms_a = np.linalg.norm(emb.audio, axis=1)
        norms_v = np.linalg.norm(emb.visual, axis=1)
        if norms_a.min() > 1e-9 and norms_v.min() > 1e-9:
            return model, data


class TestRankGallery:
    def test_nearer_item_ranks_first(self):
        query = np.array([1.0, 0.0])
        gallery = np.array([[0.9, 0.1], [-1.0, 0.0]])
        np.testing.assert_array_equal(rank_gallery(query, gallery), [0, 1])

    def test_identical_gallery_keeps_input_order(self):
        query = np.array([1.0, 1.0])
        gallery = np.tile([[0.3, 0.4]], (4, 1))
        np.testing.assert_array_equal(rank_gallery(query, gallery), [0, 1, 2, 3])

    def test_matches_naive_sort(self, rng):
        query = rng.standard_normal(3)
        gallery = rng.standard_normal((8, 3))
        order = rank_gallery(query, gallery)
        d = pairwise_normalized_distances(query.reshape(1, -1), gallery)[0]
        naive = sorted(range(8), key=lambda j: (d[j], j))
        np.testing.assert_array_equal(order, naive)

    def test_empty_gallery_rejected(self):
        with pytest.raises(ShapeError):
            rank_gallery(np.ones(3), np.zeros((0, 3)))

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            rank_gallery(np.ones(3), np.zeros((2, 4)))


class TestAveragePrecision:
    def test_first_hit_only(self):
        assert average_precision(np.array([1, 0, 0], dtype=bool)) == 1.0

    def test_split_hits(self):
        ap = average_precision(np.array([1, 0, 1], dtype=bool))
        assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_late_single_hit(self):
        assert abs(average_precision(np.array([0, 0, 1], dtype=bool)) - 1.0 / 3.0) < 1e-12

    def test_all_relevant(self):
        assert average_precision(np.ones(5, dtype=bool)) == 1.0

    def test_no_relevant_is_data_error(self):
        with pytest.raises(DataError, match="without a relevant item"):
            average_precision(np.zeros(4, dtype=bool))

    def test_requires_1d(self):
        with pytest.raises(ShapeError):
            average_precision(np.zeros((2, 2), dtype=bool))

    @given(st.lists(st.booleans(), min_size=1, max_size=20).filter(any))
    @settings(max_examples=100, deadline=None)
    def test_matches_running_sum_oracle(self, rel):
        rel = np.array(rel, dtype=bool)
        assert abs(average_precision(rel) - slow_average_precision(rel)) < 1e-12


class TestEvaluate:
    def test_one_hot_embeddings_are_perfect(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        feats = one_hot(labels, 3).astype(float)
        data = PairedBatch(feats.copy(), feats.copy(), labels)
        report = evaluate(_identity_model(3), data)
        assert report.map_a2v == 1.0
        assert report.map_v2a == 1.0
        assert report.map_avg == 1.0
        assert report.precision_at_k["a2v"][1] == 1.0

    def test_matches_brute_force_map(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 13))
            model, data = _random_instance(rng, n)
            report = evaluate(model, data)
            emb = model.encode(data)
            dist = pairwise_normalized_distances(emb.audio, emb.visual)
            assert abs(report.map_a2v - slow_map(dist, data.labels, data.labels)) < 1e-12
            assert abs(report.map_v2a - slow_map(dist.T, data.labels, data.labels)) < 1e-12

    def test_map_avg_is_the_mean(self, rng):
        model, data = _random_instance(rng, 8)
        report = evaluate(model, data)
        assert abs(report.map_avg - (report.map_a2v + report.map_v2a) / 2.0) < 1e-15

    def test_permutation_invariance(self, rng):
        model, data = _random_instance(rng, 10)
        perm = rng.permutation(10)
        shuffled = PairedBatch(data.audio[perm], data.visual[perm], data.labels[perm])
        a = evaluate(model, data)
        b = evaluate(model, shuffled)
        assert abs(a.map_a2v - b.map_a2v) < 1e-12
        assert abs(a.map_v2a - b.map_v2a) < 1e-12

    def test_every_query_counts(self, rng):
        # The gallery always contains the query's own pair, so nothing drops.
        model, data = _random_instance(rng, 9, n_classes=3)
        report = evaluate(model, data)
        assert report.n_queries_a2v == 9 and report.n_queries_v2a == 9
        assert report.n_excluded_a2v == 0 and report.n_excluded_v2a == 0

    def test_ks_clipped_to_gallery(self, rng):
        model, data = _random_instance(rng, 4)
        report = evaluate(model, data, ks=(1, 5, 10))
        assert set(report.precision_at_k["a2v"]) == {1}

    def test_empty_data_rejected(self):
        model = _identity_model(2)
        empty = PairedBatch(np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        with pytest.raises(ShapeError):
            evaluate(model, empty)


class TestReportSerialization:
    def test_as_dict_stringifies_k(self, rng):
        model, data = _random_instance(rng, 6)
        d = evaluate(model, data, ks=(1, 5)).as_dict()
        assert set(d["precision_at_k"]["a2v"]) == {"1", "5"}
        assert "map_avg" in d and "distance" in d

    def test_format_text_lines(self, rng):
        model, data = _random_instance(rng, 6)
        text = evaluate(model, data).format_text()
        assert text.splitlines()[0].startswith("map_a2v = ")
        assert "map_avg = " in text
        assert "n_excluded_v2a = 0" in text
