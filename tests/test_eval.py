"""Retrieval ranking, average precision, and bidirectional MAP reports."""

import importlib
import threading

import numpy as np
import pytest

from avdistill import (
    NumericError,
    PairedBatch,
    ShapeError,
    TowerSpec,
    TwoTowerModel,
    evaluate,
    one_hot,
    pairwise_normalized_distances,
)
from avdistill.evaluate import _direction_metrics
from avdistill.model import Tower

from oracles import slow_map, slow_precision_at_k, stable_direction_metrics

# The package's `evaluate` attribute is the function; fetch the module.
_evaluate_module = importlib.import_module("avdistill.evaluate")


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


def _brute_force_cases(rng):
    cases = [_random_instance(rng, int(rng.integers(2, 13))) for _ in range(20)]
    # More pairs than one ranking block, ending in a partial block.
    cases.append(_random_instance(rng, 300, n_classes=5))
    # One-hot cluster codes with labels drawn apart from the clusters:
    # relevant and irrelevant items tie exactly, so the index rule decides AP.
    for n, n_clusters in ((12, 3), (40, 4), (300, 6)):
        clusters = one_hot(rng.integers(0, n_clusters, size=n), n_clusters).astype(float)
        labels = rng.integers(0, 3, size=n)
        cases.append((_identity_model(n_clusters), PairedBatch(clusters, clusters.copy(), labels)))
    return cases


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
        for model, data in _brute_force_cases(rng):
            report = evaluate(model, data)
            emb = model.encode(data)
            dist = pairwise_normalized_distances(emb.audio, emb.visual)
            labels = data.labels
            for direction, d, mean_ap in (
                ("a2v", dist, report.map_a2v), ("v2a", dist.T, report.map_v2a)
            ):
                assert abs(mean_ap - slow_map(d, labels, labels)) < 1e-12
                for k, value in report.precision_at_k[direction].items():
                    assert abs(value - slow_precision_at_k(d, labels, labels, k)) < 1e-12

    def test_one_cpu_and_two_give_the_same_report(self, rng, usable_cpus):
        for model, data in _brute_force_cases(rng):
            usable_cpus(1)
            serial = evaluate(model, data).as_dict()
            usable_cpus(2)
            assert evaluate(model, data).as_dict() == serial

    def test_a_direction_runs_on_the_worker_only_with_two_cpus(
        self, rng, usable_cpus, monkeypatch
    ):
        model, data = _random_instance(rng, 8)
        threads = []

        def spy(*args):
            threads.append(threading.current_thread())
            return _direction_metrics(*args)

        monkeypatch.setattr(_evaluate_module, "_direction_metrics", spy)
        for cpus, on_worker in ((1, 0), (2, 1)):
            usable_cpus(cpus)
            threads.clear()
            evaluate(model, data)
            assert len(threads) == 2
            assert sum(t is not threading.current_thread() for t in threads) == on_worker

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

    def test_non_finite_embeddings_rejected(self):
        model = _identity_model(2)
        model.parameters()[0][0, 0] = np.nan
        labels = np.array([0, 1])
        feats = one_hot(labels, 2).astype(float)
        with pytest.raises(NumericError, match="non-finite embedding values in evaluation"):
            evaluate(model, PairedBatch(feats, feats, labels))


def _kernel_cases(rng):
    """Square distance matrices with shared labels, from tie-free to all-tied."""
    n = 96
    gaussian = rng.standard_normal((n, n))
    grid = rng.integers(0, 8, size=(n, n)) * 0.25
    flat = np.full((n, n), 0.5)
    signed_zeros = rng.standard_normal((n, n))
    signed_zeros[rng.random((n, n)) < 0.2] = 0.0
    signed_zeros[rng.random((n, n)) < 0.2] = -0.0
    # NaN never compares equal: an equality test alone would miss these rows.
    nans = rng.standard_normal((n, n))
    nans[rng.random((n, n)) < 0.1] = np.nan
    # Every third row carries one equal pair; the rest stay tie-free.
    mixed = rng.standard_normal((n, n))
    mixed[::3, 1] = mixed[::3, n - 2]
    return [gaussian, grid, flat, signed_zeros, nans, mixed]


class TestRankingKernel:
    """`_direction_metrics` against the all-stable-sort kernel, bit for bit."""

    # The module's block and a smaller one; both end the 96 rows in a partial block.
    @pytest.mark.parametrize("block", [_evaluate_module._BLOCK, 40])
    def test_matches_stable_kernel(self, rng, monkeypatch, block):
        monkeypatch.setattr(_evaluate_module, "_BLOCK", block)
        ks = (1, 5, 10, 96, 97, 1000)  # the last two exceed the 96-item gallery
        for dist in _kernel_cases(rng):
            labels = rng.integers(0, 4, size=dist.shape[0])
            for d in (dist, dist.T):
                assert _direction_metrics(d, labels, ks) == stable_direction_metrics(d, labels, ks)


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
        assert [line.split(" = ")[0] for line in text.splitlines()] == [
            "map_a2v", "map_v2a", "map_avg",
            "precision_a2v@1", "precision_a2v@5", "precision_v2a@1", "precision_v2a@5",
            "n_queries_a2v", "n_queries_v2a", "n_excluded_a2v", "n_excluded_v2a",
            "distance",
        ]
