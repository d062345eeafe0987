"""Retrieval ranking, average precision, and bidirectional MAP reports."""

import importlib
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdistill import (
    NumericError,
    PairedBatch,
    RunConfig,
    ShapeError,
    SyntheticSpec,
    TowerSpec,
    TwoTowerModel,
    evaluate,
    one_hot,
    pairwise_normalized_distances,
    resolve_dataset,
    train,
)
from avdistill.evaluate import (
    _balls,
    _certified,
    _classes,
    _direction_means,
    _ranked_block,
    _ranked_rows,
    _row_blocks,
)
from avdistill.losses import _gram_to_distances, normalize_rows
from avdistill.model import Tower

from oracles import slow_map, slow_precision_at_k, stable_direction_metrics

# The package's `evaluate` attribute is the function; fetch the module.
_evaluate_module = importlib.import_module("avdistill.evaluate")


def _ranked_blocks(dist, query_labels, gallery_labels, ks):
    """Each `_row_blocks` block of `dist` through `_ranked_block`; every row holds a relevant item.

    Every row takes the sort path; the stats are joined in row order.
    """
    stats = [np.empty((1 + len(ks), 0))]
    for rows in _row_blocks(dist.shape[0]):
        relevant = gallery_labels == query_labels[rows, None]
        keys = np.empty(relevant.shape, dtype=np.uint64)
        stats.append(_ranked_block(dist[rows], relevant, relevant.sum(axis=1), ks, keys))
    return np.concatenate(stats, axis=1)


def _certificate(queries, gallery, labels):
    """`_certified` as `evaluate` builds it for one direction, `queries` against `gallery`."""
    classes, _ = _classes(labels)
    return _certified(queries, classes, *_balls(queries, gallery, classes))


def _clear_oracle(dist, query_labels, gallery_labels):
    """Rows whose relevant distances all lie strictly below every irrelevant one."""
    relevant = gallery_labels == query_labels[:, None]
    farthest = np.where(relevant, dist, -np.inf).max(axis=1)
    nearest = np.where(relevant, np.inf, dist).min(axis=1)
    return farthest < nearest


def _spy_ranked_block(monkeypatch):
    """Record each `_ranked_block` call's distances and relevance mask, as given, in a list."""
    calls = []

    def spy(dist, relevant, *args):
        calls.append((dist.copy(), relevant.copy()))
        return _ranked_block(dist, relevant, *args)

    monkeypatch.setattr(_evaluate_module, "_ranked_block", spy)
    return calls


def _assert_ranked_rows(calls, whole, labels, certified):
    """The rows `_ranked_rows` gave `_ranked_block` are the uncertified rows of `whole`, bit for bit.

    `calls` holds the distances and relevance mask of each call
    (`_spy_ranked_block`). Certified rows must be clear, and every
    uncertified row must arrive once, and no certified one. Each call's mask
    must hold one row per distance row: the relevance `labels == labels[i]`
    of the row i it ranks. When no two rows of `whole` are equal, each call
    must also hold its rows in row order: the last block as it stands, and a
    packed product by their positions in their own blocks.
    """
    assert not (certified & ~_clear_oracle(whole, labels, labels)).any()
    assert all(relevant.shape == dist.shape for dist, relevant in calls)
    got = [row.tobytes() + mask.tobytes() for dist, relevant in calls
           for row, mask in zip(dist, relevant)]
    want = [whole[i].tobytes() + (labels == labels[i]).tobytes()
            for i in np.flatnonzero(~certified)]
    assert sorted(got) == sorted(want)
    index = {row.tobytes(): i for i, row in enumerate(whole)}
    if len(index) < len(whole):
        return
    last = _row_blocks(len(whole))[-1].start
    for dist, _ in calls:
        rows = np.array([index[row.tobytes()] for row in dist])
        positions = rows if rows[0] >= last else rows % _evaluate_module._BLOCK
        assert (np.diff(positions) > 0).all()


def _gram_pair(gram):
    """Unit query rows and gallery rows whose product is exactly `gram`.

    Query i is the i-th axis and gallery row j holds column j of `gram`, so
    each product entry sums one nonzero term. Equal columns are duplicate
    gallery rows.
    """
    return np.eye(gram.shape[0]), np.ascontiguousarray(gram.T)


def _gram_with_clear_rows(rng, clear, query_labels, gallery_labels):
    """Gram values in [-1, 1] whose rows marked `clear` are clear and whose other rows are not.

    A clear row has its relevant values in [0.5, 1) and its irrelevant ones
    in [-1, 0.4); each other row with relevant and irrelevant items puts an
    irrelevant item at 0.99, nearer than a relevant item at -0.99.
    """
    relevant = gallery_labels == query_labels[:, None]
    gram = rng.uniform(-1.0, 1.0, size=relevant.shape)
    high, low = rng.uniform(0.5, 1.0, relevant.shape), rng.uniform(-1.0, 0.4, relevant.shape)
    gram[clear] = np.where(relevant, high, low)[clear]
    for row in np.flatnonzero(~clear & relevant.any(axis=1) & ~relevant.all(axis=1)):
        gram[row, np.flatnonzero(relevant[row])[0]] = -0.99
        gram[row, np.flatnonzero(~relevant[row])[0]] = 0.99
    return gram


def _direction_metrics(dist, labels, ks):
    """One whole direction through evaluate's kernel, in `stable_direction_metrics`' form."""
    usable = tuple(k for k in ks if 1 <= k <= dist.shape[1])
    return _direction_means(_ranked_blocks(dist, labels, labels, usable), usable)


def _directions(emb):
    """(name, distance matrix) of each direction as evaluate ranks it: a2v and v2a products."""
    return (
        ("a2v", pairwise_normalized_distances(emb.audio, emb.visual)),
        ("v2a", pairwise_normalized_distances(emb.visual, emb.audio)),
    )


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
    # One pair per class, under sparse ids: every query has R = 1, its own
    # counterpart, and the 130 rows split into halves of 60 and 70.
    model, data = _random_instance(rng, 130, n_classes=5)
    ids = rng.choice(10_000, size=130, replace=False)
    cases.append((model, PairedBatch(data.audio, data.visual, ids)))
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
            labels = data.labels
            for direction, d in _directions(model.encode(data)):
                mean_ap = getattr(report, f"map_{direction}")
                assert abs(mean_ap - slow_map(d, labels, labels)) < 1e-12
                for k, value in report.precision_at_k[direction].items():
                    assert abs(value - slow_precision_at_k(d, labels, labels, k)) < 1e-12

    def test_one_cpu_and_two_give_the_same_report(self, rng, usable_cpus):
        for model, data in _brute_force_cases(rng):
            usable_cpus(1)
            serial = evaluate(model, data).as_dict()
            usable_cpus(2)
            assert evaluate(model, data).as_dict() == serial

    def test_half_of_each_direction_runs_on_the_worker_with_two_cpus(
        self, rng, usable_cpus, monkeypatch
    ):
        block = _evaluate_module._BLOCK
        model, data = _random_instance(rng, 2 * block + 9)
        calls = []

        def spy(queries, gallery, *args):
            on_worker = threading.current_thread() is not threading.main_thread()
            calls.append((on_worker, queries.shape[0], id(gallery)))
            return _ranked_rows(queries, gallery, *args)

        monkeypatch.setattr(_evaluate_module, "_ranked_rows", spy)
        for cpus, worker_rows in ((1, []), (2, [block, block])):
            usable_cpus(cpus)
            calls.clear()
            evaluate(model, data)
            # The first block of a2v and of v2a, then the other block + 9 rows of each.
            assert sorted(rows for _, rows, _ in calls) == [block, block, block + 9, block + 9]
            assert [rows for on_worker, rows, _ in calls if on_worker] == worker_rows
            # Each half ranks against both galleries, visual (a2v) and audio (v2a).
            for rows in (block, block + 9):
                assert len({gallery for _, r, gallery in calls if r == rows}) == 2

    @pytest.mark.parametrize("n", [1, 2, 61, 63, 65, 121, 129])
    def test_row_halves_match_whole_directions(self, rng, usable_cpus, n):
        # Tie-free random towers, one-hot cluster codes whose rows all tie
        # (every one falls back to the stable sort), and noisy cluster codes
        # labelled by cluster, where every row of class 2 is clear and some
        # items of cluster 0 carry label 1. At 61 and 121 pairs the last block
        # takes a one-row tail.
        clusters = one_hot(rng.integers(0, 3, size=n), 3).astype(float)
        separable = rng.integers(0, 3, size=n)
        codes = one_hot(separable, 3) + 0.01 * rng.random((n, 3))
        moved = separable.copy()
        moved[np.flatnonzero(separable == 0)[::5]] = 1
        cases = [
            _random_instance(rng, n, n_classes=3),
            (_identity_model(3), PairedBatch(clusters, clusters.copy(), rng.integers(0, 4, size=n))),
            (_identity_model(3), PairedBatch(codes, codes + 0.01 * rng.random((n, 3)), moved)),
        ]
        ks = (1, 5, 64, 200)
        for model, data in cases:
            directions = _directions(model.encode(data))
            for cpus in (1, 2):
                usable_cpus(cpus)
                report = evaluate(model, data, ks=ks)
                for direction, d in directions:
                    mean_ap, table = stable_direction_metrics(d, data.labels, ks)
                    assert getattr(report, f"map_{direction}") == mean_ap
                    assert getattr(report, f"n_queries_{direction}") == n
                    assert getattr(report, f"n_excluded_{direction}") == 0
                    assert report.precision_at_k[direction] == table

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 511, 512, 513, 1024, 1025, 1599])
    def test_float32_features_give_the_float64_report(self, rng, float32_twins, n):
        # An even and an odd hidden-layer count; the visual input is wider than every layer.
        model = TwoTowerModel.create(TowerSpec(6, 10, (16, 16)), TowerSpec(40, 10, (16, 32, 16)))
        batch = PairedBatch(rng.standard_normal((n, 6)), rng.standard_normal((n, 40)),
                            rng.integers(0, 3, size=n))
        narrow, wide = float32_twins(batch)
        assert evaluate(model, narrow).as_dict() == evaluate(model, wide).as_dict()

    def test_float32_features_give_the_float64_report_at_reference_scale(
        self, rng, reference_model, float32_twins, usable_cpus
    ):
        usable_cpus(2)
        batch = PairedBatch(rng.standard_normal((4000, 128)), rng.standard_normal((4000, 1024)),
                            rng.integers(0, 10, size=4000))
        narrow, wide = float32_twins(batch)
        got = evaluate(reference_model, narrow).as_dict()
        assert got == evaluate(reference_model, wide).as_dict()

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

    def test_peak_memory_stays_far_below_one_distance_matrix(self, rng, usable_cpus):
        # Both halves rank at once, each through its own block buffers; no
        # n x n array is built.
        usable_cpus(2)
        n, dim = 3000, 10
        spec = TowerSpec(input_dim=dim, output_dim=dim, hidden_dims=(32,))
        model = TwoTowerModel.create(spec, spec, seed=3)
        data = PairedBatch(rng.standard_normal((n, dim)), rng.standard_normal((n, dim)),
                           rng.integers(0, 10, size=n))
        tracemalloc.start()
        try:
            evaluate(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 // 4

    @pytest.mark.parametrize("n", [600, 4000])
    def test_distance_blocks_match_the_whole_products(self, rng, monkeypatch, n):
        # The halves meet on a block boundary, so ranking a whole direction
        # builds the same blocks as evaluate does. Exactly the uncertified
        # rows must reach `_ranked_block`, each as the same row of the whole
        # product (see `_assert_ranked_rows`), and the stats must be the
        # stable oracle's. Gaussian embeddings leave no row clear. In the
        # second set classes 0-4 sit tight around their one-hot codes, so
        # their rows are clear, but classes 5-9 are noise whose balls reach
        # everywhere: no row is certified, and every block arrives whole, in
        # row order. In the third set every class is tight, but class 1 sits
        # just beside class 0, so their rows are not all clear: the other
        # rows are certified, and these are packed into fewer products
        # before the last block.
        labels = rng.integers(0, 10, size=n)
        scale = np.where(labels < 5, 0.02, 2.0)[:, None]
        codes = one_hot(labels, 10)
        codes[labels == 1] = one_hot(np.array([0]), 10) + 0.05 * one_hot(np.array([1]), 10)
        cases = [
            (rng.standard_normal((n, 10)), rng.standard_normal((n, 10))),
            (one_hot(labels, 10) + scale * rng.standard_normal((n, 10)),
             one_hot(labels, 10) + scale * rng.standard_normal((n, 10))),
            (codes + 0.02 * rng.standard_normal((n, 10)), codes + 0.02 * rng.standard_normal((n, 10))),
        ]
        calls = _spy_ranked_block(monkeypatch)
        ks = (1, 5, 10)
        classes, n_relevant = _classes(labels)
        for (audio, visual), packed in zip(cases, (False, False, True)):
            a2v = pairwise_normalized_distances(audio, visual)
            v2a = pairwise_normalized_distances(visual, audio)
            ua, _ = normalize_rows(audio)
            ub, _ = normalize_rows(visual)
            for queries, gallery, whole in ((ua, ub, a2v), (ub, ua, v2a), (ub, ua, a2v.T)):
                calls.clear()
                certified = _certificate(queries, gallery, labels)
                stats = _ranked_rows(queries, gallery, classes, classes, n_relevant, ks, certified)
                assert _direction_means(stats, ks) == stable_direction_metrics(whole, labels, ks)
                _assert_ranked_rows(calls, whole, labels, certified)
                if packed:
                    assert certified.mean() > 0.5 and len(calls) < len(_row_blocks(n))
                else:
                    assert not certified.any()
                    assert [len(d) for d, _ in calls] == [r.stop - r.start for r in _row_blocks(n)]

    def test_packed_rows_keep_their_block_bits(self, rng, monkeypatch):
        # 599 pairs of 32-d rows: nine 60-row blocks, then the last block
        # [540, 599). Block b leaves uncertified the rows at the positions p
        # with p % 9 == b, one row per position, so they all pack into one
        # product; in the last block every other row is uncertified.
        # Every uncertified row is ranked, and each must keep the bits of its
        # own block's product. With more
        # than one BLAS thread, rows of products this large gathered to other
        # positions can differ from their blocks in the last bit.
        n, block = 599, _evaluate_module._BLOCK
        ua, _ = normalize_rows(rng.standard_normal((n, 32)))
        ub, _ = normalize_rows(rng.standard_normal((n, 32)))
        certified = np.ones(n, dtype=bool)
        packed = np.arange(block) % 9 * block + np.arange(block)
        certified[packed] = False
        certified[540::2] = False
        labels = rng.integers(0, 3, size=n)
        classes, n_relevant = _classes(labels)
        calls = _spy_ranked_block(monkeypatch)
        _ranked_rows(ua, ub, classes, classes, n_relevant, (1,), certified)
        assert len(calls) == 2
        rows = [*packed, *range(540, n, 2)]
        want = []
        for row in rows:
            lo = min(row // block * block, 540)
            want.append((ua[lo : lo + block if lo < 540 else n] @ ub.T)[row - lo])
        want = np.array(want)
        _gram_to_distances(want)
        assert np.concatenate([dist for dist, _ in calls]).tobytes() == want.tobytes()
        # Each call's relevance mask holds exactly the rows it ranks.
        relevant = np.concatenate([mask for _, mask in calls])
        assert np.array_equal(relevant, labels == labels[rows, None])

    def test_non_finite_embeddings_rejected(self):
        model = _identity_model(2)
        model.parameters()[0][0, 0] = np.nan
        labels = np.array([0, 1])
        feats = one_hot(labels, 2).astype(float)
        with pytest.raises(NumericError, match="non-finite embedding values in the evaluation pass"):
            evaluate(model, PairedBatch(feats, feats, labels))


def _kernel_cases(rng):
    """Square non-negative distance matrices with shared labels, from tie-free to all-tied."""
    n = 96
    gaussian = np.abs(rng.standard_normal((n, n)))
    grid = rng.integers(0, 8, size=(n, n)) * 0.25
    flat = np.full((n, n), 0.5)
    signed_zeros = np.abs(rng.standard_normal((n, n)))
    signed_zeros[rng.random((n, n)) < 0.2] = 0.0
    signed_zeros[rng.random((n, n)) < 0.2] = -0.0
    # Every third row carries one equal pair; the rest stay tie-free.
    mixed = np.abs(rng.standard_normal((n, n)))
    mixed[::3, 1] = mixed[::3, n - 2]
    return [gaussian, grid, flat, signed_zeros, mixed]


def _keyed_cases(rng, labels):
    """Non-negative matrices for `labels`, most of whose rows take the keyed sort.

    Row r's own column is relevant and `other[r]` is an irrelevant column, so
    values planted at the two have opposite relevance; the lower index is the
    relevant one in about half the rows.
    """
    n = labels.size
    rows = np.arange(n)
    other = np.array([rng.choice(np.flatnonzero(labels != labels[r])) for r in rows])
    positive = np.abs(rng.standard_normal((n, n)))
    # +0.0 and -0.0 share a key apart from the relevance bit: they tie.
    zeros = np.abs(rng.standard_normal((n, n)))
    zeros[rows[::4], rows[::4]], zeros[rows[::4], other[::4]] = 0.0, -0.0
    zeros[rows[1::4], rows[1::4]], zeros[rows[1::4], other[1::4]] = -0.0, 0.0
    zeros[rows[2::4], rows[2::4]] = -0.0  # a lone -0.0 ranks first, untied
    zeros[rows[3::4], other[3::4]] = 0.0
    # One ulp apart, in both orders, and (every third row) exactly equal.
    ulps = np.abs(rng.standard_normal((n, n)))
    own = ulps[rows, rows]
    ulps[rows, other] = np.where(rows % 2 == 0, np.nextafter(own, np.inf), np.nextafter(own, 0.0))
    ulps[rows[2::3], other[2::3]] = own[2::3]
    # Subnormals up to 2.0, with the extremes planted.
    wide = np.exp2(rng.uniform(-1074.0, 1.0, size=(n, n)))
    wide[rows, rows] = np.where(rows % 2 == 0, 5e-324, 2.0)
    wide[rows, other] = np.where(rows % 2 == 0, 1e-310, np.nextafter(2.0, 0.0))
    # Keyed rows beside a tie (every 3rd).
    mixed = np.abs(rng.standard_normal((n, n)))
    mixed[::3, 1] = mixed[::3, n - 2]
    return [positive, zeros, ulps, wide, mixed]


# Non-negative values for the alphabet test, inf and both zeros included.
_ALPHABET = np.array([0.0, -0.0, 5e-324, 1e-310, 0.25, 0.5, np.nextafter(0.5, 1.0), 1.0, 2.0, np.inf])


class TestRankingKernel:
    """`_direction_metrics` against the all-stable-sort kernel, bit for bit."""

    # The module's block, a smaller and a larger one; each ends the 96 rows in a partial block.
    @pytest.mark.parametrize("block", [_evaluate_module._BLOCK, 40, 64])
    def test_matches_stable_kernel(self, rng, monkeypatch, block):
        monkeypatch.setattr(_evaluate_module, "_BLOCK", block)
        ks = (1, 5, 10, 96, 97, 1000)  # the last two exceed the 96-item gallery
        for dist in _kernel_cases(rng):
            labels = rng.integers(0, 4, size=dist.shape[0])
            for d in (dist, dist.T):
                assert _direction_metrics(d, labels, ks) == stable_direction_metrics(d, labels, ks)

    @pytest.mark.parametrize("block", [_evaluate_module._BLOCK, 40, 64])
    def test_keyed_cases_match_stable_kernel(self, rng, monkeypatch, block):
        monkeypatch.setattr(_evaluate_module, "_BLOCK", block)
        ks = (1, 5, 10, 96, 97, 1000)
        labels = rng.integers(0, 4, size=96)
        for dist in _keyed_cases(rng, labels):
            # Rows the keys can order: strictly increasing when sorted.
            keyed = (np.diff(np.sort(dist, axis=1), axis=1) > 0).all(axis=1)
            assert keyed.sum() >= dist.shape[0] // 3
            for d in (dist, dist.T):
                assert _direction_metrics(d, labels, ks) == stable_direction_metrics(d, labels, ks)

    @given(
        st.integers(1, 80),
        st.integers(1, 4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_small_alphabet_matches_stable_kernel(self, n, n_labels, seed):
        # Few distinct values: rows run from tie-free (small n) to all-tied,
        # and more than 61 rows end in a second, partial block (61 fold into one).
        rng = np.random.default_rng(seed)
        dist = rng.choice(_ALPHABET, size=(n, n))
        labels = rng.integers(0, n_labels, size=n)
        ks = (1, 5, n, n + 1)
        for d in (dist, dist.T):
            assert _direction_metrics(d, labels, ks) == stable_direction_metrics(d, labels, ks)

    def test_evaluate_ranks_only_finite_distances_of_at_least_plus_zero(self, rng, monkeypatch):
        # `_ranked_block`'s input contract, as `evaluate` meets it. Besides
        # the brute-force cases, 300 pairs repeat 8 prototype rows on both
        # sides under labels drawn apart from them: every row ties relevant
        # with irrelevant items, and each exact self-pair has a Gram value
        # that rounds near 1, where the finish clamps 2 - 2g at 0.
        calls = _spy_ranked_block(monkeypatch)
        features = rng.random((8, 6))[rng.integers(0, 8, size=300)]
        tied = PairedBatch(features, features.copy(), rng.integers(0, 3, size=300))
        for model, data in [*_brute_force_cases(rng), (_identity_model(6), tied)]:
            evaluate(model, data)
        dist = np.concatenate([d.ravel() for d, _ in calls])
        assert dist.size > 300 * 300
        assert np.isfinite(dist).all() and (dist >= 0).all() and not np.signbit(dist).any()

    def test_gram_finish_maps_finite_values_to_finite_distances_of_at_least_plus_zero(self):
        eps = np.finfo(float).eps
        ulps = np.arange(1, 5)
        gram = np.array([0.0, -0.0, 1.0, *(1.0 + ulps * eps), *(1.0 - ulps * eps / 2), -1.0, 1e300, -1e300])
        dist = gram.copy()
        _gram_to_distances(dist)
        assert np.isfinite(dist).all() and (dist >= 0).all() and not np.signbit(dist).any()
        assert dist[2:7].tolist() == [0.0] * 5 and dist[-3] == 2.0

    @pytest.mark.parametrize("n", [2, 63, 65, 129])
    def test_row_halves_join_into_the_whole_direction(self, rng, n):
        # The first half's queries all take gallery row 0's class, so their
        # relevant counts differ from the second half's.
        dist = np.abs(rng.standard_normal((n, n)))
        dist[::3, 1] = dist[::3, n - 1]  # tied rows beside keyed ones
        gallery = rng.integers(0, 3, size=n)
        queries = gallery.copy()
        queries[: max(1, n // 4)] = gallery[0]
        ks = tuple(k for k in (1, 5, 64) if k <= n)
        half = n // 2
        for d in (dist, dist.T):
            whole = _ranked_blocks(d, queries, gallery, ks)
            halves = [_ranked_blocks(d[rows], queries[rows], gallery, ks)
                      for rows in (slice(0, half), slice(half, n))]
            assert np.concatenate(halves, axis=1).tobytes() == whole.tobytes()
            assert whole.shape == (1 + len(ks), n)
            mean_ap, _ = _direction_means(whole, ks)
            assert abs(mean_ap - slow_map(d, queries, gallery)) < 1e-12


class TestClearRows:
    """Each row is certified or ranked; a clear row gets the same bits either way."""

    @staticmethod
    def _check(monkeypatch, gram, labels, ks=(1, 5, 64), halves=()):
        """`_ranked_rows` on `gram`, whole and split at `halves`, against the all-sorted
        ranking and the stable oracle, bit for bit; returns which rows are clear and
        which are certified.

        The queries and the gallery share `labels`, as in `evaluate`, and the
        certificate runs as it does there; exactly the uncertified rows must
        be ranked (`_assert_ranked_rows`).
        """
        queries, gallery = _gram_pair(gram)
        ks = tuple(k for k in ks if k <= gram.shape[1])
        ranked = _spy_ranked_block(monkeypatch)
        classes, n_relevant = _classes(labels)
        certified = _certificate(queries, gallery, labels)
        got = _ranked_rows(queries, gallery, classes, classes, n_relevant, ks, certified)
        monkeypatch.undo()
        dist = gram.copy()
        _gram_to_distances(dist)
        assert got.tobytes() == _ranked_blocks(dist, labels, labels, ks).tobytes()
        assert _direction_means(got, ks) == stable_direction_metrics(dist, labels, ks)
        for bounds in halves:
            parts = [
                _ranked_rows(queries[rows], gallery, classes[rows], classes, n_relevant[rows], ks,
                             certified[rows])
                for rows in (slice(0, bounds), slice(bounds, gram.shape[0]))
            ]
            assert np.concatenate(parts, axis=1).tobytes() == got.tobytes()
        _assert_ranked_rows(ranked, dist, labels, certified)
        return _clear_oracle(dist, labels, labels), certified

    @pytest.mark.parametrize("share", [1.0, 0.0, 0.5])
    def test_all_no_or_some_rows_clear(self, rng, monkeypatch, share):
        # 150 rows: two full blocks and a 30-row one.
        labels = rng.integers(0, 5, size=150)
        clear = rng.random(150) < share
        gram = _gram_with_clear_rows(rng, clear, labels, labels)
        got, _ = self._check(monkeypatch, gram, labels)
        assert (got == clear).all()

    @pytest.mark.parametrize("relevant_first", [True, False])
    def test_duplicate_gallery_rows_with_different_labels_tie(self, rng, monkeypatch, relevant_first):
        # Row 0's farthest relevant item and nearest irrelevant one are the
        # same gallery row twice, so their distances are equal: the row is
        # ranked, and the stable order puts the lower gallery index first.
        labels = rng.integers(0, 4, size=90)
        gram = _gram_with_clear_rows(rng, np.ones(90, dtype=bool), labels, labels)
        relevant = np.flatnonzero(labels == labels[0])
        irrelevant = np.flatnonzero(labels != labels[0])
        first, second = sorted([relevant[1], irrelevant[0]], reverse=not relevant_first)
        gram[0, relevant] = 0.8
        gram[0, [first, second]] = 0.45
        gram[:, second] = gram[:, first]
        clear, certified = self._check(monkeypatch, gram, labels)
        assert not clear[0] and clear[1:].sum() > 0 and not certified[0]

    def test_distances_that_round_equal_tie(self, rng, monkeypatch):
        # Distinct Gram values whose distances are equal: at or above 1 every
        # value finishes to 0, so a relevant g above an irrelevant g = 1.0 still
        # ties with it; one ulp below 1.0 the irrelevant distance is positive.
        labels = rng.integers(0, 3, size=40)
        gram = _gram_with_clear_rows(rng, np.ones(40, dtype=bool), labels, labels)
        for row, irrelevant_g in ((0, 1.0), (1, np.nextafter(1.0, 0.0))):
            gram[row, labels == labels[row]] = np.nextafter(1.0, 2.0)
            gram[row, np.flatnonzero(labels != labels[row])[0]] = irrelevant_g
        clear, certified = self._check(monkeypatch, gram, labels)
        assert not clear[0] and clear[1] and not certified[:2].any()

    def test_signed_zeros_at_the_boundary_are_not_clear(self, monkeypatch):
        # +0.0 and -0.0 both finish to sqrt(2), so either way round they tie:
        # rows 0-2 are not clear and must be ranked; row 3 is clear.
        labels = np.array([0, 0, 1, 1])
        gram = np.array([
            [0.5, 0.0, -0.0, -0.5],
            [0.5, -0.0, 0.0, -0.5],
            [-0.0, -0.5, 0.5, 0.0],
            [-0.5, -0.5, 0.5, 0.0],
        ])
        clear, certified = self._check(monkeypatch, gram, labels)
        assert clear.tolist() == [False, False, False, True]
        assert not certified[:3].any()

    def test_class_owning_every_gallery_item(self, rng, monkeypatch):
        # One class: no query has an irrelevant item, so every row is
        # certified with AP 1 and P@k 1.
        labels = np.zeros(70, dtype=np.int64)
        gram = rng.uniform(-1.0, 1.0, size=(70, 70))
        clear, certified = self._check(monkeypatch, gram, labels, halves=(60,))
        assert clear.all() and certified.all()

    @pytest.mark.parametrize("n", [61, 121, 181])
    def test_clear_rows_at_block_edges_tail_and_halves(self, rng, monkeypatch, n):
        # Block edges at 0, 59, 60, 119 and 120; at 61 and 121 rows the last
        # block takes a one-row tail. evaluate's halves meet at n // 2 rounded
        # down to a block boundary.
        labels = rng.integers(0, 4, size=n)
        edges = [r for r in (0, 59, 60, 61, 119, 120, n - 2, n - 1) if r < n]
        for clear in (np.isin(np.arange(n), edges), ~np.isin(np.arange(n), edges)):
            gram = _gram_with_clear_rows(rng, clear, labels, labels)
            half = n // 2 // _evaluate_module._BLOCK * _evaluate_module._BLOCK
            got, _ = self._check(monkeypatch, gram, labels, halves=(half, 60))
            assert (got == clear).all()

    def test_only_uncertified_rows_are_ranked(self, rng, usable_cpus, monkeypatch):
        # A separable 4000-pair evaluate: one-hot class codes with a little
        # noise, in shuffled order. 1% of the labels of clusters 0-2 move to
        # the next class, so the rows of classes 0-3 are not clear and those
        # of classes 4-9 are. Each half packs its own uncertified rows, so
        # the ranked rows, each with its relevance mask, are compared sorted.
        n, n_classes = 4000, 10
        usable_cpus(1)
        clusters = rng.permutation(np.repeat(np.arange(n_classes), n // n_classes))
        labels = clusters.copy()
        moved = rng.choice(np.flatnonzero(clusters < 3), size=n // 100, replace=False)
        labels[moved] += 1
        features = one_hot(clusters, n_classes) + 0.02 * rng.random((n, n_classes))
        data = PairedBatch(features, features + 0.02 * rng.random((n, n_classes)), labels)
        model = _identity_model(n_classes)
        calls = _spy_ranked_block(monkeypatch)
        report = evaluate(model, data)
        emb = model.encode(data)
        ua, _ = normalize_rows(emb.audio)
        ub, _ = normalize_rows(emb.visual)
        want = []
        for (direction, d), (queries, gallery) in zip(_directions(emb), ((ua, ub), (ub, ua))):
            certified = _certificate(queries, gallery, labels)
            clear = _clear_oracle(d, labels, labels)
            assert not (certified & ~clear).any() and 0.3 < clear.mean() < 0.9
            want.append(np.hstack([d, labels == labels[:, None]])[~certified])
            mean_ap, table = stable_direction_metrics(d, labels, (1, 5, 10))
            assert getattr(report, f"map_{direction}") == mean_ap
            assert report.precision_at_k[direction] == table
        got = np.concatenate([np.hstack([dist, relevant]) for dist, relevant in calls])
        want = np.concatenate(want)
        assert len(got) == len(want)
        assert np.unique(got, axis=0).tobytes() == np.unique(want, axis=0).tobytes()


def _uncertified_report(monkeypatch, model, data, **kw):
    """evaluate's report with the certificate patched to certify no row."""
    with monkeypatch.context() as m:
        m.setattr(_evaluate_module, "_certified", lambda queries, *_: np.zeros(len(queries), bool))
        return evaluate(model, data, **kw).as_dict()


def _cluster_instance(rng, labels, noise=0.02):
    """Identity towers over one-hot class codes plus a little noise: tight, separated classes."""
    n_classes = int(labels.max()) + 1
    codes = [one_hot(labels, n_classes) + noise * rng.random((labels.size, n_classes)) for _ in "av"]
    return _identity_model(n_classes), PairedBatch(*codes, labels)


def _in_the_plane(degrees):
    """Unit rows of the plane at the given angles."""
    radians = np.deg2rad(np.asarray(degrees, dtype=float))
    return np.stack([np.cos(radians), np.sin(radians)], axis=1)


class TestCertificate:
    """Rows the certificate proves clear skip the sort and keep every bit of the report."""

    def test_report_matches_the_uncertified_report(self, rng, monkeypatch):
        for model, data in _brute_force_cases(rng):
            assert evaluate(model, data).as_dict() == _uncertified_report(monkeypatch, model, data)

    def test_trained_set_is_mostly_certified_with_the_same_report(self, monkeypatch, usable_cpus):
        # 1200 pairs, four classes, four epochs: most rows are certified both
        # ways, and the rest are ranked.
        config = RunConfig(
            synthetic=SyntheticSpec(n_classes=4, pairs_per_class=300, audio_dim=12, visual_dim=16,
                                    seed=9),
            hidden_dims=(32, 32), batch_size=64, epochs=4, learning_rate=1e-3, seed=5, eval_every=0,
        )
        model = train(config).model
        _, data = resolve_dataset(config)
        emb = model.encode(data, training=False)
        ua, _ = normalize_rows(emb.audio)
        ub, _ = normalize_rows(emb.visual)
        for queries, gallery in ((ua, ub), (ub, ua)):
            certified = _certificate(queries, gallery, data.labels)
            assert 0.5 < certified.mean() < 0.95
            dist = pairwise_normalized_distances(queries, gallery)
            assert not (certified & ~_clear_oracle(dist, data.labels, data.labels)).any()
        for cpus in (1, 2):
            usable_cpus(cpus)
            assert evaluate(model, data).as_dict() == _uncertified_report(monkeypatch, model, data)

    def test_certified_rows_skip_the_sort(self, rng, monkeypatch):
        labels = rng.permutation(np.repeat(np.arange(5), 40))
        model, data = _cluster_instance(rng, labels)
        calls = []
        monkeypatch.setattr(_evaluate_module, "_ranked_block",
                            lambda *args: calls.append(1) or _ranked_block(*args))
        report = evaluate(model, data)
        assert calls == [] and report.map_avg == 1.0
        assert report.precision_at_k["a2v"] == {1: 1.0, 5: 1.0, 10: 1.0}

    def test_one_item_class_has_a_zero_radius(self, rng, monkeypatch):
        # The one-item class's only Gram value is its query's least value,
        # and its ball is that gallery row with radius 0.
        labels = np.concatenate([rng.permutation(np.repeat(np.arange(3), 30)), [3]])
        model, data = _cluster_instance(rng, labels)
        emb = model.encode(data, training=False)
        queries, _ = normalize_rows(emb.audio)
        gallery, _ = normalize_rows(emb.visual)
        classes, _ = _classes(labels)
        least, centres, radii = _balls(queries, gallery, classes)
        assert radii[3] == 0.0 and centres[3].tobytes() == gallery[-1].tobytes()
        assert least[-1] == (queries[-1:] @ gallery[-1:].T)[0, 0]
        assert _certified(queries, classes, least, centres, radii)[-1]
        assert evaluate(model, data).as_dict() == _uncertified_report(monkeypatch, model, data)

    def test_class_owning_every_gallery_item(self, rng, monkeypatch):
        # No other class bounds the row from above, so every row is certified.
        labels = np.zeros(70, dtype=np.int64)
        model, data = _random_instance(rng, 70)
        data = PairedBatch(data.audio, data.visual, labels)
        ua, _ = normalize_rows(model.encode(data, training=False).audio)
        ub, _ = normalize_rows(model.encode(data, training=False).visual)
        assert _certificate(ua, ub, labels).all()
        report = evaluate(model, data)
        assert report.map_avg == 1.0 and report.precision_at_k["v2a"] == {1: 1.0, 5: 1.0, 10: 1.0}
        assert report.as_dict() == _uncertified_report(monkeypatch, model, data)

    def test_an_embedding_shared_across_classes_is_never_certified(self, rng, monkeypatch):
        # Pairs 0 (class 0) and 1 (class 1) hold one pair of embeddings, and
        # each is its class's only pair, so the other class's ball has radius
        # 0 and its bound is the query's own least Gram value, up to
        # rounding. Each query ties its relevant item with
        # the irrelevant copy; for query 1 the copy has the lower index and
        # ranks first, so its AP is 1/2.
        labels = np.concatenate([[0, 1], 2 + rng.permutation(np.repeat(np.arange(3), 20))])
        model, data = _cluster_instance(rng, labels)
        data.audio[1], data.visual[1] = data.audio[0], data.visual[0]
        emb = model.encode(data, training=False)
        ua, _ = normalize_rows(emb.audio)
        ub, _ = normalize_rows(emb.visual)
        for queries, gallery in ((ua, ub), (ub, ua)):
            certified = _certificate(queries, gallery, labels)
            assert not certified[:2].any() and certified[2:].all()
        report = evaluate(model, data, ks=(1,))
        assert report.map_a2v < 1.0 and report.precision_at_k["a2v"][1] < 1.0
        assert report.as_dict() == _uncertified_report(monkeypatch, model, data, ks=(1,))

    @pytest.mark.parametrize("gap, certified", [(0.999, False), (1.999, False), (2.001, True)])
    def test_gaps_at_the_slack(self, gap, certified):
        # Two one-item classes (radius 0), and query 0 on the first axis: its
        # Gram values are the gallery rows' first coordinates, exactly, and
        # its relevant one leads by `gap` slacks. Query 1 is not clear.
        delta = gap * _evaluate_module._SLACK
        first = np.array([0.5, 0.5 - delta])
        gallery = np.stack([first, np.sqrt(1.0 - first**2)], axis=1)
        queries = np.array([[1.0, 0.0], gallery[0]])
        classes = np.array([0, 1], dtype=np.uint8)
        least, centres, radii = _balls(queries, gallery, classes)
        assert radii.tolist() == [0.0, 0.0] and least[0] == 0.5
        assert _certified(queries, classes, least, centres, radii).tolist() == [certified, False]
        dist = queries[:1] @ gallery.T
        _gram_to_distances(dist)
        assert dist[0, 0] < dist[0, 1]  # the row is clear either way

    def test_a_ball_bound_met_exactly_is_not_certified(self):
        # Class 1 holds the two vertical axes: its centre is 0 and its radius
        # 1, so its bound for the query on the first axis is 1, exactly the
        # query's Gram value with its own class's only item. The row is
        # clear, but its lead is 0.
        gallery, labels = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]), np.array([0, 1, 1])
        dist = pairwise_normalized_distances(gallery, gallery)
        assert _clear_oracle(dist, labels, labels)[0]
        classes, _ = _classes(labels)
        least, centres, radii = _balls(gallery, gallery, classes)
        assert least[0] == 1.0 and radii[1] == 1.0 and not centres[1].any()
        assert not _certified(gallery, classes, least, centres, radii)[0]

    def test_a_loose_ball_of_the_own_class_is_certified(self, monkeypatch):
        # Query 0 on the first axis shares class 0 with items at 2 and 45
        # degrees, and class 1 lies at 65-75 degrees: every relevant item
        # leads every irrelevant one. The item at 45 degrees sits far from
        # class 0's centre, so that ball's lower bound for query 0 lies below
        # class 1's upper bound; its least Gram value, cos(45 degrees), does
        # not.
        features = _in_the_plane([0.0, 2.0, 45.0, 65.0, 70.0, 75.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        model, data = _identity_model(2), PairedBatch(features, features.copy(), labels)
        ua, _ = normalize_rows(model.encode(data, training=False).audio)
        classes, _ = _classes(labels)
        least, centres, radii = _balls(ua, ua, classes)
        upper = ua[0] @ centres[1] + radii[1]
        assert ua[0] @ centres[0] - radii[0] < upper < least[0] - 0.2
        assert _certified(ua, classes, least, centres, radii)[0]
        assert _clear_oracle(pairwise_normalized_distances(ua, ua), labels, labels)[0]
        assert evaluate(model, data).as_dict() == _uncertified_report(monkeypatch, model, data)

    def test_own_class_minimum_spans_several_products(self, rng):
        # 90 of 100 pairs share class 0, so its queries take two products of
        # at most _BLOCK * 100 values each. Entries are multiples of 1/8, so
        # every Gram value is exact in any summation order.
        n, block = 100, _evaluate_module._BLOCK
        assert block * n // 90 < 90
        labels = rng.permutation(np.concatenate([np.zeros(90, int), np.repeat(np.arange(1, 6), 2)]))
        queries = rng.integers(-4, 5, size=(n, 6)) / 8.0
        gallery = rng.integers(-4, 5, size=(n, 6)) / 8.0
        classes, _ = _classes(labels)
        least, _, _ = _balls(queries, gallery, classes)
        own = labels[:, None] == labels
        assert least.tobytes() == np.where(own, queries @ gallery.T, np.inf).min(axis=1).tobytes()

    def test_random_plane_certificates_are_clear(self, rng):
        # Classes 40 degrees apart, each spread over 16 degrees: every row is
        # clear or nearly so, and about one in six is certified.
        n_certified = 0
        for _ in range(20):
            labels = rng.integers(0, 4, size=60)
            gallery = _in_the_plane(labels * 40 + rng.uniform(-8, 8, 60))
            queries = _in_the_plane(labels * 40 + rng.uniform(-8, 8, 60))
            certified = _certificate(queries, gallery, labels)
            dist = pairwise_normalized_distances(queries, gallery)
            assert not (certified & ~_clear_oracle(dist, labels, labels)).any()
            n_certified += certified.sum()
        assert n_certified > 100

    def test_rows_an_underflowed_normalization_lengthens_are_not_certified(self, monkeypatch):
        # Features near 3e-161 square into subnormals, so their normalized
        # rows come out about 0.1% long: every Gram value is at least 1 and
        # every distance finishes to 0. Each query ties its own counterpart
        # with the other pair, and query 1's irrelevant item ranks first.
        # Its class bounds, both one-item classes, still lead by 0.0011, so
        # the unit check must stop the certificate.
        feats = np.array([[3.0, 0.35], [3.0, 0.55]]) * 1e-161
        data = PairedBatch(feats, feats.copy(), np.array([1, 0]))
        model = _identity_model(2)
        ua, _ = normalize_rows(model.encode(data, training=False).audio)
        assert (ua @ ua.T).min() > 1.0
        calls = []
        real = _evaluate_module._certified
        monkeypatch.setattr(_evaluate_module, "_certified", lambda *a: calls.append(1) or real(*a))
        report = evaluate(model, data, ks=(1,)).as_dict()
        assert report["map_a2v"] == 0.75 and report["precision_at_k"]["a2v"] == {"1": 0.5}
        assert report == _uncertified_report(monkeypatch, model, data, ks=(1,)) and calls == []


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
