"""Two-tower encoder wiring and checkpoint serialization."""

import errno
import re
import struct
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdistill import (
    ConfigError,
    EmbeddingBatch,
    FormatError,
    PairedBatch,
    ShapeError,
    StateError,
    TowerSpec,
    TwoTowerModel,
    load_checkpoint,
    save_checkpoint,
)
from avdistill.model import Tower
from avdistill.nn import Adam

from oracles import dense_backward, dense_forward


def _oracle_forward(tower: Tower, x: np.ndarray, rate: float, seed_base: list[int]):
    """(output, [(input, pre, mask) per layer]) of the one-layer oracles chained."""
    params = tower.parameters()
    last = len(params) // 2 - 1
    h, cache = x, []
    for i in range(last + 1):
        kind, layer_rate = ("relu", rate) if i < last else ("identity", 0.0)
        out, pre, mask = dense_forward(h, params[2 * i], params[2 * i + 1], kind, layer_rate,
                                       [*seed_base, i])
        cache.append((h, pre, mask))
        h = out
    return h, cache


def _oracle_backward(tower: Tower, cache: list, upstream: np.ndarray) -> list[np.ndarray]:
    """[dw0, db0, ...] of the one-layer oracles chained, every input gradient formed."""
    params = tower.parameters()
    grads, grad = [], upstream
    for i in reversed(range(len(cache))):
        x, pre, mask = cache[i]
        kind = "relu" if i < len(cache) - 1 else "identity"
        dw, db, grad = dense_backward(x, params[2 * i], pre, mask, kind, grad)
        grads[:0] = [dw, db]
    return grads


class TestTowerSpec:
    def test_layer_dims_chain(self):
        spec = TowerSpec(input_dim=6, output_dim=3, hidden_dims=(8, 5))
        assert spec.layer_dims == [(6, 8), (8, 5), (5, 3)]

    def test_validation(self):
        with pytest.raises(ConfigError):
            TowerSpec(input_dim=0, output_dim=3)
        with pytest.raises(ConfigError):
            TowerSpec(input_dim=4, output_dim=1)
        with pytest.raises(ConfigError):
            TowerSpec(input_dim=4, output_dim=3, hidden_dims=())
        with pytest.raises(ConfigError):
            TowerSpec(input_dim=4, output_dim=3, dropout_rate=1.0)


class TestModelConstruction:
    def test_parameter_count_formula(self):
        """Dense layer params: every (in + 1) x out, summed over both towers."""
        audio = TowerSpec(input_dim=128, output_dim=15)
        visual = TowerSpec(input_dim=1024, output_dim=15)
        model = TwoTowerModel.create(audio, visual, seed=0)
        audio_count = (128 * 1024 + 1024) + 2 * (1024 * 1024 + 1024) + (1024 * 15 + 15)
        visual_count = (1024 * 1024 + 1024) + 2 * (1024 * 1024 + 1024) + (1024 * 15 + 15)
        assert sum(p.size for p in model.parameters()) == audio_count + visual_count

    def test_mismatched_output_dims_rejected(self):
        with pytest.raises(ConfigError):
            TwoTowerModel.create(
                TowerSpec(input_dim=4, output_dim=15, hidden_dims=(8,)),
                TowerSpec(input_dim=4, output_dim=10, hidden_dims=(8,)),
            )

    def test_creation_is_seed_deterministic(self):
        a_spec = TowerSpec(input_dim=6, output_dim=3, hidden_dims=(8,))
        v_spec = TowerSpec(input_dim=9, output_dim=3, hidden_dims=(8,))
        m1 = TwoTowerModel.create(a_spec, v_spec, seed=4)
        m2 = TwoTowerModel.create(a_spec, v_spec, seed=4)
        for p, q in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(p, q)
        m3 = TwoTowerModel.create(a_spec, v_spec, seed=5)
        assert any(not np.array_equal(p, q) for p, q in zip(m1.parameters(), m3.parameters()))

    def test_towers_start_different(self, small_model):
        # The two towers draw from per-tower seed streams, not a shared one.
        a0 = small_model.audio.parameters()[2]
        v0 = small_model.visual.parameters()[2]
        assert a0.shape == v0.shape and not np.array_equal(a0, v0)

    def test_parameter_names_align(self, small_model):
        # parameters() runs audio w0, b0, ... then visual, the checkpoint's tensor order,
        # and hands out the towers' own arrays, which optimizers update in place.
        params = small_model.parameters()
        towers = (small_model.audio, small_model.visual)
        assert len(params) == 12
        assert all(p is q for p, q in zip(params, towers[0].parameters() + towers[1].parameters()))
        shapes = [
            shape
            for tower in towers
            for d_in, d_out in tower.spec.layer_dims
            for shape in ((d_in, d_out), (d_out,))
        ]
        assert [p.shape for p in params] == shapes

    def test_hidden_layers_relu_output_identity(self, small_model, rng):
        x = rng.standard_normal((6, 6))
        want, _ = _oracle_forward(small_model.audio, x, 0.0, [0])
        assert np.array_equal(small_model.audio.forward(x), want)


class TestEncode:
    def test_shapes(self, small_model, small_batch):
        emb = small_model.encode(small_batch)
        assert isinstance(emb, EmbeddingBatch)
        assert emb.audio.shape == (6, 3) and emb.visual.shape == (6, 3)
        assert len(emb) == 6

    def test_empty_batch(self, small_model):
        from avdistill import PairedBatch

        empty = PairedBatch(np.zeros((0, 6)), np.zeros((0, 9)), np.zeros(0, dtype=np.int64))
        emb = small_model.encode(empty)
        assert emb.audio.shape == (0, 3) and emb.visual.shape == (0, 3)

    def test_inference_is_pure_and_repeatable(self, small_model, small_batch):
        e1 = small_model.encode(small_batch)
        e2 = small_model.encode(small_batch)
        np.testing.assert_array_equal(e1.audio, e2.audio)
        np.testing.assert_array_equal(e1.visual, e2.visual)
        # Inference must not leave caches behind for backward to consume.
        with pytest.raises(StateError):
            small_model.backward(np.zeros((6, 3)), np.zeros((6, 3)))

    def test_training_pass_replays_per_step_seed(self, small_model, small_batch):
        e1 = small_model.encode(small_batch, training=True, step_seed=3)
        e2 = small_model.encode(small_batch, training=True, step_seed=3)
        np.testing.assert_array_equal(e1.audio, e2.audio)
        e3 = small_model.encode(small_batch, training=True, step_seed=4)
        assert not np.array_equal(e1.audio, e3.audio)

    def test_training_differs_from_inference(self, small_model, small_batch):
        # Dropout is active only in training mode.
        plain = small_model.encode(small_batch)
        dropped = small_model.encode(small_batch, training=True, step_seed=0)
        assert not np.array_equal(plain.audio, dropped.audio)

    def test_backward_alignment(self, small_model, small_batch):
        emb = small_model.encode(small_batch, training=True, step_seed=1)
        grads = small_model.backward(np.ones_like(emb.audio), np.ones_like(emb.visual))
        params = small_model.parameters()
        assert len(grads) == len(params)
        for g, p in zip(grads, params):
            assert g.shape == p.shape

    def test_tower_backward_matches_oracle(self, small_model, small_batch, rng):
        emb = small_model.encode(small_batch, training=True, step_seed=2)
        d_audio, d_visual = rng.standard_normal(emb.audio.shape), rng.standard_normal(emb.visual.shape)
        want = []
        for tower, batch_x, tag, upstream in (
            (small_model.audio, small_batch.audio, 0, d_audio),
            (small_model.visual, small_batch.visual, 1, d_visual),
        ):
            _, cache = _oracle_forward(tower, batch_x, tower.spec.dropout_rate, [2, tag])
            want += _oracle_backward(tower, cache, upstream)
        got = small_model.backward(d_audio, d_visual)
        assert len(got) == len(want)
        for g, expected in zip(got, want):
            assert np.array_equal(g, expected)

    def test_wrong_feature_width(self, small_model, rng):
        from avdistill import PairedBatch

        bad = PairedBatch(rng.standard_normal((2, 7)), rng.standard_normal((2, 9)),
                          np.zeros(2, dtype=np.int64))
        with pytest.raises(ShapeError):
            small_model.encode(bad)

    def test_embedding_batch_width_check(self, rng):
        with pytest.raises(ShapeError):
            EmbeddingBatch(rng.standard_normal((3, 2)), rng.standard_normal((3, 4)))


class TestTower:
    """One tower against the chained one-layer oracles, and its memory use."""

    @pytest.mark.parametrize("rate", [0.0, 0.1])
    def test_training_matches_chained_oracle(self, rng, rate):
        tower = Tower.build(TowerSpec(6, 3, (8, 8), rate), np.random.default_rng(0))
        x, upstream = rng.standard_normal((20, 6)), rng.standard_normal((20, 3))
        out = tower.forward(x, training=True, seed_base=[4, 1])
        want, cache = _oracle_forward(tower, x, rate, [4, 1])
        assert np.array_equal(out, want)
        got, want_grads = tower.backward(upstream), _oracle_backward(tower, cache, upstream)
        assert len(got) == len(want_grads) == 6
        for g, expected in zip(got, want_grads):
            assert np.array_equal(g, expected)

    def test_backward_forms_no_input_gradient(self, rng):
        # Layer 0's input gradient would be as large as the 8 MB input; nothing reads it.
        tower = Tower.build(TowerSpec(4096, 2, (4,)), rng)
        x = rng.standard_normal((256, 4096))
        tower.forward(x, training=True)
        upstream = np.ones((256, 2))
        tracemalloc.start()
        try:
            tower.backward(upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes // 8

    @pytest.mark.parametrize(
        "hidden",
        [(8, 8), (8, 32, 16), (1024, 1024, 1024), (4, 4), (5, 2, 4)],
        ids=["equal", "unequal", "wide", "narrow-even", "narrow-odd"],
    )
    @pytest.mark.parametrize(
        "rows", [0, 1, 2, 3, 4, 5, 7, 401, 511, 512, 513, 1024, 1025, 1599, 2049, 4000]
    )
    def test_inference_matches_chained_oracle(self, rng, rows, hidden):
        # Unequal widths make the narrower layers write views of wider rows.
        # Odd row counts split into unequal halves; below 4 rows nothing is
        # split. A half of up to 512 rows runs as one chunk; 513 and 1025 rows
        # per half run as two and three equal chunks. Layer 0 reads each chunk
        # from the buffer it does not write, `hidden` for an even layer count
        # and the slot for an odd one; the narrow towers' 6-d input is wider
        # than every layer, so it sets that buffer's width.
        tower = Tower.build(TowerSpec(6, 3, hidden, 0.1), np.random.default_rng(0))
        x = rng.standard_normal((rows, 6))
        out = tower.forward(x)
        assert out.shape == (rows, 3)
        assert np.array_equal(out, _oracle_forward(tower, x, 0.0, [0])[0])
        # float32 rows give the bits of their exact float64 copy.
        narrow = x.astype(np.float32)
        wide = narrow.astype(np.float64)
        assert np.array_equal(tower.forward(narrow), _oracle_forward(tower, wide, 0.0, [0])[0])

    def test_wide_inference_matches_chained_oracle(self, rng):
        # The reference audio tower at an odd row count: its 1024-wide products
        # over 200 and 201 rows round as the one over 401 does.
        tower = Tower.build(TowerSpec(128, 10, (1024, 1024, 1024)), np.random.default_rng(0))
        x = rng.standard_normal((401, 128))
        assert np.array_equal(tower.forward(x), _oracle_forward(tower, x, 0.0, [0])[0])

    def test_row_halves_of_unequal_layers_never_collide(self, rng, usable_cpus):
        # A wide layer between narrow ones: were the halves' slots to move with
        # the layer width, the worker's third layer would overwrite first-layer
        # rows the caller has yet to read.
        usable_cpus(2)
        tower = Tower.build(TowerSpec(6, 3, (8, 256, 16)), np.random.default_rng(0))
        for _ in range(20):
            x = rng.standard_normal((2001, 6))
            assert np.array_equal(tower.forward(x), _oracle_forward(tower, x, 0.0, [0])[0])

    def test_inference_outputs_own_their_memory(self, rng):
        tower = Tower.build(TowerSpec(6, 3, (8, 32, 16)), np.random.default_rng(0))
        x, y = rng.standard_normal((50, 6)), rng.standard_normal((50, 6))
        first = tower.forward(x)
        kept = first.copy()
        second = tower.forward(y)
        assert np.array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert np.array_equal(second, _oracle_forward(tower, y, 0.0, [0])[0])

    def test_inference_between_forward_and_backward_keeps_gradients(self, rng):
        tower = Tower.build(TowerSpec(6, 3, (8, 32, 16), 0.1), np.random.default_rng(0))
        x, upstream = rng.standard_normal((20, 6)), rng.standard_normal((20, 3))
        tower.forward(x, training=True, seed_base=[3])
        want = [g.copy() for g in tower.backward(upstream)]  # the next backward overwrites them
        tower.forward(x, training=True, seed_base=[3])
        tower.forward(rng.standard_normal((20, 6)))
        got = tower.backward(upstream)
        for g, expected in zip(got, want, strict=True):
            assert np.array_equal(g, expected)

    @pytest.mark.parametrize("row_counts", [(400, 150, 400), (150, 400, 7)])
    def test_batch_size_changes_match_a_fresh_tower(self, rng, row_counts):
        # A shorter batch runs in the leading rows of the buffers a taller one
        # left, a taller one grows them; unequal widths make every scratch view
        # narrower than its block.
        spec = TowerSpec(6, 3, (16, 8, 12), 0.1)
        tower = Tower.build(spec, np.random.default_rng(0))
        for step, rows in enumerate(row_counts):
            fresh = Tower.build(spec, np.random.default_rng(0))
            x, upstream = rng.standard_normal((rows, 6)), rng.standard_normal((rows, 3))
            out = tower.forward(x, training=True, seed_base=[step])
            assert np.array_equal(out, fresh.forward(x, training=True, seed_base=[step]))
            got, want = tower.backward(upstream), fresh.backward(upstream)
            for g, expected in zip(got, want, strict=True):
                assert np.array_equal(g, expected)

    def test_training_step_allocates_no_large_block(self, rng):
        # After a warm-up step, a 400-row step of 512-wide towers writes its
        # float64 inputs, activations, masks, scratch and gradients into
        # buffers it holds, with float64 features and with float32 ones. One
        # activation is 1.6 MB, one hidden weight gradient 2 MB and the visual
        # input widened to float64 1.6 MB; the largest new blocks are the two
        # towers' 200 KiB boolean ReLU masks. The peak bounds the blocks alive
        # at once, so it bounds each block.
        d_audio, d_visual = rng.standard_normal((400, 10)), rng.standard_normal((400, 10))
        for dtype in (np.float64, np.float32):
            model = TwoTowerModel.create(
                TowerSpec(64, 10, (512, 512, 512)), TowerSpec(512, 10, (512, 512, 512)), seed=0
            )
            batch = PairedBatch(rng.standard_normal((400, 64)).astype(dtype),
                                rng.standard_normal((400, 512)).astype(dtype),
                                np.zeros(400, dtype=np.int64))
            assert batch.visual.dtype == dtype
            optimizer = Adam(1e-3)

            def step(seed: int) -> None:
                model.encode(batch, training=True, step_seed=seed)
                optimizer.apply(model.parameters(), model.backward(d_audio, d_visual))

            step(0)
            tracemalloc.start()
            try:
                step(1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20, dtype

    def test_inference_forward_holds_two_activations(self, rng):
        # At most: the full-height `hidden` activation, and one chunk-sized
        # slot per row half. At 1000 rows each half is one 500-row chunk, two
        # activations in all; at 4000 rows each half runs four 500-row chunks,
        # 1.25 activations. The output is a fresh array of 4 columns, so
        # holding it keeps nothing else alive.
        tower = Tower.build(TowerSpec(64, 4, (512, 512, 512)), rng)
        for rows, activations in ((1000, 2.0), (4000, 1.25)):
            x = rng.standard_normal((rows, 64))
            activation = rows * 512 * 8
            tracemalloc.start()
            try:
                out = tower.forward(x)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= activations * activation + activation // 16
            assert held <= 2 * out.nbytes


def _rows(n: int, audio_dim: int = 6, visual_dim: int = 9) -> PairedBatch:
    rng = np.random.default_rng(n)
    return PairedBatch(rng.standard_normal((n, audio_dim)), rng.standard_normal((n, visual_dim)),
                       rng.integers(0, 3, size=n))


class TestTowerOverlap:
    """Both towers at once on two threads, against the same model forced serial."""

    @pytest.mark.parametrize("rows", [6, 400, 1024, 1025, 4000])
    @pytest.mark.parametrize("training", [False, True], ids=["inference", "training"])
    def test_encode_matches_serial(self, small_model, usable_cpus, monkeypatch, rows, training):
        batch = _rows(rows)
        calls = []
        # Training overlaps whole towers; inference splits each tower's hidden rows.
        name = "forward" if training else "_hidden_in_place"
        method = getattr(Tower, name)

        def spy(tower, *args, **kwargs):
            on_caller = threading.current_thread() is threading.main_thread()
            calls.append((tower is small_model.audio, on_caller))
            return method(tower, *args, **kwargs)

        monkeypatch.setattr(Tower, name, spy)
        usable_cpus(1)
        serial = small_model.encode(batch, training=training, step_seed=4)
        usable_cpus(2)
        calls.clear()
        overlapped = small_model.encode(batch, training=training, step_seed=4)
        if training:
            # The audio tower goes to the worker at every batch size.
            assert sorted(calls) == [(False, True), (True, False)]
        else:
            # Audio, then visual: each runs its first rows on the worker, the rest on the caller.
            assert sorted(calls[:2]) == [(True, False), (True, True)]
            assert sorted(calls[2:]) == [(False, False), (False, True)]
        assert np.array_equal(serial.audio, overlapped.audio)
        assert np.array_equal(serial.visual, overlapped.visual)

    def test_inference_encode_holds_one_towers_block(self, rng, usable_cpus):
        # The towers run one after the other, each over both cores, so one
        # tower's two-activation block is alive at a time, not two.
        usable_cpus(2)
        spec = TowerSpec(64, 4, (512, 512, 512))
        model = TwoTowerModel.create(spec, spec, seed=0)
        batch = PairedBatch(rng.standard_normal((1000, 64)), rng.standard_normal((1000, 64)),
                            rng.integers(0, 4, size=1000))
        activation = 1000 * 512 * 8
        tracemalloc.start()
        try:
            model.encode(batch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * activation + activation // 4

    @pytest.mark.parametrize("rows", [1, 2, 3, 4, 5, 511, 512, 513, 1024, 1025, 1599])
    def test_float32_encode_matches_its_float64_copy(
        self, small_model, usable_cpus, float32_twins, rows
    ):
        # The visual tower's 9-d input is wider than its two 8-wide layers.
        narrow, wide = float32_twins(_rows(rows))
        for cpus in (1, 2):
            usable_cpus(cpus)
            got, want = small_model.encode(narrow), small_model.encode(wide)
            assert np.array_equal(got.audio, want.audio)
            assert np.array_equal(got.visual, want.visual)

    def test_reference_float32_encode_widens_one_chunk_at_a_time(
        self, rng, usable_cpus, float32_twins, reference_model
    ):
        # No float64 copy of the features, at full height or per chunk: the
        # float32 encode peaks no higher than the one given float64 features
        # to begin with. How the two threads interleave decides whether a
        # thread's numpy ufunc buffer (`np.getbufsize()` values, 64 KiB of
        # float64) is live at the peak, so either peak may hold one per thread
        # more; a float64 copy of one 500-row visual chunk would add 4 MiB.
        usable_cpus(2)
        narrow, wide = float32_twins(
            PairedBatch(rng.standard_normal((4000, 128)), rng.standard_normal((4000, 1024)),
                        rng.integers(0, 10, size=4000))
        )
        reference_model.encode(_rows(4, 128, 1024))  # the worker thread's first-use allocations
        runs = []
        for batch in (narrow, wide):
            tracemalloc.start()
            try:
                emb = reference_model.encode(batch)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            runs.append((emb, peak))
        (got, narrow_peak), (want, wide_peak) = runs
        assert np.array_equal(got.audio, want.audio)
        assert np.array_equal(got.visual, want.visual)
        assert narrow_peak <= wide_peak + 2 * 8 * np.getbufsize()

    def test_backward_matches_serial(self, small_model, usable_cpus):
        batch = _rows(6)
        rng = np.random.default_rng(1)
        d_audio, d_visual = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        runs = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            small_model.encode(batch, training=True, step_seed=2)
            runs.append([g.copy() for g in small_model.backward(d_audio, d_visual)])
        serial, overlapped = runs
        assert len(serial) == len(overlapped) == len(small_model.parameters())
        for g, h in zip(serial, overlapped):
            assert np.array_equal(g, h)

    def test_worker_shape_error_is_the_serial_one(self, small_model, usable_cpus):
        bad = _rows(6, audio_dim=7)  # the audio tower, run on the worker, rejects it
        messages = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            with pytest.raises(ShapeError) as caught:
                small_model.encode(bad, training=True, step_seed=1)
            assert type(caught.value) is ShapeError
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert "tower input dim 6" in messages[0]
        # The worker serves the next call.
        usable_cpus(1)
        serial = small_model.encode(_rows(6))
        usable_cpus(2)
        overlapped = small_model.encode(_rows(6))
        assert np.array_equal(serial.audio, overlapped.audio)


class TestFromParameters:
    def test_tensor_count_check(self, small_model):
        spec = small_model.audio.spec
        with pytest.raises(ShapeError, match="expected 6 tensors"):
            Tower.from_parameters(spec, small_model.audio.parameters()[:-1])

    @pytest.mark.parametrize("index, shape", [(0, (4, 5)), (1, (7,)), (2, (8, 2)), (3, (3, 1))])
    def test_wrong_shape_names_the_tensor(self, index, shape):
        spec = TowerSpec(4, 3, (8,))
        tensors = [np.zeros((4, 8)), np.zeros(8), np.zeros((8, 3)), np.zeros(3)]
        message = f"tensor {index} has shape {shape}, expected {tensors[index].shape}"
        tensors[index] = np.zeros(shape)
        with pytest.raises(ShapeError, match=re.escape(message)):
            Tower.from_parameters(spec, tensors)

    @settings(max_examples=25, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 5), min_size=3, max_size=5),
        output_dim=st.integers(2, 4),
        seed=st.integers(0, 2**16),
    )
    def test_accepted_towers_round_trip(self, dims, output_dim, seed):
        # Any tower from_parameters accepts saves and loads back bit for bit.
        rng = np.random.default_rng(seed)
        specs = [TowerSpec(dims[0], output_dim, tuple(dims[1:-1])),
                 TowerSpec(dims[-1], output_dim, tuple(dims[1:-1]))]
        towers = [
            Tower.from_parameters(spec, [
                rng.standard_normal(shape)
                for d_in, d_out in spec.layer_dims
                for shape in ((d_in, d_out), (d_out,))
            ])
            for spec in specs
        ]
        model = TwoTowerModel(*towers)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.xmdl"
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
        assert [t.spec for t in (loaded.audio, loaded.visual)] == specs
        params = loaded.parameters()
        assert len(params) == len(model.parameters())
        for p, q in zip(params, model.parameters()):
            assert np.array_equal(p, q)

    def test_rebuild_preserves_forward(self, small_model, small_batch):
        rebuilt = TwoTowerModel(
            Tower.from_parameters(small_model.audio.spec, small_model.audio.parameters()),
            Tower.from_parameters(small_model.visual.spec, small_model.visual.parameters()),
        )
        np.testing.assert_array_equal(
            rebuilt.encode(small_batch).audio, small_model.encode(small_batch).audio
        )


class TestCheckpoint:
    def test_writes_the_documented_layout(self, tmp_path):
        # Expected bytes are packed by hand from the layout in checkpoint.py, so a
        # change made to both the writer and the reader still fails here.
        audio_spec = TowerSpec(input_dim=2, output_dim=2, hidden_dims=(3,), dropout_rate=0.25)
        visual_spec = TowerSpec(input_dim=1, output_dim=2, hidden_dims=(2,), dropout_rate=0.0)
        audio_values = [
            [[0.5, -1.0, 2.0], [0.25, 3.0, -0.125]],  # w0, 2 x 3
            [1.0, -2.0, 0.0],  # b0
            [[1.5, 2.5], [-3.5, 4.5], [0.0625, -0.75]],  # w1, 3 x 2
            [-1.0, 1.0],  # b1
        ]
        visual_values = [[[7.0, -8.0]], [0.5, 0.5], [[1e-3, -1e300], [2.0**-1074, 1.0]], [9.0, -9.0]]
        model = TwoTowerModel(
            Tower.from_parameters(audio_spec, [np.array(v) for v in audio_values]),
            Tower.from_parameters(visual_spec, [np.array(v) for v in visual_values]),
        )
        path = tmp_path / "golden.xmdl"
        save_checkpoint(model, path)

        expected = b"XMDL" + struct.pack("<H", 1) + struct.pack("<B", 1)
        # Tower blocks: input dim, hidden count, hidden dims, output dim, dropout rate.
        expected += struct.pack("<IIIId", 2, 1, 3, 2, 0.25)
        expected += struct.pack("<IIIId", 1, 1, 2, 2, 0.0)
        for values in audio_values + visual_values:
            array = np.array(values)
            expected += struct.pack("<I", array.ndim)
            expected += struct.pack(f"<{array.ndim}I", *array.shape)
            expected += struct.pack(f"<{array.size}d", *array.reshape(-1).tolist())
        assert path.read_bytes() == expected

    def test_roundtrip_bit_exact(self, tmp_path, small_model, small_batch):
        path = tmp_path / "model.xmdl"
        save_checkpoint(small_model, path)
        loaded = load_checkpoint(path)
        assert loaded.audio.spec == small_model.audio.spec
        assert loaded.visual.spec == small_model.visual.spec
        for p, q in zip(small_model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(p, q)
        np.testing.assert_array_equal(
            loaded.encode(small_batch).audio, small_model.encode(small_batch).audio
        )

    def test_resave_is_byte_identical(self, tmp_path, small_model):
        p1 = tmp_path / "a.xmdl"
        p2 = tmp_path / "b.xmdl"
        save_checkpoint(small_model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_that_fails_part_way_keeps_the_previous_file(self, tmp_path, small_model):
        path = tmp_path / "model.xmdl"
        save_checkpoint(small_model, path)
        before = path.read_bytes()

        class DiskFills:  # writes the header and one tensor, then fails
            audio, visual = small_model.audio, small_model.visual

            def parameters(self):
                yield small_model.parameters()[0] * 2.0
                raise OSError(errno.ENOSPC, "No space left on device")

        with pytest.raises(OSError, match="No space left"):
            save_checkpoint(DiskFills(), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_loaded_tensors_are_fresh_writeable_arrays(self, tmp_path, small_model):
        # Adam updates parameters in place through flat views; no tensor keeps the file alive.
        path = tmp_path / "m.xmdl"
        save_checkpoint(small_model, path)
        tensors = load_checkpoint(path).parameters()
        for i, tensor in enumerate(tensors):
            assert tensor.flags.writeable and tensor.flags.c_contiguous
            # Its memory is numpy's own, not a view of a buffer the file's bytes were read into.
            owner = tensor
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            assert owner.base is None
            assert not any(np.shares_memory(tensor, other) for other in tensors[i + 1 :])

    def test_load_holds_each_tensor_once(self, tmp_path, reference_model):
        # The values are read straight into their tensors; the file is never held whole.
        path = tmp_path / "m.xmdl"
        save_checkpoint(reference_model, path)
        tensor_bytes = sum(p.nbytes for p in reference_model.parameters())
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * tensor_bytes
        for p, q in zip(reference_model.parameters(), loaded.parameters(), strict=True):
            assert np.array_equal(p, q)

    def test_bad_magic(self, tmp_path, small_model):
        path = tmp_path / "m.xmdl"
        save_checkpoint(small_model, path)
        path.write_bytes(b"NOPE" + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="bad magic"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path, small_model):
        path = tmp_path / "m.xmdl"
        save_checkpoint(small_model, path)
        raw = bytearray(path.read_bytes())
        raw[4:6] = struct.pack("<H", 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unsupported checkpoint version 3"):
            load_checkpoint(path)

    def test_unknown_precision_tag(self, tmp_path, small_model):
        path = tmp_path / "m.xmdl"
        save_checkpoint(small_model, path)
        raw = bytearray(path.read_bytes())
        raw[6] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unknown precision tag 2"):
            load_checkpoint(path)

    def test_truncation_names_the_tensor(self, tmp_path, small_model):
        path = tmp_path / "m.xmdl"
        save_checkpoint(small_model, path)
        # Cut inside the value payload of the very first tensor.
        header = 7
        spec_block = (4 + 4 + 2 * 4 + 4 + 8) * 2
        cut = header + spec_block + 4 + 2 * 4 + 40
        path.write_bytes(path.read_bytes()[:cut])
        with pytest.raises(FormatError, match="values of audio.layer0.weights"):
            load_checkpoint(path)

    def test_truncation_at_tail(self, tmp_path, small_model):
        path = tmp_path / "m.xmdl"
        save_checkpoint(small_model, path)
        path.write_bytes(path.read_bytes()[:-5])
        with pytest.raises(FormatError, match="values of visual.layer2.bias"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path, small_model):
        path = tmp_path / "m.xmdl"
        save_checkpoint(small_model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 5)
        with pytest.raises(FormatError, match="5 trailing bytes"):
            load_checkpoint(path)

    def test_implausible_hidden_count(self, tmp_path, small_model):
        path = tmp_path / "m.xmdl"
        save_checkpoint(small_model, path)
        raw = bytearray(path.read_bytes())
        raw[11:15] = struct.pack("<I", 0)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="implausible hidden layer count 0"):
            load_checkpoint(path)

    def test_rank_mismatch_names_tensor(self, tmp_path, small_model):
        path = tmp_path / "m.xmdl"
        save_checkpoint(small_model, path)
        raw = bytearray(path.read_bytes())
        rank_offset = 7 + (4 + 4 + 2 * 4 + 4 + 8) * 2
        raw[rank_offset : rank_offset + 4] = struct.pack("<I", 3)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="audio.layer0.weights has rank 3"):
            load_checkpoint(path)

    def test_f32_tag_is_unknown(self, tmp_path, small_model):
        """Tag 0 once meant float32 values; float64 (tag 1) is the only precision read."""
        path = tmp_path / "f32.xmdl"
        save_checkpoint(small_model, path)
        raw = bytearray(path.read_bytes())
        raw[6] = 0
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="unknown precision tag 0 at byte 6"):
            load_checkpoint(path)

    def test_huge_declared_shape_is_a_truncated_file(self, tmp_path):
        # (2**32 - 1)**2 values wrap around int64; the reader must count them exactly.
        big = 2**32 - 1
        out = bytearray(b"XMDL" + struct.pack("<HB", 1, 1))
        for _ in range(2):  # input, one hidden layer, output, dropout
            out += struct.pack("<IIIId", big, 1, big, 2, 0.0)
        out += struct.pack("<III", 2, big, big)  # rank and dims of audio.layer0.weights
        path = tmp_path / "huge.xmdl"
        path.write_bytes(bytes(out))
        with pytest.raises(
            FormatError, match="unexpected end of file .* values of audio.layer0.weights"
        ):
            load_checkpoint(path)
