"""Two-tower encoder wiring and checkpoint serialization."""

import struct
import threading

import numpy as np
import pytest

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
from avdistill.model import _OVERLAP_ROWS, Tower
from avdistill.nn import DenseLayer

from oracles import dense_backward


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
        a0 = small_model.audio.layers[1].weights
        v0 = small_model.visual.layers[1].weights
        assert a0.shape == v0.shape and not np.array_equal(a0, v0)

    def test_parameter_names_align(self, small_model):
        # parameters() runs audio w0, b0, ... then visual, the checkpoint's tensor order.
        params = small_model.parameters()
        layers = small_model.audio.layers + small_model.visual.layers
        assert len(params) == 2 * len(layers) == 12
        for i, layer in enumerate(layers):
            assert params[2 * i] is layer.weights
            assert params[2 * i + 1] is layer.bias

    def test_hidden_layers_relu_output_identity(self, small_model):
        acts = [layer.activation for layer in small_model.audio.layers]
        assert acts == ["relu", "relu", "identity"]


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

    def test_tower_backward_matches_oracle(self, small_model, small_batch, rng, monkeypatch):
        emb = small_model.encode(small_batch, training=True, step_seed=2)
        d_audio, d_visual = rng.standard_normal(emb.audio.shape), rng.standard_normal(emb.visual.shape)
        # The oracle chain forms every layer's input gradient, layer 0's included.
        want = []
        for tower, upstream in ((small_model.audio, d_audio), (small_model.visual, d_visual)):
            grads, grad = [], upstream
            for layer in reversed(tower.layers):
                c = layer._cache
                dw, db, grad = dense_backward(
                    c["x"], layer.weights, c["pre"], c["mask"], layer.activation, grad
                )
                grads[:0] = [dw, db]
            want += grads
        input_grads = {}
        backward = DenseLayer.backward

        def spy(layer, upstream, **kwargs):
            out = backward(layer, upstream, **kwargs)
            input_grads[id(layer)] = out[2]
            return out

        monkeypatch.setattr(DenseLayer, "backward", spy)
        got = small_model.backward(d_audio, d_visual)
        assert len(got) == len(want)
        for g, expected in zip(got, want):
            assert np.array_equal(g, expected)
        for tower in (small_model.audio, small_model.visual):
            assert input_grads[id(tower.layers[0])] is None
            assert all(input_grads[id(layer)] is not None for layer in tower.layers[1:])

    def test_wrong_feature_width(self, small_model, rng):
        from avdistill import PairedBatch

        bad = PairedBatch(rng.standard_normal((2, 7)), rng.standard_normal((2, 9)),
                          np.zeros(2, dtype=np.int64))
        with pytest.raises(ShapeError):
            small_model.encode(bad)

    def test_embedding_batch_width_check(self, rng):
        with pytest.raises(ShapeError):
            EmbeddingBatch(rng.standard_normal((3, 2)), rng.standard_normal((3, 4)))


def _rows(n: int, audio_dim: int = 6, visual_dim: int = 9) -> PairedBatch:
    rng = np.random.default_rng(n)
    return PairedBatch(rng.standard_normal((n, audio_dim)), rng.standard_normal((n, visual_dim)),
                       rng.integers(0, 3, size=n))


class TestTowerOverlap:
    """Both towers at once on two threads, against the same model forced serial."""

    @pytest.mark.parametrize("rows", [6, _OVERLAP_ROWS, _OVERLAP_ROWS + 1])
    @pytest.mark.parametrize("training", [False, True], ids=["inference", "training"])
    def test_encode_matches_serial(self, small_model, usable_cpus, monkeypatch, rows, training):
        batch = _rows(rows)
        on_caller = {}
        forward = Tower.forward

        def spy(tower, *args, **kwargs):
            on_caller[tower is small_model.audio] = threading.current_thread() is threading.main_thread()
            return forward(tower, *args, **kwargs)

        monkeypatch.setattr(Tower, "forward", spy)
        usable_cpus(1)
        serial = small_model.encode(batch, training=training, step_seed=4)
        usable_cpus(2)
        overlapped = small_model.encode(batch, training=training, step_seed=4)
        # The audio tower goes to the worker only for batches of at most _OVERLAP_ROWS.
        assert on_caller == {True: rows > _OVERLAP_ROWS, False: True}
        assert np.array_equal(serial.audio, overlapped.audio)
        assert np.array_equal(serial.visual, overlapped.visual)

    def test_backward_matches_serial(self, small_model, usable_cpus):
        batch = _rows(6)
        rng = np.random.default_rng(1)
        d_audio, d_visual = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
        runs = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            small_model.encode(batch, training=True, step_seed=2)
            runs.append(small_model.backward(d_audio, d_visual))
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

    def test_rebuild_preserves_forward(self, small_model, small_batch):
        rebuilt = TwoTowerModel(
            Tower.from_parameters(small_model.audio.spec, small_model.audio.parameters()),
            Tower.from_parameters(small_model.visual.spec, small_model.visual.parameters()),
        )
        np.testing.assert_array_equal(
            rebuilt.encode(small_batch).audio, small_model.encode(small_batch).audio
        )


class TestCheckpoint:
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

    def test_f32_file_upcasts(self, tmp_path, small_model):
        """A 32-bit value payload loads into the usual 64-bit parameters."""
        path = tmp_path / "f32.xmdl"
        out = bytearray(b"XMDL" + struct.pack("<HB", 1, 0))
        for spec in (small_model.audio.spec, small_model.visual.spec):
            out += struct.pack("<II", spec.input_dim, len(spec.hidden_dims))
            out += struct.pack(f"<{len(spec.hidden_dims)}I", *spec.hidden_dims)
            out += struct.pack("<I", spec.output_dim)
            out += struct.pack("<d", spec.dropout_rate)
        for tensor in small_model.parameters():
            out += struct.pack("<I", tensor.ndim)
            out += struct.pack(f"<{tensor.ndim}I", *tensor.shape)
            out += np.ascontiguousarray(tensor, dtype="<f4").tobytes()
        path.write_bytes(bytes(out))

        loaded = load_checkpoint(path)
        for p, q in zip(small_model.parameters(), loaded.parameters()):
            assert q.dtype == np.float64
            np.testing.assert_array_equal(q, p.astype(np.float32).astype(np.float64))
