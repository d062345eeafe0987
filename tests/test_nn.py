"""Numeric core: softmax, a tower's dense layers and dropout, optimizers, gradient checking."""

import math
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from avdistill import (
    ConfigError,
    DeterminismError,
    LossConfig,
    NumericError,
    ShapeError,
    StateError,
    SyntheticSpec,
    TowerSpec,
    TwoTowerModel,
    composite_loss,
    generate_synthetic,
    grad_check,
    partition_batch,
)
from avdistill.model import Tower, _relu_dropout, _relu_dropout_grad
from avdistill.nn import (
    _ADAM_CHUNK,
    Adam,
    Sgd,
    _overlap,
    he_uniform,
    make_optimizer,
    softmax_rows,
    xavier_uniform,
)

from oracles import (
    dense_backward,
    dense_forward,
    numeric_gradient,
    pre_activation_grad,
    whole_tensor_adam_step,
)


class TestActivations:
    def test_softmax_symmetric_row(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_softmax_log_integers(self):
        row = np.log(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_allclose(softmax_rows(row), [[1 / 6, 2 / 6, 3 / 6]], atol=1e-15)

    def test_softmax_large_logits_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert out[0, 0] > 0.999999
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_softmax_wide_spread_rows_sum_to_one(self, rng):
        logits = rng.uniform(-800.0, 800.0, size=(20, 6))
        logits[0] = [800.0, 0.0, -800.0, 100.0, -100.0, 0.0]
        out = softmax_rows(logits)
        assert np.isfinite(out).all()
        assert (out >= 0.0).all()
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)

    def test_softmax_empty_is_shape_error(self):
        with pytest.raises(ShapeError):
            softmax_rows(np.zeros((0, 3)))
        with pytest.raises(ShapeError):
            softmax_rows(np.array([1.0, 2.0]))


class TestInit:
    def test_he_uniform_bounds_and_determinism(self):
        w1 = he_uniform(np.random.default_rng(5), 50, 20)
        w2 = he_uniform(np.random.default_rng(5), 50, 20)
        np.testing.assert_array_equal(w1, w2)
        limit = np.sqrt(6.0 / 50)
        assert np.abs(w1).max() <= limit

    def test_xavier_uniform_bounds(self):
        w = xavier_uniform(np.random.default_rng(5), 50, 20)
        assert np.abs(w).max() <= np.sqrt(6.0 / 70)


def _tower(*layers: tuple[np.ndarray, np.ndarray], rate: float = 0.0) -> Tower:
    """A tower of the given (weights, bias) layers: ReLU on each but the last, which is linear."""
    dims = [w.shape[1] for w, _ in layers]
    spec = TowerSpec(layers[0][0].shape[0], dims[-1], tuple(dims[:-1]), rate)
    return Tower.from_parameters(spec, [t for layer in layers for t in layer])


def _eye_tower(n: int, rate: float) -> Tower:
    """Identity weights, zero biases: the output is the hidden layer's, ReLU and dropout only."""
    return _tower((np.eye(n), np.zeros(n)), (np.eye(n), np.zeros(n)), rate=rate)


def _relu_identity_layers(rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """A 7 -> 30 ReLU layer and a 30 -> 30 linear layer."""
    return [(rng.standard_normal((7, 30)), rng.standard_normal(30)),
            (rng.standard_normal((30, 30)), rng.standard_normal(30))]


class TestDenseForward:
    """A tower's layers: ReLU with inverted dropout, then a linear last layer."""

    def test_identity_layer_passes_input_through(self, rng):
        # The ReLU layer splits x into its positive and negative parts; the
        # linear last layer adds them back, negative values included.
        x = rng.standard_normal((4, 3))
        eye = np.eye(3)
        tower = _tower((np.hstack([eye, -eye]), np.zeros(6)), (np.vstack([eye, -eye]), np.zeros(3)))
        np.testing.assert_array_equal(tower.forward(x), x)

    def test_relu_applied_elementwise(self):
        out = _eye_tower(3, rate=0.0).forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_input_dim_mismatch(self):
        with pytest.raises(ShapeError):
            _eye_tower(3, rate=0.0).forward(np.zeros((2, 4)))

    def test_dropout_zeroes_expected_fraction(self):
        # 100 x 100 = 1e4 units of all-ones pass through a 0.1 dropout mask.
        out = _eye_tower(100, rate=0.1).forward(np.ones((100, 100)), training=True, seed_base=[4])
        fraction = float((out == 0.0).mean())
        assert abs(fraction - 0.1) < 0.02

    def test_inverted_dropout_preserves_expectation(self):
        out = _eye_tower(100, rate=0.1).forward(np.ones((100, 100)), training=True, seed_base=[9])
        # Surviving units are scaled by 1/0.9, so the mean stays near 1.
        assert abs(float(out.mean()) - 1.0) < 0.02

    def test_dropout_inactive_at_inference(self, rng):
        x = rng.standard_normal((5, 4))
        layers = [(rng.standard_normal((4, 4)), np.zeros(4)) for _ in range(2)]
        plain = _tower(*layers).forward(x)
        masked = _tower(*layers, rate=0.5).forward(x, training=False, seed_base=[1])
        np.testing.assert_array_equal(plain, masked)

    def test_dropout_mask_deterministic_per_seed(self):
        tower = _eye_tower(10, rate=0.3)
        a = tower.forward(np.ones((10, 10)), training=True, seed_base=[2])
        b = tower.forward(np.ones((10, 10)), training=True, seed_base=[2])
        c = tower.forward(np.ones((10, 10)), training=True, seed_base=[3])
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            TowerSpec(input_dim=4, output_dim=2, dropout_rate=1.0)

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_training_forward_matches_oracle(self, rng, activation, rate):
        """The tower's ReLU layer, or its identity last layer, against the one-layer oracle.

        The last layer takes no dropout, whatever the tower's rate. The ReLU
        layer's output is the last layer's input, which the backward reads to
        form the last layer's weight gradient.
        """
        x = rng.standard_normal((40, 7))
        upstream = rng.standard_normal((40, 30))
        layers = _relu_identity_layers(rng)
        tower = _tower(*layers, rate=rate)
        out = tower.forward(x, training=True, seed_base=[5, 2])
        hidden, _, _ = dense_forward(x, *layers[0], "relu", rate, [5, 2, 0])
        want_out, _, _ = dense_forward(hidden, *layers[1], "identity", 0.0, None)
        if activation == "relu":
            assert np.array_equal(tower.backward(upstream)[2], hidden.T @ upstream)
        else:
            assert np.array_equal(out, want_out)


class TestDenseBackward:
    def test_zero_upstream_gives_zero_gradients(self, rng):
        tower = _tower((rng.standard_normal((3, 2)), rng.standard_normal(2)),
                       (rng.standard_normal((2, 2)), rng.standard_normal(2)))
        tower.forward(rng.standard_normal((4, 3)), training=True)
        assert not any(g.any() for g in tower.backward(np.zeros((4, 2))))

    def test_single_linear_unit_chain_rule(self):
        """w=2, input 3, upstream 1 through a linear last layer: dW = 3, db = 1."""
        tower = _tower((np.array([[2.0]]), np.zeros(1)), (np.array([[1.0, 0.0]]), np.zeros(2)))
        tower.forward(np.array([[3.0]]), training=True)
        dw0, db0, dw1, db1 = tower.backward(np.array([[1.0, 0.0]]))
        assert dw0[0, 0] == 3.0
        assert db0[0] == 1.0
        np.testing.assert_array_equal(dw1, [[6.0, 0.0]])
        np.testing.assert_array_equal(db1, [1.0, 0.0])

    def test_backward_without_forward_is_state_error(self):
        tower = _eye_tower(2, rate=0.0)
        with pytest.raises(StateError):
            tower.backward(np.zeros((1, 2)))
        tower.forward(np.ones((1, 2)))  # inference caches nothing
        with pytest.raises(StateError):
            tower.backward(np.zeros((1, 2)))

    def test_backward_shape_mismatch(self, rng):
        tower = _tower((rng.standard_normal((3, 2)), np.zeros(2)), (np.eye(2), np.zeros(2)))
        tower.forward(rng.standard_normal((4, 3)), training=True)
        with pytest.raises(ShapeError):
            tower.backward(np.zeros((4, 3)))

    def test_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((5, 4))
        upstream = rng.standard_normal((5, 3))
        w0, b0 = rng.standard_normal((4, 3)), rng.standard_normal(3)
        w1, b1 = rng.standard_normal((3, 3)), rng.standard_normal(3)

        def loss_of_w0(w):
            return float((_tower((w, b0), (w1, b1)).forward(x) * upstream).sum())

        def loss_of_w1(w):
            return float((_tower((w0, b0), (w, b1)).forward(x) * upstream).sum())

        tower = _tower((w0, b0), (w1, b1))
        tower.forward(x, training=True)
        dw0, _, dw1, _ = tower.backward(upstream)

        num_dw0 = numeric_gradient(loss_of_w0, w0, h=1e-4)
        num_dw1 = numeric_gradient(loss_of_w1, w1, h=1e-4)
        for analytic, numeric in ((dw0, num_dw0), (dw1, num_dw1)):
            denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
            assert (np.abs(analytic - numeric) / denom).max() < 1e-4

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_backward_matches_oracle(self, rng, activation, rate):
        """The gradients of the tower's ReLU layer, or of its identity last layer."""
        x = rng.standard_normal((40, 7))
        layers = _relu_identity_layers(rng)
        upstream = rng.standard_normal((40, 30))
        tower = _tower(*layers, rate=rate)
        tower.forward(x, training=True, seed_base=[8])
        hidden, pre0, mask0 = dense_forward(x, *layers[0], "relu", rate, [8, 0])
        _, pre1, _ = dense_forward(hidden, *layers[1], "identity", 0.0, None)
        dw1, db1, d_hidden = dense_backward(hidden, layers[1][0], pre1, None, "identity", upstream)
        dw0, db0, _ = dense_backward(x, layers[0][0], pre0, mask0, "relu", d_hidden)
        got, want = tower.backward(upstream), [dw0, db0, dw1, db1]
        i = 0 if activation == "relu" else 2
        assert np.array_equal(got[i], want[i]) and np.array_equal(got[i + 1], want[i + 1])

    @pytest.mark.parametrize("rate", [0.0, 0.5])
    def test_mask_and_relu_rewrite_matches_oracle_on_edge_values(self, rate):
        """The in-place activation and its gradient against the oracle's, bit for bit.

        `pre_activation_grad` is the elementwise part of `dense_backward`.

        Every pairing of an upstream value (±0, ±1, ±inf, NaN) with a
        pre-activation (±0, the smallest subnormal, ±1, ±inf, NaN), each kept
        and, under dropout, dropped. NaN positions must agree; the NaN's sign
        may not.
        """
        ups = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
        pres = [0.0, -0.0, 5e-324, 1.0, -1.0, math.inf, -math.inf, math.nan]
        upstream, pre, kept = (
            a.reshape(1, -1) for a in np.meshgrid(ups, pres, [True, False], indexing="ij")
        )
        keep = kept if rate > 0.0 else None
        scale = 1.0 / (1.0 - rate)
        mask = None if keep is None else keep.astype(np.float64) / (1.0 - rate)
        with np.errstate(invalid="ignore"):
            out = pre.copy()
            _relu_dropout(out, keep, scale)
            got = upstream.copy()
            _relu_dropout_grad(got, keep, out > 0.0, scale)
            want_out = np.maximum(pre, 0.0) if mask is None else np.maximum(pre, 0.0) * mask
            want = pre_activation_grad(pre, mask, "relu", upstream)
        for a, b in ((out, want_out), (got, want)):
            nan = np.isnan(b)
            assert np.array_equal(np.isnan(a), nan)
            assert np.array_equal(a[~nan].view(np.uint64), b[~nan].view(np.uint64))

    def test_dropout_mask_replayed_in_backward(self, rng):
        x = np.abs(rng.standard_normal((6, 5))) + 0.5
        tower = _eye_tower(5, rate=0.4)
        out = tower.forward(x, training=True, seed_base=[7])
        assert (out == 0.0).any(), "seed should drop at least one unit"
        dw0, db0, _, _ = tower.backward(np.ones_like(out))
        # With identity weights the mask can be read off the output, and the
        # backward pass must route gradients through that exact mask.
        mask = out / x
        np.testing.assert_allclose(db0, mask.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(dw0, x.T @ mask, rtol=1e-12)


class TestOptimizers:
    def test_sgd_step_value(self):
        p = [np.array([1.0])]
        Sgd(0.1).apply(p, [np.array([0.5])])
        assert p[0][0] == 0.95

    def test_sgd_zero_gradient_bit_identical(self, rng):
        p = rng.standard_normal(5)
        before = p.copy()
        Sgd(0.1).apply([p], [np.zeros(5)])
        np.testing.assert_array_equal(p, before)

    def test_adam_first_step_closed_form(self):
        """First bias-corrected step moves by lr * g / sqrt(g^2) = lr."""
        p = [np.array([1.0])]
        Adam(1e-4).apply(p, [np.array([0.5])])
        assert abs(p[0][0] - 0.9999) < 1e-9

    def test_adam_zero_gradient_stays_put(self):
        p = [np.array([1.0, -2.0])]
        Adam(0.1).apply(p, [np.zeros(2)])
        assert np.abs(p[0] - [1.0, -2.0]).max() < 1e-12

    def test_step_counter_increments(self):
        opt = Adam(1e-3)
        p = [np.zeros(3)]
        for expected in (1, 2, 3):
            opt.apply(p, [np.ones(3)])
            assert opt.t == expected

    def test_shape_mismatch_is_error(self):
        with pytest.raises(ShapeError):
            Sgd(0.1).apply([np.zeros(3)], [np.zeros(4)])
        with pytest.raises(ShapeError):
            Adam(0.1).apply([np.zeros(3)], [np.zeros(3), np.zeros(3)])

    def test_adam_chunks_match_whole_tensor_formula(self, rng):
        # Sizes below, equal to and above the chunk; two are not a multiple of it.
        shapes = [(7, 11), (_ADAM_CHUNK,), (2 * _ADAM_CHUNK + 17,), (300, 250)]
        params = [rng.standard_normal(s) for s in shapes]
        expected = [p.copy() for p in params]
        m = [np.zeros(s) for s in shapes]
        v = [np.zeros(s) for s in shapes]
        opt = Adam(3e-3)
        for t in range(1, 5):
            grads = [rng.standard_normal(s) * 10.0 ** (t - 2) for s in shapes]
            opt.apply(params, grads)
            whole_tensor_adam_step(expected, grads, m, v, t, 3e-3)
            for p, e in zip(params, expected):
                assert np.array_equal(p, e)
            for ours, theirs in zip(opt._m + opt._v, m + v):
                assert np.array_equal(ours, theirs)

    def test_adam_halves_match_the_serial_walk(self, rng, usable_cpus, monkeypatch):
        # 584K elements, so the two halves run for milliseconds side by side.
        shapes = [(7, 11), (3 * _ADAM_CHUNK + 5,), (13,), (600, 700), (2 * _ADAM_CHUNK,), (9,)]
        halves = {}
        walk = Adam._walk

        def spy(opt, tensors, scratch):
            halves[id(scratch)] = tensors
            return walk(opt, tensors, scratch)

        def serial_walk(opt, params, grads):
            # One walk over every whole tensor, as if the split did not exist.
            opt._m = opt._m or [np.zeros_like(p) for p in params]
            opt._v = opt._v or [np.zeros_like(p) for p in params]
            opt.t += 1
            flat = [[x.reshape(-1) for x in t] for t in zip(params, grads, opt._m, opt._v)]
            walk(opt, flat, opt._scratch[0])

        monkeypatch.setattr(Adam, "_walk", spy)
        runs = []
        for cpus in (None, 1, 2):
            usable_cpus(cpus or 2)
            step_rng = np.random.default_rng(5)
            params = [step_rng.standard_normal(s) for s in shapes]
            opt = Adam(3e-3)
            for t in range(4):
                grads = [step_rng.standard_normal(s) * 10.0 ** (t - 2) for s in shapes]
                if cpus is None:
                    serial_walk(opt, params, grads)
                else:
                    opt.apply(params, grads)
            runs.append(params + opt._m + opt._v)
        for serial, one_cpu, two_cpus in zip(*runs):
            assert np.array_equal(one_cpu, serial)
            assert np.array_equal(two_cpus, serial)
        # Each tensor splits at the chunk boundary at or below size // 2: the
        # first half holds the leading elements of every tensor, the second the
        # rest, and a tensor of less than two chunks goes whole to the second.
        first, second = (halves[id(scratch)] for scratch in opt._scratch)
        assert len(first) == len(second) == len(shapes)
        cuts = [head[0].size for head in first]
        for p, cut, head, tail in zip(params, cuts, first, second):
            assert [x.size for x in head] == [cut] * 4
            assert [x.size for x in tail] == [p.size - cut] * 4
            assert np.array_equal(np.concatenate([head[0], tail[0]]), p.reshape(-1))
        # (3 * _ADAM_CHUNK + 5) // 2 and 420000 // 2 round down to 1 and 6 chunks.
        assert cuts == [0, _ADAM_CHUNK, 0, 6 * _ADAM_CHUNK, _ADAM_CHUNK, 0]
        sizes = [sum(t[0].size for t in half) for half in (first, second)]
        assert 0 <= sizes[1] - sizes[0] <= len(shapes) * _ADAM_CHUNK

    def test_adam_shape_change_is_shape_error(self):
        opt = Adam(0.1)
        opt.apply([np.zeros(3), np.zeros(6)], [np.ones(3), np.ones(6)])
        for changed in (np.zeros((2, 3)), np.zeros(5)):
            with pytest.raises(ShapeError, match="moment buffer"):
                opt.apply([np.zeros(3), changed], [np.ones(3), np.ones_like(changed)])
        assert opt.t == 1

    def test_adam_rejects_non_contiguous_parameter(self):
        p = np.zeros((4, 4)).T
        with pytest.raises(ShapeError, match="C-contiguous"):
            Adam(0.1).apply([p], [np.ones((4, 4))])

    def test_make_optimizer(self):
        assert isinstance(make_optimizer("sgd", 0.1), Sgd)
        assert isinstance(make_optimizer("adam", 0.1), Adam)
        with pytest.raises(ConfigError):
            make_optimizer("rmsprop", 0.1)
        with pytest.raises(ConfigError):
            make_optimizer("sgd", 0.0)

    @given(
        lr=st.floats(1e-5, 0.5),
        value=st.floats(-5.0, 5.0),
        grad=st.floats(-5.0, 5.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_sgd_matches_definition(self, lr, value, grad):
        p = [np.array([value])]
        Sgd(lr).apply(p, [np.array([grad])])
        assert p[0][0] == value - lr * grad


class TestOverlap:
    def test_results_come_back_in_call_order(self, usable_cpus):
        for cpus in (1, 2):
            usable_cpus(cpus)
            assert _overlap(lambda: "first", lambda: "second") == ("first", "second")

    def test_first_runs_on_the_worker_only_with_two_cpus(self, usable_cpus):
        for cpus, on_caller in ((1, True), (2, False)):
            usable_cpus(cpus)
            first, second = _overlap(threading.current_thread, threading.current_thread)
            assert second is threading.current_thread()
            assert (first is second) == on_caller

    def test_worker_keeps_the_callers_errstate(self, usable_cpus):
        usable_cpus(2)
        with np.errstate(over="raise"):
            with pytest.raises(FloatingPointError):
                _overlap(lambda: np.float64(1e308) * 10.0, lambda: None)
        with np.errstate(over="ignore"):
            assert _overlap(lambda: np.float64(1e308) * 10.0, lambda: None)[0] == np.inf

    def test_caller_failure_waits_for_the_worker(self, usable_cpus):
        usable_cpus(2)
        finished = []

        def slow():
            time.sleep(0.05)
            finished.append(True)

        def fail():
            raise ValueError("caller failed")

        with pytest.raises(ValueError, match="caller failed"):
            _overlap(slow, fail)
        assert finished == [True]

    def test_worker_failure_wins_as_in_the_serial_order(self, usable_cpus):
        def fail(message):
            def task():
                raise ShapeError(message)
            return task

        for cpus in (1, 2):
            usable_cpus(cpus)
            with pytest.raises(ShapeError, match="^first$"):
                _overlap(fail("first"), fail("second"))
            # The worker serves the next call.
            assert _overlap(lambda: 1, lambda: 2) == (1, 2)

    def test_a_nested_call_on_the_worker_is_a_state_error(self, usable_cpus):
        usable_cpus(2)
        with pytest.raises(StateError, match="nested _overlap"):
            _overlap(lambda: _overlap(lambda: 1, lambda: 2), lambda: None)
        # The worker is not stuck, and the caller may still overlap.
        assert _overlap(lambda: 1, lambda: 2) == (1, 2)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
    def test_a_forked_child_gets_its_own_worker(self, usable_cpus):
        usable_cpus(2)
        _overlap(lambda: None, lambda: None)  # the parent's worker thread is running
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                code = 0 if _overlap(lambda: 1, lambda: 2) == (1, 2) else 1
            finally:
                os._exit(code)
        for _ in range(200):
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            time.sleep(0.05)
        else:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's overlap never finished")
        assert os.waitstatus_to_exitcode(status) == 0


def _composite_closure():
    """(model, closure) as `avdistill grad-check` builds them: one model for every call.

    Each call returns the towers' gradient buffers, which the next call overwrites.
    Clustered inputs keep the teacher's alignment argmaxes decisive, so the
    finite-difference probe never crosses a mask boundary.
    """
    _, batch = generate_synthetic(
        SyntheticSpec(n_classes=3, pairs_per_class=2, audio_dim=6, visual_dim=9,
                      noise_scale=0.3, seed=1)
    )
    model = TwoTowerModel.create(TowerSpec(6, 3, (8, 8)), TowerSpec(9, 3, (8, 8)), seed=2)
    plan = partition_batch(len(batch), 0.5, seed=4)

    def closure(params):
        for target, source in zip(model.parameters(), params):
            target[...] = source
        breakdown, grads = composite_loss(model, batch, plan, LossConfig(), step_seed=11)
        return breakdown.total, grads

    return model, closure


class TestGradCheck:
    def test_composite_loss_closure_passes_at_its_start_point(self):
        model, closure = _composite_closure()
        start = [p.copy() for p in model.parameters()]  # the closure writes the model's
        err = grad_check(closure, start, tolerance=1e-3, max_coords_per_tensor=12)
        assert err < 1e-3

        def copying(params):
            value, grads = closure(params)
            return value, [g.copy() for g in grads]

        # Every perturbed call overwrites the first call's gradients; the
        # check still compares against the ones at the unperturbed point.
        assert grad_check(copying, start, tolerance=1e-3, max_coords_per_tensor=12) == err

    def test_composite_loss_closure_with_a_wrong_entry_fails(self):
        model, closure = _composite_closure()

        def planted(params):
            value, grads = closure(params)
            grads[5][1] += 0.5  # the audio tower's last bias: every entry is checked
            return value, grads

        with pytest.raises(NumericError, match="exceeds"):
            grad_check(planted, model.parameters(), tolerance=1e-3, max_coords_per_tensor=12)

    def test_quadratic_loss_is_exact(self):
        def closure(params):
            (p,) = params
            return float((p**2).sum()), [2.0 * p]

        err = grad_check(closure, [np.array([1.0, 2.0])], tolerance=1e-6)
        assert err < 1e-6

    def test_wrong_gradient_raises(self):
        def closure(params):
            (p,) = params
            return float((p**2).sum()), [3.0 * p]

        with pytest.raises(NumericError):
            grad_check(closure, [np.array([1.0, 2.0])], tolerance=1e-3)

    @pytest.mark.parametrize("tolerance", [math.nan, math.inf, -1e-3])
    def test_bad_tolerance_is_a_config_error(self, tolerance):
        calls = {"n": 0}

        def closure(params):
            calls["n"] += 1
            (p,) = params
            return float((p**2).sum()), [3.0 * p]  # wrong, so only the check can save it

        with pytest.raises(ConfigError, match="tolerance must be non-negative and finite"):
            grad_check(closure, [np.array([1.0, 2.0])], tolerance=tolerance)
        assert calls["n"] == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_relative_error_names_tensor_and_coordinate(self, bad):
        def closure(params):
            p, q = params
            g = 2.0 * q
            g[1, 0] = bad
            return float((p**2).sum() + (q**2).sum()), [2.0 * p, g]

        params = [np.array([1.0, 2.0]), np.arange(1.0, 7.0).reshape(3, 2)]
        with pytest.raises(NumericError, match=r"non-finite relative error at tensor 1 coordinate \(1, 0\)"):
            grad_check(closure, params, tolerance=1e-3)

    def test_all_nan_gradient_fails(self):
        def closure(params):
            (p,) = params
            return float((p**2).sum()), [np.full_like(p, np.nan)]

        with pytest.raises(NumericError, match="tensor 0 coordinate \\(0,\\)"):
            grad_check(closure, [np.array([1.0, 2.0])], tolerance=1e-3)

    def test_nondeterministic_closure_detected(self):
        state = {"calls": 0}

        def closure(params):
            state["calls"] += 1
            (p,) = params
            return float((p**2).sum()) + 1e-6 * state["calls"], [2.0 * p]

        with pytest.raises(DeterminismError):
            grad_check(closure, [np.array([1.0])], tolerance=1e-3)

    def test_coordinate_sampling_caps_work(self):
        calls = {"n": 0}

        def closure(params):
            calls["n"] += 1
            (p,) = params
            return float((p**2).sum()), [2.0 * p]

        grad_check(
            closure,
            [np.arange(100.0) / 100.0 + 0.5],
            tolerance=1e-5,
            max_coords_per_tensor=8,
        )
        # 2 baseline evaluations plus 2 per sampled coordinate.
        assert calls["n"] == 2 + 2 * 8
