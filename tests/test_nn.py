"""Numeric core: activations, dense layers, dropout, optimizers, gradient checking."""

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
    NumericError,
    ShapeError,
    StateError,
    TowerSpec,
    grad_check,
)
from avdistill.nn import (
    _ADAM_CHUNK,
    Adam,
    DenseLayer,
    Sgd,
    _overlap,
    he_uniform,
    make_optimizer,
    relu,
    softmax_rows,
    xavier_uniform,
)

from oracles import (
    dense_backward,
    dense_forward,
    numeric_gradient,
    whole_tensor_adam_step,
)


class TestActivations:
    def test_relu_values(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_relu_nonnegative_and_identity_on_positive(self, rng):
        x = rng.standard_normal((50, 7))
        y = relu(x)
        assert (y >= 0.0).all()
        np.testing.assert_array_equal(y[x > 0], x[x > 0])

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


class TestDenseForward:
    def test_identity_layer_passes_input_through(self, rng):
        x = rng.standard_normal((4, 3))
        layer = DenseLayer(np.eye(3), np.zeros(3), activation="identity")
        np.testing.assert_array_equal(layer.forward(x), x)

    def test_relu_applied_elementwise(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), activation="relu")
        out = layer.forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_input_dim_mismatch(self):
        layer = DenseLayer(np.eye(3), np.zeros(3), activation="identity")
        with pytest.raises(ShapeError):
            layer.forward(np.zeros((2, 4)))

    def test_bad_activation_name(self):
        with pytest.raises(ConfigError):
            DenseLayer(np.eye(2), np.zeros(2), activation="tanh")

    def test_dropout_zeroes_expected_fraction(self):
        # 100 x 100 = 1e4 units of all-ones pass through a 0.1 dropout mask.
        layer = DenseLayer(np.eye(100), np.zeros(100), activation="identity")
        out = layer.forward(
            np.ones((100, 100)),
            training=True,
            dropout_rate=0.1,
            dropout_seed=4,
        )
        fraction = float((out == 0.0).mean())
        assert abs(fraction - 0.1) < 0.02

    def test_inverted_dropout_preserves_expectation(self):
        layer = DenseLayer(np.eye(100), np.zeros(100), activation="identity")
        out = layer.forward(
            np.ones((100, 100)),
            training=True,
            dropout_rate=0.1,
            dropout_seed=9,
        )
        # Surviving units are scaled by 1/0.9, so the mean stays near 1.
        assert abs(float(out.mean()) - 1.0) < 0.02

    def test_dropout_inactive_at_inference(self, rng):
        x = rng.standard_normal((5, 4))
        layer = DenseLayer(rng.standard_normal((4, 4)), np.zeros(4), activation="identity")
        plain = layer.forward(x)
        masked = layer.forward(x, training=False, dropout_rate=0.5, dropout_seed=1)
        np.testing.assert_array_equal(plain, masked)

    def test_dropout_mask_deterministic_per_seed(self):
        layer = DenseLayer(np.eye(10), np.zeros(10), activation="identity")
        a = layer.forward(np.ones((10, 10)), training=True, dropout_rate=0.3, dropout_seed=2)
        b = layer.forward(np.ones((10, 10)), training=True, dropout_rate=0.3, dropout_seed=2)
        c = layer.forward(np.ones((10, 10)), training=True, dropout_rate=0.3, dropout_seed=3)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_dropout_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            TowerSpec(input_dim=4, output_dim=2, dropout_rate=1.0)

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_training_forward_matches_oracle(self, rng, activation, rate):
        x = rng.standard_normal((40, 7))
        w, b = rng.standard_normal((7, 30)), rng.standard_normal(30)
        layer = DenseLayer(w, b, activation)
        out = layer.forward(x, training=True, dropout_rate=rate, dropout_seed=[5, 2])
        want_out, want_pre, want_mask = dense_forward(x, w, b, activation, rate, [5, 2])
        cache = layer._cache
        assert np.array_equal(out, want_out)
        assert np.array_equal(cache["x"], x)
        assert np.array_equal(cache["pre"], want_pre)
        if rate == 0.0:
            assert cache["mask"] is None
        else:
            assert np.array_equal(cache["mask"], want_mask)

    def test_identity_dropout_keeps_cached_pre(self, rng):
        x = rng.standard_normal((20, 6))
        w, b = rng.standard_normal((6, 6)), rng.standard_normal(6)
        layer = DenseLayer(w, b, "identity")
        out = layer.forward(x, training=True, dropout_rate=0.5, dropout_seed=3)
        pre, mask = layer._cache["pre"], layer._cache["mask"]
        assert (out == 0.0).any() and (pre != 0.0).all()
        assert np.array_equal(pre, x @ w + b)
        assert np.array_equal(out, pre * mask)


class TestDenseBackward:
    def test_zero_upstream_gives_zero_gradients(self, rng):
        layer = DenseLayer(rng.standard_normal((3, 2)), rng.standard_normal(2), "identity")
        layer.forward(rng.standard_normal((4, 3)), training=True)
        dw, db, dx = layer.backward(np.zeros((4, 2)))
        assert not dw.any() and not db.any() and not dx.any()

    def test_single_linear_unit_chain_rule(self):
        """w=2, input 3, upstream 1: dW = 3, db = 1, dInput = 2."""
        layer = DenseLayer(np.array([[2.0]]), np.zeros(1), activation="identity")
        layer.forward(np.array([[3.0]]), training=True)
        dw, db, dx = layer.backward(np.array([[1.0]]))
        assert dw[0, 0] == 3.0
        assert db[0] == 1.0
        assert dx[0, 0] == 2.0

    def test_backward_without_forward_is_state_error(self):
        layer = DenseLayer(np.eye(2), np.zeros(2), activation="relu")
        with pytest.raises(StateError):
            layer.backward(np.zeros((1, 2)))

    def test_backward_shape_mismatch(self, rng):
        layer = DenseLayer(rng.standard_normal((3, 2)), np.zeros(2), "relu")
        layer.forward(rng.standard_normal((4, 3)), training=True)
        with pytest.raises(ShapeError):
            layer.backward(np.zeros((4, 3)))

    def test_gradients_match_finite_differences(self, rng):
        x = rng.standard_normal((5, 4))
        upstream = rng.standard_normal((5, 3))
        w0 = rng.standard_normal((4, 3))
        b0 = rng.standard_normal(3)

        def loss_of_weights(w):
            probe = DenseLayer(w, b0, activation="relu")
            return float((probe.forward(x) * upstream).sum())

        def loss_of_input(xi):
            probe = DenseLayer(w0, b0, activation="relu")
            return float((probe.forward(xi) * upstream).sum())

        layer = DenseLayer(w0, b0, activation="relu")
        layer.forward(x, training=True)
        dw, db, dx = layer.backward(upstream)

        num_dw = numeric_gradient(loss_of_weights, w0, h=1e-4)
        num_dx = numeric_gradient(loss_of_input, x, h=1e-4)
        for analytic, numeric in ((dw, num_dw), (dx, num_dx)):
            denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
            assert (np.abs(analytic - numeric) / denom).max() < 1e-4

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("rate", [0.0, 0.1, 0.5])
    def test_backward_matches_oracle(self, rng, activation, rate):
        x = rng.standard_normal((40, 7))
        w, b = rng.standard_normal((7, 30)), rng.standard_normal(30)
        upstream = rng.standard_normal((40, 30))
        layer = DenseLayer(w, b, activation)
        layer.forward(x, training=True, dropout_rate=rate, dropout_seed=8)
        _, pre, mask = dense_forward(x, w, b, activation, rate, 8)
        want = dense_backward(x, w, pre, mask, activation, upstream)
        got = layer.backward(upstream)
        for g, expected in zip(got, want):
            assert np.array_equal(g, expected)
        dw, db, dx = layer.backward(upstream, input_grad=False)
        assert dx is None
        assert np.array_equal(dw, want[0]) and np.array_equal(db, want[1])

    def test_dropout_mask_replayed_in_backward(self, rng):
        x = np.abs(rng.standard_normal((6, 5))) + 0.5
        layer = DenseLayer(np.eye(5), np.zeros(5), "identity")
        out = layer.forward(x, training=True, dropout_rate=0.4, dropout_seed=7)
        assert (out == 0.0).any(), "seed should drop at least one unit"
        dw, db, dx = layer.backward(np.ones_like(out))
        # With identity weights the mask can be read off the output, and the
        # backward pass must route gradients through that exact mask.
        mask = out / x
        np.testing.assert_allclose(db, mask.sum(axis=0), rtol=1e-12)
        np.testing.assert_allclose(dx, mask, rtol=1e-12)
        np.testing.assert_allclose(dw, x.T @ mask, rtol=1e-12)


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

        def spy(opt, chunks, scratch):
            halves[id(scratch)] = chunks
            return walk(opt, chunks, scratch)

        monkeypatch.setattr(Adam, "_walk", spy)
        runs = []
        for cpus in (1, 2):
            usable_cpus(cpus)
            step_rng = np.random.default_rng(5)
            params = [step_rng.standard_normal(s) for s in shapes]
            opt = Adam(3e-3)
            for t in range(4):
                opt.apply(params, [step_rng.standard_normal(s) * 10.0 ** (t - 2) for s in shapes])
            runs.append(params + opt._m + opt._v)
        for serial, overlapped in zip(*runs):
            assert np.array_equal(serial, overlapped)
        # The split falls inside the list, with the halves one chunk apart at most.
        first, second = (halves[id(scratch)] for scratch in opt._scratch)
        sizes = [sum(hi - lo for *_, lo, hi in half) for half in (first, second)]
        assert abs(sizes[0] - sizes[1]) <= _ADAM_CHUNK
        last_first = next(i for i, s in enumerate(shapes) if np.prod(s) == first[-1][0].size)
        assert 0 < last_first < len(shapes) - 1

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


class TestGradCheck:
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
