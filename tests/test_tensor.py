"""Tensor engine: forward semantics, backward passes, SGD."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from ttpp.tensor import (
    GradientError,
    Parameter,
    ShapeError,
    Tensor,
    add,
    dropout,
    grad_check,
    layer_norm,
    log_softmax,
    matmul,
    mul,
    relu,
    reshape,
    sgd_step,
    sigmoid,
    softmax,
    tanh,
    tensor_sum,
    transpose,
)


class TestMatmul:
    def test_identity(self):
        a = np.arange(9, dtype=float).reshape(3, 3)
        out = matmul(Tensor(np.eye(3)), Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_hand_case(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5))
        b = rng.normal(size=(5, 2))
        expected = np.zeros((4, 2))
        for i in range(4):
            for j in range(2):
                for k in range(5):
                    expected[i, j] += a[i, k] * b[k, j]
        out = matmul(Tensor(a), Tensor(b))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        with pytest.raises(ShapeError, match=r"\(4, 2, 3\).*\(2, 3, 1\)"):
            matmul(Tensor(np.zeros((4, 2, 3))), Tensor(np.zeros((2, 3, 1))))

    def test_batched_rows_equal_per_matrix_products(self):
        rng = np.random.default_rng(15)
        a = rng.normal(size=(2, 3, 4, 5))
        b = rng.normal(size=(5, 2))
        out = matmul(Tensor(a), Tensor(b))
        assert out.shape == (2, 3, 4, 2)
        for i in range(2):
            for j in range(3):
                np.testing.assert_allclose(out.data[i, j], a[i, j] @ b, rtol=0, atol=1e-12)

    def test_backward_accumulates_both_sides(self):
        rng = np.random.default_rng(1)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        matmul(a, b).sum().backward()
        assert a.grad.shape == (3, 4) and b.grad.shape == (4, 2)
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))


class TestSoftmax:
    def test_uniform_on_constant(self):
        out = softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25] * 4)

    def test_no_overflow_on_huge_logits(self):
        out = softmax(Tensor([1000.0, 0.0]))
        assert np.all(np.isfinite(out.data))
        assert out.data[0] == pytest.approx(1.0)
        assert out.data[1] == pytest.approx(0.0, abs=1e-300)

    def test_against_extended_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        rng = np.random.default_rng(2)
        x = rng.normal(size=6) * 3
        exps = [mpmath.e**v for v in x]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
        out = softmax(Tensor(x))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-10)

    def test_log_softmax_is_log_of_softmax(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(5, 4)) * 3
        np.testing.assert_allclose(
            log_softmax(Tensor(x)).data, np.log(softmax(Tensor(x)).data), rtol=0, atol=1e-12
        )

    def test_log_softmax_stays_finite_where_softmax_underflows(self):
        out = log_softmax(Tensor([[1000.0, 0.0]]))
        np.testing.assert_array_equal(out.data, [[0.0, -1000.0]])

    def test_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            out = softmax(Tensor(rng.normal(size=(5, 7)) * 10))
            np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, rtol=0, atol=1e-9)
            assert np.all(out.data > 0)


class TestLayerNorm:
    def test_constant_vector_maps_to_zero(self):
        gain = Tensor(np.ones(4))
        bias = Tensor(np.zeros(4))
        out = layer_norm(Tensor([5.0, 5.0, 5.0, 5.0]), gain, bias)
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_zero_gain_broadcasts_bias(self):
        rng = np.random.default_rng(4)
        bias = rng.normal(size=6)
        out = layer_norm(Tensor(rng.normal(size=(3, 6))), Tensor(np.zeros(6)), Tensor(bias))
        np.testing.assert_allclose(out.data, np.broadcast_to(bias, (3, 6)))

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=8) * 3 + 1
        gain = rng.normal(size=8)
        bias = rng.normal(size=8)
        mean = sum(x) / 8
        var = sum((v - mean) ** 2 for v in x) / 8
        expected = (x - mean) / np.sqrt(var + 1e-5) * gain + bias
        out = layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps=1e-5)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-10)

    def test_standardizes_rows(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(10, 32)) * 5
        out = layer_norm(Tensor(x), Tensor(np.ones(32)), Tensor(np.zeros(32))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-8
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


class TestReluDropout:
    def test_rate_zero_is_pure_relu(self):
        rng = np.random.default_rng(0)
        for draws in (rng.random(2), None):
            out = dropout(relu(Tensor([-1.0, 2.0])), 0.0, draws)
            np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_eval_equals_rate_zero(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 4))
        # no uniforms is inference: no dropout at any rate
        a = dropout(relu(Tensor(x)), 0.5)
        b = dropout(relu(Tensor(x)), 0.0, np.random.default_rng(7).random((4, 4)))
        np.testing.assert_array_equal(a.data, b.data)

    def test_train_keep_fraction_and_scaling(self):
        rng = np.random.default_rng(8)
        x = np.ones(100_000)
        out = dropout(Tensor(x), 0.5, rng.random(x.shape))
        kept = out.data != 0
        assert abs(kept.mean() - 0.5) < 0.01
        np.testing.assert_allclose(out.data[kept], 2.0)

    def test_mask_deterministic_given_rng_state(self):
        x = np.linspace(-1, 1, 64)
        a = dropout(Tensor(x), 0.3, np.random.default_rng(123).random(64))
        b = dropout(Tensor(x), 0.3, np.random.default_rng(123).random(64))
        np.testing.assert_array_equal(a.data, b.data)

    def test_mask_keeps_uniforms_at_or_above_rate(self):
        u = np.array([0.0, 0.29, 0.3, 0.31, 0.99])
        out = dropout(Tensor(np.ones(5)), 0.3, u)
        np.testing.assert_array_equal(out.data, np.array([0, 0, 1, 1, 1]) / 0.7)

    def test_uniforms_must_match_the_input(self):
        with pytest.raises(ShapeError, match="uniforms"):
            dropout(Tensor(np.ones((2, 3))), 0.3, np.zeros(3))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            dropout(Tensor([1.0]), 1.0, np.zeros(1))


class TestGradCheck:
    def test_matmul_sum(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(3, 4)))
        b = Tensor(rng.normal(size=(4, 2)))
        assert grad_check(lambda x, y: matmul(x, y).sum(), [a, b]) < 1e-6

    def test_softmax_sum_has_zero_gradient(self):
        # the row sums are constant 1, so the analytic gradient must be
        # the zero vector; finite differences only see rounding noise here
        x = Tensor(np.random.default_rng(10).normal(size=6), requires_grad=True)
        softmax(x).sum().backward()
        assert np.abs(x.grad).max() < 1e-6

    def test_rejects_non_scalar(self):
        a = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            grad_check(lambda t: t, [a])

    @pytest.mark.parametrize("seed", range(20))
    def test_every_op_backward(self, seed):
        # cost weights are drawn once so f is deterministic across the
        # repeated evaluations grad_check performs
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(5, 3))
        w3 = Tensor(rng.normal(size=(1, 3, 5)))
        cost = Tensor(rng.normal(size=(4, 5)))
        cost3 = Tensor(rng.normal(size=(3, 4)))
        cost_t = Tensor(rng.normal(size=(2, 5, 2)))
        cost_m = Tensor(rng.normal(size=(2, 4, 3)))
        gain = Tensor(rng.normal(size=5))
        bias = Tensor(rng.normal(size=5))

        cases = {
            "matmul": lambda t: matmul(t, Tensor(w)).sum(),
            "softmax": lambda t: (softmax(t) * cost).sum(),
            "layer_norm": lambda t: (layer_norm(t, gain, bias) * cost).sum(),
            "relu": lambda t: (relu(t) * cost).sum(),
            "sigmoid": lambda t: (sigmoid(t) * cost).sum(),
            "tanh": lambda t: (tanh(t) * cost).sum(),
            "log_softmax": lambda t: (log_softmax(t) * cost).sum(),
            "slice_concat": lambda t: matmul(t[1:3], Tensor(w)).sum()
            + (t[0:1] * 2.0).sum(),
            # the multi-head pattern: split rows into heads, broadcast, reduce
            "reshape_3d_mul_sum": lambda t: (
                transpose(tensor_sum(mul(reshape(t, (4, 1, 5)), w3), axis=-1), (1, 0))
                * cost3
            ).sum(),
            "transpose_axes": lambda t: (
                transpose(reshape(t, (2, 2, 5)), (1, 2, 0)) * cost_t
            ).sum(),
        }
        for name, f in cases.items():
            err = grad_check(f, [Tensor(rng.normal(size=(4, 5)))])
            assert err < 1e-4, f"{name}: {err}"
        # a batched (2, 4, 5) operand times a shared (5, 3) weight, both gradients
        err = grad_check(
            lambda a, b: (matmul(a, b) * cost_m).sum(),
            [Tensor(rng.normal(size=(2, 4, 5))), Tensor(w)],
        )
        assert err < 1e-4, f"matmul_3d: {err}"

    def test_dropout_backward_with_fixed_rng(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 6)))
        weights = rng.normal(size=(3, 6))
        uniforms = np.random.default_rng(55).random((3, 6))

        def f(t):
            return (dropout(t, 0.4, uniforms) * Tensor(weights)).sum()

        assert grad_check(f, [x]) < 1e-6


class TestSGD:
    def test_plain_descent(self):
        p = Parameter("w", np.array([1.0, 2.0]))
        p.value.grad = np.array([0.5, -1.0])
        sgd_step([p], lr=0.1, momentum=0.0)
        np.testing.assert_allclose(p.value.data, [1.0 - 0.05, 2.0 + 0.1])

    def test_two_momentum_steps_unroll(self):
        p = Parameter("w", np.zeros(3))
        g = np.array([1.0, -2.0, 0.5])
        p.value.grad = g.copy()
        sgd_step([p], lr=1.0, momentum=0.9)
        p.value.grad = g.copy()
        sgd_step([p], lr=1.0, momentum=0.9)
        np.testing.assert_allclose(p.value.data, -(g + 1.9 * g))

    def test_quadratic_bowl_descends(self):
        rng = np.random.default_rng(12)
        p = Parameter("w", rng.normal(size=8))
        losses = []
        for _ in range(100):
            w = p.value
            loss = (w * w).sum()
            losses.append(loss.item())
            loss.backward()
            sgd_step([p], lr=0.001, momentum=0.9)
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_missing_grad_is_contract_error(self):
        p = Parameter("w", np.zeros(2))
        with pytest.raises(GradientError, match="'w'"):
            sgd_step([p], lr=0.1, momentum=0.0)

    def test_non_finite_gradient_named_before_any_update(self):
        first = Parameter("first", np.ones(2))
        second = Parameter("second", np.ones(3))
        for bad in (np.nan, np.inf, -np.inf):
            first.value.grad = np.ones(2)
            second.value.grad = np.array([0.5, bad, 0.5])
            with pytest.raises(GradientError, match="'second'.*non-finite"):
                sgd_step([first, second], lr=0.1, momentum=0.9)
            # no step half-applied: the finite parameter did not move either
            np.testing.assert_array_equal(first.value.data, np.ones(2))
            np.testing.assert_array_equal(first.momentum, np.zeros(2))

    def test_grads_cleared_after_step(self):
        p = Parameter("w", np.ones(2))
        p.value.grad = np.ones(2)
        sgd_step([p], lr=0.1, momentum=0.5)
        assert p.value.grad is None


class TestBatchedGradientProperties:
    """Random leading shapes through grad_check: the batch axes of the ops."""

    @settings(max_examples=40, deadline=None)
    @given(
        lead=st.lists(st.integers(1, 3), max_size=2),
        rows=st.integers(1, 3),
        k=st.integers(1, 4),
        n=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_batched_matmul(self, lead, rows, k, n, seed):
        rng = np.random.default_rng(seed)
        shape = (*lead, rows, k)
        cost = Tensor(rng.normal(size=(*lead, rows, n)))
        a = Tensor(rng.normal(size=shape))
        b = Tensor(rng.normal(size=(k, n)))
        assert grad_check(lambda x, y: (matmul(x, y) * cost).sum(), [a, b]) < 1e-6

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=mutually_broadcastable_shapes(num_shapes=2, min_dims=0, max_dims=4, max_side=3),
        seed=st.integers(0, 2**16),
    )
    def test_broadcast_add_and_mul(self, shapes, seed):
        rng = np.random.default_rng(seed)
        (sa, sb), out = shapes.input_shapes, shapes.result_shape
        cost = Tensor(rng.normal(size=out))
        for op in (add, mul):
            a = Tensor(rng.normal(size=sa))
            b = Tensor(rng.normal(size=sb))
            err = grad_check(lambda x, y: (op(x, y) * cost).sum(), [a, b])
            assert err < 1e-6, f"{op.__name__} {sa} with {sb}: {err}"


def test_forward_ops_deterministic():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 6))
    for op in (softmax, relu, sigmoid, tanh):
        np.testing.assert_array_equal(op(Tensor(x)).data, op(Tensor(x)).data)


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(5, 5)) * 1e3
    gain = Tensor(np.ones(5))
    bias = Tensor(np.zeros(5))
    for out in (
        softmax(Tensor(x)),
        layer_norm(Tensor(x), gain, bias),
        matmul(Tensor(x), Tensor(x)),
        log_softmax(Tensor(x)),
    ):
        assert np.all(np.isfinite(out.data))
