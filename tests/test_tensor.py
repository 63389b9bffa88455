"""Tensor engine: forward semantics, backward passes, fused layer ops, SGD."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from ttpp.model import AnticipationModel, ModelConfig
from ttpp.tensor import (
    GradientError,
    Parameter,
    ShapeError,
    Tensor,
    add,
    attention,
    concat,
    grad_check,
    keep_mask,
    log_softmax,
    lstm_step,
    matmul,
    mlp_norm,
    mul,
    no_grad,
    relu,
    reshape,
    sgd_step,
    softmax,
    tensor_sum,
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


def norm_only(x, gain, bias, keep=None):
    """mlp_norm with identity dense layers and zero biases: on inputs >= 0
    the ReLU passes everything, so this is layer norm (then dropout)."""
    n = np.shape(x)[-1]
    eye, zero = Tensor(np.eye(n)), Tensor(np.zeros(n))
    return mlp_norm(Tensor(x), eye, zero, eye, zero, Tensor(gain), Tensor(bias), keep)


class TestLayerNorm:
    """The layer-norm stage of mlp_norm."""

    def test_constant_vector_maps_to_zero(self):
        out = norm_only(np.full(4, 5.0), np.ones(4), np.zeros(4))
        np.testing.assert_allclose(out.data, np.zeros(4), atol=1e-12)

    def test_zero_gain_broadcasts_bias(self):
        rng = np.random.default_rng(4)
        bias = rng.normal(size=6)
        out = norm_only(rng.uniform(0, 3, size=(3, 6)), np.zeros(6), bias)
        np.testing.assert_allclose(out.data, np.broadcast_to(bias, (3, 6)))

    def test_against_two_pass_oracle(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0, 4, size=8)
        gain = rng.normal(size=8)
        bias = rng.normal(size=8)
        mean = sum(x) / 8
        var = sum((v - mean) ** 2 for v in x) / 8
        expected = (x - mean) / np.sqrt(var + 1e-5) * gain + bias
        out = norm_only(x, gain, bias)
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-10)

    def test_standardizes_rows(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(0, 50, size=(10, 32))
        out = norm_only(x, np.ones(32), np.zeros(32)).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-8
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-6

    def test_extent_mismatch(self):
        with pytest.raises(ShapeError):
            norm_only(np.zeros((2, 4)), np.ones(3), np.zeros(4))


class FixedDraws:
    """An rng stand-in whose next ``random`` draw is the given array."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms)

    def random(self, shape):
        assert self.uniforms.shape == shape
        return self.uniforms


class TestReluDropout:
    """The ReLU of mlp_norm, and the dropout keep mask its output is multiplied by."""

    def test_rate_zero_is_pure_relu(self):
        # the hidden ReLU maps -1 to 0, and nothing else changes the output
        base = norm_only(np.array([0.0, 2.0]), np.ones(2), np.zeros(2))
        keep = keep_mask(np.random.default_rng(0), 0.0, (2,))
        out = norm_only(np.array([-1.0, 2.0]), np.ones(2), np.zeros(2), keep)
        np.testing.assert_array_equal(out.data, base.data)

    def test_eval_equals_rate_zero(self):
        # no rng is inference: no dropout at any rate; rate 0 reads no draws
        assert keep_mask(None, 0.5, (4, 4)) is None
        rng = np.random.default_rng(7)
        assert keep_mask(rng, 0.0, (4, 4)) is None
        assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state

    def test_train_keep_fraction_and_scaling(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1, size=(25_000, 4))
        u = np.random.default_rng(80).random(x.shape)
        keep = keep_mask(np.random.default_rng(80), 0.5, x.shape)
        base = norm_only(x, np.ones(4), np.zeros(4)).data
        out = norm_only(x, np.ones(4), np.zeros(4), keep).data
        kept = u >= 0.5
        assert abs(kept.mean() - 0.5) < 0.01
        np.testing.assert_allclose(out[kept], 2.0 * base[kept], rtol=1e-15)
        np.testing.assert_array_equal(out[~kept], 0.0)

    def test_mask_deterministic_given_rng_state(self):
        a = keep_mask(np.random.default_rng(123), 0.3, (8, 8))
        b = keep_mask(np.random.default_rng(123), 0.3, (8, 8))
        np.testing.assert_array_equal(a, b)

    def test_mask_keeps_uniforms_at_or_above_rate(self):
        keep = keep_mask(FixedDraws([0.0, 0.29, 0.3, 0.31, 0.99]), 0.3, (5,))
        np.testing.assert_array_equal(keep, np.array([0, 0, 1, 1, 1]) / 0.7)
        x = np.array([0.5, 1.0, 2.0, 3.0, 5.0])
        base = norm_only(x, np.ones(5), np.zeros(5)).data
        np.testing.assert_array_equal(norm_only(x, np.ones(5), np.zeros(5), keep).data, base * keep)

    def test_keep_mask_must_match_the_output(self):
        with pytest.raises(ShapeError, match="keep mask"):
            norm_only(np.ones((2, 3)), np.ones(3), np.zeros(3), np.ones(3))


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
        cost3 = Tensor(rng.normal(size=(4, 3)))
        cost_m = Tensor(rng.normal(size=(2, 4, 3)))
        gain = Tensor(rng.normal(size=5))
        bias = Tensor(rng.normal(size=5))
        dense = [Tensor(rng.normal(size=shape)) for shape in ((5, 3), (3,), (3, 5), (5,))]
        proj = [Tensor(rng.normal(size=(5, 5))) for _ in range(4)]
        cost_a = Tensor(rng.normal(size=(1, 5)))
        h, c = rng.normal(size=(4, 2)), rng.normal(size=(4, 2))
        cell = [Tensor(np.concatenate([h, c], axis=-1))] + [
            Tensor(rng.normal(size=shape)) for shape in ((7, 8), (8,))
        ]
        cost_l = Tensor(rng.normal(size=(4, 4)))

        cases = {
            "matmul": lambda t: matmul(t, Tensor(w)).sum(),
            "softmax": lambda t: (softmax(t) * cost).sum(),
            "mlp_norm": lambda t: (mlp_norm(t, *dense, gain, bias) * cost).sum(),
            "relu": lambda t: (relu(t) * cost).sum(),
            "attention": lambda t: (attention(t[0:1], t[1:], *proj, 1)[0] * cost_a).sum(),
            "lstm_step": lambda t: (lstm_step(t, *cell) * cost_l).sum(),
            "log_softmax": lambda t: (log_softmax(t) * cost).sum(),
            "slice_concat": lambda t: matmul(t[1:3], Tensor(w)).sum()
            + (concat([t[3:4], t[0:1] * 2.0, t[2:3]], axis=0) * cost[:3]).sum()
            + (concat([t[:, 3:], t[:, :3]], axis=-1) * cost).sum(),
            # split rows into groups, broadcast against a weight, reduce
            "reshape_3d_mul_sum": lambda t: (
                tensor_sum(mul(reshape(t, (4, 1, 5)), w3), axis=-1) * cost3
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
        keep = keep_mask(np.random.default_rng(55), 0.4, (3, 6))
        layers = [Tensor(rng.normal(size=shape)) for shape in ((6, 4), (4,), (4, 6), (6,))]
        gain, bias = Tensor(rng.normal(size=6)), Tensor(rng.normal(size=6))

        def f(t):
            return (mlp_norm(t, *layers, gain, bias, keep) * Tensor(weights)).sum()

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


# ---- fused layer ops against the layer-by-layer numpy chain rule ----------


def np_sigmoid(v):
    return 1.0 / (1.0 + np.exp(-v))


def np_softmax(s):
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def mlp_norm_oracle(x, w1, b1, w2, b2, gain, bias, keep, cost):
    """Output and the gradients of sum(out * cost), one layer at a time;
    layer norm goes through its explicit per-row Jacobian."""
    k, n = w1.shape[0], w2.shape[1]
    xr = x.reshape(-1, k)
    pre = xr @ w1 + b1
    h = np.maximum(pre, 0.0)
    y = h @ w2 + b2
    inv = 1.0 / np.sqrt(y.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (y - y.mean(axis=-1, keepdims=True)) * inv
    keep = keep.reshape(-1, n)
    out = (xhat * gain + bias) * keep
    g = cost.reshape(-1, n) * keep
    jac = inv[:, :, None] * (np.eye(n) - 1.0 / n - xhat[:, :, None] * xhat[:, None, :] / n)
    dy = np.einsum("rij,rj->ri", jac, g * gain)  # the Jacobian is symmetric
    dpre = (dy @ w2.T) * (pre > 0)
    grads = [(dpre @ w1.T).reshape(x.shape), xr.T @ dpre, dpre.sum(0), h.T @ dy, dy.sum(0),
             (g * xhat).sum(0), g.sum(0)]
    return out.reshape(x.shape[:-1] + (n,)), grads


def attention_oracle(query, memory, wq, wk, wv, wo, n_heads, cost):
    """Output, weights and gradients of sum(out * cost), window by window and head by head."""
    lead = memory.shape[:-2]
    m, d = memory.shape[-2:]
    d_k = d // n_heads
    out = np.zeros(lead + (1, d))
    weights = np.zeros(lead + (n_heads, m))
    grads = [np.zeros_like(a) for a in (query, memory, wq, wk, wv, wo)]
    d_query, d_memory, d_wq, d_wk, d_wv, d_wo = grads
    for idx in np.ndindex(*lead):
        row, mem, c = query[idx][0], memory[idx], cost[idx][0]
        qv, keys, vals = row @ wq, mem @ wk, mem @ wv
        heads = np.zeros(d)
        d_heads = wo @ c
        d_qv, d_keys, d_vals = np.zeros(d), np.zeros((m, d)), np.zeros((m, d))
        for h in range(n_heads):
            cols = slice(h * d_k, (h + 1) * d_k)
            w = np_softmax(keys[:, cols] @ qv[cols] / np.sqrt(d))
            weights[idx][h] = w
            heads[cols] = w @ vals[:, cols]
            d_vals[:, cols] = np.outer(w, d_heads[cols])
            d_scores = (np.diag(w) - np.outer(w, w)) @ (vals[:, cols] @ d_heads[cols]) / np.sqrt(d)
            d_qv[cols] = keys[:, cols].T @ d_scores
            d_keys[:, cols] = np.outer(d_scores, qv[cols])
        out[idx][0] = heads @ wo
        d_wo += np.outer(heads, c)
        d_wq += np.outer(row, d_qv)
        d_query[idx][0] = wq @ d_qv
        d_wk += mem.T @ d_keys
        d_wv += mem.T @ d_vals
        d_memory[idx] = d_keys @ wk.T + d_vals @ wv.T
    return out, weights, grads


def lstm_oracle(x, state, w, b, cost):
    """Output [h' | c'] and the gradients of sum(out * cost), gate by gate."""
    d_h, d_in = b.shape[0] // 4, x.shape[-1]
    h, c = state[..., :d_h], state[..., d_h:]
    xh = np.concatenate([x, h], axis=-1)
    pre = xh @ w + b
    i, f, o = (np_sigmoid(pre[..., k * d_h : (k + 1) * d_h]) for k in (0, 1, 3))
    g = np.tanh(pre[..., 2 * d_h : 3 * d_h])
    c2 = f * c + i * g
    tc = np.tanh(c2)
    cost_h, cost_c = cost[..., :d_h], cost[..., d_h:]
    dc2 = cost_c + cost_h * o * (1 - tc**2)
    dpre = np.concatenate(
        [dc2 * g * i * (1 - i), dc2 * c * f * (1 - f), dc2 * i * (1 - g**2),
         cost_h * tc * o * (1 - o)],
        axis=-1,
    )
    dxh = dpre @ w.T
    rows = dpre.reshape(-1, 4 * d_h)
    grads = [dxh[..., :d_in], np.concatenate([dxh[..., d_in:], dc2 * f], axis=-1),
             xh.reshape(-1, d_in + d_h).T @ rows, rows.sum(0)]
    return np.concatenate([o * tc, c2], axis=-1), grads


def taped(op, arrays, cost, *extra):
    """Run `op` on fresh tracked tensors; returns its output and every input gradient."""
    tensors = [Tensor(a, requires_grad=True) for a in arrays]
    result = op(*tensors, *extra)
    out = result[0] if isinstance(result, tuple) else result
    (out * Tensor(cost)).sum().backward()
    return result, [t.grad for t in tensors]


def assert_close(actual, expected, what):
    scale = max(1.0, float(np.abs(expected).max(initial=0.0)))
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale, err_msg=what)


LEADS = [(), (3,), (2, 3)]


class TestFusedOpsMatchOracles:
    """Forward values and every gradient within 1e-12 of the composed numpy chain."""

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("rate", [0.0, 0.4])
    def test_mlp_norm(self, lead, rate):
        rng = np.random.default_rng(40 + len(lead))
        k, m, n, rows = 7, 4, 6, 2
        shapes = [(*lead, rows, k), (k, m), (m,), (m, n), (n,), (n,), (n,)]
        arrays = [rng.normal(size=s) for s in shapes]
        keep = (rng.random((*lead, rows, n)) >= rate) / (1 - rate) if rate else None
        cost = rng.normal(size=(*lead, rows, n))
        out, grads = taped(mlp_norm, arrays, cost, keep)
        ones = np.ones((*lead, rows, n))
        expected, expected_grads = mlp_norm_oracle(*arrays, ones if keep is None else keep, cost)
        assert_close(out.data, expected, "forward")
        for name, got, want in zip(["x", "w1", "b1", "w2", "b2", "gain", "bias"], grads,
                                   expected_grads):
            assert_close(got, want, name)

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    def test_attention(self, lead, n_heads):
        rng = np.random.default_rng(50 + n_heads)
        d, m = 8, 5
        shapes = [(*lead, 1, d), (*lead, m, d)] + [(d, d)] * 4
        arrays = [rng.normal(size=s) for s in shapes]
        cost = rng.normal(size=(*lead, 1, d))
        (out, weights), grads = taped(attention, arrays, cost, n_heads)
        expected, expected_weights, expected_grads = attention_oracle(*arrays, n_heads, cost)
        assert_close(out.data, expected, "forward")
        assert_close(weights, expected_weights, "weights")
        for name, got, want in zip(["query", "memory", "wq", "wk", "wv", "wo"], grads,
                                   expected_grads):
            assert_close(got, want, name)

    @pytest.mark.parametrize("lead", LEADS)
    def test_lstm_step(self, lead):
        rng = np.random.default_rng(60 + len(lead))
        d_in, d_h = 5, 3
        shapes = [(*lead, 1, d_in), (*lead, 1, 2 * d_h), (d_in + d_h, 4 * d_h), (4 * d_h,)]
        arrays = [rng.normal(size=s) for s in shapes]
        cost = rng.normal(size=(*lead, 1, 2 * d_h))
        out, grads = taped(lstm_step, arrays, cost)
        expected, expected_grads = lstm_oracle(*arrays, cost)
        assert_close(out.data, expected, "forward")
        for name, got, want in zip(["x", "state", "w", "b"], grads, expected_grads):
            assert_close(got, want, name)

    def test_shape_errors_name_the_operands(self):
        z = Tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeError, match="mlp_norm"):
            mlp_norm(z, Tensor(np.zeros((3, 2))), *(Tensor(np.zeros(s)) for s in
                                                     ((2,), (2, 4), (4,), (4,), (4,))))
        with pytest.raises(ShapeError, match="attention"):
            attention(Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 4))),
                      *[Tensor(np.eye(4))] * 4, 2)
        with pytest.raises(ShapeError, match="lstm_step"):
            lstm_step(z, Tensor(np.zeros((2, 6))), Tensor(np.zeros((6, 12))),
                      Tensor(np.zeros(12)))


batch_lead = st.lists(st.integers(1, 3), max_size=2)


class TestFusedGradientProperties:
    """grad_check through each fused op at random leading batch shapes.

    `tracked` False leaves the data input untracked, as the model's
    observed windows and initial states are: the node must then skip it
    and still give the weights their gradients.
    """

    @settings(max_examples=30, deadline=None)
    @given(lead=batch_lead, rows=st.integers(1, 2), k=st.integers(1, 4), m=st.integers(1, 3),
           n=st.integers(2, 4), dropout=st.booleans(), tracked=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_mlp_norm(self, lead, rows, k, m, n, dropout, tracked, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(*lead, rows, k)))
        layers = [Tensor(rng.normal(size=s)) for s in ((k, m), (m,), (m, n), (n,), (n,), (n,))]
        # a central difference is no derivative within a step of the ReLU kink
        assume(np.abs(x.data @ layers[0].data + layers[1].data).min() > 1e-3)
        keep = (rng.random((*lead, rows, n)) >= 0.3) / 0.7 if dropout else None
        cost = Tensor(rng.normal(size=(*lead, rows, n)))

        def f(*_):
            return (mlp_norm(x, *layers, keep) * cost).sum()

        assert grad_check(f, [x, *layers] if tracked else layers) < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(lead=batch_lead, m=st.integers(1, 4), n_heads=st.integers(1, 2),
           d_k=st.integers(1, 2), tracked=st.booleans(), seed=st.integers(0, 2**16))
    def test_attention(self, lead, m, n_heads, d_k, tracked, seed):
        rng = np.random.default_rng(seed)
        d = n_heads * d_k
        query = Tensor(rng.normal(size=(*lead, 1, d)))
        memory = Tensor(rng.normal(size=(*lead, m, d)))
        weights = [Tensor(rng.normal(size=(d, d))) for _ in range(4)]
        cost = Tensor(rng.normal(size=(*lead, 1, d)))

        def f(*_):
            return (attention(query, memory, *weights, n_heads)[0] * cost).sum()

        assert grad_check(f, [query, memory, *weights] if tracked else weights) < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(lead=batch_lead, d_in=st.integers(1, 3), d_h=st.integers(1, 2),
           tracked=st.booleans(), seed=st.integers(0, 2**16))
    def test_lstm_step(self, lead, d_in, d_h, tracked, seed):
        rng = np.random.default_rng(seed)
        x, state = (Tensor(rng.normal(size=(*lead, 1, d))) for d in (d_in, 2 * d_h))
        w = Tensor(rng.normal(size=(d_in + d_h, 4 * d_h)))
        b = Tensor(rng.normal(size=4 * d_h))
        cost = Tensor(rng.normal(size=(*lead, 1, 2 * d_h)))

        def f(*_):
            return (lstm_step(x, state, w, b) * cost).sum()

        assert grad_check(f, [x, state, w, b] if tracked else [x, w, b]) < 1e-5


class TestTapeNodes:
    """Tensors built by one taped one-window anticipate at the default config.

    One node per fused layer call. ttm-ppm builds 4 per rollout step
    (input concat, prediction block, classifier, softmax) and 13 others;
    lstm-lstm 2 per encoder step (input slice, cell), 5 per decoder step
    (cell, h slice, classifier, softmax, next input concat) and 13 others.
    Splitting a fused layer back into single ops raises these counts.
    """

    @pytest.mark.parametrize("aggregator, predictor, nodes", [("ttm", "ppm", 45),
                                                               ("lstm", "lstm", 69)])
    def test_one_window_node_count(self, aggregator, predictor, nodes, monkeypatch):
        model = AnticipationModel(ModelConfig(aggregator=aggregator, predictor=predictor))
        window = np.random.default_rng(0).normal(size=(8, 16))
        built = [0]
        init = Tensor.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting)
        roll, _ = model.anticipate(window)
        assert roll.features._parents and built[0] == nodes
        built[0] = 0
        with no_grad():
            model.anticipate(window)
        assert built[0] == nodes  # no_grad saves the tape, not the tensors


def test_forward_ops_deterministic():
    rng = np.random.default_rng(13)
    x = rng.normal(size=(4, 6))
    for op in (softmax, relu, log_softmax):
        np.testing.assert_array_equal(op(Tensor(x)).data, op(Tensor(x)).data)


def test_finite_outputs_on_finite_inputs():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(5, 5)) * 1e3
    eye, zero = Tensor(np.eye(5)), Tensor(np.zeros(5))
    for out in (
        softmax(Tensor(x)),
        mlp_norm(Tensor(x), eye, zero, eye, zero, Tensor(np.ones(5)), zero),
        matmul(Tensor(x), Tensor(x)),
        log_softmax(Tensor(x)),
    ):
        assert np.all(np.isfinite(out.data))
