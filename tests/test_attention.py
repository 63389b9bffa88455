"""Temporal transformer aggregation: positions, multi-head attention, shortcut."""

from dataclasses import replace

import numpy as np
import pytest

from chains import grad_check, weighted_sum
from ttpp.attention import TTMParams, aggregate, init_ttm_params, positional_encoding
from ttpp.model import AnticipationModel, ModelConfig
from ttpp.tensor import Parameter, ShapeError, Tensor, glorot


class TestPositionalEncoding:
    def test_row_zero_alternates(self):
        pe = positional_encoding(4, 10)
        np.testing.assert_allclose(pe[0], [0.0, 1.0] * 5, atol=0)

    def test_first_dimension_is_plain_sine(self):
        pe = positional_encoding(3, 8)
        assert pe[1, 0] == pytest.approx(np.sin(1.0), abs=1e-12)
        assert pe[2, 0] == pytest.approx(np.sin(2.0), abs=1e-12)

    def test_full_table_against_per_entry_oracle(self):
        pe = positional_encoding(8, 16)
        for pos in range(8):
            for i in range(16):
                angle = pos / 10000 ** (i / 16)
                expected = np.sin(angle) if i % 2 == 0 else np.cos(angle)
                assert pe[pos, i] == pytest.approx(expected, abs=1e-12)

    def test_entries_bounded(self):
        pe = positional_encoding(64, 32)
        assert np.all(pe >= -1.0) and np.all(pe <= 1.0)

    def test_rejects_degenerate_dims(self):
        with pytest.raises(ValueError):
            positional_encoding(0, 8)
        with pytest.raises(ValueError):
            positional_encoding(4, 1)


def identity_params(d_m: int) -> TTMParams:
    eye = np.eye(d_m)
    return TTMParams(
        wq=Parameter("q", eye),
        wk=Parameter("k", eye),
        wv=Parameter("v", eye),
        wo=Parameter("o", eye),
        n_heads=1,
        pe=np.zeros((2, d_m)),
    )


def attend(memory: np.ndarray, query: np.ndarray, params: TTMParams):
    """The TTM layer, `aggregate`, on the window [memory | query] with zero
    position rows: the attended memory plus the query row."""
    window = np.concatenate([memory, query], axis=-2)
    return aggregate(window, replace(params, pe=np.zeros(window.shape[-2:])))


def np_softmax(scores: np.ndarray) -> np.ndarray:
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


class TestAttention:
    # scaled dot-product behaviour of the TTM layer, `aggregate`

    def test_single_memory_row_passes_value_through(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            params = init_ttm_params(8, 2, 8, rng)
            q = rng.normal(size=(1, 8))
            mem = rng.normal(size=(1, 8))
            out, w = attend(mem, q, params)
            expected = mem @ params.wv.value.data @ params.wo.value.data + q
            np.testing.assert_allclose(out.data, expected, atol=1e-12)
            np.testing.assert_allclose(w, np.ones((2, 1)), atol=1e-12)

    def test_identical_keys_average_values(self):
        # a zero key projection gives every memory row the same score
        rng = np.random.default_rng(1)
        params = init_ttm_params(6, 2, 8, rng)
        params.wk.value.data[:] = 0.0
        mem = rng.normal(size=(5, 6))
        q = rng.normal(size=(1, 6))
        out, _ = attend(mem, q, params)
        expected = (mem @ params.wv.value.data).mean(axis=0, keepdims=True) @ params.wo.value.data
        expected += q
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_against_naive_loop_oracle(self):
        # two heads of width 4 in an 8-wide model: the temperature must be
        # 1/sqrt(8), the model width, not 1/sqrt(4)
        rng = np.random.default_rng(2)
        d_m, n, d_k = 8, 2, 4
        params = init_ttm_params(d_m, n, 8, rng)
        query = rng.normal(size=(1, d_m))
        mem = rng.normal(size=(7, d_m))
        q = (query @ params.wq.value.data)[0]
        k = mem @ params.wk.value.data
        v = mem @ params.wv.value.data
        w = np.zeros((n, 7))
        heads = np.zeros(d_m)
        for h in range(n):
            cols = slice(h * d_k, (h + 1) * d_k)
            scores = np.array([np.dot(q[cols], k[i, cols]) / np.sqrt(d_m) for i in range(7)])
            e = np.exp(scores - scores.max())
            w[h] = e / e.sum()
            heads[cols] = sum(w[h, i] * v[i, cols] for i in range(7))
        out, weights = attend(mem, query, params)
        np.testing.assert_allclose(out.data[0], heads @ params.wo.value.data + query[0],
                                   atol=1e-10)
        np.testing.assert_allclose(weights, w, atol=1e-10)

    def test_window_of_one_row_rejected(self):
        with pytest.raises(ValueError, match="T >= 2 rows"):
            attend(np.zeros((0, 4)), np.zeros((1, 4)), identity_params(4))

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(3)
        params = init_ttm_params(8, 4, 8, rng)
        _, w = attend(rng.normal(size=(6, 8)), rng.normal(size=(1, 8)), params)
        assert w.shape == (4, 6)
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)

    def test_output_linear_in_values_for_fixed_weights(self):
        rng = np.random.default_rng(4)
        params = init_ttm_params(8, 2, 8, rng)
        q = rng.normal(size=(1, 8))
        mem = rng.normal(size=(5, 8))
        out1, w1 = attend(mem, q, params)
        params.wv.value.data *= 2.0
        out2, w2 = attend(mem, q, params)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_allclose(out2.data - q, 2 * (out1.data - q), rtol=1e-12)


class TestMultiHead:
    def test_single_identity_head_reduces_to_attention(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(1, 6))
        mem = rng.normal(size=(4, 6))
        out, weights = attend(mem, q, identity_params(6))
        ew = np_softmax(q @ mem.T / np.sqrt(6))
        np.testing.assert_allclose(out.data, ew @ mem + q, atol=1e-12)
        np.testing.assert_allclose(weights, ew, atol=1e-12)

    @pytest.mark.parametrize("n_heads", [1, 2, 4, 8])
    def test_output_shape(self, n_heads):
        rng = np.random.default_rng(6)
        params = init_ttm_params(16, n_heads, 8, rng)
        out, weights = attend(rng.normal(size=(5, 16)), rng.normal(size=(1, 16)), params)
        assert out.shape == (1, 16)
        assert weights.shape == (n_heads, 5)

    def test_two_heads_match_per_head_oracle(self):
        rng = np.random.default_rng(7)
        d_m, n = 8, 2
        d_k = d_m // n
        params = init_ttm_params(d_m, n, 8, rng)
        q = rng.normal(size=(1, d_m))
        mem = rng.normal(size=(5, d_m))
        heads = []
        for i in range(n):
            cols = slice(i * d_k, (i + 1) * d_k)
            qi = q @ params.wq.value.data[:, cols]
            ki = mem @ params.wk.value.data[:, cols]
            vi = mem @ params.wv.value.data[:, cols]
            w = np_softmax((qi @ ki.T) / np.sqrt(d_m))  # scale uses the model width
            heads.append(w @ vi)
        expected = np.concatenate(heads, axis=-1) @ params.wo.value.data + q
        out, _ = attend(mem, q, params)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    @pytest.mark.parametrize("n_heads", [1, 4])
    def test_fused_init_stacks_per_head_draws(self, n_heads):
        # the fused matrices hold the same glorot draws, in the same rng
        # order, as one d_m x d_k matrix per head and projection would
        d_m, d_k = 16, 16 // n_heads
        rng = np.random.default_rng(30)
        per_head = {name: [glorot(rng, d_m, d_k) for _ in range(n_heads)] for name in "qkv"}
        wo = glorot(rng, d_m, d_m)
        params = init_ttm_params(d_m, n_heads, 8, np.random.default_rng(30))
        for name, fused in zip("qkv", (params.wq, params.wk, params.wv)):
            np.testing.assert_array_equal(fused.value.data, np.hstack(per_head[name]))
        np.testing.assert_array_equal(params.wo.value.data, wo)
        assert [p.name for p in params.parameters()] == ["ttm.q", "ttm.k", "ttm.v", "ttm.o"]

    def test_heads_must_divide_width(self):
        # ModelConfig refuses this pairing; the op refuses it from a direct caller
        params = init_ttm_params(10, 3, 8, np.random.default_rng(0))
        with pytest.raises(ShapeError, match="3 heads"):
            attend(np.zeros((4, 10)), np.zeros((1, 10)), params)

    def test_window_of_one_row_rejected(self):
        params = init_ttm_params(8, 2, 8, np.random.default_rng(8))
        with pytest.raises(ValueError, match="T >= 2 rows"):
            attend(np.zeros((0, 8)), np.zeros((1, 8)), params)


class TestAggregate:
    def test_two_chunk_window_attends_fully_to_single_memory(self):
        rng = np.random.default_rng(9)
        params = init_ttm_params(8, 2, 2, rng)
        _, weights = aggregate(rng.normal(size=(2, 8)), params)
        np.testing.assert_allclose(weights, np.ones((2, 1)), atol=1e-12)

    def test_zero_output_projection_leaves_query(self):
        rng = np.random.default_rng(10)
        params = init_ttm_params(8, 2, 4, rng)
        params.wo.value.data[:] = 0.0
        pe = positional_encoding(4, 8)
        f = rng.normal(size=(4, 8))
        out, _ = aggregate(f, params)
        np.testing.assert_allclose(out.data, (f + pe[:4])[3:4], atol=1e-12)

    def test_weight_rows_sum_to_one(self):
        rng = np.random.default_rng(12)
        params = init_ttm_params(16, 4, 8, rng)
        _, weights = aggregate(rng.normal(size=(8, 16)), params)
        assert weights.shape == (4, 7)
        np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-9)

    def test_a_tensor_window_is_refused_by_name(self):
        params = init_ttm_params(8, 2, 4, np.random.default_rng(13))
        with pytest.raises(TypeError, match="aggregate: window must be an ndarray, got Tensor"):
            aggregate(Tensor(np.zeros((4, 8))), params)

    def test_too_short_sequence(self):
        params = init_ttm_params(8, 2, 8, np.random.default_rng(13))
        with pytest.raises(ValueError, match="T >= 2 rows"):
            aggregate(np.zeros((1, 8)), params)

    def test_model_builds_the_table_of_its_window(self):
        params = AnticipationModel(ModelConfig(seq_len=16)).agg_params
        np.testing.assert_array_equal(params.pe, positional_encoding(16, 16))
        rng = np.random.default_rng(19)
        _, weights = aggregate(rng.normal(size=(16, 16)), params)
        assert weights.shape == (4, 15)
        with pytest.raises(ShapeError, match="position table"):
            aggregate(rng.normal(size=(8, 16)), params)

    def test_memory_permutation_invariance_without_positions(self):
        rng = np.random.default_rng(14)
        params = replace(init_ttm_params(16, 4, 8, rng), pe=np.zeros((8, 16)))
        f = rng.normal(size=(8, 16))
        base, _ = aggregate(f, params)
        for _ in range(5):
            perm = rng.permutation(7)
            shuffled = np.concatenate([f[:7][perm], f[7:]], axis=0)
            out, _ = aggregate(shuffled, params)
            np.testing.assert_allclose(out.data, base.data, rtol=0, atol=1e-12)

    def test_joint_permutation_invariance_with_positions(self):
        # permuting memory rows together with their position rows moves
        # labelled content around without changing the attended set
        rng = np.random.default_rng(15)
        params = init_ttm_params(16, 4, 8, rng)
        pe = positional_encoding(8, 16)
        f = rng.normal(size=(8, 16))
        base, _ = aggregate(f, params)
        unplaced = replace(params, pe=np.zeros((8, 16)))
        for _ in range(5):
            perm = rng.permutation(7)
            shuffled = np.concatenate([(f[:7] + pe[:7])[perm], f[7:] + pe[7:8]], axis=0)
            out, _ = aggregate(shuffled, unplaced)
            np.testing.assert_allclose(out.data, base.data, rtol=0, atol=1e-9)

    def test_order_sensitivity_with_positions(self):
        # with positions attached, plain memory shuffles must change S_t
        rng = np.random.default_rng(16)
        params = init_ttm_params(16, 4, 8, rng)
        f = rng.normal(size=(8, 16))
        base, _ = aggregate(f, params)
        shuffled = np.concatenate([f[:7][::-1], f[7:]], axis=0)
        out, _ = aggregate(shuffled, params)
        assert np.abs(out.data - base.data).max() > 1e-6

    def test_gradient(self):
        rng = np.random.default_rng(17)
        params = init_ttm_params(8, 2, 4, rng)
        f = rng.normal(size=(4, 8))
        cost = Tensor(rng.normal(size=(1, 8)))

        def loss(*tensors):
            out, _ = aggregate(f, params)
            return weighted_sum(out, cost)

        err = grad_check(loss, [p.value for p in params.parameters()])
        assert err < 1e-4
