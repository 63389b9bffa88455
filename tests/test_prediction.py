"""Progressive prediction: classifier, block, chained rollout."""

import numpy as np
import pytest

from ttpp.prediction import (
    classify,
    init_block_params,
    init_ppm_params,
    prediction_block,
    rollout,
)
from ttpp.tensor import Parameter, Tensor, grad_check, keep_mask


def zero_block(in_dim, d_m):
    rng = np.random.default_rng(0)
    block = init_block_params(in_dim, d_m, rng, "z")
    for p in block.parameters():
        p.value.data[:] = 0.0
    return block


class TestClassify:
    def test_zero_weights_give_uniform(self):
        rng = np.random.default_rng(0)
        f = Tensor(rng.normal(size=(1, 8)))
        w = Parameter("c", np.zeros((8, 4)))
        np.testing.assert_allclose(classify(f, w).data, np.full((1, 4), 0.25))

    def test_zero_feature_gives_uniform(self):
        rng = np.random.default_rng(1)
        w = Parameter("c", rng.normal(size=(8, 4)))
        np.testing.assert_allclose(classify(Tensor(np.zeros((1, 8))), w).data, np.full((1, 4), 0.25))

    def test_against_matmul_softmax_oracle(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(1, 8))
        w = rng.normal(size=(8, 4))
        logits = f @ w
        e = np.exp(logits - logits.max())
        expected = e / e.sum()
        out = classify(Tensor(f), Parameter("c", w))
        np.testing.assert_allclose(out.data, expected, atol=1e-10)


class TestPredictionBlock:
    def test_zero_params_emit_ln_bias(self):
        d_m = 8
        block = zero_block(2 * d_m + 3, d_m)
        bias = np.random.default_rng(3).normal(size=d_m)
        block.ln_bias.value.data[:] = bias
        out = prediction_block(Tensor(np.random.default_rng(4).normal(size=(1, 19))), block)
        np.testing.assert_allclose(out.data[0], bias, atol=1e-12)

    @pytest.mark.parametrize("d_m", [8, 16, 32])
    def test_output_extent(self, d_m):
        rng = np.random.default_rng(5)
        block = init_block_params(2 * d_m + 4, d_m, rng, "b")
        out = prediction_block(Tensor(rng.normal(size=(1, 2 * d_m + 4))), block)
        assert out.shape == (1, d_m)

    def test_against_layer_by_layer_oracle(self):
        rng = np.random.default_rng(6)
        d_m, in_dim = 8, 19
        block = init_block_params(in_dim, d_m, rng, "b")
        for p in block.parameters():
            p.value.data[:] = rng.normal(size=p.shape)
        x = rng.normal(size=(1, in_dim))
        h = np.maximum(0.0, x @ block.fc1_w.value.data + block.fc1_b.value.data)
        y = h @ block.fc2_w.value.data + block.fc2_b.value.data
        mu = y.mean(axis=-1, keepdims=True)
        var = y.var(axis=-1, keepdims=True)
        expected = (y - mu) / np.sqrt(var + 1e-5) * block.ln_gain.value.data + block.ln_bias.value.data
        out = prediction_block(Tensor(x), block)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_extent_mismatch(self):
        block = init_block_params(19, 8, np.random.default_rng(7), "b")
        with pytest.raises(ValueError, match="extent"):
            prediction_block(Tensor(np.zeros((1, 18))), block)

    def test_hidden_width_is_half(self):
        block = init_block_params(20, 8, np.random.default_rng(8), "b")
        assert block.fc1_w.shape == (20, 4)
        assert block.fc2_w.shape == (4, 8)


def random_ppm(d_m=8, n_classes=3, seed=0):
    return init_ppm_params(d_m, n_classes, np.random.default_rng(seed))


class TestRollout:
    def test_single_step_never_touches_progressive_block(self):
        rng = np.random.default_rng(9)
        params = random_ppm()
        s = Tensor(rng.normal(size=(1, 8)))
        f = Tensor(rng.normal(size=(1, 8)))
        base = rollout(s, f, params, horizon=1)
        assert base.features.shape == (1, 8) and base.probs.shape == (1, 3)
        for p in params.progressive.parameters():
            p.value.data += 100.0
        again = rollout(s, f, params, horizon=1)
        np.testing.assert_array_equal(base.features.data, again.features.data)

    def test_zero_params_give_uniform_probs(self):
        params = random_ppm()
        for p in params.parameters():
            p.value.data[:] = 0.0
        rng = np.random.default_rng(10)
        roll = rollout(Tensor(rng.normal(size=(1, 8))), Tensor(rng.normal(size=(1, 8))), params, 4)
        np.testing.assert_allclose(roll.probs.data, np.full((4, 3), 1 / 3), atol=1e-12)

    def test_three_steps_match_manual_unroll(self):
        rng = np.random.default_rng(11)
        params = random_ppm(seed=11)
        s = rng.normal(size=(1, 8))
        f = rng.normal(size=(1, 8))

        def np_classify(x):
            logits = x @ params.classifier.value.data
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        def np_block(x, block):
            h = np.maximum(0.0, x @ block.fc1_w.value.data + block.fc1_b.value.data)
            y = h @ block.fc2_w.value.data + block.fc2_b.value.data
            mu = y.mean(axis=-1, keepdims=True)
            var = y.var(axis=-1, keepdims=True)
            return (y - mu) / np.sqrt(var + 1e-5) * block.ln_gain.value.data + block.ln_bias.value.data

        p0 = np_classify(f)
        f1 = np_block(np.concatenate([s, f, p0], axis=-1), params.initial)
        p1 = np_classify(f1)
        f2 = np_block(np.concatenate([s, f1, p1], axis=-1), params.progressive)
        p2 = np_classify(f2)
        f3 = np_block(np.concatenate([s, f2, p2], axis=-1), params.progressive)
        p3 = np_classify(f3)

        roll = rollout(Tensor(s), Tensor(f), params, horizon=3)
        np.testing.assert_allclose(roll.features.data, np.concatenate([f1, f2, f3]), atol=1e-10)
        np.testing.assert_allclose(roll.probs.data, np.concatenate([p1, p2, p3]), atol=1e-10)

    def test_rejects_zero_horizon(self):
        params = random_ppm()
        with pytest.raises(ValueError, match="horizon"):
            rollout(Tensor(np.zeros((1, 8))), Tensor(np.zeros((1, 8))), params, 0)

    def test_progressive_weight_touches_all_later_steps(self):
        # ln_bias sits after normalization, so the bump cannot be masked
        # by a dead relu unit
        rng = np.random.default_rng(12)
        params = random_ppm(seed=12)
        s = Tensor(rng.normal(size=(1, 8)))
        f = Tensor(rng.normal(size=(1, 8)))
        base = rollout(s, f, params, horizon=4)
        params.progressive.ln_bias.value.data[1] += 0.5
        bumped = rollout(s, f, params, horizon=4)
        delta = np.abs(base.features.data - bumped.features.data).max(axis=1)
        assert delta[0] == 0.0
        assert np.all(delta[1:] > 0.0)

    def test_initial_weight_touches_every_step(self):
        rng = np.random.default_rng(13)
        params = random_ppm(seed=13)
        s = Tensor(rng.normal(size=(1, 8)))
        f = Tensor(rng.normal(size=(1, 8)))
        base = rollout(s, f, params, horizon=4)
        params.initial.ln_bias.value.data[2] += 0.5
        bumped = rollout(s, f, params, horizon=4)
        delta = np.abs(base.features.data - bumped.features.data).max(axis=1)
        assert np.all(delta > 0.0)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_probs_stay_on_simplex(self, mode):
        rng = np.random.default_rng(14)
        params = random_ppm(seed=14)
        roll = rollout(
            Tensor(rng.normal(size=(1, 8))),
            Tensor(rng.normal(size=(1, 8))),
            params,
            horizon=5,
            keep=keep_mask(np.random.default_rng(0) if mode == "train" else None, 0.1, (5, 8)),
        )
        np.testing.assert_allclose(roll.probs.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(roll.probs.data > 0)

    def test_deterministic_per_mode(self):
        rng = np.random.default_rng(15)
        params = random_ppm(seed=15)
        s = Tensor(rng.normal(size=(1, 8)))
        f = Tensor(rng.normal(size=(1, 8)))
        a = rollout(s, f, params, 3)
        b = rollout(s, f, params, 3)
        np.testing.assert_array_equal(a.features.data, b.features.data)
        t1 = rollout(s, f, params, 3, keep_mask(np.random.default_rng(9), 0.1, (3, 8)))
        t2 = rollout(s, f, params, 3, keep_mask(np.random.default_rng(9), 0.1, (3, 8)))
        np.testing.assert_array_equal(t1.features.data, t2.features.data)
        assert np.abs(t1.features.data - a.features.data).max() > 0  # the mask turns dropout on

    def test_gradient_through_chained_steps(self):
        rng = np.random.default_rng(16)
        params = random_ppm(seed=16)
        s = Tensor(rng.normal(size=(1, 8)))
        f = Tensor(rng.normal(size=(1, 8)))
        feat_cost = Tensor(rng.normal(size=(4, 8)))
        prob_cost = Tensor(rng.normal(size=(4, 3)))

        def loss(*tensors):
            roll = rollout(s, f, params, horizon=4)
            return (roll.features * feat_cost).sum() + (roll.probs * prob_cost).sum()

        err = grad_check(loss, [p.value for p in params.parameters()])
        assert err < 1e-4


class TestRolloutWithoutFeatures:
    def test_single_step_identical_to_full(self):
        rng = np.random.default_rng(17)
        params = random_ppm(seed=17)
        s = Tensor(rng.normal(size=(1, 8)))
        f = Tensor(rng.normal(size=(1, 8)))
        a = rollout(s, f, params, 1)
        b = rollout(s, f, params, 1, feed_features=False)
        np.testing.assert_array_equal(a.features.data, b.features.data)

    def test_later_steps_zero_the_feature_slot(self):
        rng = np.random.default_rng(18)
        d_m = 8
        params = random_ppm(d_m=d_m, seed=18)
        s = rng.normal(size=(1, d_m))
        f = rng.normal(size=(1, d_m))
        roll = rollout(Tensor(s), Tensor(f), params, 2, feed_features=False)

        def np_classify(x):
            logits = x @ params.classifier.value.data
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        def np_block(x, block):
            h = np.maximum(0.0, x @ block.fc1_w.value.data + block.fc1_b.value.data)
            y = h @ block.fc2_w.value.data + block.fc2_b.value.data
            mu = y.mean(axis=-1, keepdims=True)
            var = y.var(axis=-1, keepdims=True)
            return (y - mu) / np.sqrt(var + 1e-5) * block.ln_gain.value.data + block.ln_bias.value.data

        f1 = np_block(np.concatenate([s, f, np_classify(f)], axis=-1), params.initial)
        step2_in = np.concatenate([s, np.zeros((1, d_m)), np_classify(f1)], axis=-1)
        f2 = np_block(step2_in, params.progressive)
        np.testing.assert_allclose(roll.features.data[1:2], f2, atol=1e-10)

    def test_differs_from_full_rollout_at_later_steps(self):
        rng = np.random.default_rng(19)
        params = random_ppm(seed=19)
        s = Tensor(rng.normal(size=(1, 8)))
        f = Tensor(rng.normal(size=(1, 8)))
        a = rollout(s, f, params, 3)
        b = rollout(s, f, params, 3, feed_features=False)
        np.testing.assert_array_equal(a.features.data[0], b.features.data[0])
        assert np.abs(a.features.data[1:] - b.features.data[1:]).max() > 1e-8
