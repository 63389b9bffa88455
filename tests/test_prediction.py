"""Progressive prediction: classifier, block, chained rollout.

The classifier is softmax(matmul(f, w)) and a prediction block is one
`mlp_norm` call on the block's parameters, both from the tests' chains of
single-op nodes, which the fused rollouts are held to.
"""

from dataclasses import replace

import numpy as np
import pytest

from chains import grad_check, matmul, mlp_norm, softmax, tensor_sum, total, weighted_sum
from ttpp.prediction import init_block_params, init_ppm_params, rollout
from ttpp.tensor import Tensor, keep_mask


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
        w = Tensor(np.zeros((8, 4)))
        np.testing.assert_allclose(softmax(matmul(f, w)).data, np.full((1, 4), 0.25))

    def test_zero_feature_gives_uniform(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(8, 4)))
        out = softmax(matmul(Tensor(np.zeros((1, 8))), w))
        np.testing.assert_allclose(out.data, np.full((1, 4), 0.25))

    def test_against_matmul_softmax_oracle(self):
        rng = np.random.default_rng(2)
        f = rng.normal(size=(1, 8))
        w = rng.normal(size=(8, 4))
        logits = f @ w
        e = np.exp(logits - logits.max())
        expected = e / e.sum()
        out = softmax(matmul(Tensor(f), Tensor(w)))
        np.testing.assert_allclose(out.data, expected, atol=1e-10)


class TestPredictionBlock:
    def test_zero_params_emit_ln_bias(self):
        d_m = 8
        block = zero_block(2 * d_m + 3, d_m)
        bias = np.random.default_rng(3).normal(size=d_m)
        block.ln_bias.value.data[:] = bias
        out = mlp_norm(Tensor(np.random.default_rng(4).normal(size=(1, 19))), *block.values)
        np.testing.assert_allclose(out.data[0], bias, atol=1e-12)

    @pytest.mark.parametrize("d_m", [8, 16, 32])
    def test_output_extent(self, d_m):
        rng = np.random.default_rng(5)
        block = init_block_params(2 * d_m + 4, d_m, rng, "b")
        out = mlp_norm(Tensor(rng.normal(size=(1, 2 * d_m + 4))), *block.values)
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
        out = mlp_norm(Tensor(x), *block.values)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_extent_mismatch(self):
        block = init_block_params(19, 8, np.random.default_rng(7), "b")
        with pytest.raises(ValueError, match="extent"):
            mlp_norm(Tensor(np.zeros((1, 18))), *block.values)

    def test_hidden_width_is_half(self):
        block = init_block_params(20, 8, np.random.default_rng(8), "b")
        assert block.fc1_w.shape == (20, 4)
        assert block.fc2_w.shape == (4, 8)


def random_ppm(d_m=8, n_classes=3, seed=0, horizon=4, feed_features=True):
    return init_ppm_params(d_m, n_classes, horizon, feed_features, np.random.default_rng(seed))


class TestPPMParams:
    def test_horizon_one_lists_no_progressive_block(self):
        params = random_ppm(horizon=1)
        names = [p.name for p in params.parameters()]
        assert not any(name.startswith("ppm.progressive.") for name in names)
        assert names == [p.name for p in params.initial.parameters()] + ["ppm.classifier"]

    def test_longer_chains_list_every_block_in_field_order(self):
        params = random_ppm(horizon=2)
        expected = [*params.initial.parameters(), *params.progressive.parameters(),
                    params.classifier]
        assert params.parameters() == expected
        assert replace(params, horizon=1).parameters() == expected[:6] + expected[-1:]


class TestRollout:
    def test_single_step_never_touches_progressive_block(self):
        rng = np.random.default_rng(9)
        params = random_ppm(horizon=1)
        s = Tensor(rng.normal(size=(1, 8)))
        f = rng.normal(size=(1, 8))
        base = rollout(s, f, params)
        assert base.features.shape == (1, 8) and base.probs.shape == (1, 3)
        for p in params.progressive.parameters():
            p.value.data += 100.0
        again = rollout(s, f, params)
        np.testing.assert_array_equal(base.features.data, again.features.data)

    def test_single_step_sends_the_progressive_block_no_gradient(self):
        rng = np.random.default_rng(20)
        params = random_ppm(seed=20, horizon=1)
        roll = rollout(Tensor(rng.normal(size=(1, 8))), rng.normal(size=(1, 8)), params)
        total(tensor_sum(roll.features), tensor_sum(roll.logits)).backward()
        assert all(p.value.grad is None for p in params.progressive.parameters())
        assert all(p.value.grad is not None for p in [*params.initial.parameters(),
                                                      params.classifier])

    def test_one_node_per_rollout(self):
        # the features node runs the whole chain back; the logits hand it their gradient
        rng = np.random.default_rng(21)
        s = Tensor(rng.normal(size=(2, 1, 8)), requires_grad=True)
        roll = rollout(s, rng.normal(size=(2, 1, 8)), random_ppm(seed=21))
        assert roll.logits._parents == (roll.features,)
        assert s in roll.features._parents

    def test_zero_params_give_uniform_probs(self):
        params = random_ppm()
        for p in params.parameters():
            p.value.data[:] = 0.0
        rng = np.random.default_rng(10)
        roll = rollout(Tensor(rng.normal(size=(1, 8))), rng.normal(size=(1, 8)), params)
        np.testing.assert_allclose(roll.probs.data, np.full((4, 3), 1 / 3), atol=1e-12)

    def test_three_steps_match_manual_unroll(self):
        rng = np.random.default_rng(11)
        params = random_ppm(seed=11, horizon=3)
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

        roll = rollout(Tensor(s), f, params)
        np.testing.assert_allclose(roll.features.data, np.concatenate([f1, f2, f3]), atol=1e-10)
        np.testing.assert_allclose(roll.probs.data, np.concatenate([p1, p2, p3]), atol=1e-10)

    def test_a_tensor_last_feature_is_refused_by_name(self):
        s = Tensor(np.zeros((1, 8)))
        with pytest.raises(TypeError, match="rollout: f_t must be an ndarray, got Tensor"):
            rollout(s, Tensor(s.data), random_ppm())

    def test_rejects_zero_horizon(self):
        params = random_ppm(horizon=0)
        with pytest.raises(ValueError, match="horizon"):
            rollout(Tensor(np.zeros((1, 8))), np.zeros((1, 8)), params)

    def test_progressive_weight_touches_all_later_steps(self):
        # ln_bias sits after normalization, so the bump cannot be masked
        # by a dead relu unit
        rng = np.random.default_rng(12)
        params = random_ppm(seed=12)
        s = Tensor(rng.normal(size=(1, 8)))
        f = rng.normal(size=(1, 8))
        base = rollout(s, f, params)
        params.progressive.ln_bias.value.data[1] += 0.5
        bumped = rollout(s, f, params)
        delta = np.abs(base.features.data - bumped.features.data).max(axis=1)
        assert delta[0] == 0.0
        assert np.all(delta[1:] > 0.0)

    def test_initial_weight_touches_every_step(self):
        rng = np.random.default_rng(13)
        params = random_ppm(seed=13)
        s = Tensor(rng.normal(size=(1, 8)))
        f = rng.normal(size=(1, 8))
        base = rollout(s, f, params)
        params.initial.ln_bias.value.data[2] += 0.5
        bumped = rollout(s, f, params)
        delta = np.abs(base.features.data - bumped.features.data).max(axis=1)
        assert np.all(delta > 0.0)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_probs_stay_on_simplex(self, mode):
        rng = np.random.default_rng(14)
        params = random_ppm(seed=14, horizon=5)
        roll = rollout(
            Tensor(rng.normal(size=(1, 8))),
            rng.normal(size=(1, 8)),
            params,
            keep=keep_mask(np.random.default_rng(0) if mode == "train" else None, 0.1, (5, 8)),
        )
        np.testing.assert_allclose(roll.probs.data.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(roll.probs.data > 0)

    def test_deterministic_per_mode(self):
        rng = np.random.default_rng(15)
        params = random_ppm(seed=15, horizon=3)
        s = Tensor(rng.normal(size=(1, 8)))
        f = rng.normal(size=(1, 8))
        a = rollout(s, f, params)
        b = rollout(s, f, params)
        np.testing.assert_array_equal(a.features.data, b.features.data)
        t1 = rollout(s, f, params, keep_mask(np.random.default_rng(9), 0.1, (3, 8)))
        t2 = rollout(s, f, params, keep_mask(np.random.default_rng(9), 0.1, (3, 8)))
        np.testing.assert_array_equal(t1.features.data, t2.features.data)
        assert np.abs(t1.features.data - a.features.data).max() > 0  # the mask turns dropout on

    def test_gradient_through_chained_steps(self):
        rng = np.random.default_rng(16)
        params = random_ppm(seed=16)
        s = Tensor(rng.normal(size=(1, 8)))
        f = rng.normal(size=(1, 8))
        feat_cost = Tensor(rng.normal(size=(4, 8)))
        prob_cost = Tensor(rng.normal(size=(4, 3)))

        def loss(*tensors):
            roll = rollout(s, f, params)
            return total(weighted_sum(roll.features, feat_cost),
                         weighted_sum(softmax(roll.logits), prob_cost))

        err = grad_check(loss, [p.value for p in params.parameters()])
        assert err < 1e-4


class TestRolloutWithoutFeatures:
    def test_single_step_identical_to_full(self):
        rng = np.random.default_rng(17)
        params = random_ppm(seed=17, horizon=1)
        s = Tensor(rng.normal(size=(1, 8)))
        f = rng.normal(size=(1, 8))
        a = rollout(s, f, params)
        b = rollout(s, f, replace(params, feed_features=False))
        np.testing.assert_array_equal(a.features.data, b.features.data)

    def test_later_steps_zero_the_feature_slot(self):
        rng = np.random.default_rng(18)
        d_m = 8
        params = random_ppm(d_m=d_m, seed=18, horizon=2, feed_features=False)
        s = rng.normal(size=(1, d_m))
        f = rng.normal(size=(1, d_m))
        roll = rollout(Tensor(s), f, params)

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
        params = random_ppm(seed=19, horizon=3)
        s = Tensor(rng.normal(size=(1, 8)))
        f = rng.normal(size=(1, 8))
        a = rollout(s, f, params)
        b = rollout(s, f, replace(params, feed_features=False))
        np.testing.assert_array_equal(a.features.data[0], b.features.data[0])
        assert np.abs(a.features.data[1:] - b.features.data[1:]).max() > 1e-8
