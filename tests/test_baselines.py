"""Conv1D / LSTM aggregation, LSTM decoding, single-shot prediction."""

from dataclasses import replace

import numpy as np
import pytest

from ttpp.baselines import (
    DecoderParams,
    conv1d_aggregate,
    conv1d_lengths,
    init_conv1d_params,
    init_lstm_decoder_params,
    init_lstm_params,
    init_ssp_params,
    lstm_decode,
    lstm_encode,
    ssp_rollout,
)
from ttpp.attention import init_ttm_params
from ttpp.model import AGGREGATORS, PREDICTORS, AnticipationModel, ModelConfig
from ttpp.prediction import init_ppm_params
from ttpp.tensor import Parameter, Tensor, glorot, grad_check, keep_mask


def zeroed(params):
    for p in params.parameters():
        p.value.data[:] = 0.0
    return params


def gate_blocks(params, d_in):
    """Per-gate (x weights, h weights, bias) in i, f, g, o order, cut from the fused layout."""
    w, b = params.w.value.data, params.b.value.data
    d_h = b.shape[0] // 4
    cols = [slice(k * d_h, (k + 1) * d_h) for k in range(4)]
    return [w[:d_in, c] for c in cols], [w[d_in:, c] for c in cols], [b[c] for c in cols]


class TestConv1D:
    def test_zero_weights_zero_biases_give_zero(self):
        # the stack contributes zero, so only the shortcut's last feature remains
        params = zeroed(init_conv1d_params(4, np.random.default_rng(0)))
        x = np.random.default_rng(1).normal(size=(8, 4))
        out = conv1d_aggregate(Tensor(x), params)
        np.testing.assert_array_equal(out.data, x[7:8])

    def test_lengths_reduce_eight_to_one(self):
        assert conv1d_lengths(8) == [4, 2, 1]
        rng = np.random.default_rng(2)
        out = conv1d_aggregate(Tensor(rng.normal(size=(8, 4))), init_conv1d_params(4, rng))
        assert out.shape == (1, 4)

    def test_against_sliding_window_oracle(self):
        rng = np.random.default_rng(3)
        d = 4
        params = init_conv1d_params(d, rng)
        x = rng.normal(size=(8, d))

        def conv_layer(inp, w, b):
            padded = np.concatenate([np.zeros((1, d)), inp, np.zeros((1, d))])
            out_len = (len(inp) + 2 - 3) // 2 + 1
            out = np.zeros((out_len, d))
            for j in range(out_len):
                window = padded[2 * j : 2 * j + 3].reshape(-1)
                out[j] = window @ w + b
            return out

        h = x
        for layer in range(3):
            h = conv_layer(h, params.weights[layer].value.data, params.biases[layer].value.data)
            if layer < 2:
                h = np.maximum(h, 0.0)
        expected = h + x[7:8]
        out = conv1d_aggregate(Tensor(x), params)
        np.testing.assert_allclose(out.data, expected, atol=1e-10)

    def test_incompatible_length_rejected(self):
        params = init_conv1d_params(4, np.random.default_rng(4))
        with pytest.raises(ValueError, match="reduce"):
            conv1d_aggregate(Tensor(np.zeros((11, 4))), params)

    def test_shortcut_adds_last_feature(self):
        # a zero last-layer weight leaves its bias as the stack's output
        rng = np.random.default_rng(5)
        params = init_conv1d_params(4, rng)
        params.weights[-1].value.data[:] = 0.0
        params.biases[-1].value.data[:] = rng.normal(size=4)
        x = rng.normal(size=(8, 4))
        out = conv1d_aggregate(Tensor(x), params)
        np.testing.assert_allclose(out.data, params.biases[-1].value.data + x[7:8], atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(6)
        params = init_conv1d_params(4, rng)
        x = rng.normal(size=(8, 4))
        cost = Tensor(rng.normal(size=(1, 4)))

        def loss(*tensors):
            return (conv1d_aggregate(Tensor(x), params) * cost).sum()

        assert grad_check(loss, [p.value for p in params.parameters()]) < 1e-4


class TestLSTMEncode:
    def test_zero_params_single_step_gives_zero(self):
        # the recurrence gives zero, so the summary is the shortcut's input row
        params = zeroed(init_lstm_params(4, 4, np.random.default_rng(7)))
        x = np.random.default_rng(8).normal(size=(1, 4))
        out = lstm_encode(Tensor(x), params)
        np.testing.assert_array_equal(out.data, x)

    def test_saturated_gates_ignore_inputs(self):
        # forget bias >> 0 and input bias << 0 freeze the cell at zero,
        # so the hidden state cannot depend on the inputs
        rng = np.random.default_rng(9)
        params = init_lstm_params(4, 4, rng)
        params.b.value.data[4:8] = 50.0  # forget gate block
        params.b.value.data[0:4] = -50.0  # input gate block
        xa = rng.normal(size=(5, 4))
        xb = rng.normal(size=(5, 4))
        a = lstm_encode(Tensor(xa), params).data - xa[4:5]
        b = lstm_encode(Tensor(xb), params).data - xb[4:5]
        np.testing.assert_allclose(a, b, atol=1e-12)
        np.testing.assert_allclose(a, np.zeros((1, 4)), atol=1e-12)

    def test_against_unrolled_oracle(self):
        rng = np.random.default_rng(10)
        d = 4
        params = init_lstm_params(d, d, rng)
        x = rng.normal(size=(4, d))

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h = np.zeros((1, d))
        c = np.zeros((1, d))
        wx, wh, b = gate_blocks(params, d)
        for t in range(4):
            xt = x[t : t + 1]
            i = sig(xt @ wx[0] + h @ wh[0] + b[0])
            f = sig(xt @ wx[1] + h @ wh[1] + b[1])
            cand = np.tanh(xt @ wx[2] + h @ wh[2] + b[2])
            o = sig(xt @ wx[3] + h @ wh[3] + b[3])
            c = f * c + i * cand
            h = o * np.tanh(c)
        out = lstm_encode(Tensor(x), params)
        np.testing.assert_allclose(out.data, h + x[3:4], atol=1e-10)

    def test_fused_init_stacks_per_gate_draws(self):
        # the fused matrix holds the same glorot draws, in the same rng
        # order, as an x and an h matrix per gate would
        d_in, d_h = 7, 4
        rng = np.random.default_rng(31)
        draws = [(glorot(rng, d_in, d_h), glorot(rng, d_h, d_h)) for _ in "ifgo"]
        params = init_lstm_params(d_in, d_h, np.random.default_rng(31), prefix="dec")
        wx, wh, b = gate_blocks(params, d_in)
        for k, (dx, dh) in enumerate(draws):
            np.testing.assert_array_equal(wx[k], dx)
            np.testing.assert_array_equal(wh[k], dh)
            np.testing.assert_array_equal(b[k], np.zeros(d_h))
        assert [p.name for p in params.parameters()] == ["dec.w", "dec.b"]

    def test_hidden_width_must_match_features(self):
        params = init_lstm_params(4, 6, np.random.default_rng(11))
        with pytest.raises(ValueError, match="lstm_step"):
            lstm_encode(Tensor(np.zeros((4, 4))), params)

    def test_gradient(self):
        rng = np.random.default_rng(12)
        params = init_lstm_params(4, 4, rng)
        x = rng.normal(size=(3, 4))
        cost = Tensor(rng.normal(size=(1, 4)))

        def loss(*tensors):
            return (lstm_encode(Tensor(x), params) * cost).sum()

        assert grad_check(loss, [p.value for p in params.parameters()]) < 1e-4


class TestLSTMDecode:
    def test_single_step_shapes(self):
        rng = np.random.default_rng(13)
        params = init_lstm_params(4 + 3, 4, rng)
        classifier = Parameter("c", rng.normal(size=(4, 3)))
        roll = lstm_decode(
            Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(1, 4))),
            DecoderParams(params, classifier), 1,
        )
        assert roll.features.shape == (1, 4)
        assert roll.probs.shape == (1, 3)

    def test_zero_params_make_steps_identical(self):
        rng = np.random.default_rng(14)
        params = zeroed(init_lstm_params(7, 4, rng))
        classifier = Parameter("c", np.zeros((4, 3)))
        roll = lstm_decode(
            Tensor(rng.normal(size=(1, 4))), Tensor(rng.normal(size=(1, 4))),
            DecoderParams(params, classifier), 4,
        )
        for step in range(1, 4):
            np.testing.assert_array_equal(roll.features.data[step], roll.features.data[0])

    def test_against_manual_unroll(self):
        rng = np.random.default_rng(15)
        d, c_n = 4, 3
        params = init_lstm_params(d + c_n, d, rng)
        classifier = Parameter("c", rng.normal(size=(d, c_n)))
        s = rng.normal(size=(1, d))
        f = rng.normal(size=(1, d))

        def np_classify(x):
            logits = x @ classifier.value.data
            e = np.exp(logits - logits.max(axis=-1, keepdims=True))
            return e / e.sum(axis=-1, keepdims=True)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        h, cc = s.copy(), np.zeros((1, d))
        x = np.concatenate([f, np_classify(f)], axis=-1)
        feats, probs = [], []
        wx, wh, b = gate_blocks(params, d + c_n)
        for _ in range(3):
            i = sig(x @ wx[0] + h @ wh[0] + b[0])
            ff = sig(x @ wx[1] + h @ wh[1] + b[1])
            cand = np.tanh(x @ wx[2] + h @ wh[2] + b[2])
            o = sig(x @ wx[3] + h @ wh[3] + b[3])
            cc = ff * cc + i * cand
            h = o * np.tanh(cc)
            p = np_classify(h)
            feats.append(h.copy())
            probs.append(p.copy())
            x = np.concatenate([h, p], axis=-1)
        roll = lstm_decode(Tensor(s), Tensor(f), DecoderParams(params, classifier), 3)
        np.testing.assert_allclose(roll.features.data, np.concatenate(feats), atol=1e-10)
        np.testing.assert_allclose(roll.probs.data, np.concatenate(probs), atol=1e-10)

    def test_decoder_init_draws_cell_then_classifier(self):
        params = init_lstm_decoder_params(4, 3, np.random.default_rng(30))
        rng = np.random.default_rng(30)
        cell = init_lstm_params(4 + 3, 4, rng, prefix="dec")
        classifier = glorot(rng, 4, 3)
        assert [p.name for p in params.parameters()] == ["dec.w", "dec.b", "dec.classifier"]
        np.testing.assert_array_equal(params.lstm.w.value.data, cell.w.value.data)
        np.testing.assert_array_equal(params.classifier.value.data, classifier)

    def test_gradient(self):
        rng = np.random.default_rng(16)
        params = init_lstm_params(7, 4, rng)
        classifier = Parameter("c", rng.normal(size=(4, 3)))
        s = Tensor(rng.normal(size=(1, 4)))
        f = Tensor(rng.normal(size=(1, 4)))
        cost = Tensor(rng.normal(size=(3, 3)))

        def loss(*tensors):
            roll = lstm_decode(s, f, DecoderParams(params, classifier), 3)
            return (roll.probs * cost).sum()

        tensors = [p.value for p in params.parameters()] + [classifier.value]
        assert grad_check(loss, tensors) < 1e-4


def ssp_loop_oracle(s, f, params, horizon, rng=None, rate=0.1):
    """numpy reference: one independent block call per horizon, in order.

    With an rng, each call draws its own (1, d_m) dropout mask, as the
    per-horizon loop did before the horizons were stacked.
    """
    block = params.block
    w_c = params.classifier.value.data

    def np_softmax(z):
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True)

    p_t = np_softmax(f @ w_c)
    feats, logits = [], []
    for tau in range(1, horizon + 1):
        tag = np.zeros((1, params.horizon))
        tag[0, tau - 1] = 1.0
        x = np.concatenate([s, f, p_t, tag], axis=-1)
        h = np.maximum(0.0, x @ block.fc1_w.value.data + block.fc1_b.value.data)
        y = h @ block.fc2_w.value.data + block.fc2_b.value.data
        mu = y.mean(axis=-1, keepdims=True)
        var = y.var(axis=-1, keepdims=True)
        y = (y - mu) / np.sqrt(var + 1e-5) * block.ln_gain.value.data + block.ln_bias.value.data
        if rng is not None:
            y = y * (rng.random(y.shape) >= rate) / (1.0 - rate)
        feats.append(y)
        logits.append(y @ w_c)
    return np.concatenate(feats), np.concatenate(logits)


class TestSSP:
    def test_horizon_tag_is_the_only_difference(self):
        rng = np.random.default_rng(17)
        params = init_ssp_params(4, 3, 4, rng)
        s = Tensor(rng.normal(size=(1, 4)))
        f = Tensor(rng.normal(size=(1, 4)))
        feats = ssp_rollout(s, f, params).features.data
        assert np.abs(feats[0] - feats[1]).max() > 0  # tags route through fc1
        # zeroing the tag columns of fc1 makes every horizon identical
        params.block.fc1_w.value.data[-4:, :] = 0.0
        feats = ssp_rollout(s, f, params).features.data
        np.testing.assert_array_equal(feats[0], feats[1])

    def test_zero_params_give_uniform(self):
        params = init_ssp_params(4, 3, 4, np.random.default_rng(18))
        for p in params.parameters():
            p.value.data[:] = 0.0
        rng = np.random.default_rng(19)
        s = Tensor(rng.normal(size=(1, 4)))
        f = Tensor(rng.normal(size=(1, 4)))
        roll = ssp_rollout(s, f, params)
        np.testing.assert_allclose(roll.probs.data, np.full((4, 3), 1 / 3), atol=1e-12)

    def test_horizons_independent_of_evaluation_order(self):
        # a shorter rollout is a prefix of a longer one: no row sees another.
        # The horizon-h predictor is the horizon-4 one without the fc1 rows
        # of tags h+1..4.
        rng = np.random.default_rng(20)
        params = init_ssp_params(4, 3, 4, rng)
        s = Tensor(rng.normal(size=(1, 4)))
        f = Tensor(rng.normal(size=(1, 4)))
        full = ssp_rollout(s, f, params).features.data
        fc1_w = params.block.fc1_w
        for horizon in (1, 2, 3):
            rows = fc1_w.value.data[: 2 * 4 + 3 + horizon]
            block = replace(params.block, fc1_w=Parameter(fc1_w.name, rows))
            shorter = replace(params, block=block, horizon=horizon)
            np.testing.assert_allclose(
                ssp_rollout(s, f, shorter).features.data, full[:horizon],
                rtol=0, atol=1e-12,
            )

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("train", [False, True])
    def test_rows_match_per_horizon_loop(self, seed, train):
        rng = np.random.default_rng(seed)
        params = init_ssp_params(6, 4, 5, rng)
        for p in params.parameters():  # nonzero biases and layer-norm terms
            p.value.data[:] = rng.normal(size=p.shape)
        s = rng.normal(size=(1, 6))
        f = rng.normal(size=(1, 6))

        def draws():
            return np.random.default_rng(100 + seed) if train else None

        roll = ssp_rollout(Tensor(s), Tensor(f), params, keep_mask(draws(), 0.3, (5, 6)))
        feats, logits = ssp_loop_oracle(s, f, params, 5, draws(), 0.3)
        np.testing.assert_allclose(roll.features.data, feats, rtol=0, atol=1e-12)
        np.testing.assert_allclose(roll.logits.data, logits, rtol=0, atol=1e-12)

    def test_gradient(self):
        rng = np.random.default_rng(22)
        params = init_ssp_params(4, 3, 3, rng)
        s = Tensor(rng.normal(size=(1, 4)))
        f = Tensor(rng.normal(size=(1, 4)))
        cost = Tensor(rng.normal(size=(3, 3)))

        def loss(*tensors):
            roll = ssp_rollout(s, f, params)
            return (roll.probs * cost).sum()

        assert grad_check(loss, [p.value for p in params.parameters()]) < 1e-4


class TestGridComposition:
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_every_pairing_composes(self, aggregator, predictor):
        cfg = ModelConfig(
            aggregator=aggregator,
            predictor=predictor,
            d_m=8,
            n_heads=2,
            n_classes=3,
            seq_len=8,
            horizon=3,
        )
        model = AnticipationModel(cfg, seed=0)
        roll, _ = model.anticipate(np.random.default_rng(23).normal(size=(8, 8)))
        assert roll.features.shape == (3, 8)
        assert roll.probs.shape == (3, 3)
        np.testing.assert_allclose(roll.probs.data.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_rng_at_dropout_zero_changes_nothing(self, aggregator, predictor):
        cfg = ModelConfig(aggregator=aggregator, predictor=predictor, d_m=8, n_heads=2,
                          n_classes=3, horizon=3, dropout=0.0)
        model = AnticipationModel(cfg, seed=0)
        window = np.random.default_rng(24).normal(size=(8, 8))
        plain, _ = model.anticipate(window)
        seeded, _ = model.anticipate(window, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(seeded.features.data, plain.features.data)
        np.testing.assert_array_equal(seeded.logits.data, plain.logits.data)

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("predictor, dropout, uniforms", [
        ("ppm", 0.1, 2 * 3 * 8), ("ssp", 0.1, 2 * 3 * 8), ("lstm", 0.1, 0),
        ("ppm", 0.0, 0), ("ssp", 0.0, 0),
    ])
    def test_a_taped_call_reads_one_mask_of_uniforms(self, aggregator, predictor, dropout,
                                                     uniforms):
        # B x H x d_m uniforms for the one dropout mask, and nothing else
        cfg = ModelConfig(aggregator=aggregator, predictor=predictor, d_m=8, n_heads=2,
                          n_classes=3, horizon=3, dropout=dropout)
        model = AnticipationModel(cfg, seed=0)
        rng = np.random.default_rng(6)
        roll, _ = model.anticipate(np.random.default_rng(25).normal(size=(2, 8, 8)), rng=rng)
        assert roll.features._parents
        fresh = np.random.default_rng(6)
        fresh.random(uniforms)
        assert rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_closed_form_count_matches_built_model(self, aggregator, predictor):
        cfg = ModelConfig(
            aggregator=aggregator,
            predictor=predictor,
            d_m=16,
            n_heads=4,
            n_classes=5,
            seq_len=8,
            horizon=6,
        )
        d, n = cfg.d_m, cfg.n_classes

        def block(in_dim):  # fc1, fc2, layer-norm gain and bias
            hidden = d // 2
            return in_dim * hidden + hidden + hidden * d + d + 2 * d

        def lstm(d_in):  # four gates over [x, h], plus their biases
            return 4 * d * (d_in + d + 1)

        agg = {
            "ttm": 4 * d * d,  # q, k, v and output projections, for any head count
            "conv1d": 3 * (3 * d * d + d),  # three kernel-3 layers with biases
            "lstm": lstm(d),
        }[aggregator]
        pred = {
            "ppm": 2 * block(2 * d + n) + d * n,
            "ssp": block(2 * d + n + cfg.horizon) + d * n,
            "lstm": lstm(d + n) + d * n,
        }[predictor]
        assert AnticipationModel(cfg, seed=1).param_count() == agg + pred

    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_listed_parameters_are_the_ones_the_forward_reads(
        self, aggregator, predictor, horizon
    ):
        # parameters() is what trains, checkpoints and counts: a parameter
        # the forward never reads gets no gradient and stops training
        cfg = ModelConfig(aggregator=aggregator, predictor=predictor, d_m=8, n_heads=2,
                          n_classes=3, horizon=horizon)
        model = AnticipationModel(cfg, seed=0)
        rng = np.random.default_rng(26)
        roll, _ = model.anticipate(rng.normal(size=(8, 8)))
        loss = (roll.features * Tensor(rng.normal(size=roll.features.shape))).sum() + (
            roll.logits * Tensor(rng.normal(size=roll.logits.shape))).sum()
        loss.backward()
        built = [*model.agg_params.parameters(), *model.pred_params.parameters()]
        reached = [p.name for p in built if p.value.grad is not None]
        assert [p.name for p in model.parameters()] == reached

    @pytest.mark.parametrize("d_m", [16, 64, 256])
    def test_transformer_stack_is_smaller_than_recurrent_stack(self, d_m):
        base = ModelConfig(d_m=d_m, n_heads=4, n_classes=5)
        ttpp = AnticipationModel(base).param_count()
        ed = AnticipationModel(replace(base, aggregator="lstm", predictor="lstm")).param_count()
        assert ttpp < ed

    def test_ttm_count_closed_form(self):
        # three d_m x d_m projections plus the output projection, whatever
        # the head count
        rng = np.random.default_rng(24)
        for n in (1, 2, 4):
            params = init_ttm_params(16, n, rng)
            assert sum(p.size for p in params.parameters()) == 4 * 16 * 16

    def test_ppm_count_closed_form(self):
        # two blocks (fc1, fc2, layer-norm gain and bias) over s (+) f (+) p,
        # plus the d_m x C classifier
        d, c, hidden = 16, 5, 8
        block = (2 * d + c) * hidden + hidden + hidden * d + d + 2 * d
        params = init_ppm_params(d, c, np.random.default_rng(25))
        assert sum(p.size for p in params.parameters()) == 2 * block + d * c
