"""Tensor engine and fused layers: forward semantics, backward passes, SGD."""

import warnings
from dataclasses import FrozenInstanceError, dataclass, fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

import chains
from chains import (add, concat, grad_check, log_softmax, lstm_window, matmul, mlp_norm, mul,
                    param_set, rebind, relu, reshape, softmax, take, tensor_sum, total,
                    weighted_sum)
from ttpp import baselines, prediction, tensor
from ttpp.attention import TTMParams, aggregate, positional_encoding
from ttpp.baselines import (Conv1DStack, DecoderParams, LSTMParams, SSPParams, conv1d_aggregate,
                            lstm_decode, lstm_encode, ssp_rollout)
from ttpp.data import FeatureSequence
from ttpp.model import (AGGREGATORS, PREDICTORS, AnticipationModel, ModelConfig, grid_configs,
                        load_checkpoint, save_checkpoint)
from ttpp.prediction import PPMParams, PredictionBlockParams, Rollout, rollout
from ttpp.tensor import (
    GradientError,
    Parameter,
    ParameterSet,
    ShapeError,
    Tensor,
    keep_mask,
    sgd_step,
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
        tensor_sum(matmul(a, b)).backward()
        assert a.grad.shape == (3, 4) and b.grad.shape == (4, 2)
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)
        np.testing.assert_allclose(b.grad, a.data.T @ np.ones((3, 2)))


class TestAccumulate:
    def test_first_gradient_is_taken_as_sent_and_a_later_one_added_out_of_place(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        first, second = np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.25, 0.125])
        t._accumulate(first)
        assert t.grad is first
        t._accumulate(second)
        assert t.grad.tolist() == [1.5, 2.25, 3.125]
        assert first.tolist() == [1.0, 2.0, 3.0]  # the sender's buffer is not written

    def test_a_gradient_sent_to_two_tensors_is_not_written_through_either(self):
        # add sends its one gradient array to both sides; a's second term must
        # not reach b through the shared buffer
        a, b = Tensor(np.ones(3), requires_grad=True), Tensor(np.ones(3), requires_grad=True)
        c = np.array([2.0, 3.0, 4.0])
        total(tensor_sum(add(a, b)), tensor_sum(mul(a, c))).backward()
        assert b.grad.tolist() == [1.0, 1.0, 1.0]
        assert a.grad.tolist() == [3.0, 4.0, 5.0]


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
        assert grad_check(lambda x, y: tensor_sum(matmul(x, y)), [a, b]) < 1e-6

    def test_softmax_sum_has_zero_gradient(self):
        # the row sums are constant 1, so the analytic gradient must be
        # the zero vector; finite differences only see rounding noise here
        x = Tensor(np.random.default_rng(10).normal(size=6), requires_grad=True)
        tensor_sum(softmax(x)).backward()
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
        cost3 = Tensor(rng.normal(size=(4, 3, 5)))
        cost_m = Tensor(rng.normal(size=(2, 4, 3)))
        gain = Tensor(rng.normal(size=5))
        bias = Tensor(rng.normal(size=5))
        dense = [Tensor(rng.normal(size=shape)) for shape in ((5, 3), (3,), (3, 5), (5,))]
        proj = [Tensor(rng.normal(size=(5, 5))) for _ in range(4)]
        ttm = param_set(TTMParams, *proj, 1, positional_encoding(4, 5))
        cost_a = Tensor(rng.normal(size=(1, 5)))
        cell = param_set(LSTMParams, *(Tensor(rng.normal(size=s)) for s in ((10, 20), (20,))))
        conv = param_set(Conv1DStack, [Tensor(rng.normal(size=(15, 5))) for _ in range(2)],
                         [Tensor(rng.normal(size=5)) for _ in range(2)])

        cases = {
            "matmul": lambda t: tensor_sum(matmul(t, Tensor(w))),
            "softmax": lambda t: weighted_sum(softmax(t), cost),
            "mlp_norm": lambda t: weighted_sum(mlp_norm(t, *dense, gain, bias), cost),
            "relu": lambda t: weighted_sum(relu(t), cost),
            "log_softmax": lambda t: weighted_sum(log_softmax(t), cost),
            "slice_concat": lambda t: total(
                tensor_sum(matmul(take(t, slice(1, 3)), Tensor(w))),
                weighted_sum(concat([take(t, slice(3, 4)), mul(take(t, slice(0, 1)), 2.0),
                                     take(t, slice(2, 3))], axis=0), cost.data[:3]),
                weighted_sum(concat([take(t, (slice(None), slice(3, None))),
                                     take(t, (slice(None), slice(None, 3)))], axis=-1), cost)),
            # split rows into groups, broadcast against a weight
            "reshape_3d_mul": lambda t: tensor_sum(mul(mul(reshape(t, (4, 1, 5)), w3), cost3)),
        }
        for name, f in cases.items():
            err = grad_check(f, [Tensor(rng.normal(size=(4, 5)))])
            assert err < 1e-4, f"{name}: {err}"
        # the aggregators send a window no gradient, so their parameters are
        # checked at a fixed 4-row window
        window = rng.normal(size=(4, 5))
        aggregators = {
            "aggregate": (lambda: aggregate(window, ttm)[0], ttm),
            "lstm_encode": (lambda: lstm_encode(window, cell), cell),
            "conv1d_aggregate": (lambda: conv1d_aggregate(window, conv), conv),
        }
        for name, (layer, params) in aggregators.items():
            err = grad_check(lambda *_: weighted_sum(layer(), cost_a), params.values)
            assert err < 1e-4, f"{name}: {err}"
        # a batched (2, 4, 5) operand times a shared (5, 3) weight, both gradients
        err = grad_check(
            lambda a, b: weighted_sum(matmul(a, b), cost_m),
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
            return weighted_sum(mlp_norm(t, *layers, gain, bias, keep), weights)

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
            loss = tensor_sum(mul(w, w))
            losses.append(float(loss.data))
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


def named(name: str) -> Parameter:
    return Parameter(name, np.zeros(2))


class TestParameterSet:
    def test_a_new_field_is_trained_and_checkpointed(self, tmp_path):
        """A field a container gains is listed with no hand-kept list to update."""

        @dataclass(frozen=True)
        class WithFeedForward(TTMParams):
            ffn: Parameter

        model = AnticipationModel(ModelConfig(), seed=0)
        kept = {f.name: getattr(model.agg_params, f.name) for f in fields(TTMParams)}
        model.agg_params = WithFeedForward(**kept, ffn=named("ttm.ffn"))
        names = [p.name for p in model.parameters()]
        assert names[:5] == ["ttm.q", "ttm.k", "ttm.v", "ttm.o", "ttm.ffn"]
        assert names[5:] == [p.name for p in model.pred_params.parameters()]
        save_checkpoint(model, tmp_path / "checkpoint.bin")
        _, state = load_checkpoint(tmp_path / "checkpoint.bin")
        assert list(state) == names

    def test_tuples_and_nested_sets_in_declaration_order(self):
        @dataclass(frozen=True)
        class Inner(ParameterSet):
            a: Parameter
            width: int  # not a Parameter: skipped

        @dataclass(frozen=True)
        class Outer(ParameterSet):
            layers: tuple
            inner: Inner
            last: Parameter

        outer = Outer((named("l0"), Inner(named("l1"), 3)), Inner(named("i"), 1), named("z"))
        params = outer.parameters()
        assert [p.name for p in params] == ["l0", "l1", "i", "z"]
        assert all(v is p.value for v, p in zip(outer.values, params, strict=True))
        assert outer.values is outer.values  # listed once

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_reassigning_a_field_raises(self, aggregator, predictor):
        """A swapped Parameter would train and checkpoint while a forward that
        already listed the set's tensors kept reading the old one."""
        model = AnticipationModel(ModelConfig(aggregator=aggregator, predictor=predictor))
        model.anticipate(np.zeros((8, 16)))
        for params in (model.agg_params, model.pred_params):
            for f in fields(params):
                with pytest.raises(FrozenInstanceError):
                    setattr(params, f.name, named(f"{f.name}.new"))

    @pytest.mark.parametrize("predictor", ["ppm", "ssp"])
    def test_listed_tensors_follow_the_weights(self, predictor):
        """`values` lists a set's tensors once; a model that ran a forward
        before `load_state` or `sgd_step` scores as a fresh model given the
        same weights, whose first forward lists them anew."""
        config = ModelConfig(predictor=predictor)
        window = np.random.default_rng(5).normal(size=(8, 16))

        def scores(model):
            roll, _ = model.anticipate(window)
            return roll.probs.data.tobytes()

        def fresh(weights_of):
            model = AnticipationModel(config, seed=0)
            model.load_state({p.name: p.value.data for p in weights_of.parameters()})
            return model

        model = AnticipationModel(config, seed=0)
        donor = AnticipationModel(config, seed=1)
        before = scores(model)
        model.load_state({p.name: p.value.data for p in donor.parameters()})
        assert scores(model) == scores(donor) != before
        roll, _ = model.anticipate(window)
        tensor_sum(roll.logits).backward()
        sgd_step(model.parameters(), lr=0.1)
        assert scores(model) == scores(fresh(model)) != scores(donor)

    @pytest.mark.parametrize("aggregator", AGGREGATORS)
    @pytest.mark.parametrize("predictor", PREDICTORS)
    def test_load_state_keeps_each_parameters_array(self, aggregator, predictor):
        """`load_state` copies into the array each parameter already holds, so
        the rows and checks a set cached at an earlier forward stay current:
        the loaded model anticipates as a fresh model that loaded the same
        state before its first forward."""
        config = ModelConfig(aggregator=aggregator, predictor=predictor)
        window = np.random.default_rng(6).normal(size=(8, 16))
        state = {p.name: p.value.data for p in AnticipationModel(config, seed=1).parameters()}

        def outputs(model):
            roll, _ = model.anticipate(window)
            return [a.data.tobytes() for a in (roll.features, roll.logits, roll.probs)]

        model = AnticipationModel(config, seed=0)
        before = outputs(model)
        arrays = [p.value.data for p in model.parameters()]
        model.load_state(state)
        assert all(p.value.data is a for p, a in zip(model.parameters(), arrays, strict=True))
        fresh = AnticipationModel(config, seed=0)
        fresh.load_state(state)
        assert outputs(model) == outputs(fresh) != before


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
        assert grad_check(lambda x, y: weighted_sum(matmul(x, y), cost), [a, b]) < 1e-6

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
            err = grad_check(lambda x, y: weighted_sum(op(x, y), cost), [a, b])
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


def attention_oracle(window, pe, wq, wk, wv, wo, n_heads, cost):
    """Output, weights and gradients of sum(out * cost), window by window and head by head."""
    lead = window.shape[:-2]
    t, d = window.shape[-2:]
    m, d_k = t - 1, d // n_heads
    x = window + pe
    out = np.zeros(lead + (1, d))
    weights = np.zeros(lead + (n_heads, m))
    grads = [np.zeros_like(a) for a in (window, wq, wk, wv, wo)]
    d_window, d_wq, d_wk, d_wv, d_wo = grads
    for idx in np.ndindex(*lead):
        row, mem, c = x[idx][m], x[idx][:m], cost[idx][0]
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
        out[idx][0] = heads @ wo + row
        d_wo += np.outer(heads, c)
        d_wq += np.outer(row, d_qv)
        d_window[idx][m] = wq @ d_qv + c
        d_wk += mem.T @ d_keys
        d_wv += mem.T @ d_vals
        d_window[idx][:m] = d_keys @ wk.T + d_vals @ wv.T
    return out, weights, grads


def query_attention(query, memory, wq, wk, wv, wo, n_heads):
    """Attention of a (..., 1, d) query row over a (..., M, d) memory as one
    node, in the arithmetic of `aggregate` before it took the whole TTM
    layer: the node `ttm_chain` wraps."""
    lead, (m, d) = memory.shape[:-2], memory.shape[-2:]
    d_k = d // n_heads
    swap = (*range(len(lead)), len(lead) + 1, len(lead))
    mem_rows, q_rows = memory.data.reshape(-1, d), query.data.reshape(-1, d)
    q = tensor._dot(q_rows, wq.data).reshape(lead + (1, n_heads, d_k))
    k = tensor._dot(mem_rows, wk.data).reshape(lead + (m, n_heads, d_k))
    v = tensor._dot(mem_rows, wv.data).reshape(lead + (m, n_heads, d_k))
    scale = 1.0 / np.sqrt(d)
    weights = tensor._softmax_data(np.add.reduce(k * q, axis=-1).transpose(swap) * scale)
    spread = weights.transpose(swap).reshape(lead + (m, n_heads, 1))
    heads = np.add.reduce(spread * v, axis=-3).reshape(lead + (1, d))
    data = tensor._dot(heads.reshape(-1, d), wo.data).reshape(lead + (1, d))

    def backward(g):
        rows = g.reshape(-1, d)
        wo._accumulate(tensor._dot(heads.reshape(-1, d).T, rows))
        g_heads = tensor._dot(rows, wo.data.T).reshape(lead + (1, n_heads, d_k))
        g_v = (spread * g_heads).reshape(-1, d)
        g_w = np.add.reduce(v * g_heads, axis=-1).transpose(swap)
        g_scores = np.expand_dims((tensor._softmax_grad(g_w, weights) * scale).transpose(swap),
                                  -1)
        g_k = (g_scores * q).reshape(-1, d)
        g_q = np.add.reduce(g_scores * k, axis=-3).reshape(-1, d)
        wv._accumulate(tensor._dot(mem_rows.T, g_v))
        wk._accumulate(tensor._dot(mem_rows.T, g_k))
        wq._accumulate(tensor._dot(q_rows.T, g_q))
        g_mem = tensor._dot(g_v, wv.data.T) + tensor._dot(g_k, wk.data.T)
        memory._accumulate(g_mem.reshape(memory.shape))
        query._accumulate(tensor._dot(g_q, wq.data.T).reshape(query.shape))

    return tensor._make(data, (query, memory, wq, wk, wv, wo), backward), weights


def ttm_chain(window, params):
    """The TTM layer as generic add and slice nodes around `query_attention`:
    the tape the fused `aggregate` replaces."""
    t = window.shape[-2]
    x = add(window, params.pe)
    query = take(x, (Ellipsis, slice(t - 1, t), slice(None)))
    memory = take(x, (Ellipsis, slice(None, t - 1), slice(None)))
    attended, weights = query_attention(query, memory, *params.values, params.n_heads)
    return add(attended, query), weights


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


def taped(op, arrays, cost, *extra, track_window=True):
    """Run `op` on fresh tensors, each tracked but the first, a window, only
    with `track_window`; returns its output and every input gradient."""
    tensors = [Tensor(a, requires_grad=track_window or i > 0) for i, a in enumerate(arrays)]
    result = op(*tensors, *extra)
    out = result[0] if isinstance(result, tuple) else result
    weighted_sum(out, cost).backward()
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
        # against the chain it replaces, forward and weights bit for bit, and
        # against the per-head oracle; the window enters the node as an array
        rng = np.random.default_rng(50 + n_heads)
        d, t = 8, 6
        shapes = [(*lead, t, d)] + [(d, d)] * 4
        arrays = [rng.normal(size=s) for s in shapes]
        pe = rng.normal(size=(t, d))
        cost = rng.normal(size=(*lead, 1, d))
        (out, weights), grads = taped(
            lambda window, *w: aggregate(window.data, param_set(TTMParams, *w, n_heads, pe)),
            arrays, cost, track_window=False)
        (chain_out, chain_weights), chain_grads = taped(
            lambda window, *w: ttm_chain(window, param_set(TTMParams, *w, n_heads, pe)), arrays,
            cost, track_window=False)
        np.testing.assert_array_equal(out.data, chain_out.data)
        np.testing.assert_array_equal(weights, chain_weights)
        expected, expected_weights, expected_grads = attention_oracle(arrays[0], pe, *arrays[1:],
                                                                      n_heads, cost)
        assert_close(out.data, expected, "forward")
        assert_close(weights, expected_weights, "weights")
        assert grads[0] is chain_grads[0] is None
        for name, got, want, oracle in zip(["wq", "wk", "wv", "wo"], grads[1:], chain_grads[1:],
                                           expected_grads[1:]):
            assert_close(got, want, name)
            assert_close(got, oracle, name)

    @pytest.mark.parametrize("lead", LEADS)
    def test_lstm_window(self, lead):
        rng = np.random.default_rng(60 + len(lead))
        d_in, d_h = 5, 3
        shapes = [(*lead, 1, d_in), (*lead, 1, 2 * d_h), (d_in + d_h, 4 * d_h), (4 * d_h,)]
        arrays = [rng.normal(size=s) for s in shapes]
        cost = rng.normal(size=(*lead, 1, 2 * d_h))
        out, grads = taped(lstm_window, arrays, cost)
        expected, expected_grads = lstm_oracle(*arrays, cost)
        assert_close(out.data, expected, "forward")
        for name, got, want in zip(["x", "state", "w", "b"], grads, expected_grads):
            assert_close(got, want, name)

    @pytest.mark.parametrize("lead", LEADS)
    def test_lstm_step(self, lead):
        # one row from the zero state: the cell's h plus the row (the shortcut)
        rng = np.random.default_rng(65 + len(lead))
        d = 4
        arrays = [rng.normal(size=s) for s in [(*lead, 1, d), (2 * d, 4 * d), (4 * d,)]]
        cost = rng.normal(size=(*lead, 1, d))
        out, grads = taped(lambda x, *cell: lstm_encode(x.data, param_set(LSTMParams, *cell)),
                           arrays, cost, track_window=False)
        state, cost_hc = np.zeros((*lead, 1, 2 * d)), np.concatenate([cost, 0 * cost], axis=-1)
        expected, (_, _, g_w, g_b) = lstm_oracle(arrays[0], state, *arrays[1:], cost_hc)
        assert_close(out.data, expected[..., :d] + arrays[0], "forward")
        assert grads[0] is None
        for name, got, want in zip(["w", "b"], grads[1:], [g_w, g_b]):
            assert_close(got, want, name)

    def test_shape_errors_name_the_operands(self):
        z = Tensor(np.zeros((2, 4)))
        with pytest.raises(ShapeError, match="mlp_norm"):
            mlp_norm(z, Tensor(np.zeros((3, 2))), *(Tensor(np.zeros(s)) for s in
                                                     ((2,), (2, 4), (4,), (4,), (4,))))
        for window_shape, pe_shape, n_heads in [
            ((3, 4), (2, 4), 2),  # a position table for another window length
            ((2, 3, 4), (3, 3), 2),  # or another width
            ((1, 4), (1, 4), 2),  # no memory
            ((4,), (4,), 2),  # no row axis
            ((3, 4), (3, 4), 0),  # no head
            ((3, 4), (3, 4), -2),  # a negative head count that divides d
        ]:
            with pytest.raises(ShapeError, match="aggregate"):
                aggregate(np.zeros(window_shape),
                          param_set(TTMParams, *[Tensor(np.eye(4))] * 4, n_heads,
                                    np.zeros(pe_shape)))
        for x_shape, w_shape, b_shape in [
            ((2, 4, 4), (10, 24), (24,)),  # a hidden width other than the input's
            ((2, 4, 4), (7, 16), (16,)),  # a weight for other input rows
            ((2, 4, 4), (8, 16), (4, 4)),  # a 2-D bias
            ((2, 0, 4), (8, 16), (16,)),  # an empty window
            ((4,), (8, 16), (16,)),  # x has no row axis
        ]:
            with pytest.raises(ShapeError, match="lstm_encode"):
                lstm_encode(np.zeros(x_shape),
                            param_set(LSTMParams, Tensor(np.zeros(w_shape)),
                                      Tensor(np.zeros(b_shape))))
        with pytest.raises(ShapeError, match="lstm_window"):
            lstm_window(Tensor(np.zeros((2, 4, 4))), Tensor(np.zeros((2, 6))),
                        Tensor(np.zeros((7, 12))), Tensor(np.zeros(12)))
        weights, biases = [Tensor(np.zeros((12, 4)))] * 2, [Tensor(np.zeros(4))] * 2
        for window_shape, n_biases, w_shape in [
            ((5, 4), 2, (12, 4)),  # two layers do not reach one row from five
            ((0, 4), 2, (12, 4)),  # an empty window
            ((4,), 2, (12, 4)),  # no row axis
            ((4, 4), 1, (12, 4)),  # a bias short
            ((4, 3), 2, (12, 4)),  # a weight for another width
        ]:
            with pytest.raises(ShapeError, match="conv1d_aggregate"):
                conv1d_aggregate(np.zeros(window_shape),
                                 param_set(Conv1DStack, [Tensor(np.zeros(w_shape))] * 2,
                                           biases[:n_biases]))
        with pytest.raises(ShapeError, match="conv1d_aggregate"):
            conv1d_aggregate(np.zeros((4, 4)),
                             param_set(Conv1DStack, weights, [Tensor(np.zeros(3))] * 2))

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("t", [1, 2, 5])
    def test_lstm_window_equals_chained_rows(self, lead, t):
        # forward bit for bit; gradients, the window's and the initial state's too
        rng = np.random.default_rng(70 + t)
        d_in, d_h = 4, 3
        shapes = [(*lead, t, d_in), (*lead, 1, 2 * d_h), (d_in + d_h, 4 * d_h), (4 * d_h,)]
        arrays = [rng.normal(size=s) for s in shapes]
        cost = rng.normal(size=(*lead, 1, 2 * d_h))

        def chained(x, state, w, b):
            for s in range(t):
                state = lstm_window(take(x, (Ellipsis, slice(s, s + 1), slice(None))), state, w, b)
            return state

        out, grads = taped(lstm_window, arrays, cost)
        want, want_grads = taped(chained, arrays, cost)
        np.testing.assert_array_equal(out.data, want.data)
        for name, got, expected in zip(["x", "state", "w", "b"], grads, want_grads):
            assert_close(got, expected, name)


batch_lead = st.lists(st.integers(1, 3), max_size=2)


def conv1d_kink(window, weights, biases):
    """The smallest |input| of any ReLU between conv1d's layers (inf under one layer)."""
    x, smallest = window.reshape(-1, *window.shape[-2:]), np.inf
    for layer, (w, b) in enumerate(zip(weights, biases)):
        if layer:
            smallest = min(smallest, np.abs(x).min())
            x = np.maximum(x, 0.0)
        pad = np.zeros((len(x), 1, x.shape[-1]))
        padded = np.concatenate([pad, x, pad], axis=1)
        out_len = (x.shape[1] + 1) // 2
        runs = padded[:, (2 * np.arange(out_len)[:, None] + np.arange(3)).ravel()]
        x = runs.reshape(len(x), out_len, -1) @ w.data + b.data
    return smallest


class TestFusedGradientProperties:
    """grad_check through each fused op at random leading batch shapes.

    The aggregators take their windows as arrays, as the model passes its
    observed windows. `tracked` False leaves `mlp_norm`'s input untracked: the
    node must then skip it and still give the weights their gradients.
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
            return weighted_sum(mlp_norm(x, *layers, keep), cost)

        assert grad_check(f, [x, *layers] if tracked else layers) < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(lead=batch_lead, t=st.integers(2, 5), n_heads=st.integers(1, 2),
           d_k=st.integers(1, 2), seed=st.integers(0, 2**16))
    def test_attention(self, lead, t, n_heads, d_k, seed):
        rng = np.random.default_rng(seed)
        d = n_heads * d_k
        window = rng.normal(size=(*lead, t, d))
        pe = rng.normal(size=(t, d))
        weights = [Tensor(rng.normal(size=(d, d))) for _ in range(4)]
        params = param_set(TTMParams, *weights, n_heads, pe)
        cost = Tensor(rng.normal(size=(*lead, 1, d)))

        def f(*_):
            return weighted_sum(aggregate(window, params)[0], cost)

        assert grad_check(f, weights) < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(lead=batch_lead, t=st.integers(1, 4), d=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_lstm_step(self, lead, t, d, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(*lead, t, d))
        w = Tensor(rng.normal(size=(2 * d, 4 * d)))
        b = Tensor(rng.normal(size=4 * d))
        cost = Tensor(rng.normal(size=(*lead, 1, d)))

        def f(*_):
            return weighted_sum(lstm_encode(x, param_set(LSTMParams, w, b)), cost)

        assert grad_check(f, [w, b]) < 1e-5

    @settings(max_examples=30, deadline=None)
    @given(lead=batch_lead, t=st.integers(1, 9), d=st.integers(1, 3), seed=st.integers(0, 2**16))
    def test_conv1d(self, lead, t, d, seed):
        rng = np.random.default_rng(seed)
        layers = max(1, (t - 1).bit_length())
        window = rng.normal(size=(*lead, t, d))
        weights = [Tensor(rng.normal(size=(3 * d, d))) for _ in range(layers)]
        biases = [Tensor(rng.normal(size=d)) for _ in range(layers)]
        cost = Tensor(rng.normal(size=(*lead, 1, d)))

        def f(*_):
            return weighted_sum(conv1d_aggregate(window, param_set(Conv1DStack, weights, biases)),
                                cost)

        # a central difference is no derivative within a step of a ReLU kink
        assume(conv1d_kink(window, weights, biases) > 1e-3)
        assert grad_check(f, weights + biases) < 1e-5


# ---- fused rollouts against chains of single-op nodes ---------------------


def predictor_inputs(arrays, tracked=False) -> list:
    """A predictor's inputs from what *_arrays drew: f_t, entry 1, as the
    array the fused layer takes, every other entry a Tensor, tracked with
    `tracked`."""
    return [a if i == 1 else Tensor(a, requires_grad=tracked) for i, a in enumerate(arrays)]


def on_array(op, i: int):
    """`op`, a fused layer, on its chain's arguments: argument i, the window
    or f_t that the chain takes as a Tensor, enters as that tensor's array."""

    def run(*args):
        return op(*args[:i], args[i].data, *args[i + 1 :])

    return run


def strided(a: np.ndarray) -> np.ndarray:
    """A non-contiguous view holding a's values, every other element of an
    array interleaved with NaN, so that a read past the view poisons the
    result."""
    view = np.stack([a, np.full_like(a, np.nan)], axis=-1)[..., 0]
    assert not view.flags.c_contiguous
    return view


LAYOUTS = {"input contiguous": np.asarray, "input strided": strided}


def ppm_chain(s_t, f_t, params, keep=None, inputs=None):
    """The PPM rollout as a chain of concat, mlp_norm, matmul and softmax nodes:
    the oracle of `rollout`. `inputs`, a list, receives each block input."""
    initial, progressive = params.initial.values, params.progressive.values
    classifier = params.classifier.value
    zero_slot = Tensor(np.zeros(s_t.shape))
    feat_in, p = f_t, softmax(matmul(f_t, classifier))
    features, logits = [], []
    for step in range(params.horizon):
        x = concat([s_t, feat_in, p], axis=-1)
        if inputs is not None:
            inputs.append(x.data)
        k = None if keep is None else keep[..., step : step + 1, :]
        f = mlp_norm(x, *(initial if step == 0 else progressive), k)
        z = matmul(f, classifier)
        p = softmax(z)
        features.append(f)
        logits.append(z)
        feat_in = f if params.feed_features else zero_slot
    return Rollout(concat(features, axis=-2), concat(logits, axis=-2))


def lstm_chain(s_t, f_t, params):
    """The LSTM decoder as a chain of lstm_window, take, matmul, softmax and
    concat nodes: the oracle of `lstm_decode`."""
    w, b, classifier = params.values
    d = s_t.shape[-1]
    state = concat([s_t, Tensor(np.zeros(s_t.shape))], axis=-1)
    x = concat([f_t, softmax(matmul(f_t, classifier))], axis=-1)
    features, logits = [], []
    for _ in range(params.horizon):
        state = lstm_window(x, state, w, b)
        h = take(state, (Ellipsis, slice(None, d)))
        z = matmul(h, classifier)
        features.append(h)
        logits.append(z)
        x = concat([h, softmax(z)], axis=-1)
    return Rollout(concat(features, axis=-2), concat(logits, axis=-2))


def ppm_arrays(rng, lead, d=4, n_classes=3):
    """s_t, f_t, the initial and progressive blocks (six arrays each), the classifier."""
    width, m = 2 * d + n_classes, d // 2
    shapes = [(*lead, 1, d)] * 2 + [(width, m), (m,), (m, d), (d,), (d,), (d,)] * 2
    return [rng.normal(size=s) for s in shapes + [(d, n_classes)]]


def ppm_rollout_case(lead, horizon, d, n_classes, feed_features, dropout, tracked, seed):
    """A drawn PPM rollout: the scalar loss f, the tensors to check, the smallest
    |pre-activation| of any block's ReLU and the smallest RMS of any step's
    centred fc2 output (the spread its layer norm divides by)."""
    rng = np.random.default_rng(seed)
    t = predictor_inputs(ppm_arrays(rng, lead, d, n_classes))
    keep = (rng.random((*lead, horizon, d)) >= 0.3) / 0.7 if dropout else None
    inputs = []
    ppm_chain(*ppm_args([t[0], Tensor(t[1]), *t[2:]], horizon, keep, feed_features),
              inputs=inputs)
    blocks = [[a.data for a in t[2:6]]] + [[a.data for a in t[8:12]]] * (horizon - 1)
    pre = [x @ w1 + b1 for x, (w1, b1, _, _) in zip(inputs, blocks)]
    fc2 = [np.maximum(p, 0.0) @ w2 + b2 for p, (_, _, w2, b2) in zip(pre, blocks)]
    spread = min(y.std(axis=-1).min() for y in fc2)
    costs = [Tensor(rng.normal(size=(*lead, horizon, n))) for n in (d, n_classes)]

    def f(*_):
        roll = rollout(*ppm_args(t, horizon, keep, feed_features))
        return total(weighted_sum(roll.features, costs[0]), weighted_sum(roll.logits, costs[1]))

    used = t if horizon > 1 else t[:8] + t[14:]
    checked = [used[0], *used[2:]] if tracked else used[2:]  # f_t is an array
    return f, checked, min(np.abs(p).min() for p in pre), spread


def lstm_arrays(rng, lead, d=4, n_classes=3):
    """s_t, f_t, the cell weight and bias, the classifier."""
    shapes = [(*lead, 1, d)] * 2 + [(2 * d + n_classes, 4 * d), (4 * d,), (d, n_classes)]
    return [rng.normal(size=s) for s in shapes]


def ssp_arrays(rng, lead, d=4, n_classes=3, horizon=3):
    """s_t, f_t, the block (six arrays), the classifier."""
    width, m = 2 * d + n_classes + horizon, d // 2
    shapes = [(*lead, 1, d)] * 2 + [(width, m), (m,), (m, d), (d,), (d,), (d,), (d, n_classes)]
    return [rng.normal(size=s) for s in shapes]


# Each *_args turns the list of tensors *_arrays drew into the arguments of
# the layer, and of its chain: s_t, f_t and a parameter set around the rest.


def ssp_args(t, horizon, keep=None):
    block = param_set(PredictionBlockParams, *t[2:8])
    return (t[0], t[1], param_set(SSPParams, block, t[8], horizon), keep)


def ppm_args(t, horizon, keep=None, feed_features=True):
    initial, progressive = (param_set(PredictionBlockParams, *b) for b in (t[2:8], t[8:14]))
    return (t[0], t[1], param_set(PPMParams, initial, progressive, t[14], horizon, feed_features),
            keep)


def lstm_args(t, horizon):
    cell = param_set(LSTMParams, t[2], t[3])
    return (t[0], t[1], param_set(DecoderParams, cell, t[4], horizon))


def outputs(result) -> tuple:
    """A layer's output tensors: a rollout's features and logits, or its one node."""
    if isinstance(result, Rollout):
        return result.features, result.logits
    return result if isinstance(result, tuple) else (result,)


def rollout_grads(op, args_of, arrays, costs):
    """Features, logits and every input gradient of sum(features * cost_f)
    + sum(logits * cost_z); a cost of None leaves that output out of the loss.
    Every input but f_t, which a fused predictor takes as an array, is tracked."""
    tensors = [Tensor(a, requires_grad=i != 1) for i, a in enumerate(arrays)]
    features, logits = outputs(op(*args_of(tensors)))
    total(*(weighted_sum(out, c) for out, c in zip((features, logits), costs)
            if c is not None)).backward()
    return features.data, logits.data, [t.grad for t in tensors]


def assert_rollouts_agree(fused, chain):
    """Forward bit for bit, every gradient within 1e-12 (None where the chain sent none)."""
    np.testing.assert_array_equal(fused[0], chain[0])
    np.testing.assert_array_equal(fused[1], chain[1])
    for i, (got, want) in enumerate(zip(fused[2], chain[2])):
        if want is None:
            assert got is None, f"input {i} got a gradient the chain never sent"
        else:
            assert_close(got, want, f"input {i}")


# which outputs the loss reads; "lam 0" leaves the features node without a
# gradient, and a fused rollout refuses "features only", which no loss is
LOSSES = {"both": (True, True), "lam 0": (False, True), "features only": (True, False)}
FEATURES_ONLY = "rollout's features but not its logits"


class TestRolloutOpsMatchChains:
    """Each fused rollout against the chain of single-op nodes that computes the same."""

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("feed_features", [True, False])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("loss", LOSSES)
    def test_ppm_rollout(self, lead, horizon, feed_features, dropout, loss):
        rng = np.random.default_rng(70 + horizon + len(lead))
        arrays = ppm_arrays(rng, lead)
        keep = (rng.random((*lead, horizon, 4)) >= 0.3) / 0.7 if dropout else None
        costs = [rng.normal(size=(*lead, horizon, n)) if used else None
                 for n, used in zip((4, 3), LOSSES[loss])]

        def args_of(t):
            return ppm_args(t, horizon, keep, feed_features)

        if loss == "features only":
            with pytest.raises(GradientError, match=FEATURES_ONLY):
                rollout_grads(on_array(rollout, 1), args_of, arrays, costs)
            return
        fused = rollout_grads(on_array(rollout, 1), args_of, arrays, costs)
        assert_rollouts_agree(fused, rollout_grads(ppm_chain, args_of, arrays, costs))
        if horizon == 1:  # the progressive block is never touched
            assert all(g is None for g in fused[2][8:14])

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("horizon", [1, 3])
    @pytest.mark.parametrize("loss", LOSSES)
    def test_lstm_rollout(self, lead, horizon, loss):
        rng = np.random.default_rng(80 + horizon + len(lead))
        arrays = lstm_arrays(rng, lead)
        costs = [rng.normal(size=(*lead, horizon, n)) if used else None
                 for n, used in zip((4, 3), LOSSES[loss])]

        def args_of(t):
            return lstm_args(t, horizon)

        if loss == "features only":
            with pytest.raises(GradientError, match=FEATURES_ONLY):
                rollout_grads(on_array(lstm_decode, 1), args_of, arrays, costs)
            return
        fused = rollout_grads(on_array(lstm_decode, 1), args_of, arrays, costs)
        assert_rollouts_agree(fused, rollout_grads(lstm_chain, args_of, arrays, costs))

    @pytest.mark.parametrize("op, arrays_of, args_of", [
        (rollout, ppm_arrays, ppm_args), (lstm_decode, lstm_arrays, lstm_args),
    ])
    def test_every_forward_attaches_its_backward_over_tracked_inputs(self, op, arrays_of,
                                                                     args_of):
        arrays = arrays_of(np.random.default_rng(90), (2,))
        features, logits = outputs(op(*args_of(predictor_inputs(arrays, tracked=True), 4)))
        again = outputs(op(*args_of(predictor_inputs(arrays, tracked=True), 4)))
        assert features._parents and logits._parents == (features,)
        assert features._backward is not None and logits._backward is not None
        np.testing.assert_array_equal(again[0].data, features.data)
        np.testing.assert_array_equal(again[1].data, logits.data)
        # over untracked inputs `_make` finds no parent to link: the same
        # values, and no backward
        plain = outputs(op(*args_of(predictor_inputs(arrays), 4)))
        assert not plain[0]._parents and not plain[1]._parents
        assert plain[0]._backward is None and plain[1]._backward is None
        np.testing.assert_array_equal(plain[0].data, features.data)
        np.testing.assert_array_equal(plain[1].data, logits.data)

    def test_shape_errors(self):
        t = predictor_inputs(ppm_arrays(np.random.default_rng(91), (2,)))
        with pytest.raises(ShapeError, match="keep mask"):
            rollout(*ppm_args(t, 3, np.ones((2, 2, 4))))
        with pytest.raises(ShapeError, match="keep mask"):
            rollout(*ppm_args(t, 3, np.ones((3, 4))))
        with pytest.raises(ShapeError, match="^rollout: s_t"):
            rollout(*ppm_args([t[0], t[1][0], *t[2:]], 3))
        with pytest.raises(ShapeError, match="extent"):
            rollout(*ppm_args([*t[:8], Tensor(t[2].data[:-1]), *t[9:]], 3))
        wider = [Tensor(np.ones(s)) for s in [(11, 3), (3,), (3, 4), (4,), (4,), (4,)]]
        with pytest.raises(ShapeError, match="hidden and output widths"):
            rollout(*ppm_args([*t[:8], *wider, t[14]], 3))  # the steps share one stack
        with pytest.raises(ValueError, match="horizon"):
            rollout(*ppm_args(t, 0))
        c = predictor_inputs(lstm_arrays(np.random.default_rng(92), (2,)))
        with pytest.raises(ShapeError, match="lstm_decode"):
            lstm_decode(*lstm_args([c[0], c[1], Tensor(c[2].data[1:]), c[3], c[4]], 3))
        with pytest.raises(ShapeError, match="lstm_decode"):
            lstm_decode(*lstm_args([*c[:4], Tensor(np.zeros((5, 3)))], 3))
        with pytest.raises(ValueError, match="horizon"):
            lstm_decode(*lstm_args(c, 0))
        s = predictor_inputs(ssp_arrays(np.random.default_rng(93), (2,)))
        with pytest.raises(ShapeError, match="ssp_rollout: keep mask"):
            ssp_rollout(*ssp_args(s, 3, np.ones((2, 2, 4))))
        with pytest.raises(ShapeError, match="ssp_rollout"):
            ssp_rollout(*ssp_args([s[0], s[1][0], *s[2:]], 3))
        with pytest.raises(ShapeError, match="ssp_rollout.*extent"):
            ssp_rollout(*ssp_args(s, 2))  # the block was built for three tags
        narrow = [Tensor(np.ones(sh)) for sh in [(14, 2), (2,), (2, 3), (3,), (3,), (3,)]]
        with pytest.raises(ShapeError, match="ssp_rollout: block output width 3"):
            ssp_rollout(*ssp_args([*s[:2], *narrow, s[8]], 3))
        with pytest.raises(ValueError, match="horizon"):
            ssp_rollout(*ssp_args(s, 0))

    def test_a_set_checks_and_builds_its_rows_once_and_a_refused_set_at_every_call(self):
        rng = np.random.default_rng(94)
        t = predictor_inputs(ppm_arrays(rng, (2,)))
        c = predictor_inputs(lstm_arrays(rng, (2,)))
        s = predictor_inputs(ssp_arrays(rng, (2,)))
        wider = [Tensor(np.ones(sh)) for sh in [(11, 3), (3,), (3, 4), (4,), (4,), (4,)]]
        narrow = [Tensor(np.ones(sh)) for sh in [(14, 2), (2,), (2, 3), (3,), (3,), (3,)]]
        for op, good, bad, cached, message in (
            (rollout, ppm_args(t, 3), ppm_args([*t[:8], *wider, t[14]], 3), "step_data",
             "^rollout: the blocks' hidden and output widths"),
            (lstm_decode, lstm_args(c, 3), lstm_args([*c[:3], Tensor(c[3].data[1:]), c[4]], 3),
             "cell", r"^lstm_decode: weight \(11, 16\) and bias \(15,\)"),
            (ssp_rollout, ssp_args(s, 3), ssp_args([*s[:2], *narrow, s[8]], 3), "block_data",
             "^ssp_rollout: block output width 3"),
        ):
            for _ in range(2):
                with pytest.raises(ShapeError, match=message):
                    op(*bad)
            assert cached not in vars(bad[2])
            first = op(*good)
            rows = getattr(good[2], cached)
            assert op(*good).logits.data.tobytes() == first.logits.data.tobytes()
            assert getattr(good[2], cached) is rows


def bytes_of(op, arrays, args_of, costs, tracked):
    """The op's outputs and the gradient of every input (None where none
    came) from sum(output_i * cost_i), skipping a cost of None; input i is
    tracked where `tracked[i]` is."""
    tensors = [Tensor(a, requires_grad=r) for a, r in zip(arrays, tracked, strict=True)]
    outs = outputs(op(*args_of(tensors)))
    total(*(weighted_sum(out, c) for out, c in zip(outs, costs) if c is not None)).backward()
    return [out.data for out in outs] + [t.grad for t in tensors]


def assert_same_bytes(fused, chain):
    assert len(fused) == len(chain)
    for i, (got, want) in enumerate(zip(fused, chain)):
        if want is None:
            assert got is None, f"array {i} got a gradient the chain never sent"
        else:
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), f"array {i}"


def assert_node_matches_chain(op, chain, arrays, args_of, costs, tracked, refusal=None):
    """The node and its chain give the same bytes; or, given a `refusal`,
    the node refuses the misuse with that message, where the chain ran on."""
    if refusal:
        with pytest.raises(GradientError, match=refusal):
            bytes_of(op, arrays, args_of, costs, tracked)
    else:
        assert_same_bytes(bytes_of(op, arrays, args_of, costs, tracked),
                          bytes_of(chain, arrays, args_of, costs, tracked))


class TestLayerNodesMatchChains:
    """conv1d, the LSTM encoder and the single-shot predictor, each one node,
    against the chain of generic nodes it replaced: the outputs and every
    gradient equal by bytes. The node takes the observed window or the last
    feature as an array, the chain as an untracked Tensor over that same
    array, and neither sends it a gradient. The array is contiguous or a
    strided view: the node reads a view in place, as the chain does, and
    `anticipate` passes views (f_t is the last step of its window)."""

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("t", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_conv1d(self, lead, t, layout):
        rng = np.random.default_rng(110 + t)
        d, layers = 4, (t - 1).bit_length()  # 1 to 4 layers
        shapes = [(*lead, t, d)] + [(3 * d, d)] * layers + [(d,)] * layers
        arrays = [rng.normal(size=s) for s in shapes]
        arrays[0] = LAYOUTS[layout](arrays[0])
        costs = [rng.normal(size=(*lead, 1, d))]
        flags = [False] + [True] * 2 * layers

        def args_of(ts):
            return ts[0], param_set(Conv1DStack, ts[1 : 1 + layers], ts[1 + layers :])

        assert_node_matches_chain(on_array(conv1d_aggregate, 0), chains.conv1d_chain, arrays,
                                  args_of, costs, flags)

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("t", [1, 2, 5, 8])
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_lstm_step(self, lead, t, layout):
        rng = np.random.default_rng(120 + t)
        d = 4
        arrays = [rng.normal(size=s) for s in [(*lead, t, d), (2 * d, 4 * d), (4 * d,)]]
        arrays[0] = LAYOUTS[layout](arrays[0])
        costs = [rng.normal(size=(*lead, 1, d))]

        def args_of(ts):
            return ts[0], param_set(LSTMParams, *ts[1:])

        assert_node_matches_chain(on_array(lstm_encode, 0), chains.encoder_chain, arrays, args_of,
                                  costs, [False, True, True])

    @pytest.mark.parametrize("lead", LEADS)
    @pytest.mark.parametrize("horizon", [1, 5])
    @pytest.mark.parametrize("dropout", [False, True])
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("loss", LOSSES)
    def test_ssp_rollout(self, lead, horizon, dropout, layout, loss):
        rng = np.random.default_rng(130 + horizon + len(lead))
        arrays = ssp_arrays(rng, lead, horizon=horizon)
        arrays[1] = LAYOUTS[layout](arrays[1])
        keep = (rng.random((*lead, horizon, 4)) >= 0.3) / 0.7 if dropout else None
        costs = [rng.normal(size=(*lead, horizon, n)) if used else None
                 for n, used in zip((4, 3), LOSSES[loss])]
        flags = [True, False] + [True] * 7  # s_t and f_t, then the parameters
        refusal = FEATURES_ONLY if loss == "features only" else None

        def args_of(ts):
            return ssp_args(ts, horizon, keep)

        assert_node_matches_chain(on_array(ssp_rollout, 1), chains.ssp_chain, arrays, args_of,
                                  costs, flags, refusal)


class TestRolloutGradientProperties:
    """grad_check through the fused rollouts, and batched rows against one-window calls.

    f_t is an array, as the model's last observed feature is. `tracked`
    False leaves s_t untracked: the node must then skip it and still
    give the weights their gradients.
    """

    @settings(max_examples=25, deadline=None)
    @given(lead=batch_lead, horizon=st.integers(1, 3), d=st.sampled_from([2, 4]),
           n_classes=st.integers(2, 3), feed_features=st.booleans(), dropout=st.booleans(),
           tracked=st.booleans(), seed=st.integers(0, 2**16))
    def test_ppm_rollout(self, lead, horizon, d, n_classes, feed_features, dropout, tracked,
                         seed):
        f, checked, kink, spread = ppm_rollout_case(lead, horizon, d, n_classes, feed_features,
                                                    dropout, tracked, seed)
        # a central difference is no derivative within a step of a ReLU kink,
        assume(kink > 1e-3)
        # and its truncation error grows where a layer norm's spread nears sqrt(eps)
        assume(spread > 0.05)
        assert grad_check(f, checked) < 1e-5

    @pytest.mark.parametrize("case", [
        ([3, 3], 2, 2, 3, True, False, False, 166),
        ([2, 3], 2, 2, 3, False, True, False, 26809),
    ])
    def test_a_narrow_layer_norm_spread_gives_truncation_error(self, case):
        # drawn cases that failed the 1e-5 bound: their error falls with the
        # step squared, so it is the central difference's, not the gradient's
        f, checked, _, spread = ppm_rollout_case(*case)
        assert spread < 0.05
        assert 50 * grad_check(f, checked, step=1e-6) <= grad_check(f, checked, step=1e-5)

    @settings(max_examples=25, deadline=None)
    @given(lead=batch_lead, horizon=st.integers(1, 3), d=st.integers(1, 3),
           n_classes=st.integers(2, 3), tracked=st.booleans(), seed=st.integers(0, 2**16))
    def test_lstm_rollout(self, lead, horizon, d, n_classes, tracked, seed):
        rng = np.random.default_rng(seed)
        t = predictor_inputs(lstm_arrays(rng, lead, d, n_classes))
        costs = [Tensor(rng.normal(size=(*lead, horizon, n))) for n in (d, n_classes)]

        def f(*_):
            roll = lstm_decode(*lstm_args(t, horizon))
            return total(weighted_sum(roll.features, costs[0]),
                         weighted_sum(roll.logits, costs[1]))

        assert grad_check(f, [t[0], *t[2:]] if tracked else t[2:]) < 1e-5

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(1, 4), horizon=st.integers(1, 3), ppm=st.booleans(),
           dropout=st.booleans(), seed=st.integers(0, 2**16))
    def test_batched_row_equals_one_window_call(self, rows, horizon, ppm, dropout, seed):
        rng = np.random.default_rng(seed)
        arrays = (ppm_arrays if ppm else lstm_arrays)(rng, (rows,))
        keep = (rng.random((rows, horizon, 4)) >= 0.3) / 0.7 if dropout and ppm else None
        costs = [rng.normal(size=(rows, horizon, n)) for n in (4, 3)]

        def run(arrays, keep, costs):
            if ppm:
                return rollout_grads(on_array(rollout, 1), lambda t: ppm_args(t, horizon, keep),
                                     arrays, costs)
            return rollout_grads(on_array(lstm_decode, 1), lambda t: lstm_args(t, horizon),
                                 arrays, costs)

        batched = run(arrays, keep, costs)
        for b in range(rows):
            one = run([a[b] for a in arrays[:2]] + arrays[2:],
                      None if keep is None else keep[b], [c[b] for c in costs])
            for got, want in zip(batched[:2], one[:2]):
                assert_close(got[b], want, f"row {b}")
            assert_close(batched[2][0][b], one[2][0], f"row {b} s_t gradient")


PREDICTORS_BY_OP = {"rollout": (rollout, ppm_arrays, ppm_args),
                    "ssp_rollout": (ssp_rollout, ssp_arrays, ssp_args),
                    "lstm_decode": (lstm_decode, lstm_arrays, lstm_args)}


class TestRefusedGradients:
    """Every loss reads the logits, so the predictors run no backward for
    features whose logits no loss reached: that misuse fails by name
    instead of training on a gradient nobody sent."""

    @pytest.mark.parametrize("op", PREDICTORS_BY_OP)
    def test_a_loss_on_the_features_alone_is_refused(self, op):
        layer, arrays_of, args_of = PREDICTORS_BY_OP[op]
        t = predictor_inputs(arrays_of(np.random.default_rng(142), (2,)), tracked=True)
        roll = layer(*args_of(t, 3))
        with pytest.raises(GradientError, match="rollout's features but not its logits"):
            tensor_sum(roll.features).backward()

    @pytest.mark.parametrize("op", PREDICTORS_BY_OP)
    def test_probs_are_untaped_and_equal_the_chains_softmax(self, op):
        layer, arrays_of, args_of = PREDICTORS_BY_OP[op]
        t = predictor_inputs(arrays_of(np.random.default_rng(143), (2,)), tracked=True)
        roll = layer(*args_of(t, 3))
        assert roll.logits._parents and roll.probs._parents == ()
        assert roll.probs.data.tobytes() == softmax(roll.logits).data.tobytes()


# ---- the fused ops against the arithmetic of their plain numpy forms ------


def plain_block_forward(x, data, keep, out):
    """`prediction._block_forward` as `@`, 1-D bias broadcasting and 1.0 / np.sqrt,
    returning what the backward reads as its own arrays, inv_std a column."""
    w1, b1, w2, b2, gain, bias = data
    pre = x @ w1
    pre += b1
    hidden = np.maximum(pre, 0.0, out=pre)
    y = hidden @ w2
    y += b2
    n = y.shape[1]
    y -= np.add.reduce(y, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True) / n + 1e-5)
    xhat = y * inv_std
    out = np.multiply(xhat, gain, out=out)
    out += bias
    if keep is not None:
        out *= keep
    return out, (hidden, xhat, inv_std)


def plain_softmax_data(a, out=None):
    """`tensor._softmax_data` with keepdims max and sum over the last axis, at any row count."""
    e = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out)


def plain_cell_forward(xh, c, w, b, h_out):
    """`baselines._cell_forward` with `@`, a 1-D bias and the sigmoid 1.0 / (1.0 + exp(-pre))."""
    d_h = c.shape[1]
    pre = xh @ w
    pre += b
    gates = 1.0 / (1.0 + np.exp(-pre))
    cand = np.tanh(pre[:, 2 * d_h : 3 * d_h])
    c_new = gates[:, d_h : 2 * d_h] * c
    c_new += gates[:, :d_h] * cand
    tc = np.tanh(c_new)
    h = np.multiply(gates[:, 3 * d_h :], tc, out=h_out)
    return h, c_new, (c, gates, cand, tc)


def plain_cell_backward(gh, gc, cache, w):
    """`baselines._cell_backward` with `@` and Python-scalar left operands."""
    c, gates, cand, tc = cache
    d_h = c.shape[1]
    i, f, o = (gates[:, k * d_h : (k + 1) * d_h] for k in (0, 1, 3))
    gc = gh * o * (1.0 - tc * tc) if gc is None else gc + gh * o * (1.0 - tc * tc)
    dgate = np.concatenate([gc * cand, gc * c, gc * i, gh * tc], axis=-1)
    dpre = dgate * gates * (1.0 - gates)
    dpre[:, 2 * d_h : 3 * d_h] = dgate[:, 2 * d_h : 3 * d_h] * (1.0 - cand * cand)
    return dpre @ w.T, gc * f, dpre


def plain_weight_grad(x, g):
    """`tensor._weight_grad` as one `@` per step, added last step first."""
    total = x[-1].T @ g[-1]
    for s in reversed(range(len(x) - 1)):
        total += x[s].T @ g[s]
    return total


def plain_bias_grad(g):
    """`tensor._bias_grad` as one row sum per step, added last step first."""
    total = g[-1].sum(axis=0)
    for s in reversed(range(len(g) - 1)):
        total += g[s].sum(axis=0)
    return total


def outputs_and_grads(op, arrays, args_of, costs):
    """The op's output arrays and every input gradient of sum(output_i * cost_i),
    with every input tracked but an aggregator's window and a predictor's
    f_t, which enter as their arrays."""
    untracked = 0 if op in (conv1d_aggregate, lstm_encode) else 1
    tensors = [Tensor(a, requires_grad=i != untracked) for i, a in enumerate(arrays)]
    outs = outputs(on_array(op, untracked)(*args_of(tensors)))
    total(*(weighted_sum(out, cost) for out, cost in zip(outs, costs))).backward()
    return [out.data for out in outs] + [t.grad for t in tensors]


# the fast paths, each with its defining module and its plain form
PLAIN = {
    "_dot": (tensor, lambda a, b, out=None: np.matmul(a, b, out=out)),
    "_dot_contig": (tensor, lambda a, b: a @ b),
    "_row": (tensor, lambda t: t.data),
    "_softmax_data": (tensor, plain_softmax_data),
    "_block_forward": (prediction, plain_block_forward),
    "_cell_forward": (baselines, plain_cell_forward),
    "_cell_backward": (baselines, plain_cell_backward),
    "_weight_grad": (tensor, plain_weight_grad),
    "_bias_grad": (tensor, plain_bias_grad),
}
STACKED = {"_row", "_weight_grad", "_bias_grad"}  # what every layer below but conv1d runs


def ssp_case(rng, lead):
    horizon = 4
    keep = (rng.random((*lead, horizon, 16)) >= 0.1) / 0.9
    return (ssp_rollout, ssp_arrays(rng, lead, 16, 4, horizon),
            lambda t: ssp_args(t, horizon, keep),
            [rng.normal(size=(*lead, horizon, n)) for n in (16, 4)],
            STACKED | {"_dot", "_softmax_data", "_block_forward"})


def conv1d_case(rng, lead):
    t, d = 8, 16
    shapes = [(*lead, t, d)] + [(3 * d, d)] * 3 + [(d,)] * 3
    return (conv1d_aggregate, [rng.normal(size=s) for s in shapes],
            lambda ts: (ts[0], param_set(Conv1DStack, ts[1:4], ts[4:])),
            [rng.normal(size=(*lead, 1, d))], {"_dot", "_row"})


def ppm_case(rng, lead):
    horizon = 4
    keep = (rng.random((*lead, horizon, 16)) >= 0.1) / 0.9
    return (rollout, ppm_arrays(rng, lead, 16, 4), lambda t: ppm_args(t, horizon, keep),
            [rng.normal(size=(*lead, horizon, n)) for n in (16, 4)],
            STACKED | {"_dot", "_softmax_data", "_block_forward"})


def lstm_encode_case(rng, lead):
    t, d = 8, 16
    shapes = [(*lead, t, d), (2 * d, 4 * d), (4 * d,)]
    return (lstm_encode, [rng.normal(size=s) for s in shapes],
            lambda ts: (ts[0], param_set(LSTMParams, *ts[1:])), [rng.normal(size=(*lead, 1, d))],
            STACKED | {"_cell_forward", "_cell_backward"})  # its only products are the cell's


def lstm_decode_case(rng, lead):
    horizon = 4
    return (lstm_decode, lstm_arrays(rng, lead, 16, 4), lambda t: lstm_args(t, horizon),
            [rng.normal(size=(*lead, horizon, n)) for n in (16, 4)],
            STACKED | {"_dot", "_softmax_data", "_cell_forward", "_cell_backward"})


class TestFastPathsKeepTheBits:
    """Each fused op, forward and every gradient, equals by bytes the same op
    run with the plain numpy arithmetic its fast paths replace: `@` for
    `_dot`, 1-D biases broadcast over the rows, keepdims row statistics and
    1.0 / np.sqrt(...) in the layer norm, keepdims max and sum in the
    softmax, 1.0 / (1.0 + exp(-pre)) for the gates, and a parameter's
    gradient added step by step instead of one stacked product or sum.
    Each plain form is bound wherever a layer module imported the fast one,
    and each case names the fast paths its layer runs: those and only those
    plain forms must run, so no patch misses its call site.
    """

    @pytest.mark.parametrize("case", [ssp_case, ppm_case, lstm_encode_case, lstm_decode_case,
                                      conv1d_case])
    @pytest.mark.parametrize("lead", [(), (16,)], ids=["one row", "B rows"])
    def test_bytes_equal_plain_arithmetic(self, case, lead, monkeypatch):
        op, arrays, args_of, costs, uses = case(np.random.default_rng(100 + len(lead)), lead)
        fast = outputs_and_grads(op, arrays, args_of, costs)
        calls = {name: rebind(monkeypatch, module, name, plain)
                 for name, (module, plain) in PLAIN.items()}
        plain = outputs_and_grads(op, arrays, args_of, costs)
        assert {name for name, count in calls.items() if count[0]} == uses
        assert_same_bytes(fast, plain)


# rows at the edges of the one-row statistics: ties, signed zeros, +-700
# (exp's edge), values near overflow, infinities and NaN
edge_values = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 700.0, -700.0, 709.0, -745.0, 1.7e308, -1.7e308,
                     np.inf, -np.inf, np.nan]),
    st.floats(-1e3, 1e3),
)


def edge_row(width: int):
    return st.lists(edge_values, min_size=width, max_size=width).map(np.array)


def run_recording(fn, *args, **kwargs):
    """fn's result and the RuntimeWarnings it raised, in order."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    return result, [(w.category, str(w.message)) for w in caught]


class TestOneRowStatistics:
    """At one row, `_softmax_data` and the layer norm of `_block_forward`
    reduce the whole array and carry the layer norm's scalar tail on Python
    floats. Each must equal by bytes its keepdims form, on rows at the
    edges, and raise the same RuntimeWarnings."""

    @settings(max_examples=200, deadline=None)
    @given(row=st.integers(1, 6).flatmap(edge_row), two_d=st.booleans(), into=st.booleans())
    def test_softmax_equals_keepdims_form(self, row, two_d, into):
        a = row[None] if two_d else row
        # with `into`, each writes into a strided view, as a rollout's step row is
        outs = [np.full((3, a.shape[-1] + 2), 7.0)[1:2, 1:-1].reshape(a.shape) if into else None
                for _ in "ab"]
        got, got_warned = run_recording(tensor._softmax_data, a, out=outs[0])
        want, want_warned = run_recording(plain_softmax_data, a, out=outs[1])
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got_warned == want_warned
        if into:
            assert got is outs[0]

    @settings(max_examples=200, deadline=None)
    @given(b2=edge_row(8), seed=st.integers(0, 2**16), scale=st.sampled_from([0.0, 1.0, 1e150]),
           dropout=st.booleans(), into=st.booleans())
    def test_block_forward_equals_keepdims_form(self, b2, seed, scale, dropout, into):
        # the edge row enters as the second layer's bias, so the products stay
        # finite (`.dot` and `@` name an overflow apart) and, at scale 0, the
        # layer norm's input is that row exactly
        rng = np.random.default_rng(seed)
        x, w1, w2 = rng.normal(size=(1, 6)), rng.normal(size=(6, 4)), rng.normal(size=(4, 8))
        data = (w1, rng.normal(size=(1, 4)), w2 * scale, b2[None],
                rng.normal(size=(1, 8)), rng.normal(size=(1, 8)))
        keep = (rng.random((1, 8)) >= 0.5) / 0.5 if dropout else None
        # each returns (hidden, xhat, inv_std), which its caller keeps for the
        # backward: inv_std is a float at one row, with the bytes of the
        # keepdims form's (1, 1) column
        results = []
        for forward in (prediction._block_forward, plain_block_forward):
            out = np.full((1, 12), 7.0)[:, 2:10] if into else None
            (got, saved), warned = run_recording(forward, x, data, keep, out)
            results.append((got, warned, saved))
        (got, got_warned, got_saved), (want, want_warned, want_saved) = results
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert got_warned == want_warned
        assert [np.asarray(a).tobytes() for a in got_saved] == [a.tobytes() for a in want_saved]
        assert not any(np.shares_memory(a, got) for a in got_saved[:2])


class TestStackedParameterGradients:
    """A parameter's gradient over a fused op's steps is one stacked product
    (`_weight_grad`) or sum (`_bias_grad`), which must equal by bytes what
    the per-step sends gave: one `_dot` or row sum per step, accumulated
    into the gradient last step first. Widths are the model's: the PPM
    blocks' two layers, the LSTM cells' gates and the classifier."""

    @pytest.mark.parametrize("rows", [1, 16, 32])
    def test_equal_per_step_sends(self, rows):
        rng = np.random.default_rng(rows)
        for steps in (1, 7, 8):
            for k, n in ((36, 8), (8, 16), (32, 64), (36, 64), (16, 4)):
                x, g = rng.normal(size=(steps, rows, k)), rng.normal(size=(steps, rows, n))
                w, b = Tensor(np.zeros((k, n))), Tensor(np.zeros(n))
                for s in reversed(range(steps)):
                    w._accumulate(tensor._dot(x[s].T, g[s]))
                    b._accumulate(chains._unbroadcast(g[s], (n,)))
                assert tensor._weight_grad(x, g).tobytes() == w.grad.tobytes(), (steps, k, n)
                assert tensor._bias_grad(g).tobytes() == b.grad.tobytes(), (steps, k, n)

    @pytest.mark.parametrize("rows", [1, 16, 32])
    def test_strided_feature_columns_equal_per_step_sends(self, rows):
        # a PPM rollout that feeds its features forward keeps them in columns
        # d to 2d of its step buffer, so the classifier's factor is strided
        rng = np.random.default_rng(rows)
        buffer = rng.normal(size=(9, rows, 36))
        feats, gz = buffer[1:, :, 16:32], rng.normal(size=(8, rows, 4))
        assert rows == 1 or not feats[0].T.flags.forc  # `_dot` hands these to `@`
        wc = Tensor(np.zeros((16, 4)))
        for s in reversed(range(8)):
            wc._accumulate(tensor._dot(feats[s].T, gz[s]))
        assert tensor._weight_grad(feats, gz).tobytes() == wc.grad.tobytes()


class TestOneGradientPerParameter:
    """In one taped training batch (32 windows, horizon 8, dropout on) every
    parameter of the fused ops takes one `_accumulate`: one stacked product
    or sum per op call, not one per step or per term."""

    @pytest.mark.parametrize("aggregator, predictor, variant", [
        ("ttm", "ppm", "full"), ("ttm", "ppm", "no_feature"), ("ttm", "lstm", "full"),
        ("lstm", "ppm", "full"), ("lstm", "lstm", "full"), ("conv1d", "ppm", "full"),
        ("conv1d", "ssp", "full"), ("ttm", "ssp", "full"),
    ])
    def test_one_accumulate_per_parameter(self, aggregator, predictor, variant, monkeypatch):
        from ttpp.training import total_loss

        model = AnticipationModel(ModelConfig(aggregator=aggregator, predictor=predictor,
                                              ppm_variant=variant, horizon=8))
        rng = np.random.default_rng(0)
        observed, future = rng.normal(size=(32, 8, 16)), rng.normal(size=(32, 8, 16))
        labels = np.eye(4)[rng.integers(4, size=(32, 8))]
        roll, _ = model.anticipate(observed, rng=rng)
        loss, _, _ = total_loss(roll, labels, future, 1.0)
        sends = {}
        accumulate = Tensor._accumulate

        def counting(self, g):
            sends[id(self)] = sends.get(id(self), 0) + 1
            accumulate(self, g)

        monkeypatch.setattr(Tensor, "_accumulate", counting)
        loss.backward()
        assert {p.name: sends.get(id(p.value), 0) for p in model.parameters()} == {
            p.name: 1 for p in model.parameters()}


class TestReluAndGates:
    """The ReLU of the prediction block and the sigmoid gates of the LSTM cell at the edges."""

    def test_maximum_equals_where_on_non_nan_values(self):
        pre = np.array([-np.inf, -1e300, -5e-324, -0.0, 0.0, 5e-324, 1.0, 1e300, np.inf])
        got, want = np.maximum(pre, 0.0), np.where(pre > 0, pre, 0.0)
        assert got.tobytes() == want.tobytes()  # bit for bit, so no -0.0 either

    def test_nan_preactivation_propagates(self):
        # the ReLU passes a NaN pre-activation on, so the rows turn NaN
        eye = Tensor(np.eye(3))
        b1 = Tensor(np.array([0.0, np.nan, 0.0]))
        out = mlp_norm(Tensor(np.ones((2, 3))), eye, b1, eye, Tensor(np.zeros(3)),
                       Tensor(np.ones(3)), Tensor(np.zeros(3)))
        assert np.isnan(out.data).all()

    def test_saturated_gates_are_exactly_zero_without_a_warning(self):
        # pre-activations of -1000 overflow exp; the i and o gates must come out 0
        d = 3
        bias = Tensor(np.concatenate([np.full(d, -1000.0), np.full(d, 1000.0), np.zeros(d),
                                      np.full(d, -1000.0)]), requires_grad=True)
        state = Tensor(np.concatenate([np.zeros((1, d)), np.ones((1, d))], axis=-1),
                       requires_grad=True)
        w = Tensor(np.zeros((2 * d, 4 * d)), requires_grad=True)
        cost = Tensor(np.random.default_rng(93).normal(size=(1, 2 * d)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = lstm_window(Tensor(np.zeros((2, d))), state, w, bias)  # a 2-row window
            weighted_sum(out, cost).backward()
            # each row keeps c' = f c + i g = 1 exactly and gives h' = o tanh(c') = 0 exactly
            np.testing.assert_array_equal(out.data, [[0.0] * d + [1.0] * d])
            assert all(np.isfinite(t.grad).all() for t in (w, bias, state))
            w.grad = bias.grad = None
            out = lstm_encode(np.ones((2, d)), param_set(LSTMParams, w, bias))  # c' = 0 and h' = 0
            weighted_sum(out, cost.data[:, :d]).backward()
            np.testing.assert_array_equal(out.data, np.ones((1, d)))
            assert all(np.isfinite(t.grad).all() for t in (w, bias))
            bias.grad = None
            cell = param_set(LSTMParams, Tensor(np.zeros((2 * d + 2, 4 * d))), bias)
            roll = lstm_decode(Tensor(np.zeros((1, d))), np.zeros((1, d)),
                               param_set(DecoderParams, cell, Tensor(np.ones((d, 2))), 3))
            total(tensor_sum(roll.features), tensor_sum(roll.logits)).backward()
            np.testing.assert_array_equal(roll.features.data, 0.0)
            assert np.isfinite(bias.grad).all()


GRID = grid_configs(ModelConfig())


class TestTensorConstructions:
    """Tensors built per call at the default config, in each of the ten grid cells.

    Only what takes a gradient is a tensor: a window and the last feature
    enter the layers as arrays. A one-window anticipate builds 3: the
    aggregator's one node and the predictor's features node and its logits
    child. A scorer call adds the probs, and a training batch
    the loss. Splitting a fused layer or rollout back into single ops, or
    wrapping an input, raises a count.
    """

    @pytest.mark.parametrize("config", GRID, ids=[c.name for c in GRID])
    def test_three_per_window_and_four_per_score_and_batch(self, config, monkeypatch):
        from ttpp.training import total_loss

        model = AnticipationModel(config)
        rng = np.random.default_rng(0)
        window, seq = rng.normal(size=(8, 16)), FeatureSequence("v", rng.normal(size=(12, 16)),
                                                                np.zeros(12), 4)
        observed, future = rng.normal(size=(32, 8, 16)), rng.normal(size=(32, 8, 16))
        labels = np.eye(4)[rng.integers(4, size=(32, 8))]
        score, built, init = model.scorer(), [0], Tensor.__init__

        def counting(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        def count(call) -> int:
            built[0] = 0
            call()
            return built[0]

        monkeypatch.setattr(Tensor, "__init__", counting)
        assert count(lambda: model.anticipate(window)) == 3
        assert count(lambda: score(seq, 10)) == 4

        def batch():
            roll, _ = model.anticipate(observed, rng=rng)
            total_loss(roll, labels, future, 1.0)[0].backward()

        assert count(batch) == 4

    @pytest.mark.parametrize("config", GRID, ids=[c.name for c in GRID])
    def test_a_float32_or_nested_list_window_gives_the_bytes_of_its_float64_array(self, config):
        model = AnticipationModel(config)
        for shape in ((8, 16), (2, 8, 16)):
            window = np.random.default_rng(1).normal(size=shape).astype(np.float32)
            want = model.anticipate(window.astype(np.float64))[0]
            for given in (window, window.tolist()):
                got = model.anticipate(given)[0]
                assert got.features.data.tobytes() == want.features.data.tobytes()
                assert got.logits.data.tobytes() == want.logits.data.tobytes()

    @pytest.mark.parametrize("backward", [False, True], ids=["forward", "backward"])
    @pytest.mark.parametrize("cell", ["ttm-ppm", "lstm-lstm", "conv1d-ssp"])
    def test_a_fortran_ordered_or_transposed_window_gives_the_bytes_of_its_c_ordered_copy(
            self, cell, backward):
        # with `backward` each forward's logits are also backpropagated, and
        # every parameter's gradient keeps the bytes of the C-ordered run's
        aggregator, predictor = cell.split("-")
        model = AnticipationModel(ModelConfig(aggregator=aggregator, predictor=predictor))
        rng = np.random.default_rng(2)
        stack = np.asfortranarray(rng.normal(size=(16, 8, 16)))
        window = rng.normal(size=(16, 8)).T

        def run(observed):
            for p in model.parameters():
                p.value.grad = None
            roll, weights = model.anticipate(observed)
            if backward:
                weighted_sum(roll.logits, np.ones(roll.logits.shape)).backward()
            return roll, weights, [p.value.grad for p in model.parameters()]

        for given in (stack, window):
            assert not given.flags.c_contiguous
            want, want_weights, want_grads = run(given.copy(order="C"))
            got, got_weights, got_grads = run(given)
            assert got.features.data.tobytes() == want.features.data.tobytes()
            assert got.logits.data.tobytes() == want.logits.data.tobytes()
            if aggregator == "ttm":
                assert got_weights.tobytes() == want_weights.tobytes()
            for g, w in zip(got_grads, want_grads):
                if backward:
                    assert g is not None and g.tobytes() == w.tobytes()
                else:
                    assert g is None and w is None


def test_an_output_nobody_backpropagates_frees_its_graph():
    """Every op links its output to its tracked parents, and nothing else
    keeps the link: dropping the output frees each node it reached."""
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(4, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
    before = chains.live_tensors()
    hidden = relu(matmul(x, w))
    out = log_softmax(mul(hidden, hidden))
    assert out._parents and out._backward is not None
    assert chains.live_tensors() == before + 4
    del hidden, out
    assert chains.live_tensors() == before
    assert x.grad is None and w.grad is None


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
