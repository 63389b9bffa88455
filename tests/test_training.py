"""Losses and the training loop: values, determinism, divergence."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

import chains
from ttpp.data import gen_synthetic, make_samples, standard_synthetic_config
from ttpp.model import AnticipationModel, ModelConfig, grid_configs
from ttpp.prediction import Rollout
from ttpp.tensor import ShapeError, Tensor, sgd_step
from ttpp.training import (
    EpochStats,
    TrainConfig,
    TrainingDiverged,
    total_loss,
    train,
)


def losses(logits, labels, features=None, target=None, lam=1.0):
    """`total_loss` of one batch: (node, class loss, feature loss); the
    features and target default to a zero row per logits row."""
    if features is None:
        features = target = np.zeros(np.shape(logits)[:-1] + (1,))
    return total_loss(Rollout(Tensor(features), Tensor(logits)), labels, target, lam)


def feature_loss(pred, target):
    return losses(np.zeros(np.shape(pred)[:-1] + (2,)), np.zeros(np.shape(pred)[:-1] + (2,)),
                  pred, target)[2]


def class_loss(logits, labels):
    return losses(logits, labels)[1]


class TestFeatureLoss:
    def test_zero_on_identical(self):
        x = np.random.default_rng(0).normal(size=(4, 8))
        assert feature_loss(x, x) == 0.0

    def test_hand_case(self):
        pred = np.array([[1.0, 1.0]])
        target = np.array([[0.0, 0.0]])
        assert feature_loss(pred, target) == pytest.approx(2.0)

    def test_against_elementwise_oracle(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(3, 6))
        b = rng.normal(size=(3, 6))
        expected = 0.0
        for i in range(3):
            for j in range(6):
                expected += (a[i, j] - b[i, j]) ** 2
        assert feature_loss(a, b) == pytest.approx(expected, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match=r"target \(3, 2\) for features \(2, 3\)"):
            feature_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestClassLoss:
    def test_zero_when_correct_with_certainty(self):
        logits = np.array([[1000.0, 0.0], [0.0, 1000.0]])
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert class_loss(logits, labels) == 0.0

    def test_uniform_hand_case(self):
        logits = np.zeros((2, 4))
        labels = np.eye(4)[[0, 3]]
        assert class_loss(logits, labels) == pytest.approx(2 * np.log(4), abs=1e-12)

    def test_against_summation_oracle(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(5, 4))
        probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        labels = np.eye(4)[rng.integers(4, size=5)]
        expected = 0.0
        for i in range(5):
            for j in range(4):
                expected -= labels[i, j] * np.log(probs[i, j])
        assert class_loss(logits, labels) == pytest.approx(expected, abs=1e-10)

    def test_confident_miss_is_finite_and_keeps_its_gradient(self):
        # the true class's probability underflows to 0; the loss is the
        # logit margin and the gradient still pushes the true logit up
        logits = Tensor(np.array([[[0.0, 1000.0]]]), requires_grad=True)
        labels = np.array([[[1.0, 0.0]]])
        loss, l_c, _ = total_loss(Rollout(Tensor(np.zeros((1, 1, 1))), logits), labels,
                                  np.zeros((1, 1, 1)), 1.0)
        assert l_c == float(loss.data) == 1000.0
        loss.backward()
        np.testing.assert_array_equal(logits.grad, [[[-1.0, 1.0]]])

    def test_labels_of_another_shape_refused(self):
        # (4, 3) labels would broadcast over (2, 4, 3) logits
        with pytest.raises(ShapeError, match=r"labels \(4, 3\) for logits \(2, 4, 3\)"):
            losses(np.zeros((2, 4, 3)), np.eye(3)[[0, 1, 2, 0]])


class TestOneNodeLosses:
    """The batch loss is one node whose value, terms and gradients equal by
    bytes those of the chain it replaces: the two loss terms, their lam sum
    and the 1/B scale."""

    @staticmethod
    def batch_loss(loss_of, logits, labels, pred, target, lam=1.0):
        logits, pred = Tensor(logits, requires_grad=True), Tensor(pred, requires_grad=True)
        loss, l_c, l_r = loss_of(Rollout(pred, logits), labels, target, lam)
        loss.backward()
        return [np.float64(t if isinstance(t, float) else float(t.data)) for t in (l_c, l_r)] + [
            loss.data, logits.grad, pred.grad]

    @staticmethod
    def fused(roll, labels, target, lam):
        assert roll.features._parents == roll.logits._parents == ()
        return total_loss(roll, labels, target, lam)

    def assert_bytes_equal(self, logits, labels, pred, target, lam=1.0):
        fused = self.batch_loss(self.fused, logits, labels, pred, target, lam)
        chain = self.batch_loss(chains.loss_chain, logits, labels, pred, target, lam)
        for got, want in zip(fused, chain):
            if want is None:
                assert got is None
            else:
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
        return fused

    @pytest.mark.parametrize("miss", [False, True], ids=["drawn", "confident misses"])
    def test_bytes_equal_the_chain(self, miss):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(32, 8, 4)) * 3.0
        labels = np.eye(4)[rng.integers(4, size=(32, 8))]
        if miss:  # every true class far below another: its probability underflows to 0
            logits = np.where(labels == 1.0, -1000.0, logits)
        pred, target = rng.normal(size=(32, 8, 16)), rng.normal(size=(32, 8, 16))
        fused = self.assert_bytes_equal(logits, labels, pred, target)
        assert np.isfinite(fused[2]) and np.isfinite(fused[3]).all()

    @pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("batch", [1, 32])
    def test_bytes_equal_the_chain_at_each_lam_and_batch(self, lam, batch):
        rng = np.random.default_rng(6 + batch)
        logits = rng.normal(size=(batch, 8, 4)) * 3.0
        labels = np.eye(4)[rng.integers(4, size=(batch, 8))]
        pred, target = rng.normal(size=(batch, 8, 16)), rng.normal(size=(batch, 8, 16))
        fused = self.assert_bytes_equal(logits, labels, pred, target, lam)
        assert (fused[4] is None) == (lam == 0.0)  # at lam 0 the features get nothing


class TestTotalLoss:
    def test_lambda_zero_drops_reconstruction(self):
        loss, _, _ = losses(np.zeros((1, 1, 2)), [[[1.0, 0.0]]], np.ones((1, 1, 1)),
                            np.zeros((1, 1, 1)), 0.0)
        assert float(loss.data) == np.log(2)

    def test_lambda_one_plain_sum(self):
        loss, l_c, l_r = losses(np.zeros((1, 1, 2)), [[[1.0, 0.0]]], np.full((1, 1, 1), 0.5),
                                np.zeros((1, 1, 1)), 1.0)
        assert float(loss.data) == l_c + l_r == np.log(2) + 0.25

    def test_hand_case(self):
        # two windows: the sum of their losses over two
        loss, l_c, l_r = losses(np.zeros((2, 1, 2)), [[[1.0, 0.0]]] * 2, np.ones((2, 1, 1)),
                                np.zeros((2, 1, 1)), 2.0)
        assert (l_c, l_r) == (2 * np.log(2), 2.0)
        assert float(loss.data) == (l_c + 2.0 * l_r) * 0.5


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["lr", "lam"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_setting_refused_by_name(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and >= 0, got {value}"):
            TrainConfig(**{name: value})


def tiny_setup(seed=0, epochs=2, lam=1.0, lr=0.001):
    cfg = standard_synthetic_config(n_classes=3, d_m=8, seed=5, noise_sigma=0.2)
    seqs = gen_synthetic(cfg, 3, 16)
    samples = [s for q in seqs for s in make_samples(q, 8, 2)]
    mc = ModelConfig(d_m=8, n_heads=2, n_classes=3, seq_len=8, horizon=2, dropout=0.1)
    tc = TrainConfig(lr=lr, momentum=0.9, batch_size=8, epochs=epochs, lam=lam, seed=seed)
    return AnticipationModel(mc, seed=seed), samples, tc


def param_digest(model):
    h = hashlib.sha256()
    for p in model.parameters():
        h.update(p.value.data.tobytes())
    return h.hexdigest()


class TestTrain:
    def test_null_update_keeps_params(self):
        model, samples, tc = tiny_setup(epochs=1, lr=0.0)
        before = param_digest(model)
        history = train(model, samples, tc)
        assert len(history) == 1
        assert param_digest(model) == before

    def test_loss_decreases_on_small_task(self):
        model, samples, tc = tiny_setup(epochs=30)
        history = train(model, samples, tc)
        assert history[-1].total_loss < 0.6 * history[0].total_loss

    def test_identical_runs_are_bit_identical(self):
        run = []
        for _ in range(2):
            model, samples, tc = tiny_setup(seed=3, epochs=3)
            history = train(model, samples, tc)
            run.append((param_digest(model), [(h.total_loss, h.train_acc_h1) for h in history]))
        assert run[0] == run[1]

    def test_divergence_aborts_with_location(self):
        # the squared feature error roughly squares each epoch at this lr,
        # overflowing to inf within a handful of epochs
        model, samples, tc = tiny_setup(epochs=8, lr=1e18)
        with pytest.raises(TrainingDiverged, match=r"epoch \d+, batch \d+"):
            with np.errstate(all="ignore"):
                train(model, samples, tc)

    def test_empty_dataset_rejected(self):
        model, _, tc = tiny_setup()
        with pytest.raises(ValueError, match="empty"):
            train(model, [], tc)

    def test_wrong_sample_shape_rejected(self):
        model, samples, tc = tiny_setup()
        samples[0].observed = samples[0].observed[:, :4]
        with pytest.raises(ValueError, match="observed"):
            train(model, samples, tc)
        # every sample is checked, and the first bad one is named
        model, samples, tc = tiny_setup()
        samples[5].future_labels = samples[5].future_labels[:, :2]
        samples[7].observed = samples[7].observed[:4]
        with pytest.raises(ValueError, match=r"sample 5: future_labels shape \(2, 2\)"):
            train(model, samples, tc)

    def test_history_records_all_epochs(self):
        model, samples, tc = tiny_setup(epochs=4)
        history = train(model, samples, tc)
        assert [h.epoch for h in history] == [1, 2, 3, 4]
        for h in history:
            assert h.total_loss == pytest.approx(h.class_loss + tc.lam * h.feature_loss)
            assert 0.0 <= h.train_acc_h1 <= 1.0


def per_sample_train(model, samples, config):
    """The per-sample loop that batched `train` replaced, kept as its oracle.

    One graph per sample, summed over the batch; dropout masks are drawn
    window by window, step by step, from the training rng.
    """
    params = model.parameters()
    rng = np.random.default_rng(config.seed)
    n = len(samples)
    history = []
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        sum_lc = sum_lr = 0.0
        hits = 0
        for start in range(0, n, config.batch_size):
            batch = [samples[i] for i in order[start : start + config.batch_size]]
            losses = []
            for sample in batch:
                roll, _ = model.anticipate(sample.observed, rng=rng)
                l_c = chains.class_loss(roll.logits, sample.future_labels)
                l_r = chains.feature_loss(roll.features, sample.future_features)
                losses.append(chains.total_loss(l_c, l_r, config.lam))
                sum_lc += float(l_c.data)
                sum_lr += float(l_r.data)
                hits += roll.logits.data[0].argmax() == sample.future_labels[0].argmax()
            chains.mul(chains.total(*losses), 1.0 / len(batch)).backward()
            sgd_step(params, config.lr, config.momentum)
        history.append(
            EpochStats(epoch, sum_lc / n, sum_lr / n, (sum_lc + config.lam * sum_lr) / n, hits / n)
        )
    return history


GRID_BASE = ModelConfig(d_m=8, n_heads=2, n_classes=3, seq_len=8, horizon=3)
GRID_CELLS = grid_configs(GRID_BASE)


def grid_samples():
    cfg = standard_synthetic_config(n_classes=3, d_m=8, seed=9, noise_sigma=0.3)
    return [s for q in gen_synthetic(cfg, 2, 17) for s in make_samples(q, 8, 3)]


class TestBatchedEqualsPerSample:
    @pytest.mark.parametrize("dropout", [0.0, 0.1])
    @pytest.mark.parametrize("cell", GRID_CELLS, ids=[c.name for c in GRID_CELLS])
    def test_train_matches_per_sample_oracle(self, cell, dropout):
        samples = grid_samples()  # 14 samples: batches of 4, 4, 4 and 2
        tc = TrainConfig(lr=0.01, momentum=0.9, batch_size=4, epochs=2, seed=4)
        cell = replace(cell, dropout=dropout)
        batched, oracle = AnticipationModel(cell, seed=2), AnticipationModel(cell, seed=2)
        got = train(batched, samples, tc)
        want = per_sample_train(oracle, samples, tc)
        for g, w in zip(got, want):
            assert (g.epoch, g.train_acc_h1) == (w.epoch, w.train_acc_h1)
            np.testing.assert_allclose(
                [g.class_loss, g.feature_loss, g.total_loss],
                [w.class_loss, w.feature_loss, w.total_loss], rtol=1e-12, atol=0,
            )
        assert len(got) == len(want) == 2
        for p, q in zip(batched.parameters(), oracle.parameters()):
            np.testing.assert_allclose(p.value.data, q.value.data, rtol=0, atol=1e-12,
                                       err_msg=p.name)

    @pytest.mark.parametrize("cell", GRID_CELLS, ids=[c.name for c in GRID_CELLS])
    def test_stack_equals_window_by_window(self, cell):
        model = AnticipationModel(cell, seed=3)
        stack = np.random.default_rng(8).normal(size=(5, 8, 8))
        for draws in (lambda: None, lambda: np.random.default_rng(6)):
            rng = draws()
            roll, weights = model.anticipate(stack, rng=draws())
            assert roll.features.shape == (5, 3, 8) and roll.logits.shape == (5, 3, 3)
            for b, window in enumerate(stack):
                one, one_weights = model.anticipate(window, rng=rng)
                np.testing.assert_allclose(roll.features.data[b], one.features.data,
                                           rtol=0, atol=1e-12)
                np.testing.assert_allclose(roll.logits.data[b], one.logits.data,
                                           rtol=0, atol=1e-12)
                if cell.aggregator == "ttm":
                    assert weights.shape == (5, 2, 7)
                    np.testing.assert_allclose(weights[b], one_weights, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cell", GRID_CELLS, ids=[c.name for c in GRID_CELLS])
    def test_every_forward_tapes_and_its_graph_goes_with_its_outputs(self, cell):
        model = AnticipationModel(cell, seed=3)
        stack = np.random.default_rng(10).normal(size=(3, 8, 8))
        before = chains.live_tensors()
        for observed in (stack, stack[0]):
            first, _ = model.anticipate(observed, rng=np.random.default_rng(1))
            again, _ = model.anticipate(observed, rng=np.random.default_rng(1))
            assert again.features.data.tobytes() == first.features.data.tobytes()
            assert again.logits.data.tobytes() == first.logits.data.tobytes()
            assert all(out._parents and out._backward is not None
                       for roll in (first, again) for out in (roll.features, roll.logits))
            # nothing outside the outputs holds the graph: the three nodes of
            # each forward go when its rollout does
            assert chains.live_tensors() == before + 6
            del first, again
            assert chains.live_tensors() == before
        # a call that raised leaves the next forward taped as before
        with pytest.raises(ValueError):
            model.anticipate(stack[:, :4])
        assert model.anticipate(stack[0])[0].logits._parents


class TestScorer:
    @pytest.mark.parametrize("cell", GRID_CELLS, ids=[c.name for c in GRID_CELLS])
    def test_scores_the_window_and_leaves_the_features_as_they_were(self, cell):
        # the scorer hands `anticipate` a view of the sequence's features
        model = AnticipationModel(cell, seed=3)
        seq = gen_synthetic(standard_synthetic_config(n_classes=3, d_m=8, seed=9), 1, 12)[0]
        before = seq.features.copy()
        score = model.scorer()
        for t in range(7, 11):
            want = model.anticipate(before[t - 7 : t + 1])[0].probs.data
            np.testing.assert_array_equal(score(seq, t), want)
        assert seq.features.tobytes() == before.tobytes()


class TestLambdaLinearity:
    def test_gradient_linear_in_lambda(self):
        model, samples, _ = tiny_setup(seed=7)
        sample = samples[0]

        def grads_at(lam):
            for p in model.parameters():
                p.value.grad = None
            roll, _ = model.anticipate(sample.observed[None])
            loss, _, _ = total_loss(roll, sample.future_labels[None],
                                    sample.future_features[None], lam)
            loss.backward()
            return np.concatenate([
                np.zeros(p.size) if p.value.grad is None else p.value.grad.reshape(-1)
                for p in model.parameters()
            ])

        g0 = grads_at(0.0)
        g1 = grads_at(1.0)
        g2 = grads_at(2.0)
        np.testing.assert_allclose(g2 - g0, 2.0 * (g1 - g0), rtol=0, atol=1e-9)

