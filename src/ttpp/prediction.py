"""Progressive multi-step prediction.

From the aggregated history vector and the current feature, an initial
block predicts the next chunk feature; a single shared block then chains
forward, each step consuming the aggregated history again (skip
connection) plus its own previous feature and probability predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, Tensor, concat, glorot, matmul, mlp_norm, softmax


@dataclass
class PredictionBlockParams:
    """Two FC layers (in -> d_m/2 -> d_m) plus layer-norm gain/bias."""

    fc1_w: Parameter
    fc1_b: Parameter
    fc2_w: Parameter
    fc2_b: Parameter
    ln_gain: Parameter
    ln_bias: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.fc1_w, self.fc1_b, self.fc2_w, self.fc2_b, self.ln_gain, self.ln_bias]


@dataclass
class PPMParams:
    """Initial block, the shared progressive block, and the classifier.

    The progressive block is one parameter set reused by every step after
    the first; the classifier is a bias-free d_m x C matrix shared by the
    current frame and all predicted steps.
    """

    initial: PredictionBlockParams
    progressive: PredictionBlockParams
    classifier: Parameter

    def parameters(self) -> list[Parameter]:
        return [
            *self.initial.parameters(),
            *self.progressive.parameters(),
            self.classifier,
        ]


@dataclass
class Rollout:
    """l predicted (feature, class logits) pairs, stacked along axis -2.

    One window gives (horizon, ·); a stack of B windows gives (B, horizon, ·).
    """

    features: Tensor  # (..., horizon, d_m)
    logits: Tensor  # (..., horizon, n_classes)

    @property
    def probs(self) -> Tensor:
        return softmax(self.logits)


def init_block_params(in_dim: int, d_m: int, rng, prefix: str) -> PredictionBlockParams:
    if d_m % 2 != 0:
        raise ValueError(f"d_m must be even, got {d_m}")
    hidden = d_m // 2
    return PredictionBlockParams(
        fc1_w=Parameter(f"{prefix}.fc1_w", glorot(rng, in_dim, hidden)),
        fc1_b=Parameter(f"{prefix}.fc1_b", np.zeros(hidden)),
        fc2_w=Parameter(f"{prefix}.fc2_w", glorot(rng, hidden, d_m)),
        fc2_b=Parameter(f"{prefix}.fc2_b", np.zeros(d_m)),
        ln_gain=Parameter(f"{prefix}.ln_gain", np.ones(d_m)),
        ln_bias=Parameter(f"{prefix}.ln_bias", np.zeros(d_m)),
    )


def init_ppm_params(d_m: int, n_classes: int, rng) -> PPMParams:
    in_dim = 2 * d_m + n_classes
    return PPMParams(
        initial=init_block_params(in_dim, d_m, rng, "ppm.initial"),
        progressive=init_block_params(in_dim, d_m, rng, "ppm.progressive"),
        classifier=Parameter("ppm.classifier", glorot(rng, d_m, n_classes)),
    )


def classify(f: Tensor, w_c: Parameter) -> Tensor:
    """Bias-free linear classifier followed by softmax."""
    return softmax(matmul(f, w_c.value))


def prediction_block(x: Tensor, params: PredictionBlockParams, keep=None) -> Tensor:
    """fc1 -> ReLU -> fc2 -> layer norm -> dropout (only when a keep mask is given).

    One fused `mlp_norm` node; the keep mask has the output's shape. An
    input whose last extent differs from fc1's rows is a ShapeError.
    """
    p = params
    return mlp_norm(
        x, p.fc1_w.value, p.fc1_b.value, p.fc2_w.value, p.fc2_b.value,
        p.ln_gain.value, p.ln_bias.value, keep,
    )


def rollout(
    s_t: Tensor, f_t: Tensor, params: PPMParams, horizon: int, keep=None, feed_features: bool = True
) -> Rollout:
    """Chain l future (feature, logits) predictions from (s_t, f_t).

    Step 1 uses the initial block on s_t (+) f_t (+) p_t; every later step
    reuses the shared progressive block on s_t (+) previous predicted
    feature (+) previous predicted probability. Concatenation order is
    (history, feature, probability) throughout. With feed_features False
    (the no-feature ablation) later steps put zeros in the feature slot,
    so only the probability and the history carry information forward.

    s_t and f_t are (..., 1, d_m) rows with the same leading batch axes.
    `keep` is a (..., horizon, d_m) dropout mask from `keep_mask`, and step
    s uses slice s of it; None means no dropout.
    """
    if horizon < 1:
        raise ValueError(f"rollout horizon must be >= 1, got {horizon}")
    zero_slot = Tensor(np.zeros(s_t.shape))
    feat_in, p = f_t, classify(f_t, params.classifier)
    features = []
    logits = []
    for step in range(horizon):
        block = params.initial if step == 0 else params.progressive
        k = None if keep is None else keep[..., step : step + 1, :]
        f = prediction_block(concat([s_t, feat_in, p], axis=-1), block, k)
        z = matmul(f, params.classifier.value)
        p = softmax(z)
        features.append(f)
        logits.append(z)
        feat_in = f if feed_features else zero_slot
    return Rollout(concat(features, axis=-2), concat(logits, axis=-2))
