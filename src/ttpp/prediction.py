"""Progressive multi-step prediction.

From the aggregated history vector and the current feature, an initial
block predicts the next chunk feature; a single shared block then chains
forward, each step consuming the aggregated history again (skip
connection) plus its own previous feature and probability predictions.
`rollout` runs the whole chain as one fused `tensor.ppm_rollout` node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, ParameterSet, Tensor, glorot, ppm_rollout, softmax


@dataclass(frozen=True)
class PredictionBlockParams(ParameterSet):
    """Two FC layers (in -> d_m // 2 -> d_m) plus layer-norm gain/bias, in `_block_data`'s order."""

    fc1_w: Parameter
    fc1_b: Parameter
    fc2_w: Parameter
    fc2_b: Parameter
    ln_gain: Parameter
    ln_bias: Parameter


@dataclass(frozen=True)
class PPMParams(ParameterSet):
    """Initial block, the shared progressive block, and the classifier.

    The progressive block is one parameter set reused by every step after
    the first; the classifier is a bias-free d_m x C matrix shared by the
    current frame and all predicted steps. The untrained `horizon` and
    `feed_features` (False in the no-feature ablation) fix the chain. A
    one-step chain never reaches the progressive block, so at horizon 1
    `parameters()` leaves it out: it would get no gradient.
    """

    initial: PredictionBlockParams
    progressive: PredictionBlockParams
    classifier: Parameter
    horizon: int
    feed_features: bool

    def parameters(self) -> list[Parameter]:
        blocks = (self.initial,) if self.horizon == 1 else (self.initial, self.progressive)
        return [p for block in blocks for p in block.parameters()] + [self.classifier]


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
    hidden = d_m // 2
    return PredictionBlockParams(
        fc1_w=Parameter(f"{prefix}.fc1_w", glorot(rng, in_dim, hidden)),
        fc1_b=Parameter(f"{prefix}.fc1_b", np.zeros(hidden)),
        fc2_w=Parameter(f"{prefix}.fc2_w", glorot(rng, hidden, d_m)),
        fc2_b=Parameter(f"{prefix}.fc2_b", np.zeros(d_m)),
        ln_gain=Parameter(f"{prefix}.ln_gain", np.ones(d_m)),
        ln_bias=Parameter(f"{prefix}.ln_bias", np.zeros(d_m)),
    )


def init_ppm_params(d_m: int, n_classes: int, horizon: int, feed_features: bool, rng) -> PPMParams:
    in_dim = 2 * d_m + n_classes
    return PPMParams(
        initial=init_block_params(in_dim, d_m, rng, "ppm.initial"),
        progressive=init_block_params(in_dim, d_m, rng, "ppm.progressive"),
        classifier=Parameter("ppm.classifier", glorot(rng, d_m, n_classes)),
        horizon=horizon, feed_features=feed_features,
    )


def rollout(s_t: Tensor, f_t: Tensor, params: PPMParams, keep=None) -> Rollout:
    """Chain l = params.horizon future (feature, logits) predictions from (s_t, f_t).

    Step 1 uses the initial block on s_t (+) f_t (+) p_t; every later step
    reuses the shared progressive block on s_t (+) previous predicted
    feature (+) previous predicted probability. Concatenation order is
    (history, feature, probability) throughout. With params.feed_features
    False (the no-feature ablation) later steps put zeros in the feature
    slot, so only the probability and the history carry information forward.

    s_t and f_t are (..., 1, d_m) rows with the same leading batch axes.
    `keep` is a (..., l, d_m) dropout mask from `keep_mask`, and step s
    uses slice s of it; None means no dropout.
    """
    features, logits = ppm_rollout(
        s_t, f_t, params.initial.values, params.progressive.values,
        params.classifier.value, params.horizon, keep, params.feed_features,
    )
    return Rollout(features, logits)
