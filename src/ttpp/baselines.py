"""Alternative aggregators and predictors for the comparison grid.

Aggregation: a strided temporal convolution stack whose depth follows
the window length, or a single-layer LSTM encoder. Prediction: an LSTM
decoder seeded with the aggregated vector, or a single-shot block that
predicts any one horizon directly from a one-hot horizon tag. Each layer
is one fused node of `tensor` (`conv1d`, `lstm_step`, `lstm_rollout`,
`ssp_rollout`), and all share the interfaces of the transformer
aggregator and progressive predictor, so every pairing composes without
special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor
from .prediction import PredictionBlockParams, Rollout, init_block_params
from .tensor import Parameter, ParameterSet, Tensor, conv1d, glorot, lstm_rollout, lstm_step


@dataclass(frozen=True)
class Conv1DStack(ParameterSet):
    """Temporal conv layers, each kernel 3, stride 2, d_m -> d_m.

    Each layer takes L rows to ceil(L / 2), so a window of T rows needs
    (T - 1).bit_length() layers: 3 at T = 8, 4 at T = 9 to 16.
    """

    weights: tuple[Parameter, ...]  # each (3*d_m, d_m)
    biases: tuple[Parameter, ...]  # each (d_m,)


def init_conv1d_params(d_m: int, seq_len: int, rng) -> Conv1DStack:
    layers = range((seq_len - 1).bit_length())
    weights = tuple(Parameter(f"conv1d.w{i}", glorot(rng, 3 * d_m, d_m)) for i in layers)
    biases = tuple(Parameter(f"conv1d.b{i}", np.zeros(d_m)) for i in layers)
    return Conv1DStack(weights, biases)


def conv1d_aggregate(f_seq: Tensor, params: Conv1DStack) -> Tensor:
    """Reduce the (..., T, d_m) window(s) to (..., 1, d_m) through the stack's
    strided convs and the last-feature shortcut, one `tensor.conv1d` node:
    at T=8 the three layers run 8 -> 4 -> 2 -> 1. A window longer than
    2 ** layers, which would not reach one row, is rejected."""
    t, depth = f_seq.shape[-2], len(params.weights)
    if t > 2 ** depth:
        raise ValueError(f"conv1d_aggregate: {depth} layers do not reduce T={t} to length 1")
    return conv1d(f_seq, params.values[:depth], params.values[depth:])


@dataclass(frozen=True)
class LSTMParams(ParameterSet):
    """All four gates as one (d_in + d_h) x 4*d_h weight and one 4*d_h bias.

    Rows take the input x first, then the previous hidden state h; the
    gates i, f, g, o own column blocks 0, 1, 2, 3 of width d_h, in that
    order.
    """

    w: Parameter
    b: Parameter


def init_lstm_params(d_in: int, d_h: int, rng, prefix: str = "lstm") -> LSTMParams:
    """Glorot init with one draw per gate and input, so each keeps its own limit.

    Draws run gate by gate in i, f, g, o order, the x block before the h block.
    """
    w = np.hstack([np.vstack([glorot(rng, d_in, d_h), glorot(rng, d_h, d_h)]) for _ in range(4)])
    return LSTMParams(Parameter(f"{prefix}.w", w), Parameter(f"{prefix}.b", np.zeros(4 * d_h)))


def lstm_encode(f_seq: Tensor, params: LSTMParams) -> Tensor:
    """Run the window through one `lstm_step` node from a zero state: the
    summary is the final hidden state plus the last observed feature
    (shortcut), so `lstm_step` refuses a hidden width other than the
    feature width. A (B, T, d_m) stack is one node too and gives (B, 1, d_m)."""
    return lstm_step(f_seq, params.w.value, params.b.value)


@dataclass(frozen=True)
class DecoderParams(ParameterSet):
    """The LSTM decoder's cell, its classifier, and its untrained step count."""

    lstm: LSTMParams
    classifier: Parameter
    horizon: int


def init_lstm_decoder_params(d_m: int, n_classes: int, horizon: int, rng) -> DecoderParams:
    lstm = init_lstm_params(d_m + n_classes, d_m, rng, "dec")
    return DecoderParams(lstm, Parameter("dec.classifier", glorot(rng, d_m, n_classes)), horizon)


def lstm_decode(s_t: Tensor, f_t: Tensor, params: DecoderParams) -> Rollout:
    """Decode params.horizon steps from the state [s_t | 0]; each hidden state is a feature.

    Step inputs are previous predicted feature (+) previous probability;
    the first step consumes f_t (+) its classified probability. The shared
    classifier scores every hidden state.
    """
    features, logits = lstm_rollout(s_t, f_t, params.lstm.w.value, params.lstm.b.value,
                                    params.classifier.value, params.horizon)
    return Rollout(features, logits)


@dataclass(frozen=True)
class SSPParams(ParameterSet):
    """One block predicting any single horizon, tagged by a one-hot slot."""

    block: PredictionBlockParams
    classifier: Parameter
    horizon: int


def init_ssp_params(d_m: int, n_classes: int, horizon: int, rng) -> SSPParams:
    in_dim = 2 * d_m + n_classes + horizon
    return SSPParams(
        block=init_block_params(in_dim, d_m, rng, "ssp.block"),
        classifier=Parameter("ssp.classifier", glorot(rng, d_m, n_classes)),
        horizon=horizon,
    )


def ssp_rollout(s_t: Tensor, f_t: Tensor, params: SSPParams, keep=None) -> Rollout:
    """Predict horizons 1..l (l = params.horizon) at once, with no chaining.

    Row tau - 1 of the block input is s_t (+) f_t (+) p_t (+) onehot(tau),
    so every horizon is independent of the others; the whole rollout is one
    `tensor.ssp_rollout` node. s_t and f_t are (..., 1, d_m) rows, and the
    rollout is (..., l, ·). `keep` is a (..., l, d_m) dropout mask from
    `keep_mask`; None means no dropout.
    """
    features, logits = tensor.ssp_rollout(s_t, f_t, params.block.values, params.classifier.value,
                                          params.horizon, keep)
    return Rollout(features, logits)
