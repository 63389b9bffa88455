"""Alternative aggregators and predictors for the comparison grid.

Aggregation: a 3-layer strided temporal convolution stack, or a
single-layer LSTM encoder. Prediction: an LSTM decoder seeded with the
aggregated vector, or a single-shot block that predicts any one horizon
directly from a one-hot horizon tag. All share the interfaces of the
transformer aggregator and progressive predictor so every pairing
composes without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .prediction import (
    PredictionBlockParams,
    Rollout,
    classify,
    init_block_params,
    prediction_block,
)
from .tensor import Parameter, Tensor, concat, glorot, lstm_step, matmul, relu, reshape, softmax

CONV_LAYERS = 3
CONV_KERNEL = 3
CONV_STRIDE = 2
CONV_PAD = 1  # symmetric zero rows per layer


@dataclass
class Conv1DStack:
    """Three temporal conv layers, each kernel 3, stride 2, d_m -> d_m."""

    weights: list[Parameter]  # each (3*d_m, d_m)
    biases: list[Parameter]  # each (d_m,)

    def parameters(self) -> list[Parameter]:
        return [*self.weights, *self.biases]


def init_conv1d_params(d_m: int, rng) -> Conv1DStack:
    weights = [
        Parameter(f"conv1d.w{i}", glorot(rng, CONV_KERNEL * d_m, d_m))
        for i in range(CONV_LAYERS)
    ]
    biases = [Parameter(f"conv1d.b{i}", np.zeros(d_m)) for i in range(CONV_LAYERS)]
    return Conv1DStack(weights, biases)


def _conv_out_len(length: int) -> int:
    return (length + 2 * CONV_PAD - CONV_KERNEL) // CONV_STRIDE + 1


def conv1d_lengths(t: int) -> list[int]:
    """Temporal lengths after each conv layer, e.g. 8 -> [4, 2, 1]."""
    lengths = []
    for _ in range(CONV_LAYERS):
        t = _conv_out_len(t)
        lengths.append(t)
    return lengths


def conv1d_aggregate(f_seq: Tensor, params: Conv1DStack) -> Tensor:
    """Reduce the (..., T, d_m) window(s) to (..., 1, d_m) through three strided convs.

    Each layer zero-pads one row top and bottom; ReLU sits between layers,
    and the last observed feature is added onto the result (shortcut).
    With the default T=8 the lengths run 8 -> 4 -> 2 -> 1. Any T not
    reducing to exactly 1 is rejected.
    """
    t = f_seq.shape[-2]
    if conv1d_lengths(t)[-1] != 1 or min(conv1d_lengths(t)) < 1:
        raise ValueError(
            f"conv1d_aggregate: T={t} does not reduce to length 1 "
            f"(lengths {conv1d_lengths(t)})"
        )
    lead = f_seq.shape[:-2]
    d_m = f_seq.shape[-1]
    pad = Tensor(np.zeros(lead + (CONV_PAD, d_m)))
    x = f_seq
    for layer in range(CONV_LAYERS):
        out_len = _conv_out_len(x.shape[-2])
        padded = concat([pad, x, pad], axis=-2)
        rows = np.concatenate(
            [np.arange(j * CONV_STRIDE, j * CONV_STRIDE + CONV_KERNEL) for j in range(out_len)]
        )
        windows = reshape(padded[..., rows, :], lead + (out_len, CONV_KERNEL * d_m))
        x = matmul(windows, params.weights[layer].value) + params.biases[layer].value
        if layer < CONV_LAYERS - 1:
            x = relu(x)
    return x + f_seq[..., t - 1 : t, :]


@dataclass
class LSTMParams:
    """All four gates as one (d_in + d_h) x 4*d_h weight and one 4*d_h bias.

    Rows take the input x first, then the previous hidden state h; the
    gates i, f, g, o own column blocks 0, 1, 2, 3 of width d_h, in that
    order.
    """

    w: Parameter
    b: Parameter

    def parameters(self) -> list[Parameter]:
        return [self.w, self.b]


def init_lstm_params(d_in: int, d_h: int, rng, prefix: str = "lstm") -> LSTMParams:
    """Glorot init with one draw per gate and input, so each keeps its own limit.

    Draws run gate by gate in i, f, g, o order, the x block before the h block.
    """
    w = np.hstack([np.vstack([glorot(rng, d_in, d_h), glorot(rng, d_h, d_h)]) for _ in range(4)])
    return LSTMParams(Parameter(f"{prefix}.w", w), Parameter(f"{prefix}.b", np.zeros(4 * d_h)))


def lstm_encode(f_seq: Tensor, params: LSTMParams) -> Tensor:
    """Run the recurrence over the window; the summary is its final hidden state.

    The last observed feature is added onto the summary (shortcut), so the
    hidden width must equal the feature width; `lstm_step` refuses any
    other. A (B, T, d_m) stack runs the recurrence on B rows at once and
    gives (B, 1, d_m).
    """
    t, d_m = f_seq.shape[-2:]
    state = Tensor(np.zeros(f_seq.shape[:-2] + (1, 2 * d_m)))
    for step in range(t):
        state = lstm_step(f_seq[..., step : step + 1, :], state, params.w.value, params.b.value)
    return state[..., :d_m] + f_seq[..., t - 1 : t, :]


@dataclass
class DecoderParams:
    """The LSTM decoder's cell and its classifier."""

    lstm: LSTMParams
    classifier: Parameter

    def parameters(self) -> list[Parameter]:
        return [*self.lstm.parameters(), self.classifier]


def init_lstm_decoder_params(d_m: int, n_classes: int, rng) -> DecoderParams:
    lstm = init_lstm_params(d_m + n_classes, d_m, rng, "dec")
    return DecoderParams(lstm, Parameter("dec.classifier", glorot(rng, d_m, n_classes)))


def lstm_decode(s_t: Tensor, f_t: Tensor, params: DecoderParams, horizon: int) -> Rollout:
    """Decode l steps from the state [s_t | 0]; each hidden state is a feature.

    Step inputs are previous predicted feature (+) previous probability;
    the first step consumes f_t (+) its classified probability. The shared
    classifier scores every hidden state.
    """
    if horizon < 1:
        raise ValueError(f"rollout horizon must be >= 1, got {horizon}")
    d_m = s_t.shape[-1]
    state = concat([s_t, Tensor(np.zeros(s_t.shape))], axis=-1)
    x = concat([f_t, classify(f_t, params.classifier)], axis=-1)
    features = []
    logits = []
    for _ in range(horizon):
        state = lstm_step(x, state, params.lstm.w.value, params.lstm.b.value)
        h = state[..., :d_m]
        z = matmul(h, params.classifier.value)
        features.append(h)
        logits.append(z)
        x = concat([h, softmax(z)], axis=-1)
    return Rollout(concat(features, axis=-2), concat(logits, axis=-2))


@dataclass
class SSPParams:
    """One block predicting any single horizon, tagged by a one-hot slot."""

    block: PredictionBlockParams
    classifier: Parameter
    horizon: int

    def parameters(self) -> list[Parameter]:
        return [*self.block.parameters(), self.classifier]


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
    so every horizon is independent of the others. s_t and f_t are
    (..., 1, d_m) rows, and the rollout is (..., l, ·). `keep` is a
    (..., l, d_m) dropout mask from `keep_mask`; None means no dropout.
    """
    horizon = params.horizon
    lead = s_t.shape[:-2]
    shared = concat([s_t, f_t, classify(f_t, params.classifier)], axis=-1)
    tags = np.eye(horizon) + np.zeros(lead + (1, 1))  # one set per window
    x = concat([shared[..., np.zeros(horizon, dtype=int), :], Tensor(tags)], axis=-1)
    features = prediction_block(x, params.block, keep)
    return Rollout(features, matmul(features, params.classifier.value))
