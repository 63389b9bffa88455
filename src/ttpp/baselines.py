"""Alternative aggregators and predictors for the comparison grid.

Aggregation: a strided temporal convolution stack whose depth follows
the window length, or a single-layer LSTM encoder. Prediction: an LSTM
decoder seeded with the aggregated vector, or a single-shot block that
predicts any one horizon directly from a one-hot horizon tag. Each layer
is one node with a hand-written backward; the LSTM cell (`_cell_*`)
serves both the encoder and the decoder, which runs on the PPM's rollout
driver, and the single-shot predictor runs the PPM's prediction block.
All share the interfaces of the transformer aggregator and progressive
predictor, so every pairing composes without special cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .prediction import (PredictionBlockParams, Rollout, _block_backward, _block_data,
                         _block_forward, _check_block, _check_rollout, _rollout, _send_block,
                         init_block_params)
from .tensor import (Parameter, ParameterSet, ShapeError, Tensor, _bias_grad, _dot, _dot_contig,
                     _features_and_logits, _make, _plus, _row, _send, _softmax_data,
                     _softmax_grad, _weight_grad, glorot)


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


def _kernel_rows(out_len: int) -> np.ndarray:
    """The padded input rows under each output row of a conv1d layer, in order."""
    return (2 * np.arange(out_len)[:, None] + np.arange(3)).ravel()


def conv1d_aggregate(window: np.ndarray, params: Conv1DStack) -> Tensor:
    """Reduce the (..., T, d_m) window(s) to (..., 1, d_m) through the stack's
    strided convs and the last-feature shortcut, as one node: at T=8 the
    three layers run 8 -> 4 -> 2 -> 1.

    Each layer zero-pads one row top and bottom and multiplies every run of
    three rows, side by side, at stride 2 by its (3 d_m, d_m) weight, then
    adds its bias; a ReLU sits between layers. The window's last row is
    added onto the result, so the layers must reach one row: a window longer
    than 2 ** layers is refused. The window, an array, takes no gradient.
    """
    depth = len(params.weights)
    weights, biases = params.values[:depth], params.values[depth:]
    if not isinstance(window, np.ndarray):
        raise TypeError(f"conv1d_aggregate: window must be an ndarray, got {type(window).__name__}")
    shape = window.shape
    if (len(shape) < 2 or not weights or len(biases) != depth
            or not 1 <= shape[-2] <= 2 ** depth
            or any(w.data.shape != (3 * shape[-1], shape[-1]) for w in weights)
            or any(b.data.shape != shape[-1:] for b in biases)):
        raise ShapeError(f"conv1d_aggregate: window {shape} for {depth} layers, weights "
                         f"{[w.data.shape for w in weights]} and biases "
                         f"{[b.data.shape for b in biases]}: needs (3 d, d) weights, (d,) "
                         f"biases and T <= 2 ** layers, the most the layers reduce to one row")
    lead, (t, d) = shape[:-2], shape[-2:]
    x = window.reshape(-1, t, d)
    n = len(x)
    inputs, wins = [], []  # each layer's input rows, after the ReLU, and kernel-row windows
    for layer, (w, b) in enumerate(zip(weights, biases)):
        if layer:
            x = np.maximum(y, 0.0).reshape(n, -1, d)
        inputs.append(x)
        padded = np.zeros((n, x.shape[1] + 2, d))
        padded[:, 1:-1] = x
        wins.append(padded[:, _kernel_rows((x.shape[1] + 1) // 2)].reshape(-1, 3 * d))
        y = _dot(wins[-1], w.data)
        y += _row(b)
    data = y.reshape(lead + (1, d))
    data += window[..., t - 1 :, :]

    def backward(g):  # layer by layer, the top one first
        rows = g.reshape(-1, d)
        for layer in reversed(range(depth)):
            win, w = wins[layer], weights[layer]
            out_len = len(win) // n
            _send(biases[layer],
                  rows.reshape(lead + (out_len, d)).sum(axis=tuple(range(len(lead) + 1))))
            _send(w, _dot(win.T, rows))
            if layer:
                # each padded row is under at most two kernel rows, so three
                # strided adds give the bytes of a scatter in kernel-row order
                g_win = _dot(rows, w.data.T).reshape(n, out_len, 3, d)
                g_pad = np.zeros((n, inputs[layer].shape[1] + 2, d))
                for j in range(3):
                    g_pad[:, j : j + 2 * out_len : 2] += g_win[:, :, j]
                rows = (g_pad[:, 1:-1] * (inputs[layer] > 0)).reshape(-1, d)

    return _make(data, (*weights, *biases), backward)


@dataclass(frozen=True)
class LSTMParams(ParameterSet):
    """All four gates as one (d_in + d_h) x 4*d_h weight and one 4*d_h bias.

    Rows take the input x first, then the previous hidden state h; the
    gates i, f, g, o own column blocks 0, 1, 2, 3 of width d_h, in that
    order: c' = f c + i g and h' = o tanh(c'), with sigmoid i, f, o and
    tanh g.
    """

    w: Parameter
    b: Parameter

    @cached_property
    def cell(self) -> tuple[np.ndarray, np.ndarray]:
        """The weight and bias as `_cell_forward` takes them, the bias a (1, 4 d_h) row."""
        return self.w.value.data, _row(self.b.value)


def init_lstm_params(d_in: int, d_h: int, rng, prefix: str = "lstm") -> LSTMParams:
    """Glorot init with one draw per gate and input, so each keeps its own limit.

    Draws run gate by gate in i, f, g, o order, the x block before the h block.
    """
    w = np.hstack([np.vstack([glorot(rng, d_in, d_h), glorot(rng, d_h, d_h)]) for _ in range(4)])
    return LSTMParams(Parameter(f"{prefix}.w", w), Parameter(f"{prefix}.b", np.zeros(4 * d_h)))


def _cell_forward(xh, c, w, b, h_out):
    """One LSTM cell step on contiguous 2-D rows [x | h] and c, with the
    arrays `w` and `b` (a (1, 4 d_h) row), writing h' into `h_out`; returns
    h', c' and the backward's inputs. Callers run it under
    np.errstate(over="ignore"): a gate below -709 overflows exp to its right 0."""
    d_h = c.shape[1]
    pre = _dot_contig(xh, w)
    pre += b
    gates = np.reciprocal(np.exp(-pre) + 1.0)  # all four blocks; the g block goes unused
    cand = np.tanh(pre[:, 2 * d_h : 3 * d_h])
    c_new = gates[:, d_h : 2 * d_h] * c
    c_new += gates[:, :d_h] * cand
    tc = np.tanh(c_new)
    h = np.multiply(gates[:, 3 * d_h :], tc, out=h_out)
    return h, c_new, (c, gates, cand, tc)


def _cell_backward(gh, gc, cache, w):
    """The gradients of the input rows and of c from those of h' and c' (None
    is zero), with `w` the weight's rows of the inputs that take one: the
    whole weight gives [x | h]'s, its h rows h's alone. Returns them and
    the gate pre-activations' gradient, `dpre`, from which the caller sums
    w's and b's over the steps."""
    c, gates, cand, tc = cache
    d_h = c.shape[1]
    i, f, o = (gates[:, k * d_h : (k + 1) * d_h] for k in (0, 1, 3))
    gc = _plus(gc, gh * o * np.subtract(1.0, tc * tc))
    dgate = np.concatenate([gc * cand, gc * c, gc * i, gh * tc], axis=-1)
    dpre = np.multiply(dgate * gates, np.subtract(1.0, gates))
    dpre[:, 2 * d_h : 3 * d_h] = dgate[:, 2 * d_h : 3 * d_h] * np.subtract(1.0, cand * cand)
    return _dot(dpre, w.T), gc * f, dpre


def lstm_encode(window: np.ndarray, params: LSTMParams) -> Tensor:
    """Run the (..., T, d_m) window(s) through the LSTM from the zero state,
    as one node run back through time by hand: the summary is the final
    hidden state plus the last observed feature (shortcut), so the hidden
    width must be the feature width. A (B, T, d_m) stack gives (B, 1, d_m).
    The window, an array, takes no gradient."""
    w, b = params.values
    w_data, b_row = params.cell
    if not isinstance(window, np.ndarray):
        raise TypeError(f"lstm_encode: window must be an ndarray, got {type(window).__name__}")
    shape = window.shape
    if (len(shape) < 2 or shape[-2] < 1 or w.data.shape != (2 * shape[-1], 4 * shape[-1])
            or b.data.shape != (4 * shape[-1],)):
        raise ShapeError(f"lstm_encode: x {shape} for weight {w.data.shape} and bias "
                         f"{b.data.shape}: needs a (2 d, 4 d) weight and a (4 d,) bias")
    t, d = shape[-2:]
    windows = window.reshape(-1, t, d)
    n = len(windows)
    xh = np.empty((t + 1, n, 2 * d))  # [x_s | h_s] in w's row order; h_T
    xh[:t, :, :d] = windows.swapaxes(0, 1)
    xh[0, :, d:] = 0.0
    c, caches = np.zeros((n, d)), [None] * t
    with np.errstate(over="ignore"):
        for s in range(t):
            _, c, caches[s] = _cell_forward(xh[s], c, w_data, b_row, xh[s + 1, :, d:])
    data = xh[t, :, d:] + xh[t - 1, :, :d]

    def backward(g):
        gh, gc, w_h, dpre = g.reshape(-1, d), None, w_data[d:], [None] * t
        for s in reversed(range(t)):
            gh, gc, dpre[s] = _cell_backward(gh, gc, caches[s], w_h)
        dpre = np.array(dpre)
        _send(w, _weight_grad(xh[:t], dpre))
        _send(b, _bias_grad(dpre))

    return _make(data.reshape(shape[:-2] + (1, d)), (w, b), backward)


@dataclass(frozen=True)
class DecoderParams(ParameterSet):
    """The LSTM decoder's cell, its classifier, and its untrained step count."""

    lstm: LSTMParams
    classifier: Parameter
    horizon: int

    @cached_property
    def cell(self) -> tuple[np.ndarray, np.ndarray]:
        """The cell's `LSTMParams.cell`, once it is checked against the classifier."""
        w, b = self.lstm.values
        d, n_classes = self.classifier.value.data.shape
        if w.data.shape != (2 * d + n_classes, 4 * d) or b.data.shape != (4 * d,):
            raise ShapeError(f"lstm_decode: weight {w.data.shape} and bias {b.data.shape} "
                             f"for inputs of width {d + n_classes} and hidden width {d}")
        return self.lstm.cell


def init_lstm_decoder_params(d_m: int, n_classes: int, horizon: int, rng) -> DecoderParams:
    lstm = init_lstm_params(d_m + n_classes, d_m, rng, "dec")
    return DecoderParams(lstm, Parameter("dec.classifier", glorot(rng, d_m, n_classes)), horizon)


def lstm_decode(s_t: Tensor, f_t: np.ndarray, params: DecoderParams) -> Rollout:
    """Decode params.horizon steps from the state [s_t | 0], as one node; each
    hidden state is a feature, from (..., 1, d_m) rows s_t and f_t, of which
    f_t, an array, takes no gradient.

    The first step consumes f_t (+) its classified probability, each later
    one the previous predicted feature (+) previous probability. The shared
    classifier scores every hidden state.
    """
    w, b, classifier = params.values
    horizon = params.horizon
    d, n_classes = _check_rollout("lstm_decode", s_t, f_t, classifier, horizon)
    d_in = d + n_classes
    w_data, b_row = params.cell
    rows = s_t.data.reshape(-1, d)
    parents = (s_t, w, b, classifier)
    x = np.empty((horizon + 1, len(rows), d_in + d))  # [x | h] in w's row order
    x[0, :, d_in:] = rows
    c = [np.zeros(rows.shape), None]  # the cell state after the last step run, its gradient
    caches = [None] * horizon

    def step(s, out):
        h, c[0], caches[s] = _cell_forward(x[s], c[0], w_data, b_row, out)
        x[s + 1, :, d_in:] = h
        return h

    def step_back(s, g, gx):  # the state's h gets the next cell's h rows, then g
        gx, c[1], dpre = _cell_backward(g if gx is None else gx[:, d_in:] + g,
                                        None if gx is None else c[1], caches[s], w_data)
        if s == 0:
            _send(s_t, gx[:, d_in:].reshape(s_t.data.shape))
        return gx, dpre

    def send(kept):
        dpre = np.array(kept)
        _send(w, _weight_grad(x[:horizon], dpre))
        _send(b, _bias_grad(dpre))

    with np.errstate(over="ignore"):
        return _rollout(s_t, f_t, classifier, horizon, parents, x, slice(0, d), True, step,
                        step_back, send)


@dataclass(frozen=True)
class SSPParams(ParameterSet):
    """One block predicting any single horizon, tagged by a one-hot slot."""

    block: PredictionBlockParams
    classifier: Parameter
    horizon: int

    @cached_property
    def block_data(self) -> tuple[np.ndarray, ...]:
        """The block's arrays as `_block_forward` takes them, once the block is
        checked against the classifier and the horizon tags."""
        block = self.block.values
        d, n_classes = self.classifier.value.data.shape
        if _check_block("ssp_rollout", 2 * d + n_classes + self.horizon, *block) != d:
            raise ShapeError(f"ssp_rollout: block output width {block[2].data.shape[1]} is not {d}")
        return _block_data(block)


def init_ssp_params(d_m: int, n_classes: int, horizon: int, rng) -> SSPParams:
    in_dim = 2 * d_m + n_classes + horizon
    return SSPParams(
        block=init_block_params(in_dim, d_m, rng, "ssp.block"),
        classifier=Parameter("ssp.classifier", glorot(rng, d_m, n_classes)),
        horizon=horizon,
    )


def ssp_rollout(s_t: Tensor, f_t: np.ndarray, params: SSPParams, keep=None) -> Rollout:
    """Predict horizons 1..l (l = params.horizon) at once, with no chaining,
    as one node.

    Row tau - 1 of the block input is s_t (+) f_t (+) softmax(f_t
    classifier) (+) onehot(tau), so every horizon is independent of the
    others; the block runs over every row at once and the classifier scores
    each feature. s_t and f_t are (..., 1, d_m) rows, of which f_t, an
    array, takes no gradient, and the rollout is (..., l, ·). `keep` is a
    (..., l, d_m) dropout mask from `keep_mask`; None means no dropout.
    """
    block, classifier, horizon = params.block.values, params.classifier.value, params.horizon
    d, n_classes = _check_rollout("ssp_rollout", s_t, f_t, classifier, horizon, keep)
    data = params.block_data
    shared = 2 * d + n_classes
    k = shared + horizon
    lead = s_t.data.shape[:-2]
    wc, f_rows = classifier.data, f_t.reshape(-1, d)
    n = len(f_rows)
    p_t = _softmax_data(_dot(f_rows, wc))
    x = np.empty((n, horizon, k))
    x[:, :, :d] = s_t.data.reshape(n, 1, d)
    x[:, :, d : 2 * d] = f_rows[:, None]
    x[:, :, 2 * d : shared] = p_t[:, None]
    x[:, :, shared:] = np.eye(horizon)
    rows = x.reshape(-1, k)
    masks = None if keep is None else np.reshape(keep, (-1, d))
    feats, saved = _block_forward(rows, data, masks, None)
    logits = _dot(feats, wc)

    # A gradient with two terms adds them in the order the chain of single
    # ops' tape did: a feature's own, then the classifier's; the
    # classifier's from the logits, then from p_t. s_t and p_t get the sum
    # over their horizon rows, added row by row onto zeros as the tape's
    # scatter did (so a -0.0 sum reads +0.0).
    def backward(g_feats, g_logits):
        gz = g_logits.reshape(-1, n_classes)
        g = _plus(None if g_feats is None else g_feats.reshape(-1, d), _dot(gz, wc.T))
        gx, kept = _block_backward(g, saved, masks, data)
        _send_block(block, rows[None], [saved], [kept])
        g_shared = np.add.reduce(gx.reshape(n, horizon, k)[:, :, :shared], axis=1,
                                 keepdims=True, initial=0.0)
        _send(s_t, g_shared[:, :, :d].reshape(s_t.data.shape))
        gz_t = _softmax_grad(g_shared[:, 0, 2 * d :], p_t)
        _send(classifier, _dot(feats.T, gz) + _dot(f_rows.T, gz_t))

    return Rollout(*_features_and_logits(feats.reshape(lead + (horizon, d)),
                                         logits.reshape(lead + (horizon, n_classes)),
                                         (s_t, classifier, *block), backward))
