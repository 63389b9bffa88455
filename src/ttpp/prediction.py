"""Progressive multi-step prediction.

From the aggregated history vector and the current feature, an initial
block predicts the next chunk feature; a single shared block then chains
forward, each step consuming the aggregated history again (skip
connection) plus its own previous feature and probability predictions.
`rollout` runs the whole chain as one node. The prediction block
(`_block_*`), which the single-shot predictor shares, and the rollout
driver `_rollout`, which the LSTM decoder shares, live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import (Parameter, ParameterSet, ShapeError, Tensor, _bias_grad, _dot, _dot_contig,
                     _features_and_logits, _over_steps, _plus, _row, _send, _softmax_data,
                     _softmax_grad, _weight_grad, glorot)


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

    @cached_property
    def step_data(self) -> list[tuple[np.ndarray, ...]]:
        """Each step's block arrays as `_block_forward` takes them, once both
        blocks are checked against the classifier and each other."""
        initial, progressive = self.initial.values, self.progressive.values
        d, n_classes = self.classifier.value.data.shape
        width, m = 2 * d + n_classes, initial[0].data.shape[1]
        if {(b[0].data.shape[1], _check_block("rollout", width, *b))
                for b in (initial, progressive)} != {(m, d)}:
            raise ShapeError(f"rollout: the blocks' hidden and output widths are not both "
                             f"(m, d) = ({m}, {d})")
        return [_block_data(initial)] + [_block_data(progressive)] * (self.horizon - 1)


@dataclass
class Rollout:
    """l predicted (feature, class logits) pairs, stacked along axis -2.

    One window gives (horizon, ·); a stack of B windows gives (B, horizon, ·).
    """

    features: Tensor  # (..., horizon, d_m)
    logits: Tensor  # (..., horizon, n_classes)

    @property
    def probs(self) -> Tensor:
        """softmax(logits), with no backward: scoring reads it, and no loss does."""
        return Tensor(_softmax_data(self.logits.data))


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


def _check_block(op: str, k: int, w1, b1, w2, b2, gain, bias) -> int:
    """The output width of a prediction block over inputs of extent k."""
    m, n = w1.data.shape[1], w2.data.shape[1]
    if w1.data.shape[0] != k or w2.data.shape[0] != m:
        raise ShapeError(
            f"{op}: input extent {k} does not fit weights {w1.data.shape}, {w2.data.shape}"
        )
    if (b1.data.shape, b2.data.shape, gain.data.shape, bias.data.shape) != ((m,), (n,), (n,), (n,)):
        raise ShapeError(
            f"{op}: biases {b1.data.shape}, {b2.data.shape} and gain/bias "
            f"{gain.data.shape}/{bias.data.shape} do not fit widths {m}, {n}"
        )
    return n


def _block_data(block) -> tuple[np.ndarray, ...]:
    """A block's arrays as `_block_forward` takes them: biases, gain and bias as rows."""
    w1, b1, w2, b2, gain, bias = block
    return w1.data, _row(b1), w2.data, _row(b2), _row(gain), _row(bias)


def _block_forward(x, data, keep, out):
    """A prediction block, layer_norm(relu(x w1 + b1) w2 + b2) * gain + bias
    times the dropout mask `keep` (None: no dropout), on contiguous 2-D rows
    `x` into `out` (new if None), with `data` from `_block_data`. Layer norm
    standardizes each row by the population mean and variance, with eps
    1e-5; one row reduces the whole array and takes its mean and 1 / std as
    floats (the fifth rule at the head of `tensor.py`), with the bits of the
    keepdims form. Returns the output and (hidden, xhat, inv_std), arrays of
    the forward's own that `_block_backward` reads and the caller keeps
    (inv_std a float at one row, else a column). np.maximum, the ReLU,
    propagates a NaN."""
    w1, b1, w2, b2, gain, bias = data
    hidden = _dot_contig(x, w1)
    hidden += b1
    np.maximum(hidden, 0.0, out=hidden)
    y = _dot_contig(hidden, w2)
    y += b2
    n = y.shape[1]
    if len(y) == 1:
        y -= float(np.add.reduce(y, None)) / n
        inv_std = 1.0 / math.sqrt(float(np.add.reduce(y * y, None)) / n + 1e-5)
    else:
        y -= np.add.reduce(y, axis=-1, keepdims=True) / n
        inv_std = np.reciprocal(np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True) / n + 1e-5))
    xhat = np.multiply(y, inv_std, out=y)
    out = np.multiply(xhat, gain, out=out)
    out += bias
    if keep is not None:
        out *= keep
    return out, (hidden, xhat, inv_std)


def _block_backward(g, saved, keep, data):
    """The gradient of a block's input rows from its output's, `g`, all on 2-D
    rows. `saved` is the step's (hidden, xhat, inv_std) from `_block_forward`.
    Returns the input's gradient and the step's (g after dropout, gy, gpre),
    from which `_send_block` sums the weights' gradients; without dropout
    the first is `g` itself."""
    w1, _, w2, _, gain_row, _ = data
    hidden, xhat, inv_std = saved
    n = xhat.shape[1]
    g_kept = g if keep is None else g * keep
    gh = g_kept * gain_row
    m1 = np.add.reduce(gh, axis=-1, keepdims=True) / n
    m2 = np.add.reduce(gh * xhat, axis=-1, keepdims=True) / n
    gy = np.multiply(inv_std, gh - m1 - xhat * m2)
    gpre = np.multiply(_dot(gy, w2.T), hidden > 0)
    return _dot(gpre, w1.T), (g_kept, gy, gpre)


def _send_block(block, x, saved, kept) -> None:
    """Sends a block's tensors their gradients over a stack of steps, from the
    steps' inputs `x` and, stacked here, the (hidden, xhat, inv_std) the
    forward kept per step, `saved`, and the (g, gy, gpre) its backward
    returned per step, `kept`."""
    w1, b1, w2, b2, gain, bias = block
    hidden, xhat = (np.array([step[i] for step in saved]) for i in (0, 1))  # np.stack: 3x slower
    g, gy, gpre = (np.array([step[i] for step in kept]) for i in (0, 1, 2))
    _send(gain, _bias_grad(g * xhat))
    _send(bias, _bias_grad(g))
    _send(b2, _bias_grad(gy))
    _send(w2, _weight_grad(hidden, gy))
    _send(b1, _bias_grad(gpre))
    _send(w1, _weight_grad(x, gpre))


def _check_rollout(op: str, s_t, f_t, classifier, horizon: int, keep=None) -> tuple[int, int]:
    """(d, n_classes) of a predictor's operands, f_t an array."""
    if not isinstance(f_t, np.ndarray):
        raise TypeError(f"{op}: f_t must be an ndarray, got {type(f_t).__name__}")
    if horizon < 1:
        raise ValueError(f"rollout horizon must be >= 1, got {horizon}")
    shape = s_t.data.shape
    if (len(shape) < 2 or shape[-2] != 1 or f_t.shape != shape
            or classifier.data.ndim != 2 or classifier.data.shape[0] != shape[-1]):
        raise ShapeError(f"{op}: s_t {shape}, f_t {f_t.shape}, "
                         f"classifier {classifier.data.shape}")
    masked = shape[:-2] + (horizon, shape[-1])
    if keep is not None and np.shape(keep) != masked:
        raise ShapeError(f"{op}: keep mask {np.shape(keep)} for {masked}")
    return classifier.data.shape


def _steps_first(g: np.ndarray, n: int) -> np.ndarray:
    """A (..., horizon, width) output gradient as a (horizon, n, width) view."""
    return g.reshape(n, g.shape[-2], -1).swapaxes(0, 1)


def _rollout(s_t, f_t, classifier, horizon: int, parents, x, fs: slice, feed: bool, step,
             step_back, send):
    """What the chained rollouts share. Step s reads input row x[s]: a feature in
    columns `fs` and a probability in the C after them, [f_t | softmax(f_t
    classifier)] in row 0 and in row s+1 step s's feature (zeros unless
    `feed`) and softmax(logits). `step(s, out)` writes step s's feature
    into `out` and returns it. In the backward, `step_back(s, g, gx)` maps
    the gradients of step s's feature and of row s+1 (None at the end) to
    that of row s, and returns it with what the step keeps for the
    parameters' gradients; after the loop `send(kept)` hands the op's
    parameters their gradients from the list of what each step kept, in
    step order. Returns the `Rollout`, whose logits are a child of the
    features node."""
    wc = classifier.data
    d, n_classes = wc.shape
    ps = slice(fs.stop, fs.stop + n_classes)
    f_rows = f_t.reshape(-1, d)
    n = f_rows.shape[0]
    x[0, :, fs] = f_rows
    _softmax_data(_dot(f_rows, wc), out=x[0, :, ps])
    if not feed:  # else each step writes its feature there before the next reads it
        x[1:, :, fs] = 0.0
    feats = x[1:, :, fs] if feed else np.empty((horizon, n, d))
    logits = np.empty((horizon, n, n_classes))
    for s in range(horizon):
        _dot(step(s, feats[s]), wc, out=logits[s])
        if s + 1 < horizon:
            _softmax_data(logits[s], out=x[s + 1, :, ps])

    # Back through time. A gradient with several terms adds them in the order
    # the chain of single ops' tape did: a feature's from the features
    # output, then from the next step's input, then from the classifier.
    # `gz` stacks the logits' gradients.
    def backward(g_feats, g_logits):
        g_feats = None if g_feats is None else np.ascontiguousarray(_steps_first(g_feats, n))
        gz = np.array(_steps_first(g_logits, n), order="C")
        kept, gx = [None] * horizon, None
        for s in reversed(range(horizon)):
            g = None if g_feats is None else g_feats[s]
            if gx is not None:
                g = _plus(g, gx[:, fs]) if feed else g
                gz[s] += _softmax_grad(gx[:, ps], x[s + 1, :, ps])
            gx, kept[s] = step_back(s, _plus(g, _dot(gz[s], wc.T)), gx)
        send(kept)
        gz_t = _softmax_grad(gx[:, ps], x[0, :, ps])  # the current feature's term, added last
        _send(classifier, _weight_grad(feats, gz) + _dot(f_rows.T, gz_t))

    lead = s_t.data.shape[:-2]
    out_f, out_z = (np.ascontiguousarray(a.swapaxes(0, 1)).reshape(lead + a.shape[::2])
                    for a in (feats, logits))
    return Rollout(*_features_and_logits(out_f, out_z, parents, backward))


def rollout(s_t: Tensor, f_t: np.ndarray, params: PPMParams, keep=None) -> Rollout:
    """Chain l = params.horizon future (feature, logits) predictions from
    (s_t, f_t) as one node.

    Step 1 runs the initial block on s_t (+) f_t (+) p_t; every later step
    reuses the shared progressive block, of the same hidden width, on s_t
    (+) previous predicted feature (+) previous predicted probability. With
    params.feed_features False (the no-feature ablation) later steps put
    zeros in the feature slot. s_t and f_t are (..., 1, d_m) rows with the
    same leading batch axes; f_t, an array, takes no gradient. `keep` is a
    (..., l, d_m) dropout mask from `keep_mask`, slice s for step s; None
    means no dropout.
    """
    initial, progressive = params.initial.values, params.progressive.values
    classifier, horizon = params.classifier.value, params.horizon
    d, n_classes = _check_rollout("rollout", s_t, f_t, classifier, horizon, keep)
    data = params.step_data
    rows = s_t.data.reshape(-1, d)
    masks = [None] * horizon if keep is None else np.reshape(keep, (-1, horizon, d)).swapaxes(0, 1)
    parents = (s_t, classifier, *initial, *(progressive if horizon > 1 else ()))
    x = np.empty((horizon + 1, len(rows), 2 * d + n_classes))
    x[:, :, :d] = rows
    saved = []  # each step's (hidden, xhat, inv_std)

    def step(s, out):
        out, kept = _block_forward(x[s], data[s], masks[s], out)
        saved.append(kept)
        return out

    def step_back(s, g, gx):  # keeps s_t's columns of the input's gradient too
        gx, kept = _block_backward(g, saved[s], masks[s], data[s])
        return gx, (*kept, gx[:, :d])

    def send(kept):  # the progressive block first, so one block in both adds in step order
        for block, steps in ((progressive, slice(1, horizon)), (initial, slice(0, 1))):
            if steps.stop > steps.start:
                _send_block(block, x[steps], saved[steps], kept[steps])
        _send(s_t, _over_steps(np.array([step[3] for step in kept])).reshape(s_t.data.shape))

    return _rollout(s_t, f_t, classifier, horizon, parents, x, slice(d, 2 * d),
                    params.feed_features, step, step_back, send)
