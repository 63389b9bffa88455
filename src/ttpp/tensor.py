"""Dense float64 tensors with reverse-mode differentiation and SGD.

A small define-by-run engine: every operation stores a backward closure on
its output, and ``Tensor.backward()`` replays the tape in reverse
topological order. Storage is plain numpy float64, row-major. The tape is
rebuilt on every forward pass, so rollouts of varying length need no
special casing. Inside ``no_grad()`` no tape is built at all.

Operations act on the last axis or two and treat any axes before them as
batch axes, folded into the rows of one 2-D product per weight. A
mini-batch therefore runs as one graph over a (B, ...) stack instead of
one graph per sample.

The cost of a small graph is the tape and the numpy calls per node, not
the flops. So every model layer is one fused op with a hand-written
backward: ``attention`` (the TTM layer), ``conv1d`` and ``lstm_step`` (the
other two aggregators, each with its shortcut), the rollouts
``ppm_rollout``, ``lstm_rollout`` and ``ssp_rollout`` (each a features
node with a logits child) and ``batch_loss``. A taped training batch
builds six tensors whatever the cell: the input, the aggregator's node,
the last feature, the predictor's two and the loss. The tests hold each
op to the chain of generic single-op nodes it replaced, kept in
``tests/chains.py``: values equal by bytes, gradients by bytes or to
1e-12. Arrays only a backward reads are kept only while taping. Dropout
takes a keep mask drawn by `keep_mask`, so a caller can draw the masks of
a whole batch at once in the order per-sample draws would read them.

At one window a fused op's operands are single rows, so what a numpy call
costs is its dispatch, and each has a fast path with the same bits. The
fused ops keep to four rules (costs per call, on one-row operands unless
said, timed with `timeit` on 2 CPUs under numpy 2.4.6 and OpenBLAS 0.3.31):
- A 2-D product is `_dot(a, b)`: ``ndarray.dot`` (0.6-1.0 us) instead of
  the matmul gufunc `@` (1.55-1.85 us), on C- or F-contiguous operands
  only; a strided view goes to `@`, as `.dot` may sum it in another order.
- A 1-D parameter (a bias, a layer-norm gain) enters as a (1, n) row,
  taken by `_row` once per op call: ``y += b`` with a (1, 16) `b` on a
  (1, 16) `y` takes the same-shape loop (0.87 us), a (16,) `b` the
  broadcasting one (1.85 us).
- No Python scalar is a left operand: ``np.reciprocal(x)`` for ``1.0 / x``
  (0.46 us against 0.98) and ``np.subtract(1.0, x)`` for ``1.0 - x``.
- A parameter's gradient is one stacked product per call, summed in the
  tape's step order. The taped forward and the backward through time write
  each step's factors into (steps, rows, .) buffers; after the loop a weight
  gets ``np.add.reduce(np.matmul(X.transpose(0, 2, 1), G)[::-1], axis=0)``
  and a bias the same sum over its row sums, the bytes of one ``.dot`` per
  step added last step first. An (8, 16) weight and its bias over the
  7 progressive steps of a horizon-8 rollout take 8 us at one row and 13 us
  at 32 (`_weight_grad`, `_bias_grad`), against 34 and 39 us step by step.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import fields
from functools import cached_property

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GradientError(RuntimeError):
    """A gradient is missing or non-finite where the optimizer requires one."""


_taping = True  # False inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Build no tape inside the block: results hold no parents or backward closures.

    Forward values are computed by the same numpy calls, so they are equal
    bit for bit to the taped ones.
    """
    global _taping
    saved, _taping = _taping, False
    try:
        yield
    finally:
        _taping = saved


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # tracked means gradients must flow to or through this tensor
    @property
    def _tracked(self) -> bool:
        return self.requires_grad or bool(self._parents)

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = g.copy()
        else:
            self.grad += g

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def backward(self) -> None:
        """Run reverse-mode accumulation from this scalar."""
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.shape}")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None:
                node._backward(node.grad)


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if not _taping:
        return out
    live = tuple(p for p in parents if p._tracked)
    if live:
        out._parents = live
        out._backward = backward
    return out


def _tapes(parents) -> bool:
    """Whether an op on `parents` records a node: taping is on and one is tracked."""
    return _taping and any(p._tracked for p in parents)


def _plus(acc, term):
    """acc + term, where an `acc` of None is a gradient nobody sent."""
    return term if acc is None else acc + term


def _send(t: Tensor, g: np.ndarray) -> None:
    if t._tracked:
        t._accumulate(g)


def _dot(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """a @ b of 2-D operands, through ``ndarray.dot`` when both are C- or
    F-contiguous. On a strided view `.dot` may sum in another order than
    `@`, so those take `np.matmul`."""
    if a.flags.forc and b.flags.forc:
        return a.dot(b, out)
    return np.matmul(a, b, out=out)


def _row(t: Tensor) -> np.ndarray:
    """A 1-D parameter as a (1, n) row view, which adds to (1, n) rows without broadcasting."""
    return t.data[None]


def _softmax_data(a: np.ndarray, out=None) -> np.ndarray:
    e = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient of softmax's input from its output `y` and output gradient `g`."""
    return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    y = _softmax_data(a.data)

    def backward(g):
        a._accumulate(_softmax_grad(g, y))

    return _make(y, (a,), backward)


def _log_softmax_data(a: np.ndarray) -> np.ndarray:
    shifted = a - a.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def batch_loss(logits, labels, features, target, lam: float):
    """The training loss of a batch as one node: (CE + lam SE) / B, where
    CE = -sum(labels * log_softmax(logits)) and SE = sum((features -
    target)^2), each summed over every entry, and B is the leading axis.

    Returns the node and the two sums, CE and SE, as floats. `labels` and
    `target` take no gradient, and at lam 0 neither do the features.
    """
    labels = np.asarray(labels, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if (logits.data.ndim < 2 or labels.shape != logits.data.shape
            or target.shape != features.data.shape):
        raise ShapeError(f"batch_loss: labels {labels.shape} for logits {logits.data.shape}, "
                         f"target {target.shape} for features {features.data.shape}")
    y = _log_softmax_data(logits.data)
    diff = features.data - target
    class_sum, feature_sum = (y * labels).sum() * -1.0, (diff * diff).sum()
    scale = 1.0 / len(labels)
    total = (class_sum + feature_sum * lam if lam else class_sum) * scale

    def backward(g):
        g_class = g * scale
        g_y = (g_class * -1.0) * labels
        _send(logits, g_y - np.exp(y) * g_y.sum(axis=-1, keepdims=True))
        if lam:
            half = (g_class * lam) * diff
            _send(features, half + half)

    node = _make(total, (logits, features) if lam else (logits,), backward)
    return node, float(class_sum), float(feature_sum)


def keep_mask(rng, rate: float, shape) -> np.ndarray | None:
    """Inverted dropout: 1/(1-rate) where a uniform in [0, 1) is >= rate, else 0.

    None (no dropout) without an rng or at rate 0. One draw of `shape`
    reads the rng in C order, as B x H draws of (1, d) would for (B, H, d).
    """
    if rng is None or rate == 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


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


def _stacks(steps: int, rows: int, widths) -> list[np.ndarray]:
    """One (steps, rows, width) buffer per width, for a fused op's per-step arrays."""
    return [np.empty((steps, rows, w)) for w in widths]


def _by_step(stacks) -> list[tuple[np.ndarray, ...]]:
    """Each step's rows of the stacked buffers, one tuple per step."""
    return list(zip(*stacks))


def _over_steps(a: np.ndarray) -> np.ndarray:
    """The sum over the leading steps axis, last step first: the order in which
    a backward through time, sending each step's term, would add them."""
    return np.add.reduce(a[::-1], axis=0)


def _weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The sum over steps s of x[s].T g[s], as one stacked product."""
    return _over_steps(np.matmul(x.transpose(0, 2, 1), g))


def _bias_grad(g: np.ndarray) -> np.ndarray:
    """The sum over steps and rows of g, a stack of per-step rows."""
    return _over_steps(np.add.reduce(g, axis=1))


def _block_forward(x, data, keep, out, saved=None):
    """A prediction block, layer_norm(relu(x w1 + b1) w2 + b2) * gain + bias
    times the dropout mask `keep` (None: no dropout), on 2-D rows into `out`
    (new if None), with `data` from `_block_data`. Layer norm standardizes
    each row by the population mean and variance, with eps 1e-5. While
    taping, `saved` is a step's rows of the stacked (hidden, xhat, inv_std),
    which the forward fills for the backward. np.maximum, the ReLU,
    propagates a NaN."""
    w1, b1, w2, b2, gain, bias = data
    hidden, xhat, inv_std = saved or (None, None, None)
    pre = _dot(x, w1, hidden)
    pre += b1
    hidden = np.maximum(pre, 0.0, out=pre)
    y = _dot(hidden, w2)
    y += b2
    n = y.shape[1]
    y -= np.add.reduce(y, axis=-1, keepdims=True) / n
    inv_std = np.reciprocal(np.sqrt(np.add.reduce(y * y, axis=-1, keepdims=True) / n + 1e-5),
                            out=inv_std)
    xhat = np.multiply(y, inv_std, out=y if xhat is None else xhat)
    out = np.multiply(xhat, gain, out=out)
    out += bias
    if keep is not None:
        out *= keep
    return out


def _block_backward(g, saved, keep, data, grads):
    """The gradient of a block's input rows from its output's, `g`, all on 2-D
    rows. `saved` is the step's rows `_block_forward` filled; the backward
    fills the step's rows of `grads`: g after dropout, gy and gpre, from which
    `_send_block` sums the weights' gradients, and the input's, which it
    returns."""
    w1, _, w2, _, gain_row, _ = data
    hidden, xhat, inv_std = saved
    g_kept, gy, gpre, gx = grads
    n = xhat.shape[1]
    if keep is None:
        g_kept[...] = g
    else:
        np.multiply(g, keep, out=g_kept)
    gh = g_kept * gain_row
    m1 = np.add.reduce(gh, axis=-1, keepdims=True) / n
    m2 = np.add.reduce(gh * xhat, axis=-1, keepdims=True) / n
    np.multiply(inv_std, gh - m1 - xhat * m2, out=gy)
    np.multiply(_dot(gy, w2.T), hidden > 0, out=gpre)
    return _dot(gpre, w1.T, gx)


def _send_block(block, x, saved, grads) -> None:
    """Sends a block's tensors their gradients over a stack of steps, from the
    steps' inputs `x` and the stacks the forward and backward filled."""
    w1, b1, w2, b2, gain, bias = block
    hidden, xhat, _ = saved
    g, gy, gpre = grads[:3]
    _send(gain, _bias_grad(g * xhat))
    _send(bias, _bias_grad(g))
    _send(b2, _bias_grad(gy))
    _send(w2, _weight_grad(hidden, gy))
    _send(b1, _bias_grad(gpre))
    _send(w1, _weight_grad(x, gpre))


def _check_rollout(op: str, s_t, f_t, classifier, horizon: int) -> tuple[int, int]:
    if horizon < 1:
        raise ValueError(f"rollout horizon must be >= 1, got {horizon}")
    shape = s_t.data.shape
    if (len(shape) < 2 or shape[-2] != 1 or f_t.data.shape != shape
            or classifier.data.ndim != 2 or classifier.data.shape[0] != shape[-1]):
        raise ShapeError(f"{op}: s_t {shape}, f_t {f_t.data.shape}, "
                         f"classifier {classifier.data.shape}")
    return classifier.data.shape


def _steps_first(g: np.ndarray, n: int) -> np.ndarray:
    """A (..., horizon, width) output gradient as a (horizon, n, width) view."""
    return g.reshape(n, g.shape[-2], -1).swapaxes(0, 1)


def _rollout(s_t, f_t, classifier, horizon: int, parents, x, fs: slice, feed: bool, step,
             step_back, widths, send):
    """What the fused rollouts share. Step s reads input row x[s]: a feature in
    columns `fs` and a probability in the C after them, [f_t | softmax(f_t
    classifier)] in row 0 and in row s+1 step s's feature (zeros unless
    `feed`) and softmax(logits). `step(s, out)` writes step s's feature
    into `out` and returns it. The backward allocates one (horizon, rows,
    width) stack per entry of `widths`: `step_back(s, g, gx, grads)` maps
    the gradients of step s's feature and of row s+1 (None at the end) to
    that of row s, filling step s's rows of the stacks, and after the loop
    `send(grads)` hands the op's parameters their gradients. The logits are
    a child of the features node, handing it their gradient."""
    wc = classifier.data
    d, n_classes = wc.shape
    ps = slice(fs.stop, fs.stop + n_classes)
    f_rows = f_t.data.reshape(-1, d)
    n = f_rows.shape[0]
    x[0, :, fs] = f_rows
    _softmax_data(_dot(f_rows, wc), out=x[0, :, ps])
    x[1:, :, fs] = 0.0  # stays zero unless each step writes its feature there
    feats = x[1:, :, fs] if feed else np.empty((horizon, n, d))
    logits = np.empty((horizon, n, n_classes))
    for s in range(horizon):
        _dot(step(s, feats[s]), wc, out=logits[s])
        if s + 1 < horizon:
            _softmax_data(logits[s], out=x[s + 1, :, ps])

    # Back through time. A gradient with several terms adds them in the order
    # the chain of single ops' tape did: a feature's from the features
    # output, then from the next step's input, then from the classifier.
    # `gz` stacks the logits' gradients; the steps below `top` have one.
    def backward(g_feats, g_logits):
        g_feats = None if g_feats is None else np.ascontiguousarray(_steps_first(g_feats, n))
        if g_logits is None:
            gz, top = np.empty((horizon, n, n_classes)), horizon - 1
        else:
            gz, top = np.array(_steps_first(g_logits, n), order="C"), horizon
        grads = _stacks(horizon, n, widths)
        grads_at = _by_step(grads)
        gx = None
        for s in reversed(range(horizon)):
            g = None if g_feats is None else g_feats[s]
            if gx is not None:
                g = _plus(g, gx[:, fs]) if feed else g
                term = _softmax_grad(gx[:, ps], x[s + 1, :, ps])
                if g_logits is None:
                    gz[s] = term
                else:
                    gz[s] += term
            if s < top:
                g = _plus(g, _dot(gz[s], wc.T))
            gx = step_back(s, g, gx, grads_at[s])
        send(grads)
        _send(f_t, gx[:, fs].reshape(f_t.data.shape))
        gz_t = _softmax_grad(gx[:, ps], x[0, :, ps])
        g_wc = _dot(f_rows.T, gz_t)  # the current feature's term, added last
        if top:
            g_wc = _weight_grad(feats[:top], gz[:top]) + g_wc
        _send(classifier, g_wc)
        _send(f_t, _dot(gz_t, wc.T).reshape(f_t.data.shape))

    lead = s_t.data.shape[:-2]
    out_f, out_z = (np.ascontiguousarray(a.swapaxes(0, 1)).reshape(lead + a.shape[::2])
                    for a in (feats, logits))
    return _features_and_logits(out_f, out_z, parents, backward)


def _features_and_logits(features, logits, parents, backward):
    """A predictor's two outputs from one node: the features node over
    `parents` and a logits child that hands it their gradient, so
    `backward(g_features, g_logits)` runs once, with None for an output
    that nothing reached."""
    handed = []
    node = _make(features, parents, lambda g: backward(g, handed.pop() if handed else None))
    child = Tensor(logits)
    if node._backward is not None:
        child._parents, child._backward = (node,), handed.append
    return node, child


def ppm_rollout(s_t, f_t, initial, progressive, classifier, horizon: int, keep=None,
                feed_features: bool = True):
    """The progressive prediction chain as one node: (..., horizon, d) features
    and their (..., horizon, C) logits from (..., 1, d) rows s_t and f_t.

    Step 1 runs the `initial` block (as `_block_data` takes it) on [s_t | f_t
    | softmax(f_t classifier)], step s > 1 the `progressive` one on [s_t |
    feature s-1 (zeros unless `feed_features`) | softmax(logits s-1)]; the
    two blocks have the same hidden width. `keep` is a (..., horizon, d)
    dropout mask, slice s for step s, or None.
    """
    d, n_classes = _check_rollout("ppm_rollout", s_t, f_t, classifier, horizon)
    width, m = 2 * d + n_classes, initial[0].data.shape[1]
    if {(b[0].data.shape[1], _check_block("ppm_rollout", width, *b))
            for b in (initial, progressive)} != {(m, d)}:
        raise ShapeError(f"ppm_rollout: the blocks' hidden and output widths are not both "
                         f"(m, d) = ({m}, {d})")
    lead = s_t.data.shape[:-2]
    if keep is not None and np.shape(keep) != lead + (horizon, d):
        raise ShapeError(f"ppm_rollout: keep mask {np.shape(keep)} for {lead + (horizon, d)}")
    rows = s_t.data.reshape(-1, d)
    masks = [None] * horizon if keep is None else np.reshape(keep, (-1, horizon, d)).swapaxes(0, 1)
    data = [_block_data(initial)] + [_block_data(progressive)] * (horizon - 1)
    parents = (s_t, f_t, classifier, *initial, *(progressive if horizon > 1 else ()))
    x = np.empty((horizon + 1, len(rows), width))
    x[:, :, :d] = rows
    saved = _stacks(horizon, len(rows), (m, d, 1)) if _tapes(parents) else None
    saved_at = saved and _by_step(saved)

    def step(s, out):
        return _block_forward(x[s], data[s], masks[s], out, saved_at and saved_at[s])

    def step_back(s, g, gx, grads):
        return _block_backward(g, saved_at[s], masks[s], data[s], grads)

    def send(grads):  # the progressive block first, so one block in both adds in step order
        for block, steps in ((progressive, slice(1, horizon)), (initial, slice(0, 1))):
            if steps.stop > steps.start:
                _send_block(block, x[steps], [a[steps] for a in saved], [a[steps] for a in grads])
        _send(s_t, _over_steps(grads[3][:, :, :d]).reshape(s_t.data.shape))

    return _rollout(s_t, f_t, classifier, horizon, parents, x, slice(d, 2 * d), feed_features,
                    step, step_back, (d, d, m, width), send)


def ssp_rollout(s_t, f_t, block, classifier, horizon: int, keep=None):
    """The single-shot predictor as one node: (..., horizon, d) features and
    their (..., horizon, C) logits from (..., 1, d) rows s_t and f_t.

    Row tau - 1 of the block input is [s_t | f_t | softmax(f_t classifier) |
    onehot(tau)], so no horizon sees another. One `block` (as `_block_data`
    takes it) runs over every row at once, and `classifier` scores each
    feature. `keep` is a (..., horizon, d) dropout mask or None.
    """
    d, n_classes = _check_rollout("ssp_rollout", s_t, f_t, classifier, horizon)
    shared, m = 2 * d + n_classes, block[0].data.shape[1]
    k = shared + horizon
    if _check_block("ssp_rollout", k, *block) != d:
        raise ShapeError(f"ssp_rollout: block output width {block[2].data.shape[1]} is not {d}")
    lead = s_t.data.shape[:-2]
    if keep is not None and np.shape(keep) != lead + (horizon, d):
        raise ShapeError(f"ssp_rollout: keep mask {np.shape(keep)} for {lead + (horizon, d)}")
    wc, f_rows = classifier.data, f_t.data.reshape(-1, d)
    n = len(f_rows)
    p_t = _softmax_data(_dot(f_rows, wc))
    x = np.empty((n, horizon, k))
    x[:, :, :d] = s_t.data.reshape(n, 1, d)
    x[:, :, d : 2 * d] = f_rows[:, None]
    x[:, :, 2 * d : shared] = p_t[:, None]
    x[:, :, shared:] = np.eye(horizon)
    rows = x.reshape(-1, k)
    masks = None if keep is None else np.reshape(keep, (-1, d))
    data = _block_data(block)
    parents = (s_t, f_t, classifier, *block)
    saved = _stacks(1, len(rows), (m, d, 1)) if _tapes(parents) else None
    feats = _block_forward(rows, data, masks, None, saved and _by_step(saved)[0])
    logits = _dot(feats, wc)

    # A gradient with two terms adds them in the order the chain of single
    # ops' tape did: a feature's own, then the classifier's; the
    # classifier's from the logits, then from p_t. s_t, f_t and p_t get the
    # sum over their horizon rows, added row by row onto zeros as the tape's
    # scatter did (so a -0.0 sum reads +0.0).
    def backward(g_feats, g_logits):
        g, g_wc = None if g_feats is None else g_feats.reshape(-1, d), None
        if g_logits is not None:
            gz = g_logits.reshape(-1, n_classes)
            g, g_wc = _plus(g, _dot(gz, wc.T)), _dot(feats.T, gz)
        grads = _stacks(1, len(rows), (d, d, m, k))
        gx = _block_backward(g, _by_step(saved)[0], masks, data, _by_step(grads)[0])
        _send_block(block, rows[None], saved, grads)
        g_shared = np.add.reduce(gx.reshape(n, horizon, k)[:, :, :shared], axis=1,
                                 keepdims=True, initial=0.0)
        _send(s_t, g_shared[:, :, :d].reshape(s_t.data.shape))
        _send(f_t, g_shared[:, :, d : 2 * d].reshape(f_t.data.shape))
        gz_t = _softmax_grad(g_shared[:, 0, 2 * d :], p_t)
        _send(classifier, _plus(g_wc, _dot(f_rows.T, gz_t)))
        _send(f_t, _dot(gz_t, wc.T).reshape(f_t.data.shape))

    return _features_and_logits(feats.reshape(lead + (horizon, d)),
                                logits.reshape(lead + (horizon, n_classes)), parents, backward)


def _kernel_rows(out_len: int) -> np.ndarray:
    """The padded input rows under each output row of a conv1d layer, in order."""
    return (2 * np.arange(out_len)[:, None] + np.arange(3)).ravel()


def conv1d(window, weights, biases) -> Tensor:
    """The conv1d aggregator as one node: strided convolutions that reduce a
    window to one row, and the shortcut.

    `window` is (..., T, d); layer i has a (3 d, d) weight and a (d,) bias.
    Each layer zero-pads one row top and bottom and multiplies every run of
    three rows, side by side, at stride 2 by its weight, so L rows become
    ceil(L / 2); a ReLU sits between layers. The window's last row is added
    onto the (..., 1, d) result, so the layers must reach one row: T <=
    2 ** layers.
    """
    shape = window.data.shape
    if (len(shape) < 2 or not weights or len(biases) != len(weights)
            or not 1 <= shape[-2] <= 2 ** len(weights)
            or any(w.data.shape != (3 * shape[-1], shape[-1]) for w in weights)
            or any(b.data.shape != shape[-1:] for b in biases)):
        raise ShapeError(f"conv1d: window {shape}, weights {[w.data.shape for w in weights]} "
                         f"and biases {[b.data.shape for b in biases]}: needs (3 d, d) weights, "
                         f"(d,) biases and T <= 2 ** layers")
    lead, (t, d) = shape[:-2], shape[-2:]
    x = window.data.reshape(-1, t, d)
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
    data += window.data[..., t - 1 :, :]

    def backward(g):  # layer by layer, the top one first
        rows = g.reshape(-1, d)
        for layer in reversed(range(len(weights))):
            win, w = wins[layer], weights[layer]
            out_len = len(win) // n
            _send(biases[layer],
                  rows.reshape(lead + (out_len, d)).sum(axis=tuple(range(len(lead) + 1))))
            _send(w, _dot(win.T, rows))
            if layer == 0 and not window._tracked:
                return
            g_pad = np.zeros((n, inputs[layer].shape[1] + 2, d))
            np.add.at(g_pad, (slice(None), _kernel_rows(out_len)),
                      _dot(rows, w.data.T).reshape(n, -1, d))
            g_in = g_pad[:, 1:-1]
            if layer:
                rows = (g_in * (inputs[layer] > 0)).reshape(-1, d)
        g_in[:, t - 1] += g.reshape(n, d)
        window._accumulate(g_in.reshape(shape))

    return _make(data, (window, *weights, *biases), backward)


def attention(window, pe, wq, wk, wv, wo, n_heads: int):
    """The TTM layer as one node: a window's last row attends over its earlier
    rows, and the attended result is added back onto that row.

    `window` is (..., T, d) with T >= 2, `pe` a (T, d) position table added
    to each window, and the four weights are (d, d). With x = window + pe,
    row T-1 queries rows :T-1. Head h owns columns h*d/n_heads to
    (h+1)*d/n_heads of the q, k and v projections; it scores softmax(q_h
    k_h^T / sqrt(d)), the full width as temperature. The head outputs, side
    by side, are projected by `wo` and added onto x's last row. Returns the
    (..., 1, d) output and the (..., n_heads, T-1) weights as an ndarray.
    """
    shape = window.data.shape
    if (len(shape) < 2 or shape[-2] < 2 or np.shape(pe) != shape[-2:] or n_heads < 1
            or shape[-1] % n_heads):
        raise ShapeError(f"attention: window {shape}, position table {np.shape(pe)} and "
                         f"{n_heads} heads: needs T >= 2 rows, a (T, d) table, heads dividing d")
    lead, (t, d) = shape[:-2], shape[-2:]
    m, d_k = t - 1, d // n_heads
    swap = (*range(len(lead)), len(lead) + 1, len(lead))  # the last two axes; self-inverse
    x = window.data + pe
    query = x[..., m:, :]
    q_rows, mem_rows = query.reshape(-1, d), x[..., :m, :].reshape(-1, d)
    q = _dot(q_rows, wq.data).reshape(lead + (1, n_heads, d_k))
    k = _dot(mem_rows, wk.data).reshape(lead + (m, n_heads, d_k))
    v = _dot(mem_rows, wv.data).reshape(lead + (m, n_heads, d_k))
    scale = 1.0 / math.sqrt(d)
    weights = _softmax_data(np.add.reduce(k * q, axis=-1).transpose(swap) * scale)
    spread = weights.transpose(swap).reshape(lead + (m, n_heads, 1))
    heads = np.add.reduce(spread * v, axis=-3).reshape(lead + (1, d))
    data = _dot(heads.reshape(-1, d), wo.data).reshape(lead + (1, d))
    data += query

    def backward(g):  # the window's gradient only when it is tracked
        rows = g.reshape(-1, d)
        _send(wo, _dot(heads.reshape(-1, d).T, rows))
        g_heads = _dot(rows, wo.data.T).reshape(lead + (1, n_heads, d_k))
        g_v = (spread * g_heads).reshape(-1, d)
        g_w = np.add.reduce(v * g_heads, axis=-1).transpose(swap)
        g_scores = np.expand_dims((_softmax_grad(g_w, weights) * scale).transpose(swap), -1)
        g_k = (g_scores * q).reshape(-1, d)
        g_q = np.add.reduce(g_scores * k, axis=-3).reshape(-1, d)
        _send(wv, _dot(mem_rows.T, g_v))
        _send(wk, _dot(mem_rows.T, g_k))
        _send(wq, _dot(q_rows.T, g_q))
        if window._tracked:
            g_x = np.empty(shape)
            g_x[..., :m, :] = (_dot(g_v, wv.data.T) + _dot(g_k, wk.data.T)).reshape(lead + (m, d))
            g_x[..., m:, :] = g + _dot(g_q, wq.data.T).reshape(g.shape)
            window._accumulate(g_x)

    return _make(data, (window, wq, wk, wv, wo), backward), weights


def _cell_forward(xh, c, w, b, tape: bool, h_out):
    """One LSTM cell step on 2-D rows [x | h] and c, with the arrays `w` and
    `b` (a (1, 4 d_h) row), writing h' into `h_out`; returns h', c' and, if
    taping, the backward's inputs. Callers run it under
    np.errstate(over="ignore"): a gate below -709 overflows exp to its right 0."""
    d_h = c.shape[1]
    pre = _dot(xh, w)
    pre += b
    gates = np.reciprocal(np.exp(-pre) + 1.0)  # all four blocks; the g block goes unused
    cand = np.tanh(pre[:, 2 * d_h : 3 * d_h])
    c_new = gates[:, d_h : 2 * d_h] * c
    c_new += gates[:, :d_h] * cand
    tc = np.tanh(c_new)
    h = np.multiply(gates[:, 3 * d_h :], tc, out=h_out)
    return h, c_new, ((c, gates, cand, tc) if tape else None)


def _cell_backward(gh, gc, cache, w, dpre):
    """The gradients of the rows [x | h] and of c from those of h' and c' (None
    is zero), with the array `w`. Fills `dpre`, the step's rows of the stack
    of gate pre-activation gradients from which the caller sums w's and b's."""
    c, gates, cand, tc = cache
    d_h = c.shape[1]
    i, f, o = (gates[:, k * d_h : (k + 1) * d_h] for k in (0, 1, 3))
    gc = _plus(gc, gh * o * np.subtract(1.0, tc * tc))
    dgate = np.concatenate([gc * cand, gc * c, gc * i, gh * tc], axis=-1)
    np.multiply(dgate * gates, np.subtract(1.0, gates), out=dpre)
    dpre[:, 2 * d_h : 3 * d_h] = dgate[:, 2 * d_h : 3 * d_h] * np.subtract(1.0, cand * cand)
    return _dot(dpre, w.T), gc * f


def lstm_step(x, w, b) -> Tensor:
    """The LSTM encoder as one node: an LSTM over a window from the zero
    state, whose last h plus the window's last row (the shortcut) is the
    output, run back through time by hand.

    `x` is (..., T, d) with rows in time order, `w` is (2 d, 4 d) with the
    x rows first, and `b` is (4 d,), so the hidden width is the input's.
    The gates i, f, g, o own column blocks 0 to 3: c' = f c + i g and h' = o
    tanh(c') per row, with sigmoid i, f, o and tanh g. Returns (..., 1, d).
    """
    shape = x.data.shape
    if (len(shape) < 2 or shape[-2] < 1 or w.data.shape != (2 * shape[-1], 4 * shape[-1])
            or b.data.shape != (4 * shape[-1],)):
        raise ShapeError(f"lstm_step: x {shape} for weight {w.data.shape} and bias "
                         f"{b.data.shape}: needs a (2 d, 4 d) weight and a (4 d,) bias")
    t, d = shape[-2:]
    windows = x.data.reshape(-1, t, d)
    n = len(windows)
    xh = np.empty((t + 1, n, 2 * d))  # [x_s | h_s] in w's row order; h_T
    xh[:t, :, :d] = windows.swapaxes(0, 1)
    xh[0, :, d:] = 0.0
    c, caches, tape = np.zeros((n, d)), [None] * t, _tapes((x, w, b))
    b_row = _row(b)
    with np.errstate(over="ignore"):
        for s in range(t):
            _, c, caches[s] = _cell_forward(xh[s], c, w.data, b_row, tape, xh[s + 1, :, d:])
    data = xh[t, :, d:] + xh[t - 1, :, :d]

    def backward(g):
        gh, gc = g.reshape(-1, d), None
        gx = np.empty((n, t, d))
        dpre = np.empty((t, n, 4 * d))
        for s in reversed(range(t)):
            gxh, gc = _cell_backward(gh, gc, caches[s], w.data, dpre[s])
            gx[:, s], gh = gxh[:, :d], gxh[:, d:]
        _send(w, _weight_grad(xh[:t], dpre))
        _send(b, _bias_grad(dpre))
        if x._tracked:
            gx[:, t - 1] += g.reshape(-1, d)
            x._accumulate(gx.reshape(shape))

    return _make(data.reshape(shape[:-2] + (1, d)), (x, w, b), backward)


def lstm_rollout(s_t, f_t, w, b, classifier, horizon: int):
    """The LSTM decoder chain as one node: (..., horizon, d) features and their
    (..., horizon, C) logits from (..., 1, d) rows s_t and f_t.

    The `lstm_step` cell `w`, `b` starts from the state [s_t | 0] and the
    input [f_t | softmax(f_t classifier)]; each step's h is its feature,
    and [feature | softmax(logits)] is the next input.
    """
    d, n_classes = _check_rollout("lstm_rollout", s_t, f_t, classifier, horizon)
    d_in = d + n_classes
    if w.data.shape != (d_in + d, 4 * d) or b.data.shape != (4 * d,):
        raise ShapeError(f"lstm_rollout: weight {w.data.shape} and bias {b.data.shape} "
                         f"for inputs of width {d_in} and hidden width {d}")
    rows = s_t.data.reshape(-1, d)
    parents = (s_t, f_t, w, b, classifier)
    tape = _tapes(parents)
    x = np.empty((horizon + 1, len(rows), d_in + d))  # [x | h] in w's row order
    x[0, :, d_in:] = rows
    c = [np.zeros(rows.shape), None]  # the cell state after the last step run, its gradient
    caches = [None] * horizon
    b_row = _row(b)

    def step(s, out):
        h, c[0], caches[s] = _cell_forward(x[s], c[0], w.data, b_row, tape, out)
        x[s + 1, :, d_in:] = h
        return h

    def step_back(s, g, gx, grads):  # the state's h gets the next cell's h rows, then g
        gx, c[1] = _cell_backward(g if gx is None else gx[:, d_in:] + g,
                                  None if gx is None else c[1], caches[s], w.data, grads[0])
        if s == 0:
            _send(s_t, gx[:, d_in:].reshape(s_t.data.shape))
        return gx

    def send(grads):
        _send(w, _weight_grad(x[:horizon], grads[0]))
        _send(b, _bias_grad(grads[0]))

    with np.errstate(over="ignore"):
        return _rollout(s_t, f_t, classifier, horizon, parents, x, slice(0, d), True, step,
                        step_back, (4 * d,), send)


class Parameter:
    """Named trainable tensor with an SGD momentum buffer."""

    __slots__ = ("name", "value", "momentum")

    def __init__(self, name: str, data):
        self.name = name
        self.value = Tensor(np.array(data, dtype=np.float64), requires_grad=True)
        self.momentum = np.zeros_like(self.value.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.data.shape

    @property
    def size(self) -> int:
        return self.value.data.size

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


class ParameterSet:
    """Base of the parameter dataclasses, each `frozen=True` so no field is
    swapped after a forward. `parameters()` lists the Parameter fields in
    declaration order, going down into tuples and nested sets, so a new field
    trains and checkpoints without being listed by hand."""

    def parameters(self) -> list[Parameter]:
        found = []
        for f in fields(self):
            value = getattr(self, f.name)
            for item in value if isinstance(value, tuple) else (value,):
                if isinstance(item, Parameter):
                    found.append(item)
                elif isinstance(item, ParameterSet):
                    found += item.parameters()
        return found

    @cached_property
    def values(self) -> tuple[Tensor, ...]:
        """The tensors of `parameters()`, in order, listed once, so a forward
        walks no fields. Training and `load_state` change a tensor's data,
        never the tensor, so the tuple follows the weights."""
        return tuple(p.value for p in self.parameters())


def glorot(rng, rows: int, cols: int) -> np.ndarray:
    """Uniform init in +-sqrt(6/(fan_in+fan_out))."""
    limit = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-limit, limit, size=(rows, cols))


def sgd_step(params, lr: float, momentum: float = 0.0) -> None:
    """buffer <- momentum*buffer + grad; value <- value - lr*buffer; clear grads.

    Every gradient is checked before any parameter moves, so a missing or
    non-finite one raises a GradientError naming its parameter and leaves
    no step half-applied.
    """
    for p in params:
        g = p.value.grad
        if g is None:
            raise GradientError(f"parameter {p.name!r} has no gradient")
        if not np.isfinite(g).all():
            raise GradientError(f"parameter {p.name!r} has a non-finite gradient")
    for p in params:
        p.momentum *= momentum
        p.momentum += p.value.grad
        p.value.data -= lr * p.momentum
        p.value.grad = None


def grad_check(f, inputs, step: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` must return a scalar Tensor and be deterministic across calls
    (fix any rng inside `f` per invocation). Inputs are flipped to
    requires_grad. Returns max|a - n| / max(|a|, |n|, 1e-8), where the
    denominator magnitudes are taken over the whole gradient: central
    differences at double precision carry absolute noise around
    ulp(loss)/(2*step), so elementwise quotients would report that noise,
    not gradient bugs, on elements whose true gradient is tiny.
    """
    inputs = list(inputs)
    for t in inputs:
        t.requires_grad = True
        t.grad = None
    out = f(*inputs)
    if out.data.size != 1:
        raise ValueError(f"grad_check: f must be scalar-valued, got shape {out.shape}")
    out.backward()
    analytic = [
        np.zeros_like(t.data) if t.grad is None else t.grad.copy() for t in inputs
    ]
    worst_diff = 0.0
    a_scale = max((np.abs(a).max() for a in analytic if a.size), default=0.0)
    n_scale = 0.0
    for t, a in zip(inputs, analytic):
        flat = t.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = f(*inputs).item()
            flat[i] = orig - step
            lo = f(*inputs).item()
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            n_scale = max(n_scale, abs(numeric))
            worst_diff = max(worst_diff, abs(aflat[i] - numeric))
    return worst_diff / max(a_scale, n_scale, 1e-8)
