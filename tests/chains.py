"""The generic single-op nodes, the layer chains built from them, and the
test-side tools: `grad_check`, `param_set`, `rebind` and `live_tensors`.

Every model layer runs as one fused node, defined next to its parameter
set. Each node replaced a chain of generic nodes (add, mul, matmul,
reshape, take, concat, sum, relu, softmax, log_softmax and a one-node
prediction block), and the tests hold it to that chain: values and
gradients equal by bytes. The ops act on the last axis or two and treat any axes before
them as batch axes: `matmul` multiplies a (..., k) operand by a shared
2-D (k, n) weight, and the elementwise ops broadcast. A chain takes the
arguments of the layer it stands for, a parameter set included, so
`param_set` builds one set around a test's tensors for both. The private
helpers are reached through the module that defines them (`tensor`,
`prediction`, `baselines`, `training`), so a test that patches one with
`rebind` patches the chains too.
"""

from __future__ import annotations

import gc
import sys

import numpy as np

from ttpp import baselines, prediction, tensor, training
from ttpp.prediction import Rollout
from ttpp.tensor import Parameter, ShapeError, Tensor


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
            hi = float(f(*inputs).data)
            flat[i] = orig - step
            lo = float(f(*inputs).data)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * step)
            n_scale = max(n_scale, abs(numeric))
            worst_diff = max(worst_diff, abs(aflat[i] - numeric))
    return worst_diff / max(a_scale, n_scale, 1e-8)


def param_set(cls, *fields):
    """A `cls` parameter set around the given tensors: each Tensor field, or
    Tensor in a tuple or list field, becomes a Parameter whose value slot is
    that very tensor, so the layer that reads the set sends its gradients
    to the caller's tensors. Other fields pass through as given."""

    def held(x):
        if isinstance(x, (tuple, list)):
            return tuple(held(item) for item in x)
        if not isinstance(x, Tensor):
            return x
        p = Parameter("held", x.data)
        p.value = x
        return p

    return cls(*(held(x) for x in fields))


def rebind(monkeypatch, module, name: str, replacement) -> list[int]:
    """Patch `module.name` with `replacement` in every ttpp module that binds
    the same object, so a call site that imported it (`from .tensor import
    _dot`) sees the patch too. Returns a one-entry list that counts the
    replacement's calls."""
    original, calls = getattr(module, name), [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return replacement(*args, **kwargs)

    for module_name, mod in list(sys.modules.items()):
        if module_name == "ttpp" or module_name.startswith("ttpp."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def live_tensors() -> int:
    """The Tensors alive after a full collection."""
    gc.collect()
    return sum(isinstance(o, Tensor) for o in gc.get_objects())


def _ensure(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to `shape`."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def add(a: Tensor, b) -> Tensor:
    b = _ensure(b)
    data = a.data + b.data

    def backward(g):
        if a._tracked:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b._tracked:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return tensor._make(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; a scalar `b` is a 0-d operand."""
    b = _ensure(b)
    data = a.data * b.data

    def backward(g):
        if a._tracked:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b._tracked:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return tensor._make(data, (a, b), backward)


def sub(a: Tensor, b) -> Tensor:
    return add(a, mul(_ensure(b), -1.0))


def neg(a: Tensor) -> Tensor:
    return mul(a, -1.0)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., k) times a 2-D (k, n) weight; the leading axes of `a` are batch axes,
    folded into the rows of one 2-D product."""
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    k, n = b.data.shape
    data = tensor._dot(a.data.reshape(-1, k), b.data).reshape(a.data.shape[:-1] + (n,))

    def backward(g):
        rows = g.reshape(-1, n)
        if a._tracked:
            a._accumulate(tensor._dot(rows, b.data.T).reshape(a.data.shape))
        if b._tracked:
            b._accumulate(tensor._dot(a.data.reshape(-1, k).T, rows))

    return tensor._make(data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def backward(g):
        a._accumulate(g.reshape(orig))

    return tensor._make(a.data.reshape(shape), (a,), backward)


def take(a: Tensor, key) -> Tensor:
    def backward(g):
        gx = np.zeros_like(a.data)
        np.add.at(gx, key, g)
        a._accumulate(gx)

    return tensor._make(a.data[key], (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = [_ensure(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(g):
        index = [slice(None)] * g.ndim
        start = 0
        for t, size in zip(tensors, sizes):
            if t._tracked:
                index[axis] = slice(start, start + size)
                t._accumulate(g[tuple(index)])
            start += size

    return tensor._make(data, tuple(tensors), backward)


def tensor_sum(a: Tensor) -> Tensor:
    """The sum of every entry, as a 0-d tensor."""
    data = a.data.sum()

    def backward(g):
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return tensor._make(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)

    return tensor._make(np.where(mask, a.data, 0.0), (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    y = tensor._softmax_data(a.data)

    def backward(g):
        a._accumulate(tensor._softmax_grad(g, y))

    return tensor._make(y, (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    """Log of the softmax along the last axis, computed from the logits."""
    y = training._log_softmax_data(a.data)

    def backward(g):
        a._accumulate(g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return tensor._make(y, (a,), backward)


def weighted_sum(out: Tensor, cost) -> Tensor:
    """sum(out * cost): the scalar a test backpropagates from."""
    return tensor_sum(mul(out, cost))


def total(*terms) -> Tensor:
    """The sum of scalar terms, added left to right."""
    acc = terms[0]
    for term in terms[1:]:
        acc = add(acc, term)
    return acc


def mlp_norm(x, w1, b1, w2, b2, gain, bias, keep=None) -> Tensor:
    """A prediction block as one node: layer_norm(relu(x w1 + b1) w2 + b2) *
    gain + bias, times `keep` (None: no dropout), on (..., k) rows."""
    block = (w1, b1, w2, b2, gain, bias)
    n = prediction._check_block("mlp_norm", x.data.shape[-1], *block)
    k = w1.data.shape[0]
    shape = x.data.shape[:-1] + (n,)
    if keep is not None and np.shape(keep) != shape:
        raise ShapeError(f"mlp_norm: keep mask {np.shape(keep)} for output {shape}")
    keep = None if keep is None else np.reshape(keep, (-1, n))
    data = prediction._block_data(block)
    rows = np.ascontiguousarray(x.data.reshape(-1, k))
    out, saved = prediction._block_forward(rows, data, keep, None)

    def backward(g):
        gx, kept = prediction._block_backward(g.reshape(-1, n), saved, keep, data)
        prediction._send_block(block, rows[None], [saved], [kept])
        tensor._send(x, gx.reshape(x.data.shape))

    return tensor._make(out.reshape(shape), (x, *block), backward)


def lstm_window(x, state, w, b) -> Tensor:
    """An LSTM over a (..., T, d_in) window from the (..., 1, 2 d_h) state [h |
    c], as one node: the state after the last row. A cell that carries
    state, for the chains that run one row at a time."""
    d_h = b.data.shape[0] // 4
    shape = x.data.shape
    if (len(shape) < 2 or shape[-2] < 1 or w.data.shape != (shape[-1] + d_h, 4 * d_h)
            or state.data.shape != shape[:-2] + (1, 2 * d_h)):
        raise ShapeError(f"lstm_window: x {x.data.shape}, state {state.data.shape} "
                         f"for weight {w.data.shape} and bias {b.data.shape}")
    t, d_in = shape[-2:]
    rows = state.data.reshape(-1, 2 * d_h)
    xh = np.empty((t + 1, len(rows), d_in + d_h))
    xh[:t, :, :d_in] = x.data.reshape(-1, t, d_in).swapaxes(0, 1)
    xh[0, :, d_in:] = rows[:, :d_h]
    c, caches, b_row = rows[:, d_h:], [None] * t, tensor._row(b)
    with np.errstate(over="ignore"):
        for s in range(t):
            _, c, caches[s] = baselines._cell_forward(xh[s], c, w.data, b_row, xh[s + 1, :, d_in:])
    data = np.concatenate([xh[t, :, d_in:], c], axis=-1)

    def backward(g):
        gh, gc = np.split(g.reshape(-1, 2 * d_h), 2, axis=1)
        gx, dpre = np.empty((len(rows), t, d_in)), [None] * t
        for s in reversed(range(t)):
            gxh, gc, dpre[s] = baselines._cell_backward(gh, gc, caches[s], w.data)
            gx[:, s], gh = gxh[:, :d_in], gxh[:, d_in:]
        dpre = np.array(dpre)
        tensor._send(w, tensor._weight_grad(xh[:t], dpre))
        tensor._send(b, tensor._bias_grad(dpre))
        tensor._send(x, gx.reshape(x.data.shape))
        tensor._send(state, np.concatenate([gh, gc], axis=-1).reshape(state.data.shape))

    return tensor._make(data.reshape(state.data.shape), (x, state, w, b), backward)


# ---- the chains the fused layers replaced ----------------------------------


def conv1d_chain(window, params) -> Tensor:
    """`baselines.conv1d_aggregate` as zero-pad concats, kernel-row takes,
    reshapes, matmuls, bias adds and ReLUs, then the shortcut."""
    depth = len(params.weights)
    weights, biases = params.values[:depth], params.values[depth:]
    t, d = window.shape[-2:]
    lead = window.shape[:-2]
    pad = Tensor(np.zeros(lead + (1, d)))
    x = window
    for layer, (w, b) in enumerate(zip(weights, biases)):
        if layer:
            x = relu(x)
        out_len = (x.shape[-2] - 1) // 2 + 1
        padded = concat([pad, x, pad], axis=-2)
        rows = (2 * np.arange(out_len)[:, None] + np.arange(3)).ravel()
        windows = reshape(take(padded, (Ellipsis, rows, slice(None))), lead + (out_len, 3 * d))
        x = add(matmul(windows, w), b)
    return add(x, take(window, (Ellipsis, slice(t - 1, t), slice(None))))


def encoder_chain(x, params) -> Tensor:
    """`baselines.lstm_encode`: an LSTM window from a zero state, the h half
    of its state taken out, and the window's last row added."""
    w, b = params.values
    t, d = x.shape[-2:]
    state = lstm_window(x, Tensor(np.zeros(x.shape[:-2] + (1, 2 * d))), w, b)
    return add(take(state, (Ellipsis, slice(None, d))),
               take(x, (Ellipsis, slice(t - 1, t), slice(None))))


def ssp_chain(s_t, f_t, params, keep=None) -> Rollout:
    """`baselines.ssp_rollout` as concat, take, matmul and softmax nodes
    around one `mlp_norm` over every horizon's row."""
    block, classifier, horizon = params.block.values, params.classifier.value, params.horizon
    lead = s_t.shape[:-2]
    shared = concat([s_t, f_t, softmax(matmul(f_t, classifier))], axis=-1)
    tags = np.eye(horizon) + np.zeros(lead + (1, 1))
    x = concat([take(shared, (Ellipsis, np.zeros(horizon, dtype=int), slice(None))),
                Tensor(tags)], axis=-1)
    features = mlp_norm(x, *block, keep)
    return Rollout(features, matmul(features, classifier))


def class_loss(logits, labels) -> Tensor:
    """-sum(labels * log_softmax(logits)) over every entry."""
    return neg(tensor_sum(mul(log_softmax(logits), np.asarray(labels, dtype=np.float64))))


def feature_loss(pred, target) -> Tensor:
    """sum((pred - target)^2) over every entry."""
    diff = sub(pred, Tensor(target))
    return tensor_sum(mul(diff, diff))


def total_loss(l_c, l_r, lam: float) -> Tensor:
    return add(l_c, mul(l_r, lam)) if lam != 0.0 else l_c


def loss_chain(roll, labels, target, lam: float):
    """`training.total_loss` as the chain of the two loss terms, their lam
    sum and the 1/B scale; returns the loss and the two terms."""
    l_c, l_r = class_loss(roll.logits, labels), feature_loss(roll.features, target)
    return mul(total_loss(l_c, l_r, lam), 1.0 / len(labels)), l_c, l_r
