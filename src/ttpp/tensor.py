"""Dense float64 tensors with reverse-mode differentiation and SGD.

A small define-by-run engine: every operation stores a backward closure on
its output, and ``Tensor.backward()`` replays the tape in reverse
topological order. Storage is plain numpy float64, row-major. The tape is
rebuilt on every forward pass, so rollouts of varying length need no
special casing. Inside ``no_grad()`` no tape is built at all.

Operations act on the last axis or two and treat any axes before them as
batch axes: ``matmul`` multiplies a (..., k) operand by a shared 2-D
(k, n) weight, and the elementwise ops broadcast. A mini-batch therefore
runs as one graph over a (B, ...) stack instead of one graph per sample.

The cost of a small graph is the tape, one Python node per op, not the
flops. So each model layer is one fused op with one node and a
hand-written backward: ``mlp_norm`` (two dense layers, layer norm and
dropout: the prediction block), ``attention`` (multi-head attention of one
query row over a memory) and ``lstm_step`` (one LSTM cell step). Each
computes what a chain of single ops (matmul, add, relu, softmax, ...)
would, with the same numpy reductions on the same memory layouts: a
gradient is C-contiguous wherever a node of that chain would have copied
it. Summation order therefore matches, and so do the numbers, bit for
bit. Dropout takes a keep mask drawn by `keep_mask`, so a caller can draw
the masks of a whole batch at once in the order per-sample draws would
read them.
"""

from __future__ import annotations

import contextlib
import math

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

    # operator sugar
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return add(self, mul(_ensure(other), -1.0))

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return take(self, key)

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)


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


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backward) -> Tensor:
    out = Tensor(data)
    if not _taping:
        return out
    live = tuple(p for p in parents if p._tracked)
    if live:
        out._parents = live
        out._backward = backward
    return out


def add(a: Tensor, b) -> Tensor:
    b = _ensure(b)
    data = a.data + b.data

    def backward(g):
        if a._tracked:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b._tracked:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(data, (a, b), backward)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; a scalar `b` is a 0-d operand."""
    b = _ensure(b)
    data = a.data * b.data

    def backward(g):
        if a._tracked:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b._tracked:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(data, (a, b), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., k) times a 2-D (k, n) weight; the leading axes of `a` are batch axes.

    Batch axes are folded into the rows of one 2-D product, which is
    faster than numpy's product per matrix of the stack; the weight
    gradient sums over them the same way. A 2-D operand folds to itself.
    """
    if a.data.ndim < 2 or b.data.ndim != 2 or a.data.shape[-1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} x {b.data.shape}")
    k, n = b.data.shape
    data = (a.data.reshape(-1, k) @ b.data).reshape(a.data.shape[:-1] + (n,))

    def backward(g):
        rows = g.reshape(-1, n)
        if a._tracked:
            a._accumulate((rows @ b.data.T).reshape(a.data.shape))
        if b._tracked:
            b._accumulate(a.data.reshape(-1, k).T @ rows)

    return _make(data, (a, b), backward)


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.data.shape

    def backward(g):
        a._accumulate(g.reshape(orig))

    return _make(a.data.reshape(shape), (a,), backward)


def take(a: Tensor, key) -> Tensor:
    def backward(g):
        gx = np.zeros_like(a.data)
        np.add.at(gx, key, g)
        a._accumulate(gx)

    return _make(a.data[key], (a,), backward)


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

    return _make(data, tuple(tensors), backward)


def tensor_sum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        a._accumulate(np.broadcast_to(g, a.data.shape).copy())

    return _make(data, (a,), backward)


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0

    def backward(g):
        a._accumulate(g * mask)

    return _make(np.where(mask, a.data, 0.0), (a,), backward)


def _softmax_data(a: np.ndarray) -> np.ndarray:
    shifted = a - a.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    y = _softmax_data(a.data)

    def backward(g):
        inner = (g * y).sum(axis=-1, keepdims=True)
        a._accumulate(y * (g - inner))

    return _make(y, (a,), backward)


def log_softmax(a: Tensor) -> Tensor:
    """Log of the softmax along the last axis, computed from the logits."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    y = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))

    def backward(g):
        a._accumulate(g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return _make(y, (a,), backward)


def keep_mask(rng, rate: float, shape) -> np.ndarray | None:
    """Inverted dropout: 1/(1-rate) where a uniform in [0, 1) is >= rate, else 0.

    None (no dropout) without an rng or at rate 0. One draw of `shape`
    reads the rng in C order, as B x H draws of (1, d) would for (B, H, d).
    """
    if rng is None or rate == 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


def mlp_norm(x, w1, b1, w2, b2, gain, bias, keep=None) -> Tensor:
    """layer_norm(relu(x w1 + b1) w2 + b2) * gain + bias, times `keep`, as one node.

    `x` is (..., k), with (k, m) `w1`, (m, n) `w2` and (n,) biases, gain
    and bias. Layer norm standardizes along the last axis by the
    population mean and variance (summed by ``np.add.reduce`` as
    ``np.mean`` and ``np.var`` sum), with eps 1e-5. `keep`, a dropout
    mask from `keep_mask` with the output's shape, multiplies the output;
    None means no dropout.
    """
    k, m = w1.data.shape
    n = w2.data.shape[1]
    if x.data.shape[-1] != k or w2.data.shape[0] != m:
        raise ShapeError(
            f"mlp_norm: input extent {x.data.shape[-1]} does not fit weights "
            f"{w1.data.shape}, {w2.data.shape}"
        )
    if (b1.data.shape, b2.data.shape, gain.data.shape, bias.data.shape) != ((m,), (n,), (n,), (n,)):
        raise ShapeError(
            f"mlp_norm: biases {b1.data.shape}, {b2.data.shape} and gain/bias "
            f"{gain.data.shape}/{bias.data.shape} do not fit widths {m}, {n}"
        )
    lead = x.data.shape[:-1]
    pre = (x.data.reshape(-1, k) @ w1.data).reshape(lead + (m,)) + b1.data
    active = pre > 0
    hidden = np.where(active, pre, 0.0)
    y = (hidden.reshape(-1, m) @ w2.data).reshape(lead + (n,)) + b2.data
    dev = y - np.add.reduce(y, axis=-1, keepdims=True) / n
    inv_std = 1.0 / np.sqrt(np.add.reduce(dev * dev, axis=-1, keepdims=True) / n + 1e-5)
    xhat = dev * inv_std
    data = xhat * gain.data + bias.data
    if keep is not None:
        if np.shape(keep) != data.shape:
            raise ShapeError(f"mlp_norm: keep mask {np.shape(keep)} for output {data.shape}")
        data = data * keep

    def backward(g):
        if keep is not None:
            g = g * keep
        if gain._tracked:
            gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias._tracked:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        gh = g * gain.data
        m1 = np.add.reduce(gh, axis=-1, keepdims=True) / n
        m2 = np.add.reduce(gh * xhat, axis=-1, keepdims=True) / n
        gy = inv_std * (gh - m1 - xhat * m2)
        if b2._tracked:
            b2._accumulate(_unbroadcast(gy, b2.data.shape))
        rows = gy.reshape(-1, n)
        if w2._tracked:
            w2._accumulate(hidden.reshape(-1, m).T @ rows)
        gpre = (rows @ w2.data.T).reshape(lead + (m,)) * active
        if b1._tracked:
            b1._accumulate(_unbroadcast(gpre, b1.data.shape))
        rows = gpre.reshape(-1, m)
        if w1._tracked:
            w1._accumulate(x.data.reshape(-1, k).T @ rows)
        if x._tracked:
            x._accumulate((rows @ w1.data.T).reshape(x.data.shape))

    return _make(data, (x, w1, b1, w2, b2, gain, bias), backward)


def attention(query, memory, wq, wk, wv, wo, n_heads: int):
    """Multi-head scaled dot-product attention of one query row, as one node.

    `query` is (..., 1, d) and `memory` (..., M, d), with the same leading
    batch axes, and the four weights are (d, d). Head h owns columns
    h*d/n_heads to (h+1)*d/n_heads of the q, k and v projections; it
    scores softmax(q_h k_h^T / sqrt(d)), the full width as temperature.
    The head outputs, side by side, are projected by `wo`. Returns the
    (..., 1, d) output and the (..., n_heads, M) weights as an ndarray.
    """
    lead = memory.data.shape[:-2]
    m, d = memory.data.shape[-2:]
    if m < 1:
        raise ShapeError(f"attention: empty memory {memory.data.shape}")
    if query.data.shape != lead + (1, d) or d % n_heads:
        raise ShapeError(
            f"attention: query {query.data.shape} for memory {memory.data.shape} "
            f"and {n_heads} heads"
        )
    d_k = d // n_heads
    swap = (*range(len(lead)), len(lead) + 1, len(lead))  # the last two axes; self-inverse
    mem_rows = memory.data.reshape(-1, d)
    q = (query.data.reshape(-1, d) @ wq.data).reshape(lead + (1, n_heads, d_k))
    k = (mem_rows @ wk.data).reshape(lead + (m, n_heads, d_k))
    v = (mem_rows @ wv.data).reshape(lead + (m, n_heads, d_k))
    scale = 1.0 / math.sqrt(d)
    weights = _softmax_data(np.add.reduce(k * q, axis=-1).transpose(swap) * scale)
    spread = weights.transpose(swap).reshape(lead + (m, n_heads, 1))
    heads = np.add.reduce(spread * v, axis=-3).reshape(lead + (1, d))
    data = (heads.reshape(-1, d) @ wo.data).reshape(lead + (1, d))

    # The copies below keep each reduction's input in the layout, and so the
    # summation order, that the chain of single ops gave it.
    def backward(g):
        rows = g.reshape(-1, d)
        if wo._tracked:
            wo._accumulate(heads.reshape(-1, d).T @ rows)
        g_prod = np.broadcast_to(
            (rows @ wo.data.T).reshape(lead + (1, n_heads, d_k)), v.shape
        ).copy()
        if wv._tracked or memory._tracked:
            g_v = (g_prod * spread).reshape(-1, d)
            if wv._tracked:
                wv._accumulate(mem_rows.T @ g_v)
            if memory._tracked:
                memory._accumulate((g_v @ wv.data.T).reshape(memory.data.shape))
        if not (wq._tracked or wk._tracked or query._tracked or memory._tracked):
            return
        g_w = np.ascontiguousarray(
            _unbroadcast(g_prod * v, spread.shape).reshape(lead + (m, n_heads)).transpose(swap)
        )
        g_scores = np.ascontiguousarray(
            (weights * (g_w - (g_w * weights).sum(axis=-1, keepdims=True)) * scale)
            .transpose(swap)
        )
        g_qk = np.broadcast_to(np.expand_dims(g_scores, -1), k.shape).copy()
        if wk._tracked or memory._tracked:
            g_k = (g_qk * q).reshape(-1, d)
            if wk._tracked:
                wk._accumulate(mem_rows.T @ g_k)
            if memory._tracked:
                memory._accumulate((g_k @ wk.data.T).reshape(memory.data.shape))
        if wq._tracked or query._tracked:
            g_q = _unbroadcast(g_qk * k, q.shape).reshape(-1, d)
            if wq._tracked:
                wq._accumulate(query.data.reshape(-1, d).T @ g_q)
            if query._tracked:
                query._accumulate((g_q @ wq.data.T).reshape(query.data.shape))

    return _make(data, (query, memory, wq, wk, wv, wo), backward), weights


def lstm_step(x, state, w, b) -> Tensor:
    """One LSTM cell step as one node, from and to the state [h | c] side by side.

    `x` is (..., d_in), `state` is (..., 2 d_h), `w` is (d_in + d_h,
    4 d_h) with the x rows first, and `b` is (4 d_h,). The gates i, f, g,
    o own column blocks 0 to 3: c' = f c + i g and h' = o tanh(c'), with
    sigmoid i, f, o and tanh g.
    """
    d_h = b.data.shape[0] // 4
    d_in = x.data.shape[-1]
    if w.data.shape != (d_in + d_h, 4 * d_h) or state.data.shape[-1] != 2 * d_h:
        raise ShapeError(
            f"lstm_step: x {x.data.shape}, state {state.data.shape} "
            f"for weight {w.data.shape} and bias {b.data.shape}"
        )
    c = state.data[..., d_h:]
    xh = np.concatenate([x.data, state.data[..., :d_h]], axis=-1)
    lead = xh.shape[:-1]
    pre = (xh.reshape(-1, d_in + d_h) @ w.data).reshape(lead + (4 * d_h,)) + b.data
    gates = 1.0 / (1.0 + np.exp(-pre))  # all four blocks; the g block goes unused
    i, f, o = (gates[..., k * d_h : (k + 1) * d_h] for k in (0, 1, 3))
    cand = np.tanh(pre[..., 2 * d_h : 3 * d_h])
    c_new = f * c + i * cand
    tc = np.tanh(c_new)
    data = np.concatenate([o * tc, c_new], axis=-1)

    def backward(g):
        gh, gc = g[..., :d_h], g[..., d_h:]
        gc = gc + gh * o * (1.0 - tc * tc)
        dgate = np.concatenate([gc * cand, gc * c, gc * i, gh * tc], axis=-1)
        dpre = dgate * gates * (1.0 - gates)
        dpre[..., 2 * d_h : 3 * d_h] = dgate[..., 2 * d_h : 3 * d_h] * (1.0 - cand * cand)
        if b._tracked:
            b._accumulate(_unbroadcast(dpre, b.data.shape))
        rows = dpre.reshape(-1, 4 * d_h)
        if w._tracked:
            w._accumulate(xh.reshape(-1, d_in + d_h).T @ rows)
        if x._tracked or state._tracked:
            gxh = (rows @ w.data.T).reshape(xh.shape)
            if x._tracked:
                x._accumulate(gxh[..., :d_in])
            if state._tracked:
                state._accumulate(np.concatenate([gxh[..., d_in:], gc * f], axis=-1))

    return _make(data, (x, state, w, b), backward)


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
