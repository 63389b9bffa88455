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
Dropout takes pre-drawn uniforms, so a caller can draw the masks of a
whole batch at once in the order per-sample draws would read them.
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


def transpose(a: Tensor, axes) -> Tensor:
    """Permute the axes as `axes` lists them."""

    def backward(g):
        a._accumulate(g.transpose(np.argsort(axes)))

    return _make(a.data.transpose(axes), (a,), backward)


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
    offsets = np.cumsum(sizes)[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, offsets, axis=axis)):
            if t._tracked:
                t._accumulate(piece)

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


def sigmoid(a: Tensor) -> Tensor:
    y = 1.0 / (1.0 + np.exp(-a.data))

    def backward(g):
        a._accumulate(g * y * (1.0 - y))

    return _make(y, (a,), backward)


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.data)

    def backward(g):
        a._accumulate(g * (1.0 - y * y))

    return _make(y, (a,), backward)


def softmax(a: Tensor) -> Tensor:
    """Softmax along the last axis, stabilized by max subtraction."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Standardize along the last axis, then apply learned gain and bias."""
    n = x.data.shape[-1]
    if gain.data.shape[-1] != n or bias.data.shape[-1] != n:
        raise ShapeError(
            f"layer_norm: gain/bias extents {gain.data.shape}/{bias.data.shape} "
            f"do not match input last axis {n}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv_std
    data = xhat * gain.data + bias.data

    def backward(g):
        if gain._tracked:
            gain._accumulate(_unbroadcast(g * xhat, gain.data.shape))
        if bias._tracked:
            bias._accumulate(_unbroadcast(g, bias.data.shape))
        if x._tracked:
            gh = g * gain.data
            m1 = gh.mean(axis=-1, keepdims=True)
            m2 = (gh * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv_std * (gh - m1 - xhat * m2))

    return _make(data, (x, gain, bias), backward)


def dropout(x: Tensor, rate: float, uniforms=None) -> Tensor:
    """Inverted dropout from pre-drawn uniforms; no uniforms means no dropout.

    An entry is kept where its uniform in [0, 1) is >= rate, and survivors
    are scaled by 1/(1-rate). `uniforms` has the shape of `x`. Drawing
    them outside lets one draw serve a whole batch: ``rng.random((B, H,
    d))`` reads the rng stream in the same C order as B x H draws of
    (1, d), sample by sample and step by step.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if uniforms is None or rate == 0.0:
        return x
    if np.shape(uniforms) != x.data.shape:
        raise ShapeError(f"dropout: uniforms {np.shape(uniforms)} for input {x.data.shape}")
    keep = (uniforms >= rate) / (1.0 - rate)

    def backward(g):
        x._accumulate(g * keep)

    return _make(x.data * keep, (x,), backward)


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
