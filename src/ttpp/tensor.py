"""The autodiff engine: dense float64 tensors, reverse-mode gradients and SGD.

A small define-by-run engine: every operation stores a backward closure on
its output, and ``Tensor.backward()`` replays the tape in reverse
topological order. Storage is plain numpy float64, row-major. The tape is
rebuilt on every forward pass, so rollouts of varying length need no
special casing.

Operations act on the last axis or two and treat any axes before them as
batch axes, folded into the rows of one 2-D product per weight. A
mini-batch therefore runs as one graph over a (B, ...) stack instead of
one graph per sample.

The cost of a small graph is the tape and the numpy calls per node, not
the flops. So every model layer is one fused op with a hand-written
backward, defined next to its parameter set: `attention.aggregate` (TTM),
`baselines.conv1d_aggregate` and `lstm_encode`, `prediction.rollout`
(PPM), `baselines.lstm_decode` and `ssp_rollout` (each a features node
with a logits child, from `_features_and_logits`) and
`training.total_loss`. This module keeps what they share. Only what
takes a gradient is a tensor: a window and the last feature `f_t` enter
the layers as arrays, so a training batch builds four tensors whatever
the cell: the aggregator's node, the predictor's two and the loss. Every
loss reads the logits, so a backward that reaches a rollout's features
alone is refused.
The tests hold each layer to the chain of generic single-op nodes it
replaced, kept in ``tests/chains.py``: values equal by bytes, gradients
by bytes or to 1e-12. A layer keeps what its backward reads as
references to arrays its forward computes anyway, and every forward
attaches its backward: a caller that never calls `backward()` drops the
graph with the outputs. Dropout takes a keep mask drawn by `keep_mask`,
so a caller can draw the masks of a whole batch at once in the order
per-sample draws would read them.

At one window a fused op's operands are single rows, so what a numpy call
costs is its dispatch, and each has a fast path with the same bits. The
fused ops keep to five rules (costs per call, on one-row operands unless
said, timed with `timeit` on 2 CPUs under numpy 2.4.6 and OpenBLAS 0.3.31):
- A 2-D product is `_dot(a, b)`: ``ndarray.dot`` (0.6-1.0 us) instead of
  the matmul gufunc `@` (1.55-1.85 us), on C- or F-contiguous operands
  only; a strided view goes to `@`, as `.dot` may sum it in another order.
  Operands contiguous by construction (rows of the op's own buffer, arrays
  it made, parameter arrays) skip the test: `_dot_contig` takes 0.50 us
  against 0.70. A rollout's features, at batch columns of its step
  buffer, keep `_dot`.
- A 1-D parameter (a bias, a layer-norm gain) enters as a (1, n) row,
  taken by `_row` once per op call, or once per set that caches its rows
  (`PPMParams.step_data`, `SSPParams.block_data`, `LSTMParams.cell`):
  ``y += b`` with a (1, 16) `b` on a (1, 16) `y` takes the same-shape loop
  (0.87 us), a (16,) `b` the broadcasting one (1.85 us).
- No Python scalar is a left operand: ``np.reciprocal(x)`` for ``1.0 / x``
  (0.46 us against 0.98) and ``np.subtract(1.0, x)`` for ``1.0 - x``.
- A parameter's gradient is one stacked product per call, summed in the
  tape's step order. Each step of the backward through time returns its
  gradient factors as arrays of its own; after the loop the backward
  stacks the arrays each step returned, and those the forward kept, and
  a weight gets
  ``np.add.reduce(np.matmul(X.transpose(0, 2, 1), G)[::-1], axis=0)``
  and a bias the same sum over its row sums, the bytes of one ``.dot`` per
  step added last step first. An (8, 16) weight and its bias over the
  7 progressive steps of a horizon-8 rollout take 8 us at one row and 13 us
  at 32 (`_weight_grad`, `_bias_grad`), against 34 and 39 us step by step.
- A row statistic of a one-row operand reduces the whole array
  (``axis=None``), and a scalar tail after it runs on Python floats: on a
  (1, 16) row ``np.add.reduce(y, None) / n`` takes 1.0 us against 1.8 for
  the keepdims reduce and its ``/ n``, the layer norm's ``1.0 /
  math.sqrt(... / n + 1e-5)`` 1.4 us against 3.4 for the (1, 1) array's
  sqrt and reciprocal, and scaling the row by a float 0.55 us against 1.75
  by a (1, 1) array. `_softmax_data` and `prediction._block_forward` choose
  the branch by the operand's row count, so a batch keeps its keepdims
  reductions; a one-row softmax takes 3.5 us against 4.1.
"""

from __future__ import annotations

import math
from dataclasses import fields
from functools import cached_property

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class GradientError(RuntimeError):
    """A gradient is missing or non-finite where the optimizer requires one,
    or a layer is asked for one that no run needs."""


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
        """Takes the first gradient as sent, and adds a later one out of place,
        so no sender's buffer is written through `grad`."""
        self.grad = g if self.grad is None else self.grad + g

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
    live = tuple(p for p in parents if p._tracked)
    if live:
        out._parents = live
        out._backward = backward
    return out


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


_dot_contig = np.ndarray.dot  # `_dot` without its test, for operands contiguous by construction


def _row(t: Tensor) -> np.ndarray:
    """A 1-D parameter as a (1, n) row view, which adds to (1, n) rows without broadcasting."""
    return t.data[None]


def _softmax_data(a: np.ndarray, out=None) -> np.ndarray:
    """Softmax over the last axis, each row less its max before exp. One row
    (a 1-D array or a (1, C) row) takes its max and sum over the whole array
    (the fifth rule), with the bits of the keepdims reductions."""
    if a.size == a.shape[-1]:
        e = a - np.maximum.reduce(a, None)
        np.exp(e, out=e)
        return np.divide(e, np.add.reduce(e, None), out=out)
    e = a - np.maximum.reduce(a, axis=-1, keepdims=True)
    np.exp(e, out=e)
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=out)


def _softmax_grad(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The gradient of softmax's input from its output `y` and output gradient `g`."""
    return y * (g - np.add.reduce(g * y, axis=-1, keepdims=True))


def keep_mask(rng, rate: float, shape) -> np.ndarray | None:
    """Inverted dropout: 1/(1-rate) where a uniform in [0, 1) is >= rate, else 0.

    None (no dropout) without an rng or at rate 0. One draw of `shape`
    reads the rng in C order, as B x H draws of (1, d) would for (B, H, d).
    """
    if rng is None or rate == 0.0:
        return None
    return (rng.random(shape) >= rate) / (1.0 - rate)


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


def _features_and_logits(features, logits, parents, backward):
    """A predictor's two outputs from one node: the features node over
    `parents` and a logits child that hands it their gradient, so
    `backward(g_features, g_logits)` runs once, with None for features that
    no loss term reached. Every loss reads the logits, so a backward that
    reaches the features alone is refused."""
    handed = []

    def run(g):
        if not handed:
            raise GradientError("a backward reached a rollout's features but not its logits; "
                                "the rollout's backward starts from the logits' gradient")
        backward(g, handed.pop())

    node = _make(features, parents, run)
    child = Tensor(logits)
    if node._backward is not None:
        child._parents, child._backward = (node,), handed.append
    return node, child


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
        walks no fields. Training and `load_state` write into a tensor's
        array in place: neither the tensor nor its array is ever rebound,
        so this tuple, and the rows and checks a set caches from the
        arrays, follow the weights."""
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
