"""Temporal transformer aggregation.

The current chunk feature queries the history of earlier chunk features
through multi-head scaled dot-product attention, and the attended summary
is added back onto the (position-encoded) query through a shortcut, giving
a single aggregated vector per observed window. The whole layer, position
rows and shortcut included, is one node, `aggregate`, and its parameter
set holds the position table, so it runs on (window, params).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import (Parameter, ParameterSet, ShapeError, Tensor, _dot, _make, _send,
                     _softmax_data, _softmax_grad, glorot)


@dataclass(frozen=True)
class TTMParams(ParameterSet):
    """Projections of every head, the output projection and the position table.

    `wq`, `wk` and `wv` are each d_m x d_m: head h owns columns h*d_k to
    (h+1)*d_k, with d_k = d_m / n_heads. The concatenated head outputs are
    mapped back to d_m by `wo`. `pe` is the (seq_len, d_m) sinusoidal table
    added to each window: not a Parameter, it neither trains nor is saved.
    """

    wq: Parameter
    wk: Parameter
    wv: Parameter
    wo: Parameter
    n_heads: int
    pe: np.ndarray


def init_ttm_params(d_m: int, n_heads: int, seq_len: int, rng) -> TTMParams:
    """Glorot init with one draw per head, so each head has the d_m x d_k limit.

    Draws run q heads, then k heads, then v heads, then the output projection.
    """
    d_k = d_m // n_heads
    wq, wk, wv = (
        Parameter(f"ttm.{name}", np.hstack([glorot(rng, d_m, d_k) for _ in range(n_heads)]))
        for name in "qkv"
    )
    wo = Parameter("ttm.o", glorot(rng, d_m, d_m))
    return TTMParams(wq, wk, wv, wo, n_heads, positional_encoding(seq_len, d_m))


def positional_encoding(length: int, d_m: int) -> np.ndarray:
    """Sinusoidal position table of shape (length, d_m).

    Entry (pos, i) is sin(pos / 10000**(i/d_m)) for even i and
    cos(pos / 10000**(i/d_m)) for odd i. The exponent uses i directly, so
    adjacent sin/cos dimensions run at slightly different frequencies
    (unlike the classic pairing that shares one frequency per 2i).
    """
    if length < 1 or d_m < 2:
        raise ValueError(f"need length >= 1 and d_m >= 2, got {length}, {d_m}")
    pos = np.arange(length, dtype=np.float64)[:, None]
    i = np.arange(d_m, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, i / d_m)
    table = np.where(np.arange(d_m) % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def aggregate(window: np.ndarray, params: TTMParams) -> tuple[Tensor, np.ndarray]:
    """Aggregate T observed chunk features into one vector, as one node.

    `window` is one (T, d_m) array or a (B, T, d_m) stack, with T >= 2 the
    length of `params.pe`, which is added to each window. The last row
    queries the earlier T-1 as memory, each head scoring softmax(q_h K_h^T
    / sqrt(d_m)), the full width as temperature; the head outputs, side by
    side, are projected by `wo` and added back onto the last row.
    Returns ((..., 1, d_m) summary, (..., n_heads, T-1) attention weights as
    an ndarray). The window, an array, takes no gradient.
    """
    wq, wk, wv, wo = params.values
    pe, n_heads = params.pe, params.n_heads
    if not isinstance(window, np.ndarray):
        raise TypeError(f"aggregate: window must be an ndarray, got {type(window).__name__}")
    shape = window.shape
    if (len(shape) < 2 or shape[-2] < 2 or np.shape(pe) != shape[-2:] or n_heads < 1
            or shape[-1] % n_heads):
        raise ShapeError(f"aggregate: window {shape}, position table {np.shape(pe)} and "
                         f"{n_heads} heads: needs T >= 2 rows, a (T, d) table, heads dividing d")
    lead, (t, d) = shape[:-2], shape[-2:]
    m, d_k = t - 1, d // n_heads
    swap = (*range(len(lead)), len(lead) + 1, len(lead))  # the last two axes; self-inverse
    x = window + pe
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

    def backward(g):
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

    return _make(data, (wq, wk, wv, wo), backward), weights
