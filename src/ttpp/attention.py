"""Temporal transformer aggregation.

The current chunk feature queries the history of earlier chunk features
through multi-head scaled dot-product attention, and the attended summary
is added back onto the (position-encoded) query through a shortcut, giving
a single aggregated vector per observed window. The whole layer, position
rows and shortcut included, is one fused `tensor.attention` node, and its
parameter set holds the position table, so it runs on (window, params).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Parameter, ParameterSet, Tensor, attention, glorot


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


def aggregate(f_seq: Tensor, params: TTMParams):
    """Aggregate T observed chunk features into one vector.

    `params.pe` is added to the T inputs; the last row queries the earlier
    T-1 as memory, each head scoring softmax(q_h K_h^T / sqrt(d_m)), and the
    attended output is added back onto it. `f_seq` is one (T, d_m) window
    or a (B, T, d_m) stack, with T the table's length.
    Returns ((..., 1, d_m) summary, (..., n_heads, T-1) attention weights).
    """
    return attention(f_seq, params.pe, *params.values, params.n_heads)
