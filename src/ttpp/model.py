"""Aggregator x predictor composition and checkpoints.

Any aggregator (ttm, conv1d, lstm) pairs with any predictor (ppm, ssp,
lstm) through one interface: the aggregator turns a T x d_m window into a
1 x d_m summary, the predictor turns (summary, current feature) into a
rollout of future (feature, class logits) pairs. A (B, T, d_m) stack of
windows runs the same code with a leading batch axis on every tensor.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import attention, baselines, prediction
from .tensor import Parameter, Tensor, keep_mask, no_grad

AGGREGATORS = ("ttm", "conv1d", "lstm")
PREDICTORS = ("ppm", "ssp", "lstm")
PPM_VARIANTS = ("full", "no_feature")

CHECKPOINT_MAGIC = b"TTPPCKPT"
CHECKPOINT_VERSION = 2


@dataclass
class ModelConfig:
    """Architecture hyperparameters for one aggregator/predictor pairing."""

    aggregator: str = "ttm"
    predictor: str = "ppm"
    ppm_variant: str = "full"
    d_m: int = 16
    n_heads: int = 4
    n_classes: int = 4
    seq_len: int = 8
    horizon: int = 8
    dropout: float = 0.1

    def __post_init__(self):
        if self.aggregator not in AGGREGATORS:
            raise ValueError(f"aggregator must be one of {AGGREGATORS}, got {self.aggregator!r}")
        if self.predictor not in PREDICTORS:
            raise ValueError(f"predictor must be one of {PREDICTORS}, got {self.predictor!r}")
        if self.ppm_variant not in PPM_VARIANTS:
            raise ValueError(f"ppm_variant must be one of {PPM_VARIANTS}, got {self.ppm_variant!r}")
        if self.d_m % self.n_heads != 0:
            raise ValueError(f"n_heads={self.n_heads} must divide d_m={self.d_m}")
        if self.d_m % 2 != 0:
            raise ValueError(f"d_m must be even, got {self.d_m}")
        if self.seq_len < 2:
            raise ValueError(f"seq_len must be >= 2, got {self.seq_len}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def name(self) -> str:
        tag = f"{self.aggregator}-{self.predictor}"
        if self.predictor == "ppm" and self.ppm_variant == "no_feature":
            tag += "-nofp"
        return tag


class AnticipationModel:
    """One trained (or trainable) aggregator/predictor pair."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.config = config
        c = config
        if c.aggregator == "ttm":
            self.agg_params = attention.init_ttm_params(c.d_m, c.n_heads, rng)
            self.pe = attention.positional_encoding(c.seq_len, c.d_m)
        elif c.aggregator == "conv1d":
            self.agg_params = baselines.init_conv1d_params(c.d_m, rng)
            self.pe = None
        else:
            self.agg_params = baselines.init_lstm_params(c.d_m, c.d_m, rng, prefix="enc")
            self.pe = None
        if c.predictor == "ppm":
            self.pred_params = prediction.init_ppm_params(c.d_m, c.n_classes, rng)
        elif c.predictor == "ssp":
            self.pred_params = baselines.init_ssp_params(c.d_m, c.n_classes, c.horizon, rng)
        else:
            self.pred_params = baselines.init_lstm_decoder_params(c.d_m, c.n_classes, rng)

    def parameters(self) -> list[Parameter]:
        """The parameters the configured forward uses, which train and checkpoint.

        A one-step PPM rollout never reaches the progressive block, so at
        horizon 1 that block is left out: it would get no gradient.
        """
        pred = self.pred_params
        if self.config.predictor == "ppm" and self.config.horizon == 1:
            used = [*pred.initial.parameters(), pred.classifier]
        else:
            used = pred.parameters()
        return [*self.agg_params.parameters(), *used]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def aggregate(self, f_seq: Tensor):
        """Returns ((..., 1, d_m) summary, attention weights or None)."""
        c = self.config
        if c.aggregator == "ttm":
            return attention.aggregate(f_seq, self.agg_params, self.pe)
        if c.aggregator == "conv1d":
            return baselines.conv1d_aggregate(f_seq, self.agg_params), None
        return baselines.lstm_encode(f_seq, self.agg_params), None

    def predict(self, s_t: Tensor, f_t: Tensor, rng=None) -> prediction.Rollout:
        """The rollout; PPM and SSP draw one (..., horizon, d_m) dropout mask from `rng`.

        The LSTM decoder has no dropout and reads nothing from `rng`.
        """
        c = self.config
        if c.predictor == "lstm":
            return baselines.lstm_decode(s_t, f_t, self.pred_params, c.horizon)
        keep = keep_mask(rng, c.dropout, s_t.shape[:-2] + (c.horizon, c.d_m))
        if c.predictor == "ppm":
            return prediction.rollout(
                s_t, f_t, self.pred_params, c.horizon, keep,
                feed_features=c.ppm_variant == "full",
            )
        return baselines.ssp_rollout(s_t, f_t, self.pred_params, keep)

    def anticipate(self, observed: np.ndarray, rng=None):
        """Full forward pass on one (T, d_m) window or a (B, T, d_m) stack.

        Returns (Rollout, attention weights or None): a window gives a
        (horizon, ·) rollout and (n_heads, T-1) weights, a stack gives
        (B, horizon, ·) and (B, n_heads, T-1), and row b equals the call on
        window b. Dropout is on exactly when an rng is given, as in
        training; no rng means no dropout. A stack draws the masks of all
        its windows at once, in the rng order of one call per window. The
        predictor sees the raw last observed feature; positional encoding
        stays internal to the transformer aggregator.
        """
        f_seq = Tensor(observed)
        t = self.config.seq_len
        if f_seq.data.ndim not in (2, 3) or f_seq.shape[-2] != t:
            raise ValueError(
                f"anticipate: observed shape {f_seq.shape} is not (T, d_m) or "
                f"(B, T, d_m) with T = seq_len {t}"
            )
        s_t, weights = self.aggregate(f_seq)
        return self.predict(s_t, f_seq[..., t - 1 : t, :], rng), weights

    def scorer(self):
        """Adapter for metrics.evaluate_horizons: (sequence, t) -> (l, C) scores.

        Scoring builds no tape (`no_grad`), so it holds no graph.
        """
        seq_len = self.config.seq_len

        def score(sequence, t: int) -> np.ndarray:
            window = np.asarray(sequence.features[t - seq_len + 1 : t + 1], dtype=np.float64)
            with no_grad():
                roll, _ = self.anticipate(window)
                return roll.probs.data

        return score

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        params = {p.name: p for p in self.parameters()}
        missing = sorted(set(params) - set(state))
        extra = sorted(set(state) - set(params))
        if missing or extra:
            raise ValueError(f"checkpoint mismatch: missing={missing}, unexpected={extra}")
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.shape:
                raise ValueError(
                    f"checkpoint mismatch: {name} has shape {arr.shape}, expected {p.shape}"
                )
            p.value.data = arr.copy()
            p.momentum = np.zeros_like(p.value.data)


def grid_configs(base: ModelConfig) -> list[ModelConfig]:
    """The full 3 x 3 pairing grid plus the feature-free rollout ablation."""
    cells = [
        replace(base, aggregator=a, predictor=p, ppm_variant="full")
        for a in AGGREGATORS
        for p in PREDICTORS
    ]
    cells.append(replace(base, aggregator="ttm", predictor="ppm", ppm_variant="no_feature"))
    return cells


# checkpoint format v2: magic, u16 version, u32 parameter count, u32 length
# of the ModelConfig as utf8 JSON, the JSON, then per parameter u16 name
# length + utf8 name, u8 ndim, u32 dims, float64 little-endian data.
# Fused layouts: ttm.q, ttm.k and ttm.v hold head h in columns h*d_k to
# (h+1)*d_k; enc.w and dec.w hold the x rows, then the h rows, and the gate
# column blocks in i, f, g, o order.


def save_checkpoint(model: AnticipationModel, path) -> None:
    with open(path, "wb") as fh:
        params = model.parameters()
        config = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<HII", CHECKPOINT_VERSION, len(params), len(config)))
        fh.write(config)
        for p in params:
            name = p.name.encode("utf-8")
            fh.write(struct.pack("<H", len(name)))
            fh.write(name)
            fh.write(struct.pack("<B", p.value.data.ndim))
            for dim in p.value.data.shape:
                fh.write(struct.pack("<I", dim))
            fh.write(p.value.data.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Returns (the config the model was built with, parameters by name)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic at offset 0 in {path}")
    offset = 8
    state: dict[str, np.ndarray] = {}
    try:
        (version,) = struct.unpack_from("<H", blob, offset)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version} at offset 8 in {path}")
        count, config_len = struct.unpack_from("<II", blob, offset + 2)
        offset += 10
        fields = json.loads(blob[offset : offset + config_len].decode("utf-8"))
        try:
            config = ModelConfig(**fields)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"model config in checkpoint {path} is invalid: {exc}") from None
        offset += config_len
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", blob, offset)
            offset += 2
            name = blob[offset : offset + name_len].decode("utf-8")
            offset += name_len
            (ndim,) = struct.unpack_from("<B", blob, offset)
            offset += 1
            shape = struct.unpack_from(f"<{ndim}I", blob, offset)
            offset += 4 * ndim
            n = int(np.prod(shape)) if ndim else 1
            end = offset + 8 * n
            if end > len(blob):
                raise struct.error("short read")
            values = np.frombuffer(blob[offset:end], dtype="<f8")
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(
                    f"parameter {name!r} holds a non-finite value at offset "
                    f"{offset + 8 * int(bad[0])} in {path}"
                )
            state[name] = values.reshape(shape).copy()
            offset = end
    except (struct.error, UnicodeDecodeError, json.JSONDecodeError, TypeError) as exc:
        raise ValueError(
            f"truncated/corrupt checkpoint at offset {offset} in {path}: {exc}"
        ) from exc
    if offset != len(blob):
        raise ValueError(
            f"{len(blob) - offset} trailing bytes after the last parameter "
            f"at offset {offset} in {path}"
        )
    return config, state


def file_sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()
