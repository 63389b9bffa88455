"""Aggregator x predictor composition and checkpoints.

Any aggregator (ttm, conv1d, lstm) pairs with any predictor (ppm, ssp,
lstm) in `AnticipationModel.anticipate`, the one forward path: the
aggregator turns a T x d_m window into a 1 x d_m summary, the predictor
turns (summary, current feature) into a rollout of future (feature, class
logits) pairs. A (B, T, d_m) stack of windows runs the same code with a
leading batch axis on every tensor.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import attention, baselines, prediction
from .data import Reader, Writer
from .tensor import Parameter, keep_mask

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
        if self.ppm_variant != "full" and self.predictor != "ppm":
            raise ValueError(f"ppm_variant {self.ppm_variant!r} needs predictor ppm")
        if self.n_heads < 1:
            raise ValueError(f"n_heads must be >= 1, got {self.n_heads}")
        if self.d_m < 2:
            raise ValueError(f"d_m must be >= 2, got {self.d_m}")
        if self.d_m % self.n_heads != 0:
            raise ValueError(f"n_heads={self.n_heads} must divide d_m={self.d_m}")
        if self.n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {self.n_classes}")
        if self.seq_len < 2:
            raise ValueError(f"seq_len must be >= 2, got {self.seq_len}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def name(self) -> str:
        tag = f"{self.aggregator}-{self.predictor}"
        if self.ppm_variant == "no_feature":
            tag += "-nofp"
        return tag


class AnticipationModel:
    """One trained (or trainable) aggregator/predictor pair."""

    def __init__(self, config: ModelConfig, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.config = config
        c = config
        if c.aggregator == "ttm":
            self.agg_params = attention.init_ttm_params(c.d_m, c.n_heads, c.seq_len, rng)
        elif c.aggregator == "conv1d":
            self.agg_params = baselines.init_conv1d_params(c.d_m, c.seq_len, rng)
        else:
            self.agg_params = baselines.init_lstm_params(c.d_m, c.d_m, rng, prefix="enc")
        shape = (c.d_m, c.n_classes, c.horizon)
        if c.predictor == "ppm":
            self.pred_params = prediction.init_ppm_params(*shape, c.ppm_variant == "full", rng)
        elif c.predictor == "ssp":
            self.pred_params = baselines.init_ssp_params(*shape, rng)
        else:
            self.pred_params = baselines.init_lstm_decoder_params(*shape, rng)

    def parameters(self) -> list[Parameter]:
        """The parameters the configured forward uses, which train and checkpoint."""
        return [*self.agg_params.parameters(), *self.pred_params.parameters()]

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())

    def anticipate(self, observed: np.ndarray, rng=None):
        """The forward pass of training, scoring and attention dumps.

        Returns (Rollout, ttm attention weights or None): one (T, d_m)
        window gives a (horizon, ·) rollout and (n_heads, T-1) weights, a
        (B, T, d_m) stack gives (B, horizon, ·) and (B, n_heads, T-1), and
        row b equals the call on window b. Dropout is on exactly when an rng
        is given, as in training: PPM and SSP draw one (..., horizon, d_m)
        keep mask after aggregation, in the rng order of one call per
        window. The predictor sees the raw last observed feature. The window is
        read by its values: any memory layout gives the bytes of a C-ordered copy.
        """
        window = np.ascontiguousarray(observed, dtype=np.float64)
        c = self.config
        t = c.seq_len
        if window.ndim not in (2, 3) or window.shape[-2] != t:
            raise ValueError(
                f"anticipate: observed shape {window.shape} is not (T, d_m) or "
                f"(B, T, d_m) with T = seq_len {t}"
            )
        weights = None
        if c.aggregator == "ttm":
            s_t, weights = attention.aggregate(window, self.agg_params)
        elif c.aggregator == "conv1d":
            s_t = baselines.conv1d_aggregate(window, self.agg_params)
        else:
            s_t = baselines.lstm_encode(window, self.agg_params)
        f_t = window[..., t - 1 : t, :]
        if c.predictor == "lstm":
            return baselines.lstm_decode(s_t, f_t, self.pred_params), weights
        keep = keep_mask(rng, c.dropout, s_t.shape[:-2] + (c.horizon, c.d_m))
        if c.predictor == "ssp":
            return baselines.ssp_rollout(s_t, f_t, self.pred_params, keep), weights
        return prediction.rollout(s_t, f_t, self.pred_params, keep), weights

    def scorer(self):
        """Adapter for metrics.evaluate_horizons: (sequence, t) -> (l, C) scores."""
        seq_len = self.config.seq_len

        def score(sequence, t: int) -> np.ndarray:
            roll, _ = self.anticipate(sequence.features[t - seq_len + 1 : t + 1])
            return roll.probs.data

        return score

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Copies into each parameter's own array, which is never rebound."""
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
            np.copyto(p.value.data, arr)
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


# Byte layout: next to `data.Reader`.


def save_checkpoint(model: AnticipationModel, path) -> None:
    params = model.parameters()
    out = Writer(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    out.pack("I", len(params))
    out.text("I", json.dumps(asdict(model.config), sort_keys=True))
    for p in params:
        out.text("H", p.name)
        out.pack(f"B{p.value.data.ndim}I", p.value.data.ndim, *p.shape)
        out.array(p.value.data, "<f8", f"parameter {p.name!r}")
    out.write()


def load_checkpoint(path) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Returns (the config the model was built with, parameters by name)."""
    r = Reader(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    (count,) = r.unpack("I", "header")
    config_at = r.offset + 4  # past the JSON's u32 length
    fields = r.text("I", "model config")
    try:
        config = ModelConfig(**json.loads(fields))
    except (TypeError, ValueError) as exc:
        raise r.error(f"invalid model config: {exc}", config_at) from None
    state: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_at = r.offset + 2  # past the name's u16 length
        name = r.text("H", "parameter name")
        if name in state:
            raise r.error(f"parameter {name!r} appears twice", name_at)
        (ndim,) = r.unpack("B", f"shape of parameter {name!r}")
        shape = r.unpack(f"{ndim}I", f"shape of parameter {name!r}")
        state[name] = r.array("<f8", shape, f"parameter {name!r}")
    r.end()
    return config, state

