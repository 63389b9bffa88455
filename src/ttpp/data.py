"""Feature sequences: the binary .feat format and synthetic generation.

A sequence is one untrimmed stream of per-chunk feature rows with one
class label per chunk (class 0 is background). The synthetic generator
runs a semi-Markov label process over class prototypes with Gaussian
noise, so anticipation quality is gradable against an exact reference
predictor derived from the process itself.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"TTPPFEAT"
FEATURE_VERSION = 1
DURATION_LAWS = ("geometric", "fixed")


class FeatureFileError(ValueError):
    """Named parse failure, carrying the byte offset where it was detected."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


@dataclass
class FeatureSequence:
    """One stream: float32 feature rows plus one label per chunk."""

    video_id: str
    features: np.ndarray  # (T_total, d_m) float32
    labels: np.ndarray  # (T_total,) int
    n_classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if len(self.labels) != self.features.shape[0]:
            raise ValueError(
                f"{len(self.labels)} labels for {self.features.shape[0]} feature rows"
            )
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError(
                f"labels must lie in [0, {self.n_classes}), got "
                f"[{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def d_m(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass
class TrainingSample:
    """One stride-1 window: T observed rows, l future rows, l one-hot labels."""

    observed: np.ndarray  # (seq_len, d_m) float64
    future_features: np.ndarray  # (horizon, d_m) float64
    future_labels: np.ndarray  # (horizon, n_classes) one-hot float64


def save_features(seq: FeatureSequence, path) -> None:
    """Binary format: magic, u16 version, u32 T_total, u32 d_m, u32 C,
    float32 little-endian rows, then u16 labels."""
    if seq.n_classes > 65536:
        raise ValueError(
            f"save_features: labels are stored as u16, so n_classes must be <= 65536, "
            f"got {seq.n_classes}"
        )
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<HIII", FEATURE_VERSION, len(seq), seq.d_m, seq.n_classes))
        fh.write(np.ascontiguousarray(seq.features, dtype="<f4").tobytes())
        fh.write(seq.labels.astype("<u2").tobytes())


def load_features(path) -> FeatureSequence:
    """Load the binary format; video_id is the file stem.

    Every failure is a FeatureFileError naming the file: a short or padded
    file, an unknown version, a non-finite feature value or a label out of
    range.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def fail(message: str, offset: int) -> FeatureFileError:
        return FeatureFileError(f"{path}: {message}", offset)

    if len(blob) < 8 or blob[:8] != FEATURE_MAGIC:
        raise fail(f"bad magic, expected {FEATURE_MAGIC!r}", 0)
    if len(blob) < 22:
        raise fail("truncated header", len(blob))
    version, t_total, d_m, n_classes = struct.unpack_from("<HIII", blob, 8)
    if version != FEATURE_VERSION:
        raise fail(f"unsupported version {version}", 8)
    offset = 22
    feat_bytes = 4 * t_total * d_m
    if len(blob) < offset + feat_bytes:
        raise fail(f"truncated features: need {feat_bytes} bytes for {t_total}x{d_m}", len(blob))
    features = np.frombuffer(blob[offset : offset + feat_bytes], dtype="<f4")
    bad = np.flatnonzero(~np.isfinite(features))
    if bad.size:
        raise fail(f"non-finite feature value {features[bad[0]]}", offset + 4 * int(bad[0]))
    features = features.reshape(t_total, d_m).copy()
    offset += feat_bytes
    label_bytes = 2 * t_total
    if len(blob) < offset + label_bytes:
        raise fail(f"truncated labels: need {label_bytes} bytes", len(blob))
    labels = np.frombuffer(blob[offset : offset + label_bytes], dtype="<u2").astype(np.int64)
    offset += label_bytes
    if len(blob) != offset:
        raise fail(f"{len(blob) - offset} trailing bytes", offset)
    if len(labels) and labels.max() >= n_classes:
        raise fail(f"label {labels.max()} out of range for {n_classes} classes", offset)
    return FeatureSequence(Path(path).stem, features, labels, n_classes)


@dataclass
class SyntheticConfig:
    """Semi-Markov label process over class prototypes with Gaussian noise.

    Segment labels hop according to `transition`; segment lengths follow
    `duration_law`: "geometric" draws Geometric(1/duration_mean), "fixed"
    holds every segment for round(duration_mean) chunks (this is the
    duration-structured variant where the observable history carries
    phase information that the current chunk alone does not).
    """

    n_classes: int
    d_m: int
    transition: np.ndarray  # (C, C) row-stochastic
    duration_mean: float
    prototypes: np.ndarray  # (C, d_m)
    noise_sigma: float
    seed: int = 0
    duration_law: str = "geometric"

    def __post_init__(self):
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.prototypes = np.asarray(self.prototypes, dtype=np.float64)
        if self.transition.shape != (self.n_classes, self.n_classes):
            raise ValueError(
                f"transition must be {self.n_classes}x{self.n_classes}, got {self.transition.shape}"
            )
        sums = self.transition.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9) or np.any(self.transition < 0):
            raise ValueError("transition rows must be nonnegative and sum to 1 within 1e-9")
        if self.prototypes.shape != (self.n_classes, self.d_m):
            raise ValueError(
                f"prototypes must be {self.n_classes}x{self.d_m}, got {self.prototypes.shape}"
            )
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.duration_mean < 1:
            raise ValueError(f"duration_mean must be >= 1, got {self.duration_mean}")
        if self.duration_law not in DURATION_LAWS:
            raise ValueError(f"duration_law must be one of {DURATION_LAWS}")


def standard_synthetic_config(
    n_classes: int = 4,
    d_m: int = 16,
    seed: int = 0,
    noise_sigma: float = 0.4,
    duration_mean: float = 3.0,
    duration_law: str = "geometric",
) -> SyntheticConfig:
    """A canonical process derived deterministically from the seed.

    Background (class 0) hands off uniformly to the actions; action i
    moves to action i+1 (wrapping over the actions) with probability 0.8
    and falls back to background with 0.2, giving chains a historyful
    model can exploit. Prototypes are random unit-scale vectors.
    """
    if n_classes < 2:
        raise ValueError("need at least background plus one action class")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xFEA7]))
    c = n_classes
    transition = np.zeros((c, c))
    transition[0, 1:] = 1.0 / (c - 1)
    for i in range(1, c):
        nxt = 1 + (i % (c - 1))
        if nxt == i:  # single-action corner: everything returns to background
            transition[i, 0] = 1.0
        else:
            transition[i, nxt] = 0.8
            transition[i, 0] = 0.2
    prototypes = rng.normal(0.0, 1.0, size=(c, d_m))
    return SyntheticConfig(
        n_classes=c,
        d_m=d_m,
        transition=transition,
        duration_mean=duration_mean,
        prototypes=prototypes,
        noise_sigma=noise_sigma,
        seed=seed,
        duration_law=duration_law,
    )


def _segment_duration(cfg: SyntheticConfig, rng) -> int:
    if cfg.duration_law == "fixed":
        return max(1, round(cfg.duration_mean))
    return int(rng.geometric(1.0 / cfg.duration_mean))


def gen_synthetic(cfg: SyntheticConfig, n_sequences: int, length: int) -> list[FeatureSequence]:
    """Sample label tracks segment by segment, then noise the prototypes.

    Deterministic per (cfg, cfg.seed): the same config always yields
    bit-identical sequences.
    """
    rng = np.random.default_rng(cfg.seed)
    sequences = []
    for idx in range(n_sequences):
        labels = np.empty(length, dtype=np.int64)
        filled = 0
        state = int(rng.integers(cfg.n_classes))
        while filled < length:
            dur = min(_segment_duration(cfg, rng), length - filled)
            labels[filled : filled + dur] = state
            filled += dur
            state = int(rng.choice(cfg.n_classes, p=cfg.transition[state]))
        features = cfg.prototypes[labels] + rng.normal(
            0.0, cfg.noise_sigma, size=(length, cfg.d_m)
        )
        sequences.append(
            FeatureSequence(
                f"syn-{cfg.seed:04d}-{idx:03d}",
                features.astype(np.float32),
                labels,
                cfg.n_classes,
            )
        )
    return sequences


def make_samples(seq: FeatureSequence, seq_len: int, horizon: int) -> list[TrainingSample]:
    """All stride-1 windows with a full future; short sequences give []."""
    total = len(seq)
    samples = []
    feats = seq.features.astype(np.float64)
    eye = np.eye(seq.n_classes)
    for start in range(total - seq_len - horizon + 1):
        mid = start + seq_len
        samples.append(
            TrainingSample(
                observed=feats[start:mid].copy(),
                future_features=feats[mid : mid + horizon].copy(),
                future_labels=eye[seq.labels[mid : mid + horizon]].copy(),
            )
        )
    return samples


def horizon_transition(cfg: SyntheticConfig, tau: int) -> np.ndarray:
    """Exact P(label_{t+tau} = j | label_t = i) for the generator process.

    Geometric durations make the chunk-level label process Markov with
    one-step matrix (1-p) I + p T, p = 1/duration_mean. Fixed durations
    condition on the stationary (uniform) phase within a segment; that
    branch requires a zero-diagonal transition so segments never merge.
    """
    if tau < 1:
        raise ValueError(f"tau must be >= 1, got {tau}")
    c = cfg.n_classes
    if cfg.duration_law == "geometric":
        p = 1.0 / cfg.duration_mean
        step = (1.0 - p) * np.eye(c) + p * cfg.transition
        return np.linalg.matrix_power(step, tau)
    if np.any(np.diag(cfg.transition) > 0):
        raise ValueError("fixed-duration reference needs a zero-diagonal transition")
    d = max(1, round(cfg.duration_mean))
    out = np.zeros((c, c))
    powers = {0: np.eye(c)}
    for age in range(d):
        remaining = d - age
        if tau < remaining:
            out += np.eye(c)
        else:
            hops = 1 + (tau - remaining) // d
            if hops not in powers:
                powers[hops] = np.linalg.matrix_power(cfg.transition, hops)
            out += powers[hops]
    return out / d


def reference_scorer(cfg: SyntheticConfig, horizon: int):
    """The label-only oracle: exact future-label distributions given the current
    true label alone. Under duration_law = fixed it is no upper bound, since a
    window also shows the segment's age (ROADMAP.md, item 1). Plug-compatible
    with evaluate_horizons."""
    tables = [horizon_transition(cfg, tau) for tau in range(1, horizon + 1)]

    def score(sequence: FeatureSequence, t: int) -> np.ndarray:
        current = sequence.labels[t]
        return np.stack([table[current] for table in tables])

    return score
