"""Feature sequences, synthetic generation, and the reader and writer of
the binary files (.feat feature files and model checkpoints).

A sequence is one untrimmed stream of per-chunk feature rows with one
class label per chunk (class 0 is background). The synthetic generator
runs a semi-Markov label process over class prototypes with Gaussian
noise, deterministic per seed, so every run sees the same known process.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FEATURE_MAGIC = b"TTPPFEAT"
FEATURE_VERSION = 1
DURATION_LAWS = ("geometric", "fixed")


@dataclass
class FeatureSequence:
    """One stream: feature rows rounded to float32 and held as float64 (so
    windows are views), plus one label per chunk."""

    video_id: str
    features: np.ndarray  # (T_total, d_m) float64 of float32 values
    labels: np.ndarray  # (T_total,) int
    n_classes: int

    def __post_init__(self):
        self.features = np.ascontiguousarray(np.asarray(self.features, np.float32), np.float64)
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


# Both binary layouts are little-endian: an 8-byte magic, a u16 version, then
#   .feat v1 (TTPPFEAT): u32 T, u32 d_m, u32 C, T x d_m float32 rows (float64 in
#     memory, exactly), T u16 labels;
#   checkpoint v2 (TTPPCKPT): u32 parameter count, u32 length + utf-8 ModelConfig JSON,
#     then per parameter u16 length + utf-8 name, u8 ndim, ndim u32 dims, float64 values.


class FileFormatError(ValueError):
    """A refused binary file, naming it and the cause; `.offset` is the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


class Reader:
    """Bounds-checked cursor over one binary file's fields after its magic and version.

    Sizes are Python ints. A non-finite float, a string that is not utf-8
    and bytes after the last field are refused at their offset."""

    def __init__(self, path, magic: bytes, version: int):
        self.blob = Path(path).read_bytes()
        self.path, self.offset = path, len(magic)
        if self.blob[: len(magic)] != magic:
            raise self.error(f"bad magic, expected {magic!r}", 0)
        (found,) = self.unpack("H", "header")
        if found != version:
            raise self.error(f"unsupported version {found}", len(magic))

    def error(self, message: str, offset: int) -> FileFormatError:
        return FileFormatError(f"{self.path}: {message}", offset)

    def take(self, size: int, what: str) -> bytes:
        start, self.offset = self.offset, self.offset + size
        if self.offset > len(self.blob):
            raise self.error(f"truncated {what}: need {size} bytes", start)
        return self.blob[start : self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), what))

    def text(self, length_fmt: str, what: str) -> str:
        (size,) = self.unpack(length_fmt, what)
        try:
            return self.take(size, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise self.error(f"{what} is not utf-8", self.offset - size + exc.start) from None

    def array(self, dtype: str, shape: tuple[int, ...], what: str) -> np.ndarray:
        size = np.dtype(dtype).itemsize
        values = np.frombuffer(self.take(size * math.prod(shape), what), dtype)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            at = self.offset - values.nbytes + size * int(bad[0])
            raise self.error(f"{what} holds a non-finite value {values[bad[0]]}", at)
        return values.reshape(shape).copy()

    def end(self) -> None:
        if self.offset != len(self.blob):
            raise self.error(f"{len(self.blob) - self.offset} trailing bytes", self.offset)


class Writer:
    """Reader's mirror: collects the fields, refusing a non-finite float by name, then writes."""

    def __init__(self, path, magic: bytes, version: int):
        self.path, self.chunks = path, [magic, struct.pack("<H", version)]

    def pack(self, fmt: str, *values) -> None:
        self.chunks.append(struct.pack("<" + fmt, *values))

    def text(self, length_fmt: str, value: str) -> None:
        raw = value.encode("utf-8")
        self.chunks += [struct.pack("<" + length_fmt, len(raw)), raw]

    def array(self, values: np.ndarray, dtype: str, what: str) -> None:
        bad = np.argwhere(~np.isfinite(values))
        if len(bad):
            raise ValueError(f"{self.path}: not written, {what} holds a non-finite value "
                             f"at index {tuple(bad[0].tolist())}")
        self.chunks.append(np.ascontiguousarray(values, dtype=dtype).tobytes())

    def write(self) -> None:
        Path(self.path).write_bytes(b"".join(self.chunks))


def save_features(seq: FeatureSequence, path) -> None:
    if seq.n_classes > 65536:
        raise ValueError(f"save_features: labels are stored as u16, so n_classes must be "
                         f"<= 65536, got {seq.n_classes}")
    out = Writer(path, FEATURE_MAGIC, FEATURE_VERSION)
    out.pack("III", len(seq), seq.d_m, seq.n_classes)
    out.array(seq.features, "<f4", "features")
    out.array(seq.labels, "<u2", "labels")
    out.write()


def load_features(path) -> FeatureSequence:
    """video_id is the file stem; a label out of range is refused at its offset."""
    r = Reader(path, FEATURE_MAGIC, FEATURE_VERSION)
    t_total, d_m, n_classes = r.unpack("III", "header")
    features = r.array("<f4", (t_total, d_m), "features")
    labels = r.array("<u2", (t_total,), "labels").astype(np.int64)
    bad = np.flatnonzero(labels >= n_classes)
    if bad.size:
        at = r.offset - 2 * (t_total - int(bad[0]))
        raise r.error(f"label {labels[bad[0]]} out of range for {n_classes} classes", at)
    r.end()
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
            FeatureSequence(f"syn-{cfg.seed:04d}-{idx:03d}", features, labels, cfg.n_classes)
        )
    return sequences


def make_samples(seq: FeatureSequence, seq_len: int, horizon: int) -> list[TrainingSample]:
    """All stride-1 windows with a full future; short sequences give []."""
    total = len(seq)
    samples = []
    eye = np.eye(seq.n_classes)
    for start in range(total - seq_len - horizon + 1):
        mid = start + seq_len
        samples.append(
            TrainingSample(
                observed=seq.features[start:mid].copy(),
                future_features=seq.features[mid : mid + horizon].copy(),
                future_labels=eye[seq.labels[mid : mid + horizon]],
            )
        )
    return samples
