"""Ranking and accuracy metrics, plus per-horizon report assembly.

Calibrated average precision reweights precision by w = N_neg/N_pos so
classes drowning in negatives stay comparable: cPrec = TP / (TP + FP/w),
and the score averages cPrec over the positive cut-offs. Plain average
precision is the w = 1 special case. Ordering is by descending score with
ties broken by ascending original index, so every value is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NoPositivesError(ValueError):
    """A class with zero positive frames has no defined AP."""


def _ranked_precision(scores, positives, calibrated: bool) -> float:
    """Mean of TP/(TP + FP/w) over the positive cut-offs, w = N_neg/N_pos when
    `calibrated` and there are negatives, else w = 1 (TP + FP is the rank)."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives).astype(bool)
    if scores.shape != positives.shape or scores.ndim != 1:
        raise ValueError(
            f"scores and positives must be equal-length vectors, got "
            f"{scores.shape} and {positives.shape}"
        )
    if not positives.any():
        raise NoPositivesError("no positive frames for this class")
    ranked = positives[np.argsort(-scores, kind="stable")]
    n_pos = int(ranked.sum())
    n_neg = ranked.size - n_pos
    w = n_neg / n_pos if calibrated and n_neg else 1
    tp = np.cumsum(ranked)
    fp = np.arange(1, ranked.size + 1) - tp
    return float((tp / (tp + fp / w))[ranked].sum() / n_pos)


def calibrated_ap(scores, positives) -> float:
    """Average of TP/(TP + FP/w) over positive cut-offs, w = N_neg/N_pos."""
    return _ranked_precision(scores, positives, calibrated=True)


def average_precision(scores, positives) -> float:
    """Standard AP with the same deterministic ordering."""
    return _ranked_precision(scores, positives, calibrated=False)


def accuracy(pred_labels, true_labels) -> float:
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {true.shape}")
    if pred.size == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    return float(np.mean(pred == true))


METRICS = ("cap", "map", "acc")
CHUNK_SECONDS = 0.25  # length of one feature chunk, for the report headers


@dataclass
class HorizonReport:
    """Per-horizon metric table: one column per future step plus the mean."""

    metric: str
    horizon_labels: list[str]
    means: np.ndarray  # (horizon,)
    average: float
    n_scored: int  # evaluated (position, horizon) pairs


def horizon_labels(horizon: int) -> list[str]:
    return [f"{tau * CHUNK_SECONDS:g}s" for tau in range(1, horizon + 1)]


def evaluate_horizons(
    scores_fn,
    sequences,
    horizon: int,
    seq_len: int,
    metric: str,
) -> HorizonReport:
    """Score every future chunk at every horizon and reduce per metric.

    `scores_fn(sequence, t)` returns (horizon, n_classes) scores for the
    rollout anchored at chunk t. It is called once per anchor, sequence by
    sequence; anchors without seq_len observed chunks or a next chunk are
    skipped, and horizon tau scores only the anchors with a chunk tau
    ahead. For cap/map the mean runs over action classes only (background
    class 0 is excluded) and classes without positives are skipped; for acc
    the per-horizon value is plain argmax accuracy. Every sequence must have
    the class count of the first (checked before any anchor is scored), and
    a NaN or infinite score is refused, naming its sequence and anchor.
    """
    if metric not in METRICS:
        raise ValueError(f"metric must be one of {METRICS}, got {metric!r}")
    sequences = list(sequences)
    if not sequences:
        raise ValueError("no sequences to evaluate")
    n_classes = sequences[0].n_classes
    for seq in sequences:
        if seq.n_classes != n_classes:
            raise ValueError(
                f"sequence {seq.video_id!r} has {seq.n_classes} classes, "
                f"but {sequences[0].video_id!r} has {n_classes}"
            )
    # per anchor, sequence by sequence: its table, its (video_id, t), and the
    # labels 1..horizon chunks after it (-1 past the sequence's end)
    tables, anchors, ahead = [], [], []
    for seq in sequences:
        for t in range(seq_len - 1, len(seq) - 1):
            table = np.asarray(scores_fn(seq, t))
            if table.shape != (horizon, n_classes):
                raise ValueError(
                    f"scorer returned {table.shape}, expected ({horizon}, {n_classes})"
                )
            tables.append(table)
            anchors.append((seq.video_id, t))
        padded = np.concatenate([seq.labels, np.full(horizon, -1)])
        ahead.append(padded[np.arange(seq_len, len(seq))[:, None] + np.arange(horizon)])
    if not tables:
        raise ValueError(
            f"empty report: no position has {seq_len} observed chunks plus a future"
        )
    scores, ahead = np.stack(tables), np.concatenate(ahead)
    finite = np.isfinite(scores).all(axis=(1, 2))
    if not finite.all():
        video_id, t = anchors[int(finite.argmin())]
        raise ValueError(f"scorer returned a non-finite score for sequence {video_id!r} "
                         f"at anchor t = {t}")
    means = np.full(horizon, np.nan)
    n_scored = 0
    for tau in range(horizon):
        truth = ahead[:, tau]
        scored = truth >= 0  # anchors with a chunk tau + 1 steps ahead
        if not scored.any():
            continue
        table, truth = scores[scored, tau], truth[scored]
        n_scored += len(truth)
        if metric == "acc":
            means[tau] = accuracy(table.argmax(axis=1), truth)
        else:
            fn = calibrated_ap if metric == "cap" else average_precision
            values = [fn(table[:, c], truth == c) for c in range(1, n_classes) if c in truth]
            if values:
                means[tau] = float(np.mean(values))
    valid = means[~np.isnan(means)]
    if valid.size == 0:
        raise ValueError("empty report: every horizon/class cell was skipped")
    return HorizonReport(
        metric=metric,
        horizon_labels=horizon_labels(horizon),
        means=means,
        average=float(valid.mean()),
        n_scored=n_scored,
    )


def write_report_csv(reports: dict[str, HorizonReport], path) -> None:
    """Table-shaped CSV: method, one column per horizon, trailing avg."""
    items = list(reports.items())
    if not items:
        raise ValueError("no reports to write")
    labels = items[0][1].horizon_labels
    for name, rep in items:
        if rep.horizon_labels != labels:
            raise ValueError(f"report {name!r} has mismatched horizon labels")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method," + ",".join(labels) + ",avg\n")
        for name, rep in items:
            cells = ",".join(repr(float(v)) for v in rep.means)
            fh.write(f"{name},{cells},{rep.average!r}\n")


def read_report_csv(path):
    """Returns (horizon_labels, {method: [per-horizon means..., avg]})."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("method,") or not lines[0].endswith(",avg"):
        raise ValueError(f"not a horizon report csv: {path}")
    labels = lines[0].split(",")[1:-1]
    rows = {}
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(labels) + 2:
            raise ValueError(f"malformed report row: {line!r}")
        rows[parts[0]] = [float(v) for v in parts[1:]]
    return labels, rows
