"""Output checks against properties the method must have.

Each check takes plain data and raises CheckFailed with the reason, so the
self-test can feed it a deliberately wrong input. None of them reads a
parameter name or layout, a loss signature or a file format of the
program; the grid check reads the report through `read_report_csv`.
"""

from __future__ import annotations

import math

import numpy as np


class CheckFailed(Exception):
    """A program output broke a property the method guarantees."""


def probability_rows(probs, tol: float = 1e-12) -> None:
    """Every row lies in [0, 1] and sums to 1 within `tol`."""
    p = np.asarray(probs, dtype=np.float64)
    if not np.all(np.isfinite(p)) or p.min() < 0.0 or p.max() > 1.0:
        raise CheckFailed(f"probability outside [0, 1]: range [{p.min()}, {p.max()}]")
    worst = float(np.abs(p.sum(axis=-1) - 1.0).max())
    if worst > tol:
        raise CheckFailed(f"probability row sums off by {worst:.3e} > {tol:g}")


def offline_matches_online(offline, online, tol: float = 1e-12) -> None:
    """The scorer's table for each anchor equals `anticipate` on its window."""
    if len(offline) != len(online):
        raise CheckFailed(f"{len(offline)} scored anchors but {len(online)} online calls")
    for idx, (a, b) in enumerate(zip(offline, online)):
        a = np.asarray(a)
        b = np.asarray(b)
        if a.shape != b.shape:
            raise CheckFailed(f"anchor {idx}: offline shape {a.shape} != online {b.shape}")
        diff = float(np.abs(a - b).max())
        if not diff <= tol:
            raise CheckFailed(f"anchor {idx}: offline and online differ by {diff:.3e}")


def scored_pairs(sequences, tables, horizon: int, seq_len: int):
    """Per horizon step, the (score row, true label) pairs the scorer produced.

    `tables` holds the scorer's outputs in call order: sequence by sequence,
    anchors t = seq_len-1 .. len-2, each scored for tau = 1 .. min(horizon,
    len-1-t). Raises if the number of tables is not the number of anchors.
    """
    pairs = [[] for _ in range(horizon)]
    idx = 0
    for seq in sequences:
        total = len(seq)
        for t in range(seq_len - 1, total - 1):
            if idx >= len(tables):
                raise CheckFailed(f"only {len(tables)} tables for more anchors")
            table = np.asarray(tables[idx])
            idx += 1
            for tau in range(1, min(horizon, total - 1 - t) + 1):
                pairs[tau - 1].append((table[tau - 1], int(seq.labels[t + tau])))
    if idx != len(tables):
        raise CheckFailed(f"{len(tables)} tables for {idx} anchors")
    return pairs


def expected_pair_count(sequences, horizon: int, seq_len: int) -> int:
    """Sum over anchors of min(horizon, len - 1 - t)."""
    return sum(
        min(horizon, len(seq) - 1 - t)
        for seq in sequences
        for t in range(seq_len - 1, len(seq) - 1)
    )


def calibrated_ap_of(scores, positives) -> float | None:
    """Calibrated AP (De Geest et al., ECCV 2016), written out longhand.

    Rank by descending score, ties by ascending index; with w = N_neg/N_pos,
    cPrec at each cut-off is TP / (TP + FP / w), averaged over the ranks that
    hold a positive. Returns None for a class without positives.
    """
    n_pos = sum(1 for x in positives if x)
    if n_pos == 0:
        return None
    n_neg = len(positives) - n_pos
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    tp = fp = 0
    acc = 0.0
    for i in order:
        if positives[i]:
            tp += 1
            acc += 1.0 if n_neg == 0 else tp / (tp + fp * n_pos / n_neg)
        else:
            fp += 1
    return acc / n_pos


def mean_cap(pairs, n_classes: int) -> float:
    """Mean over horizon steps of the mean cAP over action classes 1..C-1."""
    means = []
    for step in pairs:
        if not step:
            continue
        values = []
        for c in range(1, n_classes):
            v = calibrated_ap_of([float(row[c]) for row, _ in step], [y == c for _, y in step])
            if v is not None:
                values.append(v)
        if values:
            means.append(sum(values) / len(values))
    if not means:
        raise CheckFailed("no horizon step has a class with positives")
    return sum(means) / len(means)


def cap_and_count(report_average: float, report_pairs: int, pairs, n_classes: int,
                  expected_pairs: int, tol: float = 1e-12) -> None:
    """The report's cAP and pair count agree with the definition."""
    got = sum(len(step) for step in pairs)
    if report_pairs != expected_pairs or got != expected_pairs:
        raise CheckFailed(
            f"scored pairs: report {report_pairs}, scorer {got}, expected {expected_pairs}"
        )
    ref = mean_cap(pairs, n_classes)
    if not abs(ref - report_average) <= tol:
        raise CheckFailed(f"report cAP {report_average!r} != recomputed {ref!r}")


def update_equals_gradient(deltas, numeric, lr: float, rel_tol: float = 1e-6) -> None:
    """One SGD step (momentum 0) moved each entry by -lr times its gradient.

    The error is taken relative to the largest gradient, as central
    differences carry absolute noise near ulp(loss) / step.
    """
    implied = -np.asarray(deltas, dtype=np.float64) / lr
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(float(np.abs(implied).max()), float(np.abs(numeric).max()), 1e-8)
    err = float(np.abs(implied - numeric).max()) / scale
    if not err <= rel_tol:
        raise CheckFailed(f"update is not -lr * gradient: relative error {err:.3e}")


def grid_report(labels, rows, expected_methods, tol: float = 1e-12) -> None:
    """One row per grid cell, values in [0, 1], avg = mean of the horizons."""
    if sorted(rows) != sorted(expected_methods):
        raise CheckFailed(f"grid rows {sorted(rows)} != cells {sorted(expected_methods)}")
    for method, values in rows.items():
        if len(values) != len(labels) + 1:
            raise CheckFailed(f"{method}: {len(values)} values for {len(labels)} horizons")
        if not all(0.0 <= v <= 1.0 for v in values):
            raise CheckFailed(f"{method}: value outside [0, 1] in {values}")
        mean = math.fsum(values[:-1]) / len(labels)
        if not abs(mean - values[-1]) <= tol:
            raise CheckFailed(f"{method}: avg {values[-1]!r} != horizon mean {mean!r}")
