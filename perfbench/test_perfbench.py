"""Self-test of the benchmark, in seconds: tiny workloads, checks that bite.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def pkg():
    run.prepare_process()
    return workloads.ttpp()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(pkg, workload, trace):
    args = run.parse_args(["--workload", workload, "--seed", "3", "--seconds", "0",
                           "--trace", str(trace), "--size", "tiny"])
    result = run.measure(args)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: v["unit"] for name, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["tensor.nodes_per_sample"]["value"] > 0
        calls = result["metrics"]["attention.aggregate.calls"]["value"]
        assert (calls == 0) == (workload == "train-lstm")
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.fixture(scope="module")
def scored(pkg):
    """A tiny trained ttm-ppm model with its offline and online outputs."""
    config, folds = workloads.train_setup("train-ttpp", 5, "tiny")
    out = workloads._train_round(pkg, config, folds[0], pkg.TrainConfig(epochs=1),
                                 Tracer(), workloads.speed_hooks, workloads.SpeedMeter(),
                                 workloads.Tally())
    return config, folds[0], out


def test_checks_pass_on_real_outputs(scored):
    config, fold, out = scored
    workloads._check_round(out, fold, config)


def test_perturbed_probability_row_fails(scored):
    _, _, out = scored
    probs = np.stack(out["online"]).copy()
    checks.probability_rows(probs)
    probs[0, 0, 0] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.probability_rows(probs)
    with pytest.raises(checks.CheckFailed):
        checks.offline_matches_online(out["tables"], list(probs))


def test_swapped_score_fails(scored):
    config, fold, out = scored
    report = out["report"]
    expected = checks.expected_pair_count(fold.heldout, config.horizon, config.seq_len)
    pairs = checks.scored_pairs(fold.heldout, out["tables"], config.horizon, config.seq_len)
    checks.cap_and_count(report.average, report.n_scored, pairs, config.n_classes, expected)
    # give the best-scored positive of class c the worst negative's score
    step, c = next((s, c) for s, rows in enumerate(pairs) for c in range(1, config.n_classes)
                   if any(y == c for _, y in rows) and any(y != c for _, y in rows))
    rows = [(row.copy(), y) for row, y in pairs[step]]
    pos = max((i for i, (_, y) in enumerate(rows) if y == c), key=lambda i: rows[i][0][c])
    neg = min((i for i, (_, y) in enumerate(rows) if y != c), key=lambda i: rows[i][0][c])
    rows[pos][0][c], rows[neg][0][c] = rows[neg][0][c], rows[pos][0][c]
    swapped = [*pairs[:step], rows, *pairs[step + 1:]]
    with pytest.raises(checks.CheckFailed):
        checks.cap_and_count(report.average, report.n_scored, swapped, config.n_classes,
                             expected)
    with pytest.raises(checks.CheckFailed):
        checks.cap_and_count(report.average, report.n_scored, pairs, config.n_classes,
                             expected + 1)


def test_scaled_gradient_fails(pkg, scored):
    config, fold, _ = scored
    lr = workloads.GRAD_CHECK_LR
    deltas, numeric = workloads.update_and_gradient(pkg, config, fold.samples[0], lr, 1, 0)
    checks.update_equals_gradient(deltas, numeric, lr)
    with pytest.raises(checks.CheckFailed):
        checks.update_equals_gradient(deltas * 1.01, numeric, lr)


def test_grid_report_check_fails_on_wrong_rows():
    labels = ["0.25s", "0.5s"]
    rows = {name: [0.5, 0.7, 0.6] for name in workloads.GRID_CELLS}
    checks.grid_report(labels, rows, workloads.GRID_CELLS)
    for bad in ({**rows, "ttm-ppm": [0.5, 0.7, 0.61]},
                {**rows, "ttm-ppm": [0.5, 1.5, 1.0]},
                {k: v for k, v in rows.items() if k != "ttm-ppm"}):
        with pytest.raises(checks.CheckFailed):
            checks.grid_report(labels, bad, workloads.GRID_CELLS)


def _fails(*args, **kwargs):
    raise ValueError("injected fault")


def test_failing_operation_is_counted_and_the_run_goes_on(pkg, monkeypatch):
    monkeypatch.setattr(pkg, "evaluate_horizons", _fails)
    args = run.parse_args(["--workload", "train-ttpp", "--seed", "3", "--seconds", "0",
                           "--trace", "0", "--size", "tiny"])
    result = run.measure(args)
    # per round: train and the four one-window calls succeed, scoring fails
    rounds, windows = workloads.TRAIN_SIZES["tiny"].folds, 4
    assert result["attempted"] == rounds * (2 + windows)
    assert result["failed"] == rounds
    assert result["correct"] is True


def test_failing_grid_command_is_counted(pkg, monkeypatch):
    monkeypatch.setattr(pkg.cli, "main", lambda argv: 1)
    args = run.parse_args(["--workload", "grid-smoke", "--seed", "3", "--seconds", "0",
                           "--trace", "0", "--size", "tiny"])
    result = run.measure(args)
    assert result["attempted"] == result["failed"] == 1
    assert result["correct"] is True


def test_missing_wrapped_name_is_reported_absent(pkg):
    tracer = Tracer()
    tracer.function("tensor", "no_such_function")
    tracer.method("model", "AnticipationModel", "no_such_method")
    tracer.function("no_such_module", "anything")
    tracer.function("attention", "aggregate")
    assert tracer.absent == ["tensor.no_such_function",
                             "model.AnticipationModel.no_such_method",
                             "no_such_module.anything"]
    assert hasattr(pkg.attention.aggregate, "__wrapped__")
    tracer.restore()
    assert not hasattr(pkg.attention.aggregate, "__wrapped__")
    metrics = workloads.layer_metrics(tracer, 1, 0.0)
    assert set(metrics) == set(workloads.PER_LAYER_UNITS)
    assert all(v == 0.0 for v in metrics.values())


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-ttpp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
