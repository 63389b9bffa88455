"""scripts/bench_record.py: summaries of fake parent and change run records."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

SPEC = json.loads((SCRIPT.parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SECONDS = SPEC["run_seconds"]
METRICS = [m["name"] for m in SPEC["end_to_end"]]


def write_run(directory: Path, workload: str, seed: int, metrics: dict, trace: int = 0,
              size: str = "full", seconds=SECONDS, suffix: str = ".json") -> None:
    directory.mkdir(parents=True, exist_ok=True)
    record = {
        "args": {"workload": workload, "seed": seed, "trace": trace,
                 "size": size, "seconds": seconds},
        "environment": {"commit": directory.name},
        "result": {
            "correct": True, "failed": 0, "attempted": 10,
            "metrics": {name: {"value": value} for name, value in metrics.items()},
        },
    }
    path = directory / f"{workload}-seed{seed}-trace{trace}{suffix}"
    path.write_text(json.dumps(record), encoding="utf-8")


def uniform(value: float) -> dict:
    return {name: value for name in METRICS}


def summarize(parent: Path, change: Path) -> dict:
    return bench_record.summarize(
        bench_record.load_runs(parent, SECONDS)[0],
        bench_record.load_runs(change, SECONDS)[0],
        SPEC,
    )


def test_medians_and_quartiles_equal_numpy_percentiles(tmp_path):
    rng = np.random.default_rng(0)
    values = {"parent": rng.normal(10, 2, size=(7, len(METRICS))),
              "change": rng.normal(12, 3, size=(6, len(METRICS)))}
    for side, table in values.items():
        for seed, row in enumerate(table):
            write_run(tmp_path / side, "train-ttpp", seed, dict(zip(METRICS, row)))
    metrics = summarize(tmp_path / "parent", tmp_path / "change")["train-ttpp"]["metrics"]
    for j, name in enumerate(METRICS):
        for side, table in values.items():
            q1, median, q3 = np.percentile(table[:, j], [25, 50, 75])
            assert metrics[name][side] == {"median": median, "q1": q1, "q3": q3}
        assert metrics[name]["ratio"] == pytest.approx(
            metrics[name]["change"]["median"] / metrics[name]["parent"]["median"]
        )


def test_pairs_follow_each_metrics_direction_and_ties_count_for_neither(tmp_path):
    # seed 0: change higher, 1: change lower, 2: a tie, 3: change higher,
    # 4: parent only and 5: change only, so neither is a pair
    parent = {0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0}
    change = {0: 2.0, 1: 0.5, 2: 1.0, 3: 3.0, 5: 0.1}
    for seed, value in parent.items():
        write_run(tmp_path / "parent", "train-lstm", seed, uniform(value))
    for seed, value in change.items():
        write_run(tmp_path / "change", "train-lstm", seed, uniform(value))
    metrics = summarize(tmp_path / "parent", tmp_path / "change")["train-lstm"]["metrics"]
    for m in SPEC["end_to_end"]:
        row = metrics[m["name"]]
        assert row["pairs"] == 4
        assert row["pairs_won_by_change"] == (2 if m["better"] == "higher" else 1), m["name"]


def moved_runs(tmp_path, workload: str, parent: dict, by) -> dict:
    """Per seed, every metric at the parent's value, and on the change's side
    moved by(m, seed) in the metric's better direction; the workload's summary."""
    for seed, value in parent.items():
        write_run(tmp_path / "parent", workload, seed, uniform(value))
        write_run(tmp_path / "change", workload, seed, {
            m["name"]: value + by(m, seed) * (1.0 if m["better"] == "higher" else -1.0)
            for m in SPEC["end_to_end"]})
    return summarize(tmp_path / "parent", tmp_path / "change")[workload]["metrics"]


@pytest.mark.parametrize("pairs, lost, shift, shown", [
    (10, 1, 0.5, True),  # 9 of 10 pairs, far beyond the parent's spread
    (10, 2, 0.5, False),  # 8 of 10 pairs
    (10, 0, 0.01, False),  # 10 of 10, but within the parent's q3 - q1 of 0.045
    (5, 0, 0.5, False),  # 5 of 5, far beyond the spread, but too few pairs
    (9, 0, 0.5, False),  # 9 of 9
    (20, 2, 0.5, True),  # 18 of 20
])
def test_gain_shown_needs_ten_pairs_nine_tenths_won_and_a_shift_beyond_the_parents_spread(
        tmp_path, pairs, lost, shift, shown):
    parent = {seed: 1.0 + 0.01 * (seed - 4.5) for seed in range(pairs)}
    metrics = moved_runs(tmp_path, "train-ttpp", parent,
                         lambda m, seed: -shift if seed < lost else shift)
    for name, row in metrics.items():
        assert row["pairs_won_by_change"] == pairs - lost, name
        assert row["gain_shown"] is shown, name


def test_gain_shown_needs_pairs(tmp_path):
    write_run(tmp_path / "parent", "train-ttpp", 1, uniform(1.0))
    write_run(tmp_path / "change", "train-ttpp", 2, uniform(2.0))
    metrics = summarize(tmp_path / "parent", tmp_path / "change")["train-ttpp"]["metrics"]
    assert not any(row["gain_shown"] for row in metrics.values())


@pytest.mark.parametrize("bounds, beyond", [(-1.5, True), (-0.5, False), (1.5, False)])
def test_beyond_bound_is_a_median_worse_by_more_than_the_bound(tmp_path, bounds, beyond):
    metrics = moved_runs(tmp_path, "grid-smoke", {1: 1.0}, lambda m, seed: bounds * m["bound"])
    for name, row in metrics.items():
        assert row["beyond_bound"] is beyond, name


@pytest.mark.parametrize("parent_iqr, change_iqr, shift, unresolved", [
    (0.5, 0.5, 0.0, False),  # both spreads within the bound
    (2.0, 0.5, 0.0, True),  # the parent's wider than the bound
    (0.5, 2.0, 0.0, True),  # the change's wider than the bound
    (2.0, 0.5, 3.0, False),  # wide, but every change run better than every parent run
    (2.0, 0.5, 1.5, True),  # wide, and the lowest change run not better than the top parent run
])
def test_unresolved_is_a_spread_wider_than_the_bound_unless_the_sides_part(
        tmp_path, parent_iqr, change_iqr, shift, unresolved):
    # five runs a side at offsets -2..2 times a step, so q3 - q1 is 2 steps;
    # iqr and shift are in units of the metric's bound times the parent's median
    for side, iqr, moved in (("parent", parent_iqr, 0.0), ("change", change_iqr, shift)):
        for seed, offset in enumerate((-2, -1, 0, 1, 2)):
            write_run(tmp_path / side, "train-lstm", seed, {
                m["name"]: 100.0 + (moved * (1.0 if m["better"] == "higher" else -1.0)
                                    + offset * iqr / 2) * m["bound"] * 100.0
                for m in SPEC["end_to_end"]})
    metrics = summarize(tmp_path / "parent", tmp_path / "change")["train-lstm"]["metrics"]
    for name, row in metrics.items():
        assert row["unresolved"] is unresolved, name


def test_tiny_runs_other_lengths_and_span_files_are_skipped(tmp_path):
    out = tmp_path / "out"
    write_run(out, "grid-smoke", 1, uniform(1.0))
    write_run(out, "grid-smoke", 2, uniform(50.0), size="tiny")
    write_run(out, "grid-smoke", 3, uniform(50.0), seconds=SECONDS + 1)
    write_run(out, "grid-smoke", 4, uniform(50.0), suffix=".spans.json")
    runs, environment = bench_record.load_runs(out, SECONDS)
    assert list(runs) == [("grid-smoke", 0)]
    assert [seed for seed, _ in runs[("grid-smoke", 0)]] == [1]
    assert environment == {"commit": "out"}


def test_a_workload_missing_on_one_side_is_left_out(tmp_path):
    write_run(tmp_path / "parent", "train-ttpp", 1, uniform(1.0))
    write_run(tmp_path / "parent", "grid-smoke", 1, uniform(1.0))
    write_run(tmp_path / "change", "train-ttpp", 1, uniform(2.0))
    write_run(tmp_path / "change", "train-lstm", 1, uniform(2.0))
    assert list(summarize(tmp_path / "parent", tmp_path / "change")) == ["train-ttpp"]


def test_traced_takes_the_first_traced_run_of_each_side(tmp_path):
    for side, seeds in (("parent", (7, 8)), ("change", (8, 9))):
        for seed in seeds:
            write_run(tmp_path / side, "train-ttpp", seed, {"tensor.nodes_per_sample": seed},
                      trace=1)
        write_run(tmp_path / side, "train-ttpp", 1, uniform(1.0))
    parent = bench_record.load_runs(tmp_path / "parent", SECONDS)[0]
    change = bench_record.load_runs(tmp_path / "change", SECONDS)[0]
    record = bench_record.traced(parent, change, SPEC)
    assert list(record) == ["train-ttpp"]
    assert record["train-ttpp"]["parent"] == {"seed": 7, "correct": True, "failed": 0,
                                              "tensor.nodes_per_sample": 7}
    assert record["train-ttpp"]["change"]["seed"] == 8


def test_main_writes_the_record(tmp_path, capsys):
    write_run(tmp_path / "parent", "train-ttpp", 1, uniform(1.0))
    write_run(tmp_path / "change", "train-ttpp", 1, uniform(2.0))
    out = tmp_path / "BENCH.json"
    assert bench_record.main([
        "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
        "--out", str(out), "--note", "fake runs",
    ]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["note"] == "fake runs"
    assert record["environment"] == {"parent": {"commit": "parent"},
                                     "change": {"commit": "change"}}
    assert record["end_to_end"]["train-ttpp"]["change"]["runs"] == 1
    assert record["traced"] == {}
