"""The three workloads, their rounds, checks and metrics.

A run repeats whole rounds of identical shape until `seconds` have passed,
so every timed metric is a ratio of sums over rounds spread across the
whole run, not a reading of one stretch of it. The program sees only the
inputs generated here from the workload seed.

* train-ttpp / train-lstm: round r builds a fresh model, trains it on fold
  r mod K, scores every heldout anchor of that fold through
  `evaluate_horizons`, then calls `anticipate` on the same anchors one at a
  time. Quality metrics average the first K rounds, one per fold.
* grid-smoke: a round is one `ttpp grid` command through `cli.main`.

Every timed interval is scaled by the speed probes of refspeed.py, taken
by hooks around `train`, optimizer steps, `evaluate_horizons` and every
MARK_EVERY-th one-window call. With tracing on, rounds alternate untraced
and traced (on the same fold), the per-layer metrics come from the traced
rounds, and the ratio of the two round times is the tracing overhead.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import checks
from refspeed import SpeedMeter
from tracer import Tracer, children_count, summarize

# fixed synthetic process (prototypes, transitions); only the sampled
# sequences depend on the workload seed, so quality metrics move little
PROCESS_SEED = 0
MODEL_SEED = 0
N_CLASSES = 4
D_M = 16


@dataclass(frozen=True)
class TrainSize:
    folds: int
    train_seqs: int
    heldout_seqs: int
    length: int
    heldout_length: int
    epochs: int
    min_windows: int  # anticipate calls per run, so that >= 10 lie beyond p99
    grad_entries: int  # sampled entries per parameter in the gradient check


TRAIN_SIZES = {
    # 2 x 47 chunks give 64 training samples (two full batches of 32) and
    # 78 heldout anchors per fold
    "full": TrainSize(8, 2, 2, 47, 47, 2, 1000, 2),
    "tiny": TrainSize(2, 1, 1, 20, 12, 1, 0, 1),
}

GRID_OVERRIDES = {
    "full": [],
    "tiny": ["train.epochs=1", "data.n_train=1", "data.n_eval=1",
             "data.length=14", "model.horizon=2"],
}

GRID_CELLS = (
    "ttm-ppm", "ttm-ssp", "ttm-lstm",
    "conv1d-ppm", "conv1d-ssp", "conv1d-lstm",
    "lstm-ppm", "lstm-ssp", "lstm-lstm",
    "ttm-ppm-nofp",
)

MODELS = {"train-ttpp": ("ttm", "ppm"), "train-lstm": ("lstm", "lstm")}
SMOKE_CONFIG = Path(__file__).resolve().parent / "smoke.cfg"


def ttpp():
    """The package under test, imported on first use."""
    import ttpp as pkg
    import ttpp.cli  # noqa: F401  (binds pkg.cli)

    return pkg


# ---- operations and their outcomes --------------------------------------


@dataclass
class Tally:
    """Operations attempted and failed in one run, and the checks' verdict.

    An operation (one `train`, `evaluate_horizons`, `anticipate` or grid
    command) fails when it raises; that is counted and the run goes on. A
    check that finds a wrong output, or cannot be completed, makes the run
    incorrect; the first such reason is kept.
    """

    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # the first few failures
    check_failure: str | None = None

    def attempt(self, fn, *args, **kwargs):
        """Run one operation; returns its result, or None when it raised."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # any fault of the program counts
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return None

    def check(self, fn, *args) -> None:
        """Run one output check; a failure or an error marks the run incorrect."""
        try:
            fn(*args)
        except Exception as exc:
            self.fail(f"{type(exc).__name__}: {exc}")

    def fail(self, reason: str) -> None:
        if self.check_failure is None:
            self.check_failure = reason


# ---- tracing plans ------------------------------------------------------


MARK_EVERY = 16  # one-window calls between speed probes


def _train_summary(args, history) -> tuple[int, float]:
    """Samples x epochs of one `train(model, samples, config)` call, final loss."""
    return len(args[1]) * len(history), history[-1].total_loss


def speed_hooks(tracer: Tracer, mark=None) -> None:
    """The spans every run needs for its end-to-end metrics.

    `mark` probes the machine's speed just outside each `train`, each
    optimizer step, each `evaluate_horizons` call and every MARK_EVERY-th
    scorer call, which splits the run into short intervals that are scaled
    one by one.
    """
    tracer.function("training", "train", keep=_train_summary, mark=mark)
    tracer.function("tensor", "sgd_step", mark=mark)
    tracer.function("metrics", "evaluate_horizons", mark=mark)
    tracer.factory("model", "AnticipationModel", "scorer", "model.score", mark, MARK_EVERY)


def full_trace(tracer: Tracer, mark=None) -> None:
    """The speed hooks plus every layer boundary the per-layer metrics read."""
    speed_hooks(tracer, mark)
    for module, name in (
        ("data", "gen_synthetic"),
        ("data", "make_samples"),
        ("attention", "aggregate"),
        ("prediction", "rollout"),
        ("prediction", "rollout_without_features"),
        ("baselines", "conv1d_aggregate"),
        ("baselines", "lstm_encode"),
        ("baselines", "lstm_decode"),
        ("baselines", "ssp_rollout"),
        ("training", "class_loss"),
        ("training", "feature_loss"),
        ("training", "total_loss"),
        ("metrics", "write_report_csv"),
        ("cli", "main"),
    ):
        tracer.function(module, name)
    tracer.method("tensor", "Tensor", "backward")
    tracer.method("model", "AnticipationModel", "__init__")
    tracer.method("model", "AnticipationModel", "anticipate")
    tracer.count_constructions("tensor", "Tensor")


PER_LAYER_UNITS = {
    "tensor.backward.ms_per_batch": "ms",
    "tensor.sgd_step.ms_per_batch": "ms",
    "tensor.nodes_per_sample": "count",
    "tensor.nodes_per_window": "count",
    "attention.aggregate.us_per_call": "us",
    "attention.aggregate.calls": "count",
    "prediction.rollout.us_per_call": "us",
    "prediction.rollout.calls": "count",
    "baselines.lstm_encode.us_per_call": "us",
    "baselines.lstm_decode.us_per_call": "us",
    "baselines.conv1d_aggregate.us_per_call": "us",
    "baselines.ssp_rollout.us_per_call": "us",
    "training.loss.us_per_sample": "us",
    "model.anticipate.self_us": "us",
    "metrics.evaluate_horizons.self_ms": "ms",
    "data.gen_synthetic.ms": "ms",
    "data.make_samples.ms": "ms",
    "model.init.ms": "ms",
    "training.train.s": "s",
    "metrics.evaluate_horizons.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_pct": "%",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "final_loss": "loss",
    "eval_anchors_per_s": "windows/s",
    "heldout_cap": "cAP",
    "anticipate_ms_p50": "ms",
    "anticipate_ms_p99": "ms",
    "round_wall_s": "s",
    "peak_rss_mb": "MB",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trained_units(tracer: Tracer) -> int:
    """Training samples x epochs over the traced `train` calls."""
    return sum(kept[0] for name, kept in tracer.results if name == "training.train")


def layer_metrics(tracer: Tracer, traced_rounds: int, overhead_pct: float,
                  duration=None) -> dict:
    """Per-layer numbers from the spans of the traced set-up and rounds."""
    s = summarize(tracer.spans, duration)
    empty = {"calls": 0, "total": 0.0, "self": 0.0, "nodes": 0}

    def row(name):
        return s.get(name, empty)

    def per_call(name, field="total", scale=1.0):
        return _ratio(row(name)[field] * scale, row(name)["calls"])

    def per_round(name, field="total"):
        return _ratio(row(name)[field], traced_rounds)

    units = trained_units(tracer)
    windows = children_count(tracer.spans, "metrics.evaluate_horizons", "model.score")
    losses = sum(row(f"training.{n}")["total"]
                 for n in ("class_loss", "feature_loss", "total_loss"))
    return {
        "tensor.backward.ms_per_batch": per_call("tensor.Tensor.backward", scale=1e3),
        "tensor.sgd_step.ms_per_batch": per_call("tensor.sgd_step", scale=1e3),
        "tensor.nodes_per_sample": _ratio(row("training.train")["nodes"], units),
        "tensor.nodes_per_window": _ratio(row("metrics.evaluate_horizons")["nodes"], windows),
        "attention.aggregate.us_per_call": per_call("attention.aggregate", scale=1e6),
        "attention.aggregate.calls": per_round("attention.aggregate", "calls"),
        "prediction.rollout.us_per_call": per_call("prediction.rollout", scale=1e6),
        "prediction.rollout.calls": per_round("prediction.rollout", "calls"),
        "baselines.lstm_encode.us_per_call": per_call("baselines.lstm_encode", scale=1e6),
        "baselines.lstm_decode.us_per_call": per_call("baselines.lstm_decode", scale=1e6),
        "baselines.conv1d_aggregate.us_per_call":
            per_call("baselines.conv1d_aggregate", scale=1e6),
        "baselines.ssp_rollout.us_per_call": per_call("baselines.ssp_rollout", scale=1e6),
        "training.loss.us_per_sample": _ratio(losses * 1e6, units),
        "model.anticipate.self_us":
            per_call("model.AnticipationModel.anticipate", "self", 1e6),
        "metrics.evaluate_horizons.self_ms":
            per_call("metrics.evaluate_horizons", "self", 1e3),
        "data.gen_synthetic.ms": per_call("data.gen_synthetic", scale=1e3),
        "data.make_samples.ms": per_call("data.make_samples", scale=1e3),
        "model.init.ms": per_call("model.AnticipationModel.__init__", scale=1e3),
        "training.train.s": per_round("training.train"),
        "metrics.evaluate_horizons.s": per_round("metrics.evaluate_horizons"),
        "cli.main.self_s": per_round("cli.main", "self"),
        "trace.overhead_pct": overhead_pct,
    }


@contextlib.contextmanager
def installed(tracer: Tracer | None, plan, mark=None):
    """Install a tracing plan for the duration of the block."""
    if tracer is None:
        yield
        return
    plan(tracer, mark)
    try:
        yield
    finally:
        tracer.restore()


def _go_on(start: float, seconds: float, walls) -> bool:
    """Start another round only if it should end by the deadline."""
    now = time.perf_counter()
    return now + (statistics.fmean(walls) if walls else 0.0) <= start + seconds


def _end_to_end(tracer: Tracer, walls, duration, per_cell: bool = False) -> dict[str, float]:
    """Rates and latencies from the speed-hook spans, one duration rule.

    With `per_cell`, the one-window latencies are grouped by the
    `evaluate_horizons` call they ran in (one grid cell, one model each):
    the p50 is the mean of the groups' medians, and the p99 is that mean
    times the p99 of every latency over its own group's median, so the tail
    rests on all calls without mixing models of different speed. With one
    group these are the plain percentiles.
    """
    s = summarize(tracer.spans, duration)
    groups: dict[int, list[float]] = {}
    for sp in tracer.spans:
        if sp[0] == "model.score":
            groups.setdefault(sp[3] if per_cell else -1, []).append(duration(sp[1], sp[2]))
    windows = children_count(tracer.spans, "metrics.evaluate_horizons", "model.score")
    medians = [np.median(v) for v in groups.values()]
    p50 = np.mean(medians)
    p99 = p50 * np.percentile(np.concatenate([np.divide(v, m) for v, m in
                                              zip(groups.values(), medians)]), 99)
    return {
        "train_samples_per_s": trained_units(tracer) / s["training.train"]["total"],
        "eval_anchors_per_s": windows / s["metrics.evaluate_horizons"]["total"],
        "anticipate_ms_p50": 1e3 * float(p50),
        "anticipate_ms_p99": 1e3 * float(p99),
        "round_wall_s": statistics.fmean(duration(a, b) for a, b in walls),
    }


def _details(meter: SpeedMeter, walls, tally: Tally) -> dict:
    """Per-round raw and scaled walls, every probe and the failures, for the record."""
    return {
        "errors": tally.errors,
        "round_walls_s": [meter.between(a, b, scaled=False) for a, b in walls[False]],
        "scaled_round_walls_s": [meter.between(a, b) for a, b in walls[False]],
        "traced_round_walls_s": [meter.between(a, b, scaled=False) for a, b in walls[True]],
        "probes_s": meter.probes,
    }


# ---- train-ttpp and train-lstm -----------------------------------------


@dataclass
class Fold:
    samples: list
    heldout: list
    windows: list  # float64 (seq_len, d_m) windows, one per heldout anchor


def train_setup(workload: str, seed: int, size: str):
    """Folds of seed-drawn sequences from one fixed process, and the config."""
    pkg = ttpp()
    spec = TRAIN_SIZES[size]
    aggregator, predictor = MODELS[workload]
    config = pkg.ModelConfig(aggregator=aggregator, predictor=predictor)
    process = pkg.data.standard_synthetic_config(
        n_classes=N_CLASSES, d_m=D_M, seed=PROCESS_SEED,
        noise_sigma=0.4, duration_mean=3.0, duration_law="fixed",
    )
    folds = []
    for k in range(spec.folds):
        s_train, s_held = (int(x) for x in np.random.SeedSequence([seed, k]).generate_state(2))
        train_seqs = pkg.data.gen_synthetic(replace(process, seed=s_train),
                                            spec.train_seqs, spec.length)
        heldout = pkg.data.gen_synthetic(replace(process, seed=s_held),
                                         spec.heldout_seqs, spec.heldout_length)
        samples = [x for seq in train_seqs
                   for x in pkg.data.make_samples(seq, config.seq_len, config.horizon)]
        windows = [np.asarray(seq.features[t - config.seq_len + 1 : t + 1], dtype=np.float64)
                   for seq in heldout for t in range(config.seq_len - 1, len(seq) - 1)]
        folds.append(Fold(samples, heldout, windows))
    pkg.AnticipationModel(config, seed=MODEL_SEED)  # construction is part of set-up
    return config, folds


def _train_round(pkg, config, fold: Fold, train_config, tracer: Tracer, plan,
                 meter: SpeedMeter, tally: Tally):
    """One round: train, score offline, then anticipate each window online.

    The one-window `anticipate` calls are recorded as "model.score" spans,
    like the scorer's calls that score the same windows offline; latencies
    are read from both. Returns the round's start and end and its outputs,
    which are checked afterwards.
    """
    start = time.perf_counter()
    with installed(tracer, plan, meter.mark):
        model = pkg.AnticipationModel(config, seed=MODEL_SEED)
        history = tally.attempt(pkg.train, model, fold.samples, train_config)
        tables = []
        scorer = model.scorer()

        def recording(sequence, t):
            table = scorer(sequence, t)
            tables.append(table)
            return table

        report = tally.attempt(pkg.evaluate_horizons, recording, fold.heldout,
                               horizon=config.horizon, seq_len=config.seq_len, metric="cap")
        anticipate = tracer.marked("model.score", model.anticipate, meter.mark, MARK_EVERY)

        def online_probs(window):
            roll, _ = anticipate(window)
            return roll.probs.data

        online = [tally.attempt(online_probs, window) for window in fold.windows]
    meter.mark()
    return {"span": (start, meter.before[-1]), "history": history, "report": report,
            "tables": tables, "online": online}


def _check_round(out, fold: Fold, config) -> None:
    checks.probability_rows(np.stack(out["online"]))
    checks.offline_matches_online(out["tables"], out["online"])
    pairs = checks.scored_pairs(fold.heldout, out["tables"], config.horizon, config.seq_len)
    checks.cap_and_count(
        out["report"].average, out["report"].n_scored, pairs, config.n_classes,
        checks.expected_pair_count(fold.heldout, config.horizon, config.seq_len),
    )


GRAD_CHECK_LR = 0.01


def update_and_gradient(pkg, config, sample, lr: float, entries: int, seed: int,
                        step: float = 1e-5):
    """Parameter moves from one SGD step, and central differences of the loss.

    The model is dropout-free and trained on one sample with batch 1 and
    momentum 0, so the step is exactly -lr times the gradient of the loss
    that `train` reports. That loss, at lr 0 with one entry nudged, gives
    the central difference. Entries are sampled from every parameter.
    """
    model = pkg.AnticipationModel(replace(config, dropout=0.0), seed=MODEL_SEED)
    rng = np.random.default_rng(seed)
    picks = []
    for p in model.parameters():
        data = p.value.data
        for flat in rng.choice(data.size, size=min(entries, data.size), replace=False):
            picks.append((p, np.unravel_index(int(flat), data.shape)))

    def reported_loss(rate: float) -> float:
        cfg = pkg.TrainConfig(lr=rate, momentum=0.0, batch_size=1, epochs=1)
        return pkg.train(model, [sample], cfg)[-1].total_loss

    numeric = []
    for p, idx in picks:
        orig = p.value.data[idx]
        p.value.data[idx] = orig + step
        hi = reported_loss(0.0)
        p.value.data[idx] = orig - step
        lo = reported_loss(0.0)
        p.value.data[idx] = orig
        numeric.append((hi - lo) / (2.0 * step))
    before = np.array([p.value.data[idx] for p, idx in picks])
    reported_loss(lr)
    after = np.array([p.value.data[idx] for p, idx in picks])
    return after - before, np.array(numeric)


def _gradient_check(pkg, config, sample, entries: int, seed: int) -> None:
    deltas, numeric = update_and_gradient(pkg, config, sample, GRAD_CHECK_LR, entries, seed)
    checks.update_equals_gradient(deltas, numeric, GRAD_CHECK_LR)


def run_train(workload: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    pkg = ttpp()
    spec = TRAIN_SIZES[size]
    full = Tracer() if trace else None
    with installed(full, full_trace):
        config, folds = train_setup(workload, seed, size)
    train_config = pkg.TrainConfig(epochs=spec.epochs)
    meter = SpeedMeter()
    meter.mark()
    light = Tracer()
    tally = Tally()
    first_seen: dict[int, tuple] = {}
    walls: dict[bool, list] = {False: [], True: []}  # rounds without a failed operation
    all_walls: dict[bool, list] = {False: [], True: []}
    start = time.perf_counter()
    for n in itertools.count():
        traced = trace and n % 2 == 1
        k = (n // 2 if trace else n) % spec.folds
        fold = folds[k]
        tracer, plan = (full, full_trace) if traced else (light, speed_hooks)
        recorded, failed = (len(tracer.spans), len(tracer.results)), tally.failed
        out = _train_round(pkg, config, fold, train_config, tracer, plan, meter, tally)
        all_walls[traced].append(out["span"])
        if tally.failed == failed:
            walls[traced].append(out["span"])
            tally.check(_check_round, out, fold, config)
            outcome = (out["history"][-1].total_loss, out["report"].average)
            if first_seen.setdefault(k, outcome) != outcome:
                tally.fail(f"fold {k} gave {outcome}, earlier {first_seen[k]}")
        else:  # a round with a failed operation is left out of the metrics
            tracer.drop_since(*recorded)
        if trace:
            if traced and not _go_on(start, seconds, [
                    2 * meter.between(a, b, scaled=False) for a, b in all_walls[True]]):
                break
        elif (n + 1 >= spec.folds
              and 2 * (n + 1) * len(fold.windows) >= spec.min_windows
              and not _go_on(start, seconds, [b - a for a, b in all_walls[False]])):
            break

    tally.check(_gradient_check, pkg, config, folds[0].samples[0], spec.grad_entries, seed)

    details = _details(meter, walls, tally)
    if trace:
        if not (walls[True] and walls[False]):
            return tally, {}, details, full
        scaled = meter.between
        overhead = 100.0 * (sum(scaled(a, b) for a, b in walls[True])
                            / sum(scaled(a, b) for a, b in walls[False]) - 1.0)
        return tally, layer_metrics(full, len(walls[True]), overhead, scaled), details, full

    if not walls[False]:
        return tally, {}, details, None
    details["raw"] = _end_to_end(light, walls[False], lambda a, b: meter.between(a, b, False))
    details["anticipate_windows"] = sum(1 for sp in light.spans if sp[0] == "model.score")
    metrics = {
        **_end_to_end(light, walls[False], meter.between),
        "final_loss": statistics.fmean(x[0] for x in first_seen.values()),
        "heldout_cap": statistics.fmean(x[1] for x in first_seen.values()),
    }
    return tally, metrics, details, None


# ---- grid-smoke ---------------------------------------------------------


def grid_setup(size: str) -> list[str]:
    ttpp()
    if not SMOKE_CONFIG.is_file():
        raise FileNotFoundError(SMOKE_CONFIG)
    return GRID_OVERRIDES[size]


def grid_command(pkg, argv: list[str]) -> None:
    """One `ttpp grid` through `cli.main`; a non-zero exit code is a failure."""
    code = pkg.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"ttpp {' '.join(argv)} exited with {code}")


def _check_grid(pkg, report: Path, reports: list[bytes], rows: dict) -> None:
    """The report as re-read, and byte-identity with the run's first report;
    `rows` receives the re-read rows."""
    labels, read = pkg.read_report_csv(report)
    checks.grid_report(labels, read, GRID_CELLS)
    rows.update(read)
    if reports[-1] != reports[0]:
        raise checks.CheckFailed("grid report differs between identical rounds")


def run_grid(seconds: float, trace: bool, size: str, work: Path):
    """The smoke grid as configured: its inputs do not depend on the seed."""
    pkg = ttpp()
    overrides = grid_setup(size)
    report = work / "grid.csv"
    argv = ["grid", "--config", str(SMOKE_CONFIG), "--out", str(report),
            "--set", "eval.metric=cap"]
    for item in overrides:
        argv += ["--set", item]
    meter = SpeedMeter()
    light = Tracer()
    full = Tracer() if trace else None
    tally = Tally()
    walls: dict[bool, list] = {False: [], True: []}  # grids that did not fail
    all_walls = []
    reports, rows = [], {}
    start = time.perf_counter()
    for n in itertools.count():
        traced = trace and n % 2 == 1
        tracer, plan = (full, full_trace) if traced else (light, speed_hooks)
        recorded, failed = (len(tracer.spans), len(tracer.results)), tally.failed
        with installed(tracer, plan, meter.mark), contextlib.redirect_stdout(io.StringIO()):
            meter.mark()
            begin = meter.after[-1]
            tally.attempt(grid_command, pkg, argv)
            meter.mark()
        all_walls.append((begin, meter.before[-1]))
        if tally.failed == failed:
            walls[traced].append(all_walls[-1])
            reports.append(report.read_bytes())
            tally.check(_check_grid, pkg, report, reports, rows)
        else:
            tracer.drop_since(*recorded)
        if trace and not traced:
            continue
        if not _go_on(start, seconds, [b - a for a, b in all_walls]):
            break

    details = {**_details(meter, walls, tally),
               "report": reports[-1].decode("utf-8") if reports else None}
    if trace:
        if not (walls[True] and walls[False]):
            return tally, {}, details, full
        scaled = meter.between
        overhead = 100.0 * (statistics.fmean(scaled(a, b) for a, b in walls[True])
                            / statistics.fmean(scaled(a, b) for a, b in walls[False]) - 1.0)
        return tally, layer_metrics(full, len(walls[True]), overhead, scaled), details, full

    if not walls[False]:
        return tally, {}, details, None
    details["raw"] = _end_to_end(light, walls[False], lambda a, b: meter.between(a, b, False),
                                 per_cell=True)
    details["anticipate_windows"] = sum(1 for sp in light.spans if sp[0] == "model.score")
    losses = [kept[1] for name, kept in light.results if name == "training.train"]
    metrics = {
        **_end_to_end(light, walls[False], meter.between, per_cell=True),
        "final_loss": statistics.fmean(losses),
    }
    if rows:
        metrics["heldout_cap"] = statistics.fmean(values[-1] for values in rows.values())
    return tally, metrics, details, None


def setup(workload: str, seed: int, size: str) -> None:
    """What a run does before its first timed operation (timed by probes)."""
    if workload == "grid-smoke":
        grid_setup(size)
    else:
        train_setup(workload, seed, size)


def run(workload: str, seed: int, seconds: float, trace: bool, size: str, work: Path):
    """Returns (Tally, metrics, details, tracer or None)."""
    if workload == "grid-smoke":
        return run_grid(seconds, trace, size, work)
    return run_train(workload, seed, seconds, trace, size)
