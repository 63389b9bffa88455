"""Command-line harness: data generation, training, evaluation, grids.

Configuration is a flat key = value text file overridden by repeated
--set key=value flags; precedence is flags > file > defaults. Every run
funnels its randomness through seeds recorded in the output manifest, so
identical invocations produce identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from . import metrics as metricsmod
from .model import (
    AnticipationModel,
    ModelConfig,
    grid_configs,
    load_checkpoint,
    save_checkpoint,
)
from .training import TrainConfig, train, write_history_csv

# config key -> dataclass field; n_classes is spelt model.classes in config files
MODEL_KEYS = {
    f"model.{'classes' if f.name == 'n_classes' else f.name}": f.name
    for f in fields(ModelConfig)
}
TRAIN_KEYS = {f"train.{f.name}": f.name for f in fields(TrainConfig)}

DEFAULTS: dict[str, object] = {
    **{key: getattr(ModelConfig, name) for key, name in MODEL_KEYS.items()},
    **{key: getattr(TrainConfig, name) for key, name in TRAIN_KEYS.items()},
    "data.n_train": 12,
    "data.n_eval": 6,
    "data.length": 40,
    "data.noise_sigma": 0.4,
    "data.duration_mean": 3.0,
    "data.duration_law": "fixed",
    "data.seed": 0,
    "eval.metric": "acc",
}

HELDOUT_SEED_OFFSET = 7919
SPLITS = {"train": ("data.n_train", 0), "heldout": ("data.n_eval", HELDOUT_SEED_OFFSET)}
NON_NEGATIVE = ("data.n_train", "data.n_eval", "data.length", "data.seed", "train.seed")


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            values[key] = value
    return values


def resolve_config(config_path=None, overrides=()) -> dict[str, object]:
    resolved = dict(DEFAULTS)
    pending: dict[str, str] = {}
    if config_path:
        pending.update(parse_config_file(config_path))
    for item in overrides:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        pending[key.strip()] = value.strip()
    for key, value in pending.items():
        if key not in DEFAULTS:
            raise ValueError(f"unknown config key {key!r}")
        kind = type(DEFAULTS[key])  # int, float or str
        try:
            resolved[key] = kind(value)
        except ValueError:
            raise ValueError(
                f"config key {key!r} expects {kind.__name__}, got {value!r}"
            ) from None
        if kind is float and not math.isfinite(resolved[key]):
            raise ValueError(f"config key {key!r} expects a finite float, got {value!r}")
        if key in NON_NEGATIVE and resolved[key] < 0:
            raise ValueError(f"config key {key!r} expects an integer >= 0, got {value!r}")
    if resolved["eval.metric"] not in metricsmod.METRICS:
        raise ValueError(f"config key 'eval.metric' expects one of {metricsmod.METRICS}, "
                         f"got {resolved['eval.metric']!r}")
    return resolved


def model_config(rc: dict[str, object]) -> ModelConfig:
    return ModelConfig(**{name: rc[key] for key, name in MODEL_KEYS.items()})


def train_config(rc: dict[str, object]) -> TrainConfig:
    return TrainConfig(**{name: rc[key] for key, name in TRAIN_KEYS.items()})


def split_sequences(rc, split: str, data_dir=None) -> list[datamod.FeatureSequence]:
    """The .feat files under `data_dir`, or else the synthetic `split` of SPLITS.

    A file whose d_m or class count differs from the configured model's is
    refused by name, before it can be trained on or scored.
    """
    if data_dir:
        files = sorted(Path(data_dir).glob("*.feat"))
        if not files:
            raise FileNotFoundError(f"no .feat files under {data_dir}")
        want = (rc["model.d_m"], rc["model.classes"])
        sequences = []
        for path in files:
            seq = datamod.load_features(path)
            if (seq.d_m, seq.n_classes) != want:
                raise ValueError(
                    f"{path}: d_m {seq.d_m} with {seq.n_classes} classes, but the model "
                    f"has model.d_m = {want[0]} and model.classes = {want[1]}"
                )
            sequences.append(seq)
        return sequences
    count_key, seed_offset = SPLITS[split]
    cfg = datamod.standard_synthetic_config(
        n_classes=rc["model.classes"],
        d_m=rc["model.d_m"],
        seed=rc["data.seed"],
        noise_sigma=rc["data.noise_sigma"],
        duration_mean=rc["data.duration_mean"],
        duration_law=rc["data.duration_law"],
    )
    # both splits share one process; the heldout one draws with another seed
    cfg = replace(cfg, seed=cfg.seed + seed_offset)
    return datamod.gen_synthetic(cfg, rc[count_key], rc["data.length"])


def _windowed_split(rc, split: str, seq_len: int, horizon: int, data_dir):
    """The `split` sequences, refused when none has the seq_len + horizon chunks
    one window needs, naming the data directory or the keys that size them."""
    sequences = split_sequences(rc, split, data_dir)
    chunks, longest = seq_len + horizon, max(map(len, sequences), default=0)
    if longest < chunks:
        need = "seq_len + horizon" if horizon else "seq_len"
        count_key = SPLITS[split][0]
        where = (f"under {data_dir}" if data_dir else
                 f"at {count_key} = {rc[count_key]} and data.length = {rc['data.length']}")
        found = f"the longest has {longest}" if sequences else "there are none"
        raise ValueError(f"no {split} sequence {where} has {need} = {chunks} chunks ({found})")
    return sequences


def training_samples(rc, seq_len: int, horizon: int, data_dir=None):
    """Every window of the train split with seq_len observed and horizon future
    chunks, refused by cause when there is none."""
    return [sample for seq in _windowed_split(rc, "train", seq_len, horizon, data_dir)
            for sample in datamod.make_samples(seq, seq_len, horizon)]


def heldout_report(model: AnticipationModel, sequences, rc) -> metricsmod.HorizonReport:
    """The model's eval.metric per horizon over every anchor of `sequences`."""
    c = model.config
    return metricsmod.evaluate_horizons(model.scorer(), sequences, horizon=c.horizon,
                                        seq_len=c.seq_len, metric=rc["eval.metric"])


def write_manifest(out_dir: Path, rc, outputs) -> None:
    manifest = {
        "seed": rc["train.seed"],
        "config": {k: rc[k] for k in sorted(rc)},
        "outputs": {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                    for name in outputs},
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_gen(args, rc) -> int:
    out = Path(args.out_dir)
    written = {}
    for split in SPLITS:
        (out / split).mkdir(parents=True, exist_ok=True)
        sequences = split_sequences(rc, split)
        for seq in sequences:
            datamod.save_features(seq, out / split / f"{seq.video_id}.feat")
        written[split] = len(sequences)
    print(
        f"wrote {written['train']} train + {written['heldout']} heldout sequences "
        f"of length {rc['data.length']} to {out}"
    )
    return 0


def cmd_train(args, rc) -> int:
    mc = model_config(rc)
    tc = train_config(rc)
    samples = training_samples(rc, mc.seq_len, mc.horizon, args.data)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = AnticipationModel(mc, seed=tc.seed)
    history = train(model, samples, tc)
    save_checkpoint(model, out / "checkpoint.bin")
    write_history_csv(history, out / "history.csv")
    write_manifest(out, rc, ["checkpoint.bin", "history.csv"])
    last = history[-1]
    print(
        f"trained {mc.name} for {tc.epochs} epochs on {len(samples)} samples: "
        f"total loss {last.total_loss:.4f}, horizon-1 accuracy {last.train_acc_h1:.3f}"
    )
    return 0


def _load_model(rc, checkpoint) -> AnticipationModel:
    path = Path(checkpoint)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    saved, state = load_checkpoint(path)
    config = model_config(rc)
    differ = [
        f"{f.name} (checkpoint {getattr(saved, f.name)!r}, config {getattr(config, f.name)!r})"
        for f in fields(ModelConfig)
        if getattr(saved, f.name) != getattr(config, f.name)
    ]
    if differ:
        raise ValueError(
            f"checkpoint {path} was trained with another model config: {', '.join(differ)}"
        )
    model = AnticipationModel(config, seed=rc["train.seed"])
    try:
        model.load_state(state)
    except ValueError as exc:
        raise ValueError(f"{exc} in {path}") from None
    return model


def cmd_eval(args, rc) -> int:
    model = _load_model(rc, args.checkpoint)
    c = model.config
    sequences = _windowed_split(rc, "heldout", c.seq_len, c.horizon, args.data)
    report = heldout_report(model, sequences, rc)
    metricsmod.write_report_csv({model.config.name: report}, args.out)
    print(
        f"{model.config.name}: {rc['eval.metric']} per horizon "
        f"{[round(float(v), 4) for v in report.means]}, avg {report.average:.4f}"
    )
    return 0


def cmd_grid(args, rc) -> int:
    if args.data and not args.heldout_data:
        raise ValueError(
            "grid on feature files needs --heldout-data; it would score on the training files"
        )
    mc = model_config(rc)
    held_seqs = _windowed_split(rc, "heldout", mc.seq_len, mc.horizon, args.heldout_data)
    tc = train_config(rc)
    samples = training_samples(rc, mc.seq_len, mc.horizon, args.data)
    reports = {}
    for idx, cell in enumerate(grid_configs(mc)):
        cell_seed = int(
            np.random.SeedSequence([tc.seed, idx]).generate_state(1)[0] % (2**31)
        )
        model = AnticipationModel(cell, seed=cell_seed)
        train(model, samples, replace(tc, seed=cell_seed))
        reports[cell.name] = heldout_report(model, held_seqs, rc)
        print(f"{cell.name}: avg {reports[cell.name].average:.4f}")
    metricsmod.write_report_csv(reports, args.out)
    print(f"wrote {len(reports)} method rows to {args.out}")
    return 0


def cmd_dump_attention(args, rc) -> int:
    model = _load_model(rc, args.checkpoint)
    if model.config.aggregator != "ttm":
        raise ValueError("attention dumps need a transformer aggregator (model.aggregator=ttm)")
    seq_len = model.config.seq_len
    sequences = _windowed_split(rc, "heldout", seq_len, 0, args.data)
    written = [seq for seq in sequences if len(seq) >= seq_len]

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("video_id,t,head,memory_pos,weight\n")
        for seq in written:
            anchors = range(seq_len - 1, len(seq))
            stack = np.stack([seq.features[t - seq_len + 1 : t + 1] for t in anchors])
            _, weights = model.anticipate(stack)  # (anchors, heads, seq_len - 1)
            for t, per_head in zip(anchors, weights):
                for head, row in enumerate(per_head):
                    for m, weight in enumerate(row):
                        pos = t - seq_len + 1 + m
                        fh.write(f"{seq.video_id},{t},{head},{pos},{float(weight)!r}\n")
    print(f"wrote attention weights for {len(written)} sequences to {args.out}")
    return 0


def cmd_param_count(args, rc) -> int:
    base = model_config(rc)
    rows = []
    for cell in grid_configs(base):
        if cell.ppm_variant != "full":
            continue  # the ablation shares ppm parameter shapes
        rows.append((cell.name, AnticipationModel(cell).param_count()))
    lines = ["method,params"] + [f"{name},{count}" for name, count in rows]
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(text, end="")
    ttpp = dict(rows)["ttm-ppm"]
    ed = dict(rows)["lstm-lstm"]
    print(f"# ttm-ppm uses {ttpp} parameters vs {ed} for lstm-lstm "
          f"({100 * (1 - ttpp / ed):.1f}% fewer)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttpp", description="action anticipation lab: train, evaluate, compare"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")

    p = sub.add_parser("gen", help="write synthetic feature files")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train one model, persist checkpoint + history")
    common(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--data", help="directory of .feat files")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="emit a per-horizon report CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data", help="directory of .feat files")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("grid", help="train/evaluate the aggregator x predictor matrix")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--data", help="training .feat directory")
    p.add_argument("--heldout-data", help="evaluation .feat directory")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("dump-attention", help="per-head attention weight CSV")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data", help="directory of .feat files")
    p.set_defaults(func=cmd_dump_attention)

    p = sub.add_parser("param-count", help="parameter counts per method")
    common(p)
    p.add_argument("--out", help="optional CSV path")
    p.set_defaults(func=cmd_param_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, resolve_config(args.config, args.set or []))
    except SystemExit as exc:  # argparse error paths
        return int(exc.code or 0)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
