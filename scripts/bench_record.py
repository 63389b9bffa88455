"""Summarize parent and change benchmark runs into one BENCH_<n>.json record.

    python3 scripts/bench_record.py --parent PARENT/perfbench/out \
        --change perfbench/out --out BENCH_6.json

Each directory holds the run records that `perfbench/run.py` writes
(`<workload>-seed<n>-trace<t>.json`). Untraced records give, per workload
and end-to-end metric, each side's median and quartiles over its runs, the
ratio of the medians (change over parent) and, over the seeds both sides
ran, how many pairs the change won in the metric's better direction (ties
count for neither). Each such metric also states three verdicts:
`gain_shown`, both sides ran at least 10 common seeds, the change won at
least nine tenths of those pairs, and its median is better than the
parent's by more than the parent's q3 - q1;
`beyond_bound`, its median is worse than the parent's by more than the
metric's bound, taken as a share of the parent's median; and
`unresolved`, either side's q3 - q1 is wider than that bound, so the runs
cannot tell a change within the bound from none, unless every run of the
change is better than every run of the parent. Traced records
give each side's per-layer metrics. The directions and bounds are read
from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10  # fewer pairs state no gain: 5 of 5 won is no evidence of 9 in 10


def load_runs(directory: Path, seconds: float) -> tuple[dict[tuple[str, int], list], dict]:
    """Full-size runs of the benchmark's length by (workload, trace flag),
    each a list of (seed, result), and the environment of the last one read."""
    runs: dict = {}
    environment: dict = {}
    for path in sorted(directory.glob("*-seed*-trace*.json")):
        if path.name.endswith(".spans.json"):
            continue
        record = json.loads(path.read_text(encoding="utf-8"))
        args = record["args"]
        if args["size"] != "full" or args["seconds"] != seconds:
            continue  # the self-test's tiny runs, or runs of another length
        runs.setdefault((args["workload"], args["trace"]), []).append(
            (args["seed"], record["result"])
        )
        environment = record["environment"]
    return runs, environment


def spread(values) -> dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def summarize(parent: dict, change: dict, spec: dict) -> dict:
    out: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        sides = {"parent": parent.get((workload, 0), []), "change": change.get((workload, 0), [])}
        if not all(sides.values()):
            continue
        row: dict = {
            side: {
                "runs": len(runs),
                "seeds": sorted(seed for seed, _ in runs),
                "all_correct": all(r["correct"] for _, r in runs),
                "failed": sum(r["failed"] for _, r in runs),
                "attempted": sum(r["attempted"] for _, r in runs),
            }
            for side, runs in sides.items()
        }
        by_seed = {side: {seed: r["metrics"] for seed, r in runs} for side, runs in sides.items()}
        paired = sorted(set(by_seed["parent"]) & set(by_seed["change"]))
        metrics = {}
        for m in spec["end_to_end"]:
            name, sign = m["name"], (1.0 if m["better"] == "higher" else -1.0)
            value = {side: {s: run[name]["value"] for s, run in by_seed[side].items()}
                     for side in sides}
            summary = {side: spread(list(v.values())) for side, v in value.items()}
            base = summary["parent"]["median"]
            gain = sign * (summary["change"]["median"] - base)
            allowed = m["bound"] * abs(base)
            wins = sum(sign * (value["change"][s] - value["parent"][s]) > 0 for s in paired)
            metrics[name] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"], **summary,
                "ratio": summary["change"]["median"] / base if base else None,
                "pairs": len(paired), "pairs_won_by_change": wins,
                "gain_shown": len(paired) >= MIN_PAIRS and 10 * wins >= 9 * len(paired)
                and gain > summary["parent"]["q3"] - summary["parent"]["q1"],
                "beyond_bound": -gain > allowed,
                "unresolved": any(q["q3"] - q["q1"] > allowed for q in summary.values())
                and min(sign * v for v in value["change"].values())
                <= max(sign * v for v in value["parent"].values()),
            }
        row["metrics"] = metrics
        out[workload] = row
    return out


def traced(parent: dict, change: dict, spec: dict) -> dict:
    out: dict = {}
    for workload in (w["name"] for w in spec["workloads"]):
        row = {}
        for side, runs in (("parent", parent), ("change", change)):
            for seed, result in runs.get((workload, 1), [])[:1]:
                row[side] = {"seed": seed, "correct": result["correct"],
                             "failed": result["failed"],
                             **{k: v["value"] for k, v in result["metrics"].items()}}
        if row:
            out[workload] = row
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="parent's perfbench/out")
    parser.add_argument("--change", required=True, type=Path, help="change's perfbench/out")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--note", default="", help="free text stored in the record")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    (parent, parent_env), (change, change_env) = (
        load_runs(args.parent, seconds), load_runs(args.change, seconds)
    )
    record = {
        "command": " ".join(spec["command"]) + f" --seconds {spec['run_seconds']}",
        "note": args.note,
        "environment": {"parent": parent_env, "change": change_env},
        "end_to_end": summarize(parent, change, spec),
        "traced": traced(parent, change, spec),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
