"""Noise study: repeat runs over seeds and judge them against BENCHMARK.json.

    python3 perfbench/noise.py --label a --seeds 101-110
    python3 perfbench/noise.py --label b --seeds 201-210
    python3 perfbench/noise.py --compare a b

A set runs each workload once per seed, one process at a time, and
appends every result line to perfbench/out/noise-<label>.jsonl. The table
gives, per end-to-end metric, the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread (q3 - q1) /
median next to the bound. --compare puts two sets side by side and
reports how far the second median is worse than the first, as a share.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(label: str, seeds, seconds) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"noise-{label}.jsonl", "a", encoding="utf-8") as fh:
        for seed in seeds:
            for workload in (w["name"] for w in spec()["workloads"]):
                cmd = [*spec()["command"], "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                      timeout=180, check=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                fh.write(json.dumps({"workload": workload, "seed": seed, **result}) + "\n")
                fh.flush()
                print(f"{workload} seed {seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}", flush=True)


def load(label: str) -> dict[str, list[dict]]:
    rows: dict[str, list[dict]] = {}
    for line in (OUT / f"noise-{label}.jsonl").read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        rows.setdefault(row["workload"], []).append(row)
    return rows


def stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def table(label: str) -> None:
    metrics = spec()["end_to_end"]
    for workload, rows in load(label).items():
        failed = {r["failed"] / r["attempted"] for r in rows}
        print(f"\n{label} {workload}: {len(rows)} runs, all correct: "
              f"{all(r['correct'] for r in rows)}, failed shares: {sorted(failed)}")
        print(f"{'metric':22s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}")
        for m in metrics:
            med, q1, q3, spread = stats([r["metrics"][m["name"]]["value"] for r in rows])
            flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
            print(f"{m['name']:22s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:7.2%} "
                  f"{m['bound']:6.2f}{flag}")


def compare(first: str, second: str) -> None:
    metrics = spec()["end_to_end"]
    a, b = load(first), load(second)
    for workload in a:
        print(f"\n{workload}: {first} vs {second}")
        for m in metrics:
            ma = stats([r["metrics"][m["name"]]["value"] for r in a[workload]])[0]
            mb = stats([r["metrics"][m["name"]]["value"] for r in b[workload]])[0]
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            flag = "" if worse <= m["bound"] else "  WORSE THAN BOUND"
            print(f"{m['name']:22s} {ma:12.6g} {mb:12.6g} worse by {worse:7.2%}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label")
    parser.add_argument("--seeds", help="first-last, e.g. 101-110")
    parser.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        for label in args.compare:
            table(label)
        compare(*args.compare)
        return 0
    if args.seeds:
        run_set(args.label, seeds_of(args.seeds), spec()["run_seconds"])
    table(args.label)
    return 0


if __name__ == "__main__":
    sys.exit(main())
