"""Benchmark of the ttpp package: one workload per process, one JSON line out.

    python3 perfbench/run.py --workload train-ttpp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout that holds src/ttpp. With --trace 0 the
last line of standard output carries the end-to-end metrics, with
--trace 1 the per-layer metrics; both report the operations attempted and
failed and whether every output check passed. Each run also writes its
environment, reference-loop times and per-round figures to
perfbench/out/, and a traced run its spans. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = {"full": 7, "tiny": 1}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-ttpp", "train-lstm", "grid-smoke"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the monotonic clock and exit")
    return parser.parse_args(argv)


def prepare_process() -> None:
    """Cap BLAS threads at the CPUs this process may use; import from src/."""
    if not (ROOT / "src" / "ttpp" / "__init__.py").is_file():
        raise FileNotFoundError(f"no src/ttpp package under {ROOT}")
    cpus = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ.setdefault(var, cpus)
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def setup_seconds(args, refspeed) -> tuple[list[float], list[float]]:
    """Fresh-process set-up times, raw and scaled: spawn to end of set-up.

    CLOCK_MONOTONIC is shared by all processes on the machine, so the
    child's reading at the end of its set-up minus the parent's reading
    before the spawn covers interpreter start, imports, data generation
    and model construction. The parent probes the machine's speed just
    before the spawn and the child just after its set-up, three times each.
    """
    raw, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    for _ in range(SETUP_PROBES[args.size]):
        before = statistics.median(refspeed.probe() for _ in range(3))
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        end, after = (float(x) for x in done.stdout.split()[-2:])
        raw.append(end - start)
        scaled.append(raw[-1] * refspeed.scale(0.5 * (before + after)))
    return raw, scaled


def measure(args) -> dict:
    """One benchmark run; returns the result object and writes the record."""
    import envinfo
    import refspeed
    import workloads

    reference_start = refspeed.reference_times()
    setup_raw, setup = setup_seconds(args, refspeed) if not args.trace else ([], [])
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as work:
        tally, metrics, details, tracer = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size, Path(work))
    if args.trace:
        names = workloads.PER_LAYER_UNITS
    else:
        names = workloads.END_TO_END_UNITS
        metrics["setup_s"] = statistics.median(setup) if setup else 0.0
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {
        "correct": tally.check_failure is None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
            for name, unit in names.items()
        },
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "args": vars(args),
        "result": result,
        "check_failure": tally.check_failure,
        "setup_s_raw": setup_raw,
        "setup_s_scaled": setup,
        "environment": envinfo.environment(ROOT),
        "reference_loop_start": reference_start,
        "reference_loop_end": refspeed.reference_times(),
        "details": details,
        "absent": tracer.absent if tracer else [],
    }
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with open(OUT / f"{tag}.spans.json", "w", encoding="utf-8") as fh:
            json.dump({"layout": ["name", "start", "end", "parent", "nodes_in", "nodes_out"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
        if tracer.absent:
            print(f"absent (not traced): {', '.join(tracer.absent)}", file=sys.stderr)
    for error in tally.errors:
        print(f"failed: {error}", file=sys.stderr)
    if tally.check_failure:
        print(f"check failed: {tally.check_failure}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        prepare_process()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        import refspeed
        import workloads

        workloads.setup(args.workload, args.seed, args.size)
        end = time.monotonic()
        print(repr(end), repr(statistics.median(refspeed.probe() for _ in range(3))))
        return 0
    result = measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
