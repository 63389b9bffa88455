"""List the statements of the `ttpp` package that no CLI run reaches.

    PYTHONPATH=src python3 scripts/reach_audit.py

Runs the commands of CI's installed-script step through `ttpp.cli.main`,
in this one process, at the smoke config's size and in a temporary
directory, under the standard library's `trace` module. Then it prints,
per function of the imported `ttpp` package, the first line of every
statement that never ran. Refusals are left out: a block that ends in
`raise` is reached by the tests, not by a run. Point PYTHONPATH at the
`src` of another checkout to audit that one. The audit is for a reader,
not a gate: it exits 0 whatever it finds, and only a command that exits
with another status than CI expects makes it fail.
"""

from __future__ import annotations

import ast
import contextlib
import io
import shlex
import sys
import tempfile
import trace
from pathlib import Path

import ttpp
from ttpp import cli

ROOT = Path(__file__).resolve().parent.parent

# The installed-script step's commands, without the `ttpp` prefix, each
# run once: the BLAS thread counts CI compares give the same statements.
# A leading "!" marks a command CI expects to exit 1.
COMMANDS = """
param-count
param-count --out {out}/params.csv
train --out-dir {out}/run
eval --checkpoint {out}/run/checkpoint.bin --out {out}/eval.csv
eval --set eval.metric=map --checkpoint {out}/run/checkpoint.bin --out {out}/map-eval.csv
dump-attention --checkpoint {out}/run/checkpoint.bin --out {out}/attention.csv
train {lstm} --out-dir {out}/lstm
eval {lstm} --checkpoint {out}/lstm/checkpoint.bin --out {out}/lstm-eval.csv
train {convssp} --out-dir {out}/convssp
train {lam0} --out-dir {out}/lam0
eval {lam0} --checkpoint {out}/lam0/checkpoint.bin --out {out}/lam0-eval.csv
train {lstm} {lam0} --out-dir {out}/lstm-lam0
eval {lstm} {lam0} --checkpoint {out}/lstm-lam0/checkpoint.bin --out {out}/lstm-lam0-eval.csv
train {ssp} --out-dir {out}/ssp
eval {ssp} --checkpoint {out}/ssp/checkpoint.bin --out {out}/ssp-eval.csv
gen --out-dir {out}/data
train --data {out}/data/train --out-dir {out}/feat
eval --checkpoint {out}/feat/checkpoint.bin --data {out}/data/heldout --out {out}/feat-eval.csv
dump-attention --checkpoint {out}/run/checkpoint.bin --data {out}/data/heldout --out {out}/fa.csv
grid --set eval.metric=cap --out {out}/grid.csv
grid --set eval.metric=cap --data {out}/data/train --heldout-data {out}/data/heldout --out {out}/g.csv
grid {lam0} --set eval.metric=cap --out {out}/lam0-grid.csv
param-count --set model.seq_len=16
train {conv} --out-dir {out}/conv1d
eval {conv} --checkpoint {out}/conv1d/checkpoint.bin --out {out}/conv1d-eval.csv
train {ttm16} --out-dir {out}/ttm16
eval {ttm16} --checkpoint {out}/ttm16/checkpoint.bin --out {out}/ttm16-eval.csv
dump-attention {ttm16} --checkpoint {out}/ttm16/checkpoint.bin --out {out}/ttm16-attention.csv
train {h1} --out-dir {out}/h1
eval {h1} --checkpoint {out}/h1/checkpoint.bin --out {out}/h1-eval.csv
train {nofp} --out-dir {out}/nofp
eval {nofp} --checkpoint {out}/nofp/checkpoint.bin --out {out}/nofp-eval.csv
train --set data.duration_law=geometric --out-dir {out}/geometric
train --set model.classes=2 --out-dir {out}/c2
!train --set data.length=-1 --out-dir {out}/bad
!train --set train.seed=-1 --out-dir {out}/bad
"""

SETS = {
    "lstm": "model.aggregator=lstm model.predictor=lstm",
    "convssp": "model.aggregator=conv1d model.predictor=ssp",
    "ssp": "model.aggregator=ttm model.predictor=ssp",
    "lam0": "train.lam=0",
    "conv": "model.aggregator=conv1d model.seq_len=16",
    "ttm16": "model.seq_len=16",
    "h1": "model.horizon=1",
    "nofp": "model.ppm_variant=no_feature",
}


def run_commands(tracer: trace.Trace, out: str) -> int:
    """Runs every command under `tracer`; returns how many ran."""
    flags = {name: " ".join(f"--set {item}" for item in items.split())
             for name, items in SETS.items()}
    lines = COMMANDS.strip().splitlines()
    for line in lines:
        want = 1 if line.startswith("!") else 0
        argv = shlex.split(line.lstrip("!").format(out=out, **flags))
        argv += ["--config", str(ROOT / "configs" / "smoke.cfg")]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status = tracer.runfunc(cli.main, argv)
        if status != want:
            raise SystemExit(f"reach audit: `ttpp {shlex.join(argv)}` exited {status}, not {want}")
    return len(lines)


def executable_lines(source: str, filename: str) -> set[int]:
    """The lines that hold bytecode, in the module's code and all it nests."""
    found, codes = set(), [compile(source, filename, "exec")]
    while codes:
        code = codes.pop()
        found.update(line for _, _, line in code.co_lines() if line is not None)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return found


def own_lines(stmt: ast.stmt) -> range:
    """A statement's lines outside the statements it holds: a compound
    statement's header (its first line at least), a simple statement's
    whole span."""
    bodies = [getattr(stmt, f, None) for f in ("body", "orelse", "finalbody", "handlers")]
    inner = [block[0].lineno for block in bodies if isinstance(block, list) and block]
    return range(stmt.lineno, max(min(inner, default=stmt.end_lineno + 1), stmt.lineno + 1))


def unreached(tree: ast.Module, code_lines: set[int], ran: set[int]) -> dict[str, list[int]]:
    """Per function (by qualified name), the first line of each statement
    with bytecode of its own whose every such line went uncounted,
    outside blocks that end in `raise`."""
    missed: dict[str, list[int]] = {}

    def block(stmts, owner: str | None, prefix: str) -> None:
        if stmts and isinstance(stmts[-1], ast.Raise):
            return  # a refusal
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + stmt.name
                inner = name if not isinstance(stmt, ast.ClassDef) else None
                if owner is not None:
                    check(stmt, owner)
                block(stmt.body, inner, name + ".")
                continue
            if owner is not None:
                check(stmt, owner)
            for field in ("body", "orelse", "finalbody"):
                inner = getattr(stmt, field, None)
                if isinstance(inner, list):
                    block(inner, owner, prefix)
            for handler in getattr(stmt, "handlers", []):
                block(handler.body, owner, prefix)

    def check(stmt: ast.stmt, owner: str) -> None:
        lines = code_lines.intersection(own_lines(stmt))
        if lines and not lines & ran:
            missed.setdefault(owner, []).append(stmt.lineno)

    block(tree.body, None, "")
    return missed


def main() -> int:
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    with tempfile.TemporaryDirectory() as out:
        commands = run_commands(tracer, out)
    counts = tracer.results().counts
    package = Path(ttpp.__file__).resolve().parent
    ran: dict[Path, set[int]] = {}
    for (filename, line), count in counts.items():
        if count:
            ran.setdefault(Path(filename).resolve(), set()).add(line)
    print(f"reach audit of {package}: {commands} commands; statements that never ran, "
          f"refusals left out")
    total = 0
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        missed = unreached(ast.parse(source), executable_lines(source, str(path)),
                           ran.get(path, set()))
        for name, lines in missed.items():
            total += len(lines)
            print(f"  {path.stem}.{name}: lines {', '.join(map(str, lines))}")
    print(f"{total} statements")
    return 0


if __name__ == "__main__":
    sys.exit(main())
