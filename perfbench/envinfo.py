"""The environment a run was measured in."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import re
from pathlib import Path


def _blas_threads() -> int | None:
    """Ask the OpenBLAS that numpy loaded for its thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted(set(re.findall(r"\S*openblas\S*\.so\S*", fh.read())))
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "ttpp").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict[str, object]:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        },
        "machine": platform.machine(),
        "commit": _commit(root),
        "src_sha256": _source_digest(root),
    }
