"""Environment record attached to every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SLRK_THREADS")


def _blas() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _caches() -> dict:
    """Per-instance cache sizes of cpu0 by level, as the kernel reports them."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                out[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return out


def _git(root: Path) -> dict:
    if not (root / ".git").exists():
        return {"commit": "unknown", "dirty": None}
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=True)
        status = subprocess.run(["git", "-C", str(root), "--no-optional-locks", "status",
                                 "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown", "dirty": None}
    return {"commit": head.stdout.strip(), "dirty": bool(status.stdout.strip())}


def environment(root: Path, seed: int, dense_matrix_bytes: int) -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "git": _git(root),
        "seed": seed,
        "dense_stiff_matrix_bytes": dense_matrix_bytes,
    }
