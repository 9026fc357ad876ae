"""Host fingerprint recorded with every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
from pathlib import Path

import numpy as np


def _cgroup_quota() -> str | None:
    try:
        return Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        return None


def _blas() -> dict:
    info: dict = {"vendor": None, "version": None, "threads": None}
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        info["vendor"], info["version"] = blas.get("name"), blas.get("version")
    except (AttributeError, KeyError, TypeError):
        pass
    # numpy wheels ship scipy-openblas under numpy.libs; the library is
    # already loaded, so opening it again returns the live handle.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "libscipy_openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _git_rev(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def fingerprint(root: Path, seed: int, scrubbed: dict[str, str]) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cgroup_quota(),
        "blas": _blas(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_rev": _git_rev(root),
        "seed": seed,
        "scrubbed_env": scrubbed,
    }
