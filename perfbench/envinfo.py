"""Environment record attached to every benchmark result: library
versions, the OpenBLAS builds loaded in this process with their thread
counts, the usable core count and the source commit."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path


def usable_cores() -> int:
    """Cores this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def _symbol(lib, stem: str):
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                return fn
    return None


def openblas_libraries() -> list:
    """``[{"path", "config", "threads"}]`` for each OpenBLAS mapped into
    this process (numpy and scipy each bundle their own)."""
    paths = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            path = line.split()[-1]
            name = os.path.basename(path).lower()
            if "openblas" in name and ".so" in name:
                paths.add(path)
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        get_threads = _symbol(lib, "get_num_threads")
        get_config = _symbol(lib, "get_config")
        entry = {"path": os.path.basename(path), "config": None, "threads": None}
        if get_threads is not None:
            get_threads.restype = ctypes.c_int
            get_threads.argtypes = []
            entry["threads"] = int(get_threads())
        if get_config is not None:
            get_config.restype = ctypes.c_char_p
            get_config.argtypes = []
            entry["config"] = get_config().decode(errors="replace").strip()
        out.append(entry)
    return out


def git_commit(root: Path):
    """The checked-out commit, read from ``.git`` without running git;
    None outside a git work tree."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2 and parts[1] == ref:
                return parts[0]
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def record(root: Path) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas_libraries(),
        "nproc": usable_cores(),
        "cpu": cpu_model(),
        "commit": git_commit(root),
    }
