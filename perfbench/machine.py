"""Machine and run record stored with every benchmark result.

Everything here is read-only: ``/proc`` files, ``lscpu`` and ``git``
output, and the OpenBLAS build that NumPy loaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, int]:
    """Cache sizes in bytes by name, summed over all instances (``lscpu -C``)."""
    try:
        out = subprocess.run(["lscpu", "-C=NAME,ALL-SIZE", "-B"], capture_output=True,
                             text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in out.splitlines()[1:]:
        name, _, size = line.partition(" ")
        if size.strip().isdigit():
            sizes[name] = int(size)
    return sizes


def _blas() -> dict:
    """The OpenBLAS library NumPy loaded, its configuration and thread count."""
    info = {"library": "unknown", "config": "unknown", "threads": None}
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return info
    paths = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", ""), ("openblas", "64_")):
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if get_threads is None or get_config is None:
                continue
            get_threads.restype = ctypes.c_int
            get_config.restype = ctypes.c_char_p
            return {"library": os.path.basename(path),
                    "config": get_config().decode(errors="replace").strip(),
                    "threads": int(get_threads())}
    return info


def _git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _source_digest(root: Path) -> str:
    """sha256 over the package sources, to name the code where git cannot."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "mixedtraffic").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(root: Path, seed: int) -> dict:
    import numpy as np

    caches = _caches()
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "l2_bytes": caches.get("L2"),
        "l3_bytes": caches.get("L3"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
        "seed": seed,
    }
