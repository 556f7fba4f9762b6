"""The environment block recorded with every benchmark result."""

import ctypes
import hashlib
import os
import platform
import subprocess
from pathlib import Path

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_",
                   "openblas_get_num_threads")


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads():
    """{library file: thread count} of every OpenBLAS loaded here."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower()})
    except OSError:
        return {}
    counts = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in _THREAD_QUERIES:
            query = getattr(handle, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                counts[Path(lib).name] = query()
                break
    return counts


def _git_commit(root):
    """HEAD of the checkout at ``root``, or None outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(root):
    """sha256 over the package sources, which identifies the code measured
    even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_version(module):
    try:
        return module.__config__.CONFIG["Build Dependencies"]["blas"][
            "version"]
    except (AttributeError, KeyError):
        return "unknown"


def describe(kronheat, root, blas_threads):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _blas_version(numpy),
        "openblas_scipy": _blas_version(scipy),
        "blas_threads": blas_threads,
        "blas_threads_loaded": _openblas_threads(),
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }
