"""Locating the proxbound sources of a checkout and describing the machine."""

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")


class MissingSources(Exception):
    """The checkout holds no importable proxbound package under src/."""


def sources_present():
    return os.path.isfile(os.path.join(SRC, "proxbound", "__init__.py"))


def import_proxbound():
    """Import proxbound from this checkout's src/, never from elsewhere."""
    if not sources_present():
        raise MissingSources(f"no proxbound package under {SRC}")
    sys.path.insert(0, SRC)
    import proxbound
    if os.path.dirname(os.path.abspath(proxbound.__file__)) != os.path.join(
            SRC, "proxbound"):
        raise MissingSources(f"proxbound imported from {proxbound.__file__}")
    return proxbound


# One BLAS thread. The instances are tiny (20x10 matrices, batches of a few
# hundred rows), where OpenBLAS's second thread made lasso-constants 10-15%
# slower in wall time and tied each run's speed to both vCPUs of a shared
# 2-vCPU host.
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


def child_env():
    """Environment for child processes: the caller's with one BLAS thread,
    minus the seed override that would replace the generated config's
    seed."""
    env = dict(os.environ)
    env.update(SINGLE_THREAD)
    env.pop("PROXBOUND_SEED", None)
    return env


def _blas_threads():
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _src_digest():
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(SRC)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    """numpy version, BLAS threads, usable CPUs, Python and code identity."""
    import numpy
    return {
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
    }
