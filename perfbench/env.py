"""Thread pinning and the environment block every result records.

`pin_threads` must run before numpy is imported anywhere in the process:
BLAS libraries read their thread count once, when they load.  Child
processes (the workload pass, and the search pool forked from it) inherit
the variables, so one call in the launcher covers the whole process tree.
This module imports numpy only inside `describe`.
"""

from __future__ import annotations

import ctypes
import os
import platform

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# Thread-count getters exported by the BLAS builds numpy wheels ship with.
_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
    "MKL_Get_Max_Threads",
)


def pin_threads(count: int) -> None:
    """Set every BLAS/OpenMP thread variable of this process to `count`."""
    for var in THREAD_VARS:
        os.environ[var] = str(count)


def peak_kb(pid="self") -> int:
    """VmHWM of a process (this one by default): its peak resident set in
    KiB, or 0 if the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _blas_threads_in_use():
    """Ask the loaded BLAS library how many threads it will use, or None."""
    try:
        with open("/proc/self/maps") as f:
            paths = {line.split()[-1] for line in f
                     if "blas" in line.lower() or "mkl" in line.lower()}
    except OSError:
        return None
    for path in sorted(p for p in paths if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _THREAD_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                getter.argtypes = []
                return int(getter())
    return None


def describe() -> dict:
    """The environment block: machine, interpreter, numpy/BLAS and threads."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "blas_threads_in_use": _blas_threads_in_use(),
        "loadavg": list(os.getloadavg()),
    }
