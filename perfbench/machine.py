"""Machine record printed with every benchmark run (read-only probes)."""

from __future__ import annotations

import ctypes
import os
import platform

# Thread-count getters of the OpenBLAS copies bundled with numpy (64-bit
# integer interface) and scipy.  Only getters are called; nothing is set.
BLAS_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads")


def _loaded_openblas() -> list[str]:
    paths = set()
    try:
        with open("/proc/self/maps") as handle:
            for line in handle:
                path = line.split()[-1]
                if "openblas" in os.path.basename(path).lower():
                    paths.add(path)
    except OSError:
        pass
    return sorted(paths)


def blas_threads() -> dict[str, int]:
    """Thread count of each loaded OpenBLAS copy, keyed by library file name."""
    import numpy  # noqa: F401  -- load both copies before probing
    import scipy.linalg  # noqa: F401

    out = {}
    for path in _loaded_openblas():
        lib = ctypes.CDLL(path)
        for name in BLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is None:
                continue
            getter.argtypes = []
            getter.restype = ctypes.c_int
            out[os.path.basename(path)] = int(getter())
            break
    return out


def record(cleared_env: dict, jobs: int | None) -> dict:
    import numpy
    import scipy

    from spanova import AspConfig

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "openblas_threads": blas_threads(),
        "asp_worker_count": AspConfig(jobs=jobs).worker_count,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cleared_env": cleared_env,
    }
