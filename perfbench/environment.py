"""The environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess


def _blas_threads() -> int | None:
    """OpenBLAS thread count of the library numpy loaded, if it is OpenBLAS."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _cache_sizes() -> dict[str, str]:
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    sizes = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            sizes[key.strip()] = value.strip()
    return sizes


def _to_bytes(text: str | None) -> int | None:
    """'300 MiB (1 instance)' -> bytes."""
    if not text:
        return None
    num, _, unit = text.split(" (")[0].partition(" ")
    scale = {"KiB": 1 << 10, "MiB": 1 << 20, "GiB": 1 << 30, "K": 1 << 10, "M": 1 << 20}
    try:
        return int(float(num) * scale.get(unit, 1))
    except ValueError:
        return None


def record(decode_shape: tuple[int, int]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = _cache_sizes()
    llc = _to_bytes(caches.get("L3 cache"))
    d, h = decode_shape
    weight_bytes = d * h * 4
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "SCAP_THREADS": os.environ.get("SCAP_THREADS"),
        "caches": caches,
        "decode_wide": {
            "shape": [d, h],
            "weight_bytes_per_matrix_f32": weight_bytes,
            "weight_copy_bytes_per_call_f64": 2 * weight_bytes,
            "last_level_cache_bytes": llc,
            "matrix_over_llc": weight_bytes / llc if llc else None,
            "three_matrices_over_llc": 3 * weight_bytes / llc if llc else None,
        },
    }
