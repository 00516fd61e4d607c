"""Run environment: thread pinning, package loading and the record of both.

Import this module before numpy: the BLAS/OpenMP pools read their thread
counts when numpy loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# One client in one process: never more pool threads than cores, at most 2.
THREADS = min(2, len(os.sched_getaffinity(0)))
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)


def load_package():
    """Import gmmaug from ``src/`` under the working directory, the checkout root."""
    src = Path.cwd() / "src"
    if not (src / "gmmaug" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gmmaug package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import gmmaug
    import gmmaug.cli  # noqa: F401  (the benchmark calls gmmaug.cli.main)

    return gmmaug


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }
