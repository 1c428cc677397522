"""Statistics, the machine stamp and the result line."""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import json
import os
import platform
import resource
import statistics

import numpy as np

__all__ = [
    "percentile",
    "median",
    "peak_rss_mb",
    "release_freed_memory",
    "cpu_ticks",
    "machine_stamp",
    "emit",
]


def percentile(values: "list[float]", q: float) -> float:
    """The ``q``-th percentile (linear interpolation); 0.0 for no values."""
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values: "list[float]") -> float:
    return float(statistics.median(values)) if values else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def release_freed_memory() -> None:
    """Collect garbage and hand the C heap's free pages back to the system.

    Training leaves hundreds of MB freed but still resident in glibc's heap;
    how much of it the next set-up reuses varies from run to run, and so
    would the peak RSS of a run that sets up more than once.
    """
    gc.collect()
    name = ctypes.util.find_library("c")
    if name is not None:
        libc = ctypes.CDLL(name)
        if hasattr(libc, "malloc_trim"):
            libc.malloc_trim(0)


def cpu_ticks() -> "tuple[int, int] | None":
    """``(steal, total)`` CPU ticks of the machine so far, from ``/proc/stat``.

    Steal is time the hypervisor ran something else while a virtual CPU
    wanted to run; on a shared host it is what moves the serving latencies
    most from run to run.  ``None`` where ``/proc/stat`` has no steal column.
    """
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if len(fields) < 9 or fields[0] != "cpu":
        return None
    ticks = [int(field) for field in fields[1:]]
    return ticks[7], sum(ticks)


def _git_commit(root: str) -> str:
    """The checkout's commit read from ``.git`` inside ``root`` (no git call,
    which would search parent directories)."""
    git_dir = os.path.join(root, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_stamp(root: str) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
    }


def emit(metrics: "dict[str, tuple[float, str]]", attempted: int, failed: int, correct: bool) -> None:
    """Print every metric by name with its unit, then the one-line JSON result."""
    for name, (value, unit) in metrics.items():
        print(f"{name:<42s} {value:>14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        ),
        flush=True,
    )


class WorkloadResult:
    """What one workload run hands back to the launcher."""

    def __init__(self) -> None:
        self.values: "dict[str, float]" = {}
        self.attempted = 0
        self.failed = 0
        self.problems: "list[str]" = []
        self.phases: "list[dict]" = []
        self.notes: dict = {}

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def scratch_dir() -> str:
    """Where a run may write temporary files: ``.perfbench/`` in the checkout."""
    path = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(path, exist_ok=True)
    return path
