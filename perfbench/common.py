"""Shared helpers: checkout layout, pinned environment, statistics, reporting."""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_environment() -> None:
    """Pin BLAS/OpenMP threads and point imports at this checkout's sources.

    Must run before numpy is imported; children inherit ``os.environ``,
    including a fixed hash seed (see ``ladder._child_limits`` for why).
    """
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["PYTHONPATH"] = str(SRC)
    os.environ.pop("GPT_TOMO_TOL", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def require_sources() -> None:
    """Exit with status 2 unless the package sources sit beside the benchmark."""
    if not (SRC / "gpt_tomo" / "__init__.py").is_file():
        print(f"perfbench: no package sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)


def import_checked():
    """Import ``gpt_tomo.cli`` and make sure it came from this checkout."""
    import gpt_tomo.cli

    if not Path(gpt_tomo.cli.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported gpt_tomo from {gpt_tomo.cli.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return gpt_tomo.cli


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def environment_info(seed: int) -> dict:
    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        pass
    return {
        "nproc": nproc(),
        "blas_threads": THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "seed": seed,
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: list[float]) -> float:
    return float(statistics.median(values))


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    With n samples that is the 11th largest, at percentile 100 (n - 10) / n.
    Fewer than 11 samples have no such percentile; the maximum is reported
    at percentile 100 and the caller states the sample count.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

SETUP_REPEATS = 4


def measure_setup(workload: str) -> list[float]:
    """Wall times of fresh interpreters that import the package (and warm up).

    Each probe is a new ``python`` process running ``setup_probe.py``; the
    in-process workloads add their cache warm-up to the import.  Workloads
    probe before and after their timed loop and report the fastest probe, as
    they do for check times: load from outside the benchmark only ever slows
    a probe down, and probes spread over the run are less likely to all fall
    in one slow spell.
    """
    probe = BENCH_DIR / "setup_probe.py"
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(probe), workload],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return times


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def print_report(workload: str, lines: list[str]) -> None:
    print(f"== {workload}")
    for line in lines:
        print(f"  {line}")
    sys.stdout.flush()
