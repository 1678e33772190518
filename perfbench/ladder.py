"""Workload ``dim-ladder``: CLI checks at growing dimension, one fresh process each.

This models a researcher running one check at growing d and paying the
import on every run, so nothing is warmed up.  Every rung runs in its own
subprocess under a memory cap (``RLIMIT_AS``) and a wall-clock budget; a
rung that hits either, or raises ``MemoryError``, is *over budget* and never
crashes the harness.

Time and memory metrics come only from the *anchor rungs*, the fixed set the
seed code solves.  Above the anchors each family keeps climbing d until its
first over-budget rung or ``CEILING``; that climb feeds only ``max_d.*``, so
a change that solves a bigger rung does not read as a slowdown.

Budgets are per family, each a wall-clock limit and an address-space cap,
set so that every seed rung is at least a factor of two from both limits.
Measured at the seed on a 2-core x86-64 machine with one BLAS thread and the
rungs' fixed malloc settings (``MALLOC_ENV``):

* teleport: d = 4 takes 8.5-9.6 s, 0.76 GB of RSS and 1.02 GB of address
  space; d = 5 needs more than 7 GB for its basis tensors alone (30 s,
  3 GiB);
* universal extension, quantum: d = 3 takes 2-3 s, 1.84 GB of RSS and
  2.26 GB of address space with ``--samples 1``; d = 4 needs 68 GB (30 s,
  5 GiB);
* universal extension, real: d = 3 takes 1 s and 0.39 GB; d = 4 needs
  17 GB (30 s, 3 GiB);
* local-tomo: 2.3-2.9 s at 5x5, 18 s at 6x6 (7 s, 3 GiB);
* faithful: 3.8-4.5 s at 5, 37 s at 6 (12 s, 3 GiB).

No single time limit keeps all of these a factor of two away, nor does a
single memory cap.  With these limits ``max_d.*`` repeats exactly.

An anchor is a rung the seed solves, so an anchor run that ends over budget
is a failed check: it makes the run incorrect, and it is timed at its full
budget rather than at the moment it was refused.
"""

from __future__ import annotations

import ctypes
import json
import os
import re
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from common import BENCH_DIR, OUT_DIR, ROOT, median, metric
import tracer as tr

CEILING = 8
MIN_PASSES = 2
TRACE_MARKER = "#perfbench-trace "


@dataclass(frozen=True)
class Family:
    name: str
    args: tuple[str, ...]  # CLI arguments, "{d}" replaced by the rung dimension
    budget_s: float
    memory_gib: float  # address-space cap
    anchors: tuple[int, ...]

    def argv(self, d: int) -> list[str]:
        return [a.format(d=d) for a in self.args]


FAMILIES = (
    Family("teleport", ("verify", "teleport", "--backend", "quantum", "--d", "{d}"), 30.0, 3.0, (2, 3, 4)),
    Family(
        "universal_extension",
        ("verify", "universal-extension", "--backend", "quantum", "--d", "{d}", "--samples", "1"),
        30.0,
        5.0,
        (2, 3),
    ),
    Family(
        "universal_extension_real",
        ("verify", "universal-extension", "--backend", "real", "--d", "{d}", "--samples", "1"),
        30.0,
        3.0,
        (2, 3),
    ),
    Family("local_tomo", ("check", "local-tomo", "--backend", "quantum", "--dims", "{d}", "{d}"), 7.0, 3.0, (2, 3, 4, 5)),
    Family("faithful", ("check", "faithful", "--backend", "quantum", "--din", "{d}", "--dout", "{d}"), 12.0, 3.0, (2, 3, 4, 5)),
)


@dataclass
class Rung:
    family: str
    d: int
    status: str  # "solved" | "over_budget" | "failed"
    wall_s: float
    maxrss_mb: float
    reason: str = ""
    trace: dict | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# Correctness oracle: expected verdicts from the theory, not from the code
# ---------------------------------------------------------------------------

def _state_dim(backend: str, n: int) -> int:
    return {"quantum": n * n, "real": n * (n + 1) // 2, "classical": n}[backend]


def check_report(family: str, d: int, code: int, report: dict | None) -> str:
    """Empty when the CLI verdict is right, else what is wrong."""
    if report is None:
        return f"exit {code} without a JSON report"
    det = report.get("details", {})
    backend = det.get("backend")
    tol = float(report.get("tolerance", 1e-9))
    problems = []
    if family == "teleport":
        expected_p = 1.0 / d if backend == "classical" else 1.0 / d**2
        if abs(det.get("p", -1.0) - expected_p) > 1e-11 * expected_p:
            problems.append(f"p = {det.get('p')}, expected {expected_p}")
        if not det.get("max_residual", 1.0) <= tol:
            problems.append(f"residual {det.get('max_residual')} above {tol}")
        expect_pass = True
    elif family.startswith("universal_extension"):
        for key in ("teleportation_max_residual", "purification_max_residual"):
            if key in det and not det[key] <= tol:
                problems.append(f"{key} {det[key]} above {tol}")
        expect_pass = True
    elif family == "local_tomo":
        n = d * d
        if det.get("dim_composite") != _state_dim(backend, n):
            problems.append(f"dim_composite {det.get('dim_composite')} != {_state_dim(backend, n)}")
        expect_pass = backend != "real"
    elif family == "faithful":
        n = d * d
        if det.get("lifting_rank") != _state_dim(backend, n):
            problems.append(f"lifting_rank {det.get('lifting_rank')} != {_state_dim(backend, n)}")
        expect_pass = True
    else:
        raise ValueError(family)
    if report.get("pass") is not expect_pass:
        problems.append(f"pass = {report.get('pass')}, expected {expect_pass}")
    if code != (0 if expect_pass else 1):
        problems.append(f"exit code {code}")
    return "; ".join(problems)


# ---------------------------------------------------------------------------
# Running one rung under its budget
# ---------------------------------------------------------------------------

_MEMORY_ERROR = re.compile(r"\bMemoryError\b|_ArrayMemoryError")

# With glibc's default malloc settings, the thousands of 105 kB matrices
# that ``hermitian_basis(81)`` stacks and frees land in the heap, and how
# much of that heap is returned afterwards follows the process's layout.
# The seed's universal extension at d = 3 then peaks at 1385 or 1839 MB
# depending on the length of the checkout's path.  These settings fix the
# mmap threshold at the 32 MiB that glibc's moving threshold stops at, and
# never return freed heap, so peak RSS is the heap's high-water mark plus
# the mapped arrays: 1841 MB from each of fourteen checkout paths tried.
# Rung times stay close to those with the default settings.
MALLOC_ENV = {"MALLOC_MMAP_THRESHOLD_": str(32 * 2**20), "MALLOC_TRIM_THRESHOLD_": str(4 * 2**30)}
_LIBC = ctypes.CDLL(None, use_errno=True)
_ADDR_NO_RANDOMIZE = 0x0040000


def _child_limits(memory_gib: float) -> None:
    """Runs in the rung's process before exec: the memory cap, and no ASLR.

    Fixed addresses, a fixed hash seed (``common.pin_environment``) and
    fixed malloc thresholds (``MALLOC_ENV``) keep the heap layout, and with
    it the peak RSS, the same from run to run and from checkout to checkout.
    """
    cap = int(memory_gib * 2**30)
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    current = _LIBC.personality(0xFFFFFFFF)
    if current != -1:
        _LIBC.personality(current | _ADDR_NO_RANDOMIZE)


def run_rung(family: Family, d: int, seed: int, spans_path=None) -> Rung:
    """One rung in a fresh, capped process; traced through the child runner if asked."""
    cli_args = family.argv(d) + ["--json", "--seed", str(seed)]
    if spans_path is None:
        cmd = [sys.executable, "-m", "gpt_tomo.cli", *cli_args]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "rung_child.py"), str(spans_path), *cli_args]
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out_path, err_path = tmp / "rung.out", tmp / "rung.err"
    timed_out = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd,
            cwd=ROOT,
            env={**os.environ, **MALLOC_ENV},
            stdout=out,
            stderr=err,
            preexec_fn=lambda: _child_limits(family.memory_gib),
            start_new_session=True,
        )

        def kill() -> None:
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(family.budget_s, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    maxrss_mb = usage.ru_maxrss / 1024.0
    stdout = out_path.read_text(errors="replace")
    stderr = err_path.read_text(errors="replace")

    if timed_out.is_set():
        return Rung(family.name, d, "over_budget", wall, maxrss_mb, f"timeout {family.budget_s:g} s")
    last_err = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    if proc.returncode == 1 and _MEMORY_ERROR.search(last_err):
        return Rung(family.name, d, "over_budget", wall, maxrss_mb, "MemoryError under the cap")

    report, trace = None, None
    for line in stdout.splitlines():
        if line.startswith(TRACE_MARKER):
            trace = json.loads(line[len(TRACE_MARKER) :])
        elif line.startswith("{"):
            try:
                report = json.loads(line)
            except json.JSONDecodeError:
                pass
    reason = check_report(family.name, d, proc.returncode, report)
    if reason and last_err:
        reason += f" ({last_err[:200]})"
    return Rung(family.name, d, "failed" if reason else "solved", wall, maxrss_mb, reason, trace)


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------

def anchor_pass(seed: int, spans_dir=None) -> tuple[list[Rung], float]:
    """Every anchor rung once, family by family, in increasing d."""
    rungs = []
    t0 = time.perf_counter()
    for fam, d in ((f, d) for f in FAMILIES for d in f.anchors):
        spans = None if spans_dir is None else spans_dir / f"{fam.name}-d{d}.jsonl"
        rungs.append(run_rung(fam, d, seed, spans))
    return rungs, time.perf_counter() - t0


def climb(seed: int, anchors: list[Rung]) -> tuple[dict[str, int], list[Rung]]:
    """Highest solved d per family: anchors first, then upward to the first refusal."""
    max_d, rungs = {}, []
    for fam in FAMILIES:
        best = 1
        for r in (r for r in anchors if r.family == fam.name):
            if r.status != "solved" or r.d != best + 1:
                break
            best = r.d
        if best == max(fam.anchors):
            for d in range(best + 1, CEILING + 1):
                rung = run_rung(fam, d, seed)
                rungs.append(rung)
                if rung.status != "solved":
                    break
                best = d
        max_d[fam.name] = best
    return max_d, rungs


def _rung_line(r: Rung) -> str:
    extra = f" ({r.reason})" if r.reason else ""
    return f"{r.family} d={r.d}: {r.status}, {r.wall_s:.2f} s, {r.maxrss_mb:.0f} MB{extra}"


def _anchor_wall(r: Rung) -> float:
    """A solved anchor's wall time; a refused one is charged its full budget."""
    if r.status == "solved":
        return r.wall_s
    return max(r.wall_s, next(f.budget_s for f in FAMILIES if f.name == r.family))


def _anchor_failures(rungs: list[Rung]) -> list[Rung]:
    """Anchors that did not end solved; the seed solves every one of them."""
    return [r for r in rungs if r.status != "solved"]


def run(seed: int, seconds: float, probe_setup) -> tuple[dict, list[str], int, int]:
    """End-to-end metrics with tracing off: anchor passes around the climb.

    A rung's time is the fastest of its runs, one per pass, so load from
    outside that slows one pass moves no metric.  The climb runs between the
    first pass and the others, which spreads the passes further apart.
    ``probe_setup`` returns set-up times; it runs before and after the passes.
    """
    setup_times = probe_setup()
    rungs, loop_wall = anchor_pass(seed)
    passes = [rungs]
    max_d, climbed = climb(seed, rungs)
    while len(passes) < MIN_PASSES or loop_wall < seconds:
        rungs, wall = anchor_pass(seed)
        passes.append(rungs)
        loop_wall += wall
    setup_times += probe_setup()

    per_rung = list(zip(*passes))
    best = [min(_anchor_wall(r) for r in runs) for runs in per_rung]
    solved = sum(all(r.status == "solved" for r in runs) for runs in per_rung)
    samples = [r for runs in per_rung for r in runs]
    failed = _anchor_failures(samples) + [r for r in climbed if r.status == "failed"]
    attempted = len(samples) + len(climbed)
    metrics = {
        "setup_s": metric(min(setup_times), "s"),
        "checks_per_s": metric(len(best) / sum(best), "1/s"),
        "check_p50_s": metric(median(best), "s"),
        "check_tail_s": metric(max(best), "s"),
        "peak_rss_mb": metric(max(r.maxrss_mb for r in samples), "MB"),
    }
    lines = [
        f"setup_s = {metrics['setup_s']['value']:.4f} s (fastest of {len(setup_times)} fresh imports)",
        f"checks_per_s = {metrics['checks_per_s']['value']:.4f} 1/s ({len(best)} anchor rungs, {solved} solved,"
        f" / sum of their fastest wall times; {len(passes)} passes in {loop_wall:.2f} s)",
        f"check_p50_s = {metrics['check_p50_s']['value']:.4f} s (median of {len(best)} per-rung fastest times)",
        f"check_tail_s = {metrics['check_tail_s']['value']:.4f} s (p100: the slowest of {len(best)} per-rung"
        f" fastest times, {len(passes)} runs each; too few anchors for a percentile with 10 beyond it)",
        f"peak_rss_mb = {metrics['peak_rss_mb']['value']:.1f} MB (max child ru_maxrss over anchors)",
        f"failed_frac = {len(failed) / attempted:.4f} ratio ({len(failed)} of {attempted}, climb included)",
    ]
    lines += [f"max_d.{name} = {d} d (n = 1)" for name, d in max_d.items()]
    lines += ["anchor rungs (fastest of the passes):"]
    lines += [f"  {_rung_line(min(runs, key=lambda r: r.wall_s))}" for runs in per_rung]
    lines += ["climb:"] + [f"  {_rung_line(r)}" for r in climbed]
    lines += [f"FAILED {_rung_line(r)}" for r in failed]
    return metrics, lines, attempted, len(failed)


def run_traced(seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    """Per-layer metrics: alternate untraced and traced anchor passes."""
    startup = tr.import_times(sys.executable, ROOT)
    plain_walls, traced_walls, plain, traced = [], [], [], []
    spans_dir = OUT_DIR / "spans" / f"dim-ladder-seed{seed}"
    elapsed = 0.0
    while not traced or elapsed < seconds:
        rungs, wall = anchor_pass(seed)
        plain_walls.append(wall)
        t_rungs, t_wall = anchor_pass(seed, spans_dir)
        traced_walls.append(t_wall)
        traced += t_rungs
        plain += rungs
        elapsed += wall + t_wall
    failed = _anchor_failures(plain + traced)
    summary = tr.merge([r.trace for r in traced if r.trace])
    cycles = len(traced_walls)
    check_wall = sum(r.wall_s for r in traced)
    metrics = tr.per_layer_metrics(summary, cycles, startup, check_wall, plain_walls, traced_walls)
    lines = tr.report_lines(metrics, summary, "dim-ladder", check_wall / cycles)
    lines += [f"FAILED {_rung_line(r)}" for r in failed]
    return metrics, lines, len(plain) + len(traced), len(failed)
