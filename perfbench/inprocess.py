"""Closed-loop runner shared by the in-process workloads (one check in flight).

A workload module provides ``generate(seed)``, ``warm_up()``,
``run_check(check)`` and ``verify(check, result)``.  Inputs are generated
and caches warmed before timing; the loop then runs whole cycles over the
generated checks until the run's seconds are used, so every run measures
the same mix.
"""

from __future__ import annotations

import resource
import sys
import time

from common import OUT_DIR, ROOT, median, metric, tail
import tracer as tr

MIN_CYCLES = 5


def _cycle(module, checks) -> tuple[list[float], list[str], float]:
    times, failures = [], []
    t0 = time.perf_counter()
    for check in checks:
        start = time.perf_counter()
        result = module.run_check(check)
        times.append(time.perf_counter() - start)
        why = module.verify(check, result)
        if why:
            failures.append(f"FAILED {check.name}: {why}")
    return times, failures, time.perf_counter() - t0


def run(module, seed: int, seconds: float, probe_setup) -> tuple[dict, list[str], int, int]:
    """End-to-end metrics over at least ``MIN_CYCLES`` cycles.

    Each check runs once per cycle and its time is the fastest of its runs.
    The machine's speed drifts by up to a quarter over tens of seconds under
    load from outside the process; the median of a check's runs follows that
    drift, the fastest run much less.  ``probe_setup`` returns set-up
    times; it runs before and after the timed loop.
    """
    setup_times = probe_setup()
    module.warm_up()
    checks = module.generate(seed)
    per_check: list[list[float]] = [[] for _ in checks]
    failures, loop_wall, cycles = [], 0.0, 0
    while cycles < MIN_CYCLES or loop_wall < seconds:
        times, f, wall = _cycle(module, checks)
        for runs, t in zip(per_check, times):
            runs.append(t)
        failures += f
        loop_wall += wall
        cycles += 1
    setup_times += probe_setup()
    best = [min(runs) for runs in per_check]
    tail_s, tail_pct = tail(best)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = cycles * len(checks)
    metrics = {
        "setup_s": metric(min(setup_times), "s"),
        "checks_per_s": metric(len(checks) / sum(best), "1/s"),
        "check_p50_s": metric(median(best), "s"),
        "check_tail_s": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    lines = [
        f"setup_s = {metrics['setup_s']['value']:.4f} s (fastest of {len(setup_times)} fresh imports with cache warm-up)",
        f"checks_per_s = {metrics['checks_per_s']['value']:.4f} 1/s ({len(checks)} checks per cycle / sum of their"
        f" fastest wall times; {cycles} cycles in {loop_wall:.2f} s, {attempted / loop_wall:.2f} 1/s overall)",
        f"check_p50_s = {metrics['check_p50_s']['value']:.6f} s (median of {len(checks)} per-check fastest times, {cycles} runs each)",
        f"check_tail_s = {tail_s:.6f} s (p{tail_pct:.1f} of {len(checks)} per-check fastest times)",
        f"peak_rss_mb = {peak_mb:.1f} MB (process peak)",
        f"failed_frac = {len(failures) / attempted:.4f} ratio ({len(failures)} of {attempted})",
    ] + failures[:20]
    return metrics, lines, attempted, len(failures)


def run_traced(module, workload: str, seed: int, seconds: float) -> tuple[dict, list[str], int, int]:
    """Alternate untraced and traced cycles; per-layer numbers are per traced cycle."""
    startup = tr.import_times(sys.executable, ROOT)
    module.warm_up()
    checks = module.generate(seed)
    tracer = tr.Tracer()
    plain_walls, traced_walls, traced_times, failures = [], [], [], []
    attempted = 0
    while not traced_walls or sum(plain_walls) + sum(traced_walls) < seconds:
        _, f, wall = _cycle(module, checks)
        plain_walls.append(wall)
        tracer.install()
        try:
            t, f2, t_wall = _cycle(module, checks)
        finally:
            tracer.uninstall()
        traced_walls.append(t_wall)
        traced_times += t
        failures += f + f2
        attempted += 2 * len(checks)
    summary = tracer.summary()
    tracer.dump(OUT_DIR / "spans" / f"{workload}-seed{seed}.jsonl")
    cycles = len(traced_walls)
    check_wall = sum(traced_times)
    metrics = tr.per_layer_metrics(summary, cycles, startup, check_wall, plain_walls, traced_walls)
    lines = tr.report_lines(metrics, summary, workload, check_wall / cycles) + failures[:20]
    return metrics, lines, attempted, len(failures)
