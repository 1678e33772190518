"""Benchmark for gpt-tomo: end-to-end and per-layer numbers on three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload dim-ladder --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload, each in its own process

Workloads:

* ``dim-ladder``   -- the CLI, one fresh capped subprocess per check, at
                      growing dimension (see ``ladder.py``);
* ``deep-circuit`` -- ``dsl.run_program`` on generated deep channel chains
                      and the golden corpus, in process (``circuits.py``);
* ``small-checks`` -- library calls at d = 2, 3 on all three backends, in
                      process (``small.py``).

With ``--trace 0`` a run reports the end-to-end metrics (tracing off); with
``--trace 1`` it reports the per-layer metrics from spans around each
module's public functions (``tracer.py``), with coverage and overhead.
Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` next to this directory, with BLAS and
OpenMP pinned to one thread in this process and in every child.  Spans and
temporary files go to ``.perfbench/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import common

WORKLOADS = ("dim-ladder", "deep-circuit", "small-checks")


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import circuits
    import inprocess
    import ladder
    import small

    if name == "dim-ladder":
        if trace:
            return ladder.run_traced(seed, seconds)
        return ladder.run(seed, seconds, lambda: common.measure_setup(name))
    module = circuits if name == "deep-circuit" else small
    if trace:
        return inprocess.run_traced(module, name, seed, seconds)
    return inprocess.run(module, seed, seconds, lambda: common.measure_setup(name))


def run_all(args) -> int:
    """Every workload in a fresh ``run.py`` process; their results merged.

    A process of its own per workload keeps each one's peak RSS, heap and
    caches its own, so the figures match single-workload runs.
    """
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=common.ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    common.require_sources()
    if args.workload == "all":
        return run_all(args)
    common.pin_environment()
    common.import_checked()
    env = common.environment_info(args.seed)
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))

    m, lines, attempted, failed = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    common.print_report(f"{args.workload} ({'traced' if args.trace else 'end to end'})", lines)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": m}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
