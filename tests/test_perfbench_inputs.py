"""The benchmark's in-process workloads build their inputs and pass their own checks.

An exception that escapes ``warm_up``, ``generate`` or ``verify`` ends a
benchmark run with exit status 1 rather than a failed check, so every
library constructor they call on seeded inputs is exercised here.  The
workload modules are imported as they are, never modified.
"""

import os
import subprocess
import sys

import pytest

from gpt_tomo import witnesses as wt

from conftest import PERFBENCH, perfbench_module

small = perfbench_module("small")
circuits = perfbench_module("circuits")
tracer = perfbench_module("tracer")

# the two draws small.generate rejects itself; seed 79 hits the second
DRAW_GUARDS = (
    "the two random channels nearly agree on the reference state",
    "the faithful candidate is close to losing rank",
)


@pytest.fixture(scope="module")
def warmed():
    small.warm_up()
    circuits.warm_up()


@pytest.mark.parametrize("seed", range(1, 101))
def test_small_checks_generate(warmed, seed):
    try:
        checks = small.generate(seed)
    except RuntimeError as exc:
        assert str(exc) in DRAW_GUARDS
        return
    assert checks


def test_draw_guard_is_reached():
    # keeps the allowance above from covering nothing
    with pytest.raises(RuntimeError, match=DRAW_GUARDS[1]):
        small.generate(79)


@pytest.mark.parametrize("module", [small, circuits], ids=["small-checks", "deep-circuit"])
def test_one_cycle_verifies(warmed, module):
    failures = []
    for check in module.generate(1):
        why = module.verify(check, module.run_check(check))
        if why:
            failures.append(f"{check.name}: {why}")
    assert failures == []


@pytest.mark.parametrize("module", [small, circuits], ids=["small-checks", "deep-circuit"])
def test_two_consecutive_cycles_verify(warmed, module):
    # a timed run repeats its cycle over the same checks in one process
    checks = module.generate(1)
    failures = []
    for cycle in (1, 2):
        for check in checks:
            why = module.verify(check, module.run_check(check))
            if why:
                failures.append(f"cycle {cycle} {check.name}: {why}")
    assert failures == []


@pytest.mark.parametrize("workload", ["small-checks", "deep-circuit"])
def test_setup_probe_exits_cleanly(workload):
    # the probe imports the package and warms the caches in a fresh interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PERFBENCH.parent / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), workload],
        cwd=PERFBENCH.parent,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_witness_spans_count_the_checks_builders():
    # the reports call the public builders, which are what the spans wrap
    t = tracer.Tracer()
    t.install()
    try:
        wt.universal_extension_check("quantum", 3, samples=2)
        wt.purification_check("quantum", 3)
    finally:
        t.uninstall()
    summary = t.summary()
    assert summary["calls"].get("witnesses.extension", 0) > 0
    assert summary["calls"].get("witnesses.purification", 0) > 0
    # the dense bases are gone from core; every other wrapped name resolves
    assert summary["missing"] == ["gpt_tomo.core.hermitian_basis", "gpt_tomo.core.symmetric_basis"]
