"""The benchmark's in-process workloads build their inputs and pass their own checks.

An exception that escapes ``warm_up``, ``generate`` or ``verify`` ends a
benchmark run with exit status 1 rather than a failed check, so every
library constructor they call on seeded inputs is exercised here.  The
workload modules are imported as they are, never modified.
"""

import pytest

from conftest import perfbench_module

small = perfbench_module("small")
circuits = perfbench_module("circuits")

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
