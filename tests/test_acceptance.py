"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Every tolerance is pinned here; nothing is deferred to calibration.
"""

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import dsl
from gpt_tomo import tomography as tm
from gpt_tomo import witnesses as wt
from gpt_tomo.core import CLASSICAL, QUANTUM, REAL, system, tensor_systems
from gpt_tomo.rebit import REBIT, rebit_processes, trace_distance, wootters_pair

from pathlib import Path

from conftest import PAULI_Y

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def criterion(num: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_1_rebit_local_indistinguishability():
    p, p2 = rebit_processes()
    mix = np.eye(2) / 2.0
    rng = np.random.default_rng(1)
    probes = bk.spanning_states(REBIT) + [bk.random_state(REBIT, rng) for _ in range(100)]
    worst = 0.0
    for rho in probes:
        worst = max(worst, float(np.linalg.norm(c.apply(p, rho).matrix - mix)))
        worst = max(worst, float(np.linalg.norm(c.apply(p2, rho).matrix - mix)))
    criterion(1, f"both channels erase every rebit state (max dev {worst:.2e})", worst <= 1e-12)


def test_criterion_2_bell_mixture_reproduction():
    p, p2 = rebit_processes()
    bell = bk.maximally_entangled_state(REBIT)
    out1 = c.apply(c.lift(p, REBIT), bell)
    out2 = c.apply(c.lift(p2, REBIT), bell)
    yy = np.kron(PAULI_Y, PAULI_Y).real
    dev1 = np.abs(out1.matrix - 0.25 * (np.eye(4) - yy)).max()
    dev2 = np.abs(out2.matrix - 0.25 * (np.eye(4) + yy)).max()
    prod = np.abs(out1.matrix @ out2.matrix).max()
    tdist = trace_distance(out1, out2)
    ok = dev1 <= 1e-12 and dev2 <= 1e-12 and prod <= 1e-12 and abs(tdist - 1.0) <= 1e-9
    criterion(
        2,
        f"lifted outputs are the orthogonal pair (devs {dev1:.1e}/{dev2:.1e}, "
        f"product {prod:.1e}, trace distance {tdist:.12f})",
        ok,
    )


def test_criterion_3_wootters_local_indistinguishability():
    rho1, rho2 = wootters_pair()
    effects = bk.spanning_effects(REBIT)
    assert len(effects) == 3
    gap = 0.0
    count = 0
    for ea in effects:
        for eb in effects:
            e = c.tensor_effects(ea, eb)
            gap = max(gap, abs(c.pair(e, rho1) - c.pair(e, rho2)))
            count += 1
    criterion(3, f"{count} product effects cannot tell the pair apart (gap {gap:.2e})", gap <= 1e-12 and count == 9)


def test_criterion_4_local_tomography_dimension_law():
    ok = True
    for d1 in (2, 3):
        for d2 in (2, 3):
            rep = tm.is_locally_tomographic(system(QUANTUM, d1), system(QUANTUM, d2))
            ok &= rep.passed and rep.details["dim_composite"] == rep.details["dim_product"]
    rep = tm.is_locally_tomographic(REBIT, REBIT)
    ok &= (not rep.passed) and rep.details["dim_composite"] == 10 and rep.details["dim_product"] == 9
    criterion(4, "dimension law holds for complex d in {2,3}, fails 10 vs 9 for two rebits", ok)


def test_criterion_5_teleportation_identity():
    cases = [
        (CLASSICAL, 2, 1 / 2),
        (CLASSICAL, 3, 1 / 3),
        (QUANTUM, 2, 1 / 4),
        (QUANTUM, 3, 1 / 9),
        (REAL, 2, 1 / 4),
    ]
    worst = 0.0
    ok = True
    for backend, d, expected_p in cases:
        a = system(backend, d)
        phi, effect, p = wt.teleportation_witness(a)
        ok &= abs(p - expected_p) <= 1e-15
        for rho in bk.spanning_states(a):
            out = wt.teleport_map(phi, effect, rho)
            worst = max(worst, float(np.abs(out.coords - p * rho.coords).max()))
    criterion(5, f"bent-wire identity in all five cases (residual {worst:.2e})", ok and worst <= 1e-12)


def test_criterion_6_dynamical_faithfulness_ranks():
    expected = {(QUANTUM, 2): 16, (QUANTUM, 3): 81, (CLASSICAL, 2): 4, (CLASSICAL, 3): 9}
    ok = True
    for (backend, d), want in expected.items():
        a = system(backend, d)
        basis = bk.process_space_basis(a, a)
        rank = bk.matrix_rank(tm.lifting_matrix(tm.find_faithful_state(a), a, basis))
        ok &= rank == basis.dim == want
    real_dims = []
    for d in (2, 3):
        a = system(REAL, d)
        basis = bk.process_space_basis(a, a)
        span_dim = basis.dim
        for s in range(5):  # no random process escapes the span
            extra = bk.process_coords(bk.random_process(a, a, s))
            ok &= bk.matrix_rank(np.vstack([basis.elements, extra])) == span_dim
        rank = bk.matrix_rank(tm.lifting_matrix(tm.find_faithful_state(a), a, basis))
        ok &= rank == span_dim
        real_dims.append(span_dim)
    criterion(
        6,
        f"lifting ranks match process-span dims (complex 16/81, classical 4/9, real {real_dims[0]}/{real_dims[1]})",
        ok,
    )


def test_criterion_7_faithful_state_is_the_tomographic_maximum():
    ok = True
    for backend in (QUANTUM, REAL):
        a = system(backend, 2)
        omega = bk.complete_state(a)
        phi = tm.find_faithful_state(a)
        rng = np.random.default_rng(7)
        for _ in range(50):
            gamma = bk.random_extension(omega, a, rng)
            ok &= tm.tomographically_geq(phi, gamma, a, a)
    qubit = system(QUANTUM, 2)
    psi_omega = bk.purify(bk.complete_state(qubit))
    rng = np.random.default_rng(8)
    for _ in range(20):
        rho = bk.random_rank_deficient_state(qubit, rng)
        ok &= tm.contains(bk.complete_state(qubit), rho) is not None
        ok &= tm.tomographically_geq(psi_omega, bk.purify(rho), qubit, qubit)
    criterion(7, "faithful state dominates 50 extensions (qubit, rebit) and 20 contained purifications", ok)


def test_criterion_8_universal_extension_witnesses():
    qubit = system(QUANTUM, 2)
    omega = bk.complete_state(qubit)
    psi = bk.purify(omega)
    phi, effect, _ = wt.teleportation_witness(qubit)
    rng = np.random.default_rng(88)
    ok = True
    worst_puri = 0.0
    for _ in range(50):
        gamma = bk.random_extension(omega, qubit, rng)
        t_chan = wt.channel_from_purification(psi, gamma)
        moved = c.apply_to_factors(t_chan, psi, 1)
        residual = float(np.abs(moved.coords - gamma.coords).max())
        worst_puri = max(worst_puri, residual)
        ok &= residual <= 1e-9 and t_chan.deterministic
        p, t_tele = wt.extension_from_teleportation(phi, effect, gamma)
        ok &= wt.verify_universal_extension(phi, gamma, p, t_tele, tol=1e-9)
    criterion(8, f"50 extensions regenerated from the purification (max residual {worst_puri:.2e}) and from teleportation", ok)


def test_criterion_9_preparational_faithfulness():
    qubit = system(QUANTUM, 2)
    two = tensor_systems(qubit, qubit)
    phi = bk.maximally_entangled_state(qubit)
    rng = np.random.default_rng(99)
    ok = True
    worst = 0.0
    for _ in range(50):
        target = bk.random_pure_state(two, rng)
        p, s_proc = wt.preparationally_faithful_witness(phi, target)
        out = c.apply_to_factors(s_proc, phi, 1)
        residual = float(np.abs(out.coords - p * target.coords).max())
        worst = max(worst, residual)
        ok &= p > 0 and residual <= 1e-9
    for _ in range(20):
        target = bk.random_state(two, rng)
        p, s_proc = wt.preparationally_faithful_witness(phi, target)
        out = c.apply_to_factors(s_proc, phi, 1)
        residual = float(np.abs(out.coords - p * target.coords).max())
        worst = max(worst, residual)
        ok &= p > 0 and residual <= 1e-9
    criterion(9, f"70 targets prepared from the entangled state (max residual {worst:.2e})", ok)


def _remixed(p, rng):
    if p.stoch is not None:
        return c.stochastic_process(p.input, p.output, p.stoch.copy())
    n = len(p.kraus)
    g = rng.normal(size=(n, n))
    if p.backend == QUANTUM:
        g = g + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(g)
    return c.kraus_process(p.input, p.output, [sum(q[m, j] * p.kraus[j] for j in range(n)) for m in range(n)])


def test_criterion_10_hierarchy_of_equalities():
    violations = 0
    for backend in (CLASSICAL, QUANTUM, REAL):
        a = system(backend, 2)
        omega = bk.complete_state(a)
        states = bk.spanning_states(a)
        source = c.randomize([c.preparation_test([s]) for s in states], [1 / len(states)] * len(states))
        rng = np.random.default_rng(10)
        for i in range(100):
            p = bk.random_process(a, a, rng)
            p2 = _remixed(p, rng) if i % 3 == 0 else bk.random_process(a, a, rng)
            levels = [
                tm.equal_processes(p, p2),
                tm.equal_on_extensions(p, p2, omega),
                tm.equal_upon_input(p, p2, omega),
                tm.equal_on_source(p, p2, source),
            ]
            if any(stronger and not weaker for stronger, weaker in zip(levels, levels[1:])):
                violations += 1
    p, p2 = rebit_processes()
    omega = bk.complete_state(REBIT)
    split_point = tm.equal_upon_input(p, p2, omega) and not tm.equal_on_extensions(p, p2, omega)
    criterion(
        10,
        f"300 channel pairs keep the chain monotone ({violations} violations); "
        "the rebit pair separates the two middle levels",
        violations == 0 and split_point,
    )


def test_criterion_11_dsl_golden_corpus():
    golden = {
        "teleport_qubit.opt": 0.25,
        "teleport_qutrit.opt": 1 / 9,
        "teleport_rebit.opt": 0.25,
        "teleport_classical2.opt": 0.5,
        "teleport_classical3.opt": 1 / 3,
        "rebit_discriminate_iy.opt": 0.5,
        "rebit_discriminate_xz.opt": 0.0,
        "closed_maxmix.opt": 1.0,
        "classical_bitflip.opt": 0.7,
        "hadamard_measure.opt": 0.5,
    }
    ok = len(golden) == 10
    worst = 0.0
    for name, expected in golden.items():
        result = dsl.run_file(str(CIRCUITS / name))
        ok &= result.kind == "scalar"
        worst = max(worst, abs(result.payload - expected))
    ok &= worst <= 1e-9
    try:
        dsl.run_file(str(CIRCUITS / "malformed.opt"))
        positioned = False
    except dsl.DslError as err:
        positioned = err.line == 2 and err.col == 5 and "malformed.opt" in str(err)
    ok &= positioned
    criterion(11, f"10 circuit files evaluate to their golden scalars (max dev {worst:.2e}); malformed file is positioned", ok)
