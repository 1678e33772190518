"""The real-backend counterexample, end to end."""

from dataclasses import replace

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import rebit
from gpt_tomo import tomography as tm
from gpt_tomo.rebit import (
    REBIT,
    counterexample_report,
    pauli_components,
    rebit_processes,
    trace_distance,
    wootters_pair,
)

from conftest import I2, PAULI_X, PAULI_Y, PAULI_Z


def test_processes_are_physical_and_deterministic():
    p, p2 = rebit_processes()
    for proc in (p, p2):
        assert proc.deterministic
        assert not proc.reversible
        gram = sum(k.conj().T @ k for k in proc.kraus)
        assert np.abs(gram - I2).max() < 1e-12


def test_both_processes_erase_every_rebit_state():
    p, p2 = rebit_processes()
    probes = bk.spanning_states(REBIT) + [bk.random_state(REBIT, s) for s in range(20)]
    for rho in probes:
        assert np.abs(c.apply(p, rho).matrix - I2 / 2).max() < 1e-12
        assert np.abs(c.apply(p2, rho).matrix - I2 / 2).max() < 1e-12


def test_pauli_algebra_kills_the_right_components():
    # oracle: Y X Y = -X and X Z X = -Z, so those components cancel
    p, p2 = rebit_processes()
    with_x = c.state_from_matrix(REBIT, 0.5 * (I2 + 0.8 * PAULI_X.real))
    out = c.apply(p, with_x)
    comps = np.real(
        [np.trace(mat @ out.matrix) / 2 for mat in (I2, PAULI_X, PAULI_Z)]
    )
    assert comps[1] == pytest.approx(0.0, abs=1e-12)  # X component erased
    with_z = c.state_from_matrix(REBIT, 0.5 * (I2 + 0.8 * PAULI_Z.real))
    out2 = c.apply(p2, with_z)
    z_comp = np.real(np.trace(PAULI_Z @ out2.matrix) / 2)
    assert z_comp == pytest.approx(0.0, abs=1e-12)


def test_wootters_pair_values():
    rho1, rho2 = wootters_pair()
    yy = np.kron(PAULI_Y, PAULI_Y).real
    assert np.abs(rho1.matrix - 0.25 * (np.eye(4) - yy)).max() < 1e-15
    assert np.abs(rho2.matrix - 0.25 * (np.eye(4) + yy)).max() < 1e-15
    # oracle: (II - YY)(II + YY) = II - YYYY = 0
    assert np.abs(rho1.matrix @ rho2.matrix).max() < 1e-15
    # oracle: eigenvalues of -YY/2 are +-1/2, twice each
    eigs = np.linalg.eigvalsh(rho1.matrix - rho2.matrix)
    assert np.abs(np.sort(eigs) - np.array([-0.5, -0.5, 0.5, 0.5])).max() < 1e-12
    assert trace_distance(rho1, rho2) == pytest.approx(1.0, abs=1e-12)
    for keep in (0, 1):
        assert np.abs(c.marginal(rho1, keep).matrix - I2 / 2).max() < 1e-12
        assert np.abs(c.marginal(rho2, keep).matrix - I2 / 2).max() < 1e-12


def test_lifted_outputs_match_wootters_pair():
    p, p2 = rebit_processes()
    bell = bk.maximally_entangled_state(REBIT)
    rho1, rho2 = wootters_pair()
    out1 = c.apply(c.lift(p, REBIT), bell)
    out2 = c.apply(c.lift(p2, REBIT), bell)
    assert np.abs(out1.coords - rho1.coords).max() < 1e-12
    assert np.abs(out2.coords - rho2.coords).max() < 1e-12


def test_pauli_component_bookkeeping():
    rho1, _ = wootters_pair()
    table = pauli_components(rho1.matrix)
    assert table[0, 0] == pytest.approx(0.5, abs=1e-12)  # II weight (normalized basis)
    assert table[2, 2] == pytest.approx(-0.5, abs=1e-12)  # YY weight survives
    assert np.abs(table[0, 2]) < 1e-12 and np.abs(table[2, 0]) < 1e-12  # odd-Y vanish
    bad = np.kron(PAULI_Y, I2).imag  # antisymmetric real matrix: forbidden component
    with pytest.raises(AssertionError, match="forbidden"):
        pauli_components(np.eye(4) / 4 + 0.1 * np.kron(PAULI_Y, I2))


def test_counterexample_report_numbers():
    rep = counterexample_report(seed=7)
    assert rep.max_local_deviation < 1e-12
    assert rep.orthogonality_gap < 1e-12
    assert rep.trace_distance == pytest.approx(1.0, abs=1e-9)
    assert rep.local_stats_max_gap < 1e-12
    assert rep.faithful_rank == 10
    rho1, rho2 = wootters_pair()
    assert np.abs(np.asarray(rep.output1) - rho1.coords).max() < 1e-12
    assert np.abs(np.asarray(rep.output2) - rho2.coords).max() < 1e-12


def test_source_equality_without_process_equality():
    p, p2 = rebit_processes()
    states = bk.spanning_states(REBIT)
    source = c.randomize(
        [c.preparation_test([s]) for s in states], [1 / len(states)] * len(states)
    )
    assert tm.equal_on_source(p, p2, source)
    assert not tm.equal_processes(p, p2)


def test_faithful_state_separates_the_pair():
    p, p2 = rebit_processes()
    bell = tm.find_faithful_state(REBIT)
    assert tm.is_dynamically_faithful(bell, REBIT, REBIT)
    out1 = c.apply(c.lift(p, REBIT), bell)
    out2 = c.apply(c.lift(p2, REBIT), bell)
    assert trace_distance(out1, out2) == pytest.approx(1.0, abs=1e-9)


def test_compressed_idempotent_composition_keeps_the_pair_apart():
    # p o p o p = p for both channels; the 8-operator product list compresses
    bell = bk.maximally_entangled_state(REBIT)
    coords, outs = [], []
    for p in rebit_processes():
        ppp = c.compose(p, c.compose(p, p))
        assert len(ppp.kraus) <= 4
        assert all(not k.imag.any() for k in ppp.kraus)
        coords.append(bk.process_coords(ppp))
        assert np.abs(coords[-1] - bk.process_coords(p)).max() < 1e-12
        outs.append(c.apply(c.lift(ppp, REBIT), bell))
    assert np.abs(coords[0] - coords[1]).max() > 0.1
    for out, target in zip(outs, wootters_pair()):
        assert np.abs(out.coords - target.coords).max() < 1e-12
    assert trace_distance(*outs) == pytest.approx(1.0, abs=1e-9)


def test_counterexample_check_fails_on_a_wrong_faithful_rank(monkeypatch):
    monkeypatch.setattr(rebit, "lifting_rank", lambda *args, **kwargs: 9)
    rep = rebit.counterexample_check()
    assert rep.passed is False
    assert rep.details["faithful_rank"] == 9
    assert rep.details["max_local_deviation"] <= 1e-12


@pytest.mark.parametrize(
    "field, bound, value",
    [
        ("max_local_deviation", 1e-12, lambda x: x),
        ("orthogonality_gap", 1e-12, lambda x: x),
        ("trace_distance", 1e-9, lambda x: 1.0 + x),
        ("local_stats_max_gap", 1e-12, lambda x: x),
    ],
)
def test_counterexample_check_decides_each_threshold_at_its_bound(monkeypatch, field, bound, value):
    """Each number at 0.5x its bound passes and at 10x fails: loosening or dropping any threshold shows."""
    real = rebit.counterexample_report(seed=0)
    for factor, passes in ((0.5, True), (10.0, False)):
        doctored = replace(real, **{field: value(factor * bound)})
        monkeypatch.setattr(rebit, "counterexample_report", lambda tol, seed=0, _rep=doctored: _rep)
        rep = rebit.counterexample_check()
        assert rep.passed is passes, (field, factor)
        assert rep.details[field] == value(factor * bound)
