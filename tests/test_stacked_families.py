"""The stacked witness and face families against their one-at-a-time loops.

``is_doubly_preparationally_faithful`` builds and judges the witnesses of
each (composite, side) pair as one stack, and ``face_spanning_states``
builds the face of a state as one stack.  The loops they replaced are kept
here as slow twins: one witness per target, validated by ``kraus_process``
or ``stochastic_process`` and judged by ``apply_to_factors``; one face
state per spanning state, built by ``_state_rep``.  Verdicts, residuals and
states must agree bit for bit, including where a pair falls back to
judging target by target.
"""

from math import sqrt

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import tomography as tm
from gpt_tomo import witnesses as wt
from gpt_tomo.core import CLASSICAL, QUANTUM, REAL, system, tensor_systems

TOL = c.DEFAULT_TOL


# ---------------------------------------------------------------------------
# slow twins
# ---------------------------------------------------------------------------

def _slow_witness(phi, target, side, tol=TOL):
    """The per-target witness: ``kraus_from_psd`` on one target, checked by the public constructors."""
    a = c.subsystem(phi.system, [0])
    d = a.total_dim
    if target.weight <= tol:
        raise ValueError("cannot prepare the zero target with a cancellative scalar")
    if a.backend == CLASSICAL:
        if side != "second":
            raise ValueError("classical witness is implemented on the second factor")
        env = c.SystemDescriptor(a.backend, target.system.dims[1:])
        joint = target.coords.reshape(d, env.total_dim)
        p = 1.0 / (d * joint.sum(axis=1).max())
        return p, c.stochastic_process(a, env, p * d * joint.T, tol=np.sqrt(tol))
    k_a, n_e = a.n_factors, target.system.total_dim // d
    if side == "second":
        env = c.SystemDescriptor(a.backend, target.system.dims[k_a:])
        coeff = c.kraus_from_psd(target.matrix, (d, n_e), cutoff=tol).transpose(0, 2, 1)
    else:
        env = c.SystemDescriptor(a.backend, target.system.dims[: target.system.n_factors - k_a])
        coeff = c.kraus_from_psd(target.matrix, (n_e, d), cutoff=tol)
    top = float(np.linalg.eigvalsh((coeff.conj().transpose(0, 2, 1) @ coeff).sum(axis=0)).max())
    if top <= 0.0:
        raise ValueError("cannot prepare the zero target with a cancellative scalar")
    p = 1.0 / (d * top)
    return p, c.kraus_process(a, env, np.sqrt(p * d) * coeff, tol=np.sqrt(tol))


def _slow_check(a, b, seed, samples, tol=TOL):
    """(passed, witness_max_residual) of the per-target loop over the three (composite, side) pairs."""
    rng = np.random.default_rng(seed)
    phi = bk.maximally_entangled_state(a)
    aa, ab = tensor_systems(a, a), tensor_systems(a, b)
    first = "first" if a.backend != CLASSICAL else "second"
    max_residual, ok = 0.0, True
    for comp, side in ((aa, "second"), (ab, "second"), (aa, first)):
        for _ in range(samples):
            target = bk.random_state(comp, rng)
            try:
                p, witness = _slow_witness(phi, target, side, tol)
                moved = c.apply_to_factors(witness, phi, 0 if side == "first" else 1, tol=np.sqrt(tol))
                residual = float(np.abs(moved.coords - p * target.coords).max())
            except ValueError:
                ok = False
                continue
            ok = ok and residual <= sqrt(tol)
            max_residual = max(max_residual, residual)
    return ok, max_residual


def _slow_face(rho, tol=TOL):
    """The per-state face: V sigma V^dag built by ``_state_rep`` one spanning state at a time."""
    sys_ = rho.system
    if sys_.backend == CLASSICAL:
        points = bk.spanning_states(sys_)
        return [points[i] for i in np.flatnonzero(rho.coords > tol)]
    vals, vecs = np.linalg.eigh(rho.matrix)
    support = vecs[:, vals > tol]
    small = c.SystemDescriptor(sys_.backend, (support.shape[1],))
    return [
        c._state_rep(sys_, support @ s.matrix @ support.conj().T, c.DEFAULT_TOL)
        for s in bk.spanning_states(small)
    ]


def _state_bytes(s):
    return (s.system, s.kind, s.coords.tobytes(), s.matrix.dtype.str, s.matrix.tobytes())


def _report(a, b, seed, samples):
    rep = wt.is_doubly_preparationally_faithful(a, b, seed=seed, samples=samples)
    return rep.passed, rep.details["witness_max_residual"]


# ---------------------------------------------------------------------------
# preparational-faithfulness witnesses
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_witnesses_match_the_per_target_loop(backend, d):
    a = system(backend, d)
    for db in (d % 4 + 1, 5):
        b = system(backend, db)
        for samples in (1, 2, 8):
            for seed in (0, 7):
                got = _report(a, b, seed, samples)
                assert got == _slow_check(a, b, seed, samples), (db, samples, seed)
                assert got[0] is True


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_one_target_witness_matches_the_per_target_builder(backend):
    rng = np.random.default_rng(11)
    for d, db in ((1, 3), (2, 2), (3, 2)):
        a = system(backend, d)
        phi = bk.maximally_entangled_state(a)
        sides = ("second",) if backend == CLASSICAL else ("second", "first")
        for comp in (tensor_systems(a, a), tensor_systems(a, system(backend, db))):
            for side in sides:
                if side == "first" and comp.dims[1:] != a.dims:
                    continue
                target = bk.random_state(comp, rng)
                p, witness = wt.preparationally_faithful_witness(phi, target, side=side)
                p_slow, slow = _slow_witness(phi, target, side)
                assert p == p_slow and type(p) is float
                rep, rep_slow = (w.kraus if w.stoch is None else w.stoch for w in (witness, slow))
                assert (witness.input, witness.output) == (slow.input, slow.output)
                assert (witness.deterministic, witness.reversible) == (slow.deterministic, slow.reversible)
                assert rep.dtype == rep_slow.dtype and np.array_equal(rep, rep_slow)
                assert not rep.flags.writeable


def _mixing_in(monkeypatch, every, make):
    """``bk.random_state`` with every ``every``-th draw on a composite replaced by ``make(state, rng)``."""
    draw, count = bk.random_state, [0]

    def patched(sys_, rng):
        state = draw(sys_, rng)
        count[0] += 1
        return make(state, rng) if sys_.n_factors == 2 and count[0] % every == 0 else state

    monkeypatch.setattr(bk, "random_state", patched)
    return count


def _count_stacks(monkeypatch):
    sizes, residuals = [], wt._prep_residuals

    def counting(phi, targets, *args):
        sizes.append(len(targets))
        return residuals(phi, targets, *args)

    monkeypatch.setattr(wt, "_prep_residuals", counting)
    return sizes


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_different_operator_counts_fall_back_to_one_target_at_a_time(monkeypatch, backend):
    def deficient(state, rng):
        return bk.random_rank_deficient_state(state.system, rng)

    a, b = system(backend, 2), system(backend, 3)
    phi = bk.maximally_entangled_state(a)
    rng = np.random.default_rng(3)
    comp = tensor_systems(a, a)
    mixed = [bk.random_state(comp, rng), bk.random_rank_deficient_state(comp, rng)]
    with pytest.raises(ValueError, match="different operator counts"):
        wt._prep_witnesses(phi, mixed, side="second", tol=TOL)

    count = _mixing_in(monkeypatch, 3, deficient)
    slow = _slow_check(a, b, 4, 4)
    count[0] = 0
    sizes = _count_stacks(monkeypatch)
    assert _report(a, b, 4, 4) == slow
    assert slow[0] is True
    assert sizes == [4, 1, 1, 1, 1] * 3  # every pair holds a deficient target among full-rank ones


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_a_zero_target_fails_only_its_own_witness(monkeypatch, backend):
    def negligible(state, rng):
        return c.state_from_coords(state.system, 1e-12 * state.coords)

    a, b = system(backend, 2), system(backend, 3)
    count = _mixing_in(monkeypatch, 5, negligible)
    slow = _slow_check(a, b, 2, 3)
    count[0] = 0
    sizes = _count_stacks(monkeypatch)
    got = _report(a, b, 2, 3)
    assert got == slow
    assert got[0] is False and got[1] < 1e-12
    # the fifth draw is the zero target: the second pair's stack raises, then is judged target by target
    assert sizes == [3, 3, 1, 1, 1, 3]


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_a_witness_wrong_on_the_second_target_only_fails(monkeypatch, backend):
    build = wt._prep_witnesses

    def off_on_second(phi, targets, **kwargs):
        p, ops, env = build(phi, targets, **kwargs)
        return (p * np.where(np.arange(len(p)) == 1, 1.001, 1.0)), ops, env

    monkeypatch.setattr(wt, "_prep_witnesses", off_on_second)
    a = system(backend, 2)
    rep = wt.is_doubly_preparationally_faithful(a, a, seed=0, samples=2)
    assert rep.passed is False
    assert rep.details["witness_max_residual"] > 1e-4


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_a_residual_a_few_times_the_bound_fails(monkeypatch, backend):
    build = wt._prep_witnesses

    def off(*args, **kwargs):
        p, ops, env = build(*args, **kwargs)
        return p * (1.0 + 3e-4), ops, env

    monkeypatch.setattr(wt, "_prep_witnesses", off)
    a = system(backend, 2)
    rep = wt.is_doubly_preparationally_faithful(a, a, seed=0)
    # judged at sqrt(tol), about 3.2e-5; the residual is about 4 times that
    assert sqrt(TOL) < rep.details["witness_max_residual"] < 10 * sqrt(TOL)
    assert rep.passed is False


# ---------------------------------------------------------------------------
# face-spanning states
# ---------------------------------------------------------------------------

def _states_of(backend, d, seed):
    sys_ = system(backend, d)
    rng = np.random.default_rng(seed)
    states = [bk.random_state(sys_, rng), bk.spanning_states(sys_)[-1]]
    if d > 1:
        states.append(bk.random_rank_deficient_state(sys_, rng))
    if backend != CLASSICAL:
        states.append(bk.random_pure_state(sys_, rng))
    return states


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_face_matches_the_per_state_loop(backend, d):
    for seed in range(4):
        for rho in _states_of(backend, d, seed):
            face = tm.face_spanning_states(rho)
            assert [_state_bytes(s) for s in face] == [_state_bytes(s) for s in _slow_face(rho)]
            assert all(not s.matrix.flags.writeable for s in face)


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_the_zero_state_has_an_empty_face(backend):
    a = system(backend, 3)
    zero = c.state_from_coords(a, np.zeros(a.state_dim))
    assert tm.face_spanning_states(zero) == []
    rng = np.random.default_rng(5)
    p, p2 = bk.random_process(a, a, rng), bk.random_process(a, a, rng)
    assert not tm.equal_processes(p, p2)
    # only the zero source averages to the zero state, and every process agrees on it
    assert tm.equal_upon_input(p, p2, zero)


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_upon_input_fails_when_only_the_first_face_state_agrees(backend):
    a = system(backend, 3)
    rho = bk.random_state(a, 9)
    vecs = np.linalg.eigh(rho.matrix)[1]  # the face's first state is v0 v0^dag
    v0 = vecs[:, :1]
    # keeps v0 v0^dag and sends the other directions to v0: a channel unlike the identity
    reset = c.kraus_process(a, a, [v0 @ v0.conj().T] + [v0 @ vecs[:, i : i + 1].conj().T for i in (1, 2)])
    ident = c.identity_process(a)
    first = tm.face_spanning_states(rho)[0]
    assert np.abs(c.apply(reset, first).coords - first.coords).max() < 1e-12
    assert not tm.equal_upon_input(ident, reset, rho)
