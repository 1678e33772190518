"""Choi <-> Kraus conversions against the per-site loops they replaced.

Every Kraus list read off a positive matrix goes through ``core.choi`` and
``core.kraus_from_psd``.  The loops below are the conversions each site ran
on its own before that; the routine must reproduce them bit for bit, and
each conversion must take exactly one ``eigh``.
"""

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import witnesses as wt
from gpt_tomo.core import QUANTUM, REAL, system

DIMS = [1, 2, 3]


# ---------------------------------------------------------------------------
# the replaced loops
# ---------------------------------------------------------------------------

def _minimal_kraus_oracle(ops, backend):
    dout, din = ops[0].shape
    vecs = np.stack([k.reshape(-1) for k in ops], axis=1)
    choi = vecs @ vecs.conj().T
    if backend == REAL:
        choi = choi.real
    vals, us = np.linalg.eigh(choi)
    kept = [np.sqrt(v) * us[:, i].reshape(dout, din) for i, v in enumerate(vals) if v > 0]
    return kept or [np.zeros((dout, din))]


def _compose_oracle(after, before):
    ops = [k2 @ k1 for k2 in after.kraus for k1 in before.kraus]
    if len(ops) > before.input.total_dim * after.output.total_dim:
        ops = _minimal_kraus_oracle(ops, before.backend)
    return c.kraus_process(before.input, after.output, ops)


def _preparation_oracle(state, tol=c.DEFAULT_TOL):
    vals, vecs = np.linalg.eigh(state.matrix)
    cols = [np.sqrt(v) * vecs[:, i : i + 1] for i, v in enumerate(vals) if v > tol]
    if not cols:
        cols = [np.zeros((state.system.total_dim, 1))]
    return c.kraus_process(c.trivial(state.system.backend), state.system, cols)


def _effect_oracle(effect, tol=c.DEFAULT_TOL):
    vals, vecs = np.linalg.eigh(effect.matrix)
    rows = [np.sqrt(v) * vecs[:, i : i + 1].conj().T for i, v in enumerate(vals) if v > tol]
    if not rows:
        rows = [np.zeros((1, effect.system.total_dim))]
    return c.kraus_process(effect.system, c.trivial(effect.system.backend), rows)


def _kraus_from_choi_oracle(inp, out, choi, tol=c.DEFAULT_TOL):
    if inp.backend == REAL:
        if np.abs(choi.imag).max() > tol or np.abs(choi - choi.T).max() > np.sqrt(tol):
            raise ValueError("real-backend construction produced a non-symmetric Choi matrix")
        choi = 0.5 * (choi.real + choi.real.T)
    vals, vecs = np.linalg.eigh(choi)
    if vals.min() < -np.sqrt(tol):
        raise ValueError(f"Choi matrix is not positive semidefinite: min eig {vals.min():.3e}")
    shape = (out.total_dim, inp.total_dim)
    ops = [np.sqrt(v) * vecs[:, i].reshape(shape) for i, v in enumerate(vals) if v > tol]
    if not ops:
        ops = [np.zeros(shape)]
    return c.kraus_process(inp, out, ops, tol=np.sqrt(tol))


def _assert_same_kraus(proc, oracle):
    assert len(proc.kraus) == len(oracle.kraus)
    assert all(np.array_equal(k, o) for k, o in zip(proc.kraus, oracle.kraus))


# ---------------------------------------------------------------------------
# inputs: full rank, rank deficient and zero
# ---------------------------------------------------------------------------

def _channel(rng, a, b, n_ops, rank=None):
    """A Kraus list of ``n_ops`` operators spanning at most ``rank`` directions.

    The operators are combinations of ``rank`` slices of a random isometry,
    so the Choi matrix is rank deficient when ``rank < n_ops``; on the real
    backend each operator is entrywise real or, at random, purely imaginary.
    """
    real = a.backend == REAL
    rank = n_ops if rank is None else rank
    rank = max(rank, -(-a.total_dim // b.total_dim))
    shape = (b.total_dim * rank, a.total_dim)
    g = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
    slices = np.split(np.linalg.qr(g)[0], rank)
    mix = np.linalg.qr(rng.normal(size=(n_ops, rank)))[0] if n_ops >= rank else np.eye(rank)[:n_ops]
    ops = [sum(m * s for m, s in zip(row, slices)) for row in mix]
    if real:
        ops = [k * (1j if rng.random() < 0.5 else 1.0) for k in ops]
    return c.kraus_process(a, b, ops)


def _states(sys, rng):
    zero = c.state_from_matrix(sys, np.zeros((sys.total_dim, sys.total_dim)))
    states = [bk.random_state(sys, rng), bk.random_pure_state(sys, rng), zero]
    if sys.total_dim >= 2:
        states.append(bk.random_rank_deficient_state(sys, rng))
    return states


# ---------------------------------------------------------------------------
# differential tests
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("din", DIMS)
@pytest.mark.parametrize("dout", DIMS)
def test_compose_matches_minimal_kraus_oracle(backend, din, dout):
    rng = np.random.default_rng(17 * din + dout)
    a, b = system(backend, din), system(backend, dout)
    for n_ops, rank in [(3, None), (4, 1), (5, 2)]:
        before = _channel(rng, a, a, n_ops, rank)
        after = _channel(rng, a, b, n_ops, rank)
        _assert_same_kraus(c.compose(after, before), _compose_oracle(after, before))
    zero = c.kraus_process(a, b, [np.zeros((dout, din))] * (din * dout + 1))
    ident = c.kraus_process(a, a, [np.eye(din)])
    _assert_same_kraus(c.compose(zero, ident), _compose_oracle(zero, ident))


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("d", DIMS)
def test_preparation_and_effect_processes_match_eigen_loops(backend, d):
    rng = np.random.default_rng(d)
    a = system(backend, d)
    for state in _states(a, rng):
        _assert_same_kraus(c.preparation_process(state), _preparation_oracle(state))
        top = max(1.0, float(np.linalg.eigvalsh(state.matrix).max()))
        effect = c.effect_from_matrix(a, state.matrix / top)
        _assert_same_kraus(c.effect_process(effect), _effect_oracle(effect))


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("din", DIMS)
@pytest.mark.parametrize("dout", DIMS)
def test_kraus_from_choi_matches_its_former_body(monkeypatch, backend, din, dout):
    rng = np.random.default_rng(5 * din + dout)
    a, b = system(backend, din), system(backend, dout)
    # a Choi matrix as the teleportation witness builds it, then random and zero ones
    phi, effect, _ = wt.teleportation_witness(a)
    seen = []
    kraus_from_choi = wt._kraus_from_choi

    def capture(inp, out, choi, **kw):
        seen.append(choi)
        return kraus_from_choi(inp, out, choi, **kw)

    monkeypatch.setattr(wt, "_kraus_from_choi", capture)
    gamma = bk.random_extension(bk.complete_state(a), b, rng)
    wt.extension_from_teleportation(phi, effect, gamma, tol=c.DEFAULT_TOL)
    monkeypatch.undo()
    chois = [seen[-1]]
    for n_ops, rank in [(2, None), (3, 1)]:
        chois.append(c.choi(_channel(rng, a, b, n_ops, rank).kraus))
    chois.append(np.zeros((din * dout, din * dout)))
    for choi in chois:
        _assert_same_kraus(wt._kraus_from_choi(a, b, choi), _kraus_from_choi_oracle(a, b, choi))


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_kraus_from_choi_guards_keep_their_messages(backend):
    a = system(backend, 2)
    negative = np.diag([1.0, 0.0, 0.0, -1e-3])
    for fn in (wt._kraus_from_choi, _kraus_from_choi_oracle):
        with pytest.raises(ValueError, match=r"not positive semidefinite: min eig -1\.000e-03"):
            fn(a, a, negative)
    if backend == REAL:
        skew = np.eye(4) + 1e-3 * (np.eye(4, k=1) - np.eye(4, k=-1))
        for fn in (wt._kraus_from_choi, _kraus_from_choi_oracle):
            with pytest.raises(ValueError, match="non-symmetric Choi matrix"):
                fn(a, a, skew)


# ---------------------------------------------------------------------------
# one eigendecomposition per conversion
# ---------------------------------------------------------------------------

def _count_eigen_calls(monkeypatch):
    """Counts of ``eigh``/``eigvalsh`` calls from here on, process validation stubbed.

    Validation runs its own ``eigvalsh`` on the finished process; stubbing
    ``kraus_process`` leaves only the conversion in the count.  ``compose``
    does not validate its result, so the stub does not reach it.
    """
    counts = {"eigh": 0, "eigvalsh": 0}
    for name in counts:
        real = getattr(np.linalg, name)

        def counting(*args, _name=name, _real=real, **kw):
            counts[_name] += 1
            return _real(*args, **kw)

        monkeypatch.setattr(np.linalg, name, counting)

    def unvalidated(inp, out, kraus, **kw):
        return list(kraus)

    monkeypatch.setattr(c, "kraus_process", unvalidated)
    monkeypatch.setattr(wt, "kraus_process", unvalidated)
    return counts


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_each_conversion_runs_one_eigh(monkeypatch, backend):
    rng = np.random.default_rng(3)
    a = system(backend, 2)
    after, before = _channel(rng, a, a, 3), _channel(rng, a, a, 3)  # 9 > 4 products
    choi = c.choi(after.kraus)
    state = bk.random_state(a, rng)
    conversions = {
        "compose": lambda: c.compose(after, before).kraus,
        "_kraus_from_choi": lambda: wt._kraus_from_choi(a, a, choi),
        "preparation_process": lambda: c.preparation_process(state),
    }
    counts = _count_eigen_calls(monkeypatch)
    for name, convert in conversions.items():
        counts.update(eigh=0, eigvalsh=0)
        ops = convert()
        assert counts == {"eigh": 1, "eigvalsh": 0}, name
        assert 1 <= len(ops) <= 4, name
