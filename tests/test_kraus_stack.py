"""Kraus processes hold one (k, d_out, d_in) array: the stacked arithmetic and its contract.

The slow twins below are the per-operator loops that ``compose``,
``tensor_processes``, ``apply_to_factors``, ``choi`` and ``kraus_from_psd``
ran before the operators were stacked.  Each stacked operation must
reproduce its twin bit for bit (``np.array_equal``) on the quantum and real
backends.  The contract: every process's ``kraus`` is a read-only complex
array of shape (k, d_out, d_in), independent of the caller's arrays, and
``kraus_process`` keeps its checks, their order and their messages.
"""

from math import prod

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import dsl
from gpt_tomo import witnesses as wt
from gpt_tomo.core import CLASSICAL, QUANTUM, REAL, system

BACKENDS = [QUANTUM, REAL]


# ---------------------------------------------------------------------------
# the slow twins
# ---------------------------------------------------------------------------

def choi_twin(ops):
    vecs = np.stack([k.reshape(-1) for k in ops], axis=1)
    return vecs @ vecs.conj().T


def kraus_from_psd_twin(mat, shape, *, cutoff, floor=-np.inf):
    vals, us = np.linalg.eigh(mat)
    if vals.min() < floor:
        raise ValueError(f"Choi matrix is not positive semidefinite: min eig {vals.min():.3e}")
    kept = [np.sqrt(v) * us[:, i].reshape(shape) for i, v in enumerate(vals) if v > cutoff]
    return kept or [np.zeros(shape)]


def compose_twin(after, before):
    ops = [k2 @ k1 for k2 in after.kraus for k1 in before.kraus]
    din, dout = before.input.total_dim, after.output.total_dim
    if len(ops) > din * dout:
        mat = choi_twin(ops)
        if before.backend == REAL:
            mat = mat.real
        ops = kraus_from_psd_twin(mat, (dout, din), cutoff=0.0)
    return ops


def tensor_twin(p, q):
    return [np.kron(a, b) for a in p.kraus for b in q.kraus]


def on_rows_twin(op, mat, left):
    return (op @ mat.reshape(left, op.shape[1], -1)).reshape(-1, mat.shape[1])


def apply_twin(p, mat, left):
    """sum_K (I (x) K (x) I) mat (I (x) K (x) I)^dag, one operator at a time."""
    return sum(on_rows_twin(op, on_rows_twin(op, mat, left).conj().T, left).conj().T for op in p.kraus)


def assert_same_ops(stack, twin):
    assert isinstance(stack, np.ndarray) and stack.ndim == 3
    assert len(stack) == len(twin)
    assert all(np.array_equal(k, t) for k, t in zip(stack, twin))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def channel(rng, a, b, k):
    """A physical list of k random operators; on the real backend each is real or purely imaginary."""
    shape = (k, b.total_dim, a.total_dim)
    if a.backend == REAL:
        g = rng.normal(size=shape) * np.where(rng.random(k) < 0.5, 1j, 1.0)[:, None, None]
    else:
        g = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    top = np.linalg.eigvalsh(sum(x.conj().T @ x for x in g)).max()
    return c.kraus_process(a, b, list(g / np.sqrt(top)))


def processes(rng, backend):
    """Channels with k = 1, 2, 3 and 5 operators between d = 1, 2, 3, preparations and effects included."""
    procs = []
    for din in (1, 2, 3):
        for dout in (1, 2, 3):
            for k in (1, 2, 3, 5):
                procs.append(channel(rng, system(backend, din), system(backend, dout), k))
    return procs


# ---------------------------------------------------------------------------
# stacked arithmetic against the twins
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", BACKENDS)
def test_compose_matches_per_pair_products(backend):
    rng = np.random.default_rng(11)
    procs = processes(rng, backend)
    pairs = 0
    for before in procs:
        for after in procs:
            if after.input == before.output and rng.random() < 0.35:
                assert_same_ops(c.compose(after, before).kraus, compose_twin(after, before))
                pairs += 1
    assert pairs > 100


@pytest.mark.parametrize("backend", BACKENDS)
def test_tensor_matches_per_pair_kron(backend):
    rng = np.random.default_rng(12)
    procs = processes(rng, backend)
    for p in procs[::3]:
        for q in procs[1::4]:
            assert_same_ops(c.tensor_processes(p, q).kraus, tensor_twin(p, q))


@pytest.mark.parametrize("backend", BACKENDS)
def test_choi_and_kraus_from_psd_match_the_list_routines(backend):
    rng = np.random.default_rng(13)
    for p in processes(rng, backend):
        mat = c.choi(p.kraus)
        assert np.array_equal(mat, choi_twin(list(p.kraus)))
        if backend == REAL:
            mat = mat.real
        shape = (p.output.total_dim, p.input.total_dim)
        for cutoff in (0.0, 1e-9, 10.0):  # 10 keeps no eigenpair: one zero operator
            assert_same_ops(
                c.kraus_from_psd(mat, shape, cutoff=cutoff), kraus_from_psd_twin(mat, shape, cutoff=cutoff)
            )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("start", [0, 1, 2], ids=["left", "middle", "right"])
def test_apply_to_factors_matches_the_sum_over_operators(monkeypatch, backend, start):
    rng = np.random.default_rng(14 + start)
    host = c.SystemDescriptor(backend, (2, 3, 2))
    s = bk.random_state(host, rng)
    block = system(backend, host.dims[start])
    procs = [channel(rng, block, system(backend, d), k) for d in (1, 2, 3) for k in (1, 2, 5)]
    procs.append(c.preparation_process(bk.random_state(system(backend, 2), rng)))  # inserts a factor
    seen = []
    state_from_matrix, state_rep = c.state_from_matrix, c._state_rep

    def capture(sys, mat, tol):
        seen.append(mat)
        return state_rep(sys, mat, tol)

    monkeypatch.setattr(c, "_state_rep", capture)
    for p in procs:
        at = start + 1 if p.input.is_trivial else start  # a preparation goes between factors
        out = c.apply_to_factors(p, s, at)
        left = prod(host.dims[:at])
        assert np.array_equal(seen[-1], apply_twin(p, s.matrix, left))
        assert np.array_equal(out.coords, state_from_matrix(out.system, seen[-1]).coords)
        ops = p.kraus
        assert np.array_equal(c._on_rows(ops, s.matrix, left), [on_rows_twin(k, s.matrix, left) for k in ops])


@pytest.mark.parametrize("backend", BACKENDS)
def test_preparations_and_effects_meet_as_per_operator_products(backend):
    rng = np.random.default_rng(15)
    a = system(backend, 3)
    prep = c.preparation_process(bk.random_state(a, rng))
    effect = c.effect_process(c.effect_from_matrix(a, bk.random_state(a, rng).matrix))
    chan = channel(rng, a, a, 2)
    for after, before in [(chan, prep), (effect, chan), (effect, prep), (prep, effect)]:
        assert_same_ops(c.compose(after, before).kraus, compose_twin(after, before))
    assert_same_ops(c.tensor_processes(prep, effect).kraus, tensor_twin(prep, effect))


# ---------------------------------------------------------------------------
# the representation contract
# ---------------------------------------------------------------------------

def assert_contract(p):
    ops = p.kraus
    assert isinstance(ops, np.ndarray) and ops.dtype == complex
    assert ops.ndim == 3 and len(ops) >= 1
    assert ops.shape[1:] == (p.output.total_dim, p.input.total_dim)
    assert not ops.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        ops[0, 0, 0] = 1.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_constructor_returns_a_locked_stack(backend):
    rng = np.random.default_rng(16)
    a, b = system(backend, 2), system(backend, 3)
    rho = bk.random_state(a, rng)
    chan = channel(rng, a, b, 2)
    made = [
        chan,
        c.kraus_process(a, a, np.eye(2)[None]),
        c.compose(channel(rng, b, a, 3), chan),
        c.tensor_processes(chan, chan),
        c.identity_process(b),
        c.preparation_process(rho),
        c.effect_process(c.effect_from_matrix(a, rho.matrix)),
        c.scale_process(0.5, chan),
        c.add_processes([c.scale_process(0.5, chan), c.scale_process(0.5, chan)]),
        bk.random_process(a, b, rng),
    ]
    phi, effect, _ = wt.teleportation_witness(a)
    gamma = bk.random_extension(bk.complete_state(a), b, rng)
    made.append(wt.extension_from_teleportation(phi, effect, gamma)[1])
    psi = bk.purify(rho)
    made.append(wt.connect_purifications(psi, psi))
    made.append(wt.channel_from_purification(psi, bk.random_extension(rho, b, rng)))
    target, phi_aa = bk.random_state(c.tensor_systems(a, a), rng), bk.maximally_entangled_state(a)
    for side in ("first", "second"):
        made.append(wt.preparationally_faithful_witness(phi_aa, target, side=side)[1])
    for p in made:
        assert_contract(p)


@pytest.mark.parametrize("as_array", [True, False], ids=["array", "list"])
def test_later_writes_to_the_input_leave_the_process_alone(qubit, as_array):
    ops = np.array([np.eye(2), np.eye(2)], dtype=complex) / np.sqrt(2)  # complex: nothing to convert
    p = c.kraus_process(qubit, qubit, ops if as_array else list(ops))
    before = p.kraus.copy()
    ops[:] = 7.0
    assert np.array_equal(p.kraus, before) and p.deterministic


@pytest.mark.parametrize(
    "backend, kraus, message",
    [
        (QUANTUM, [np.eye(2), np.zeros((2, 3))], r"^Kraus operator has shape \(2, 3\), expected \(2, 2\)$"),
        (QUANTUM, np.zeros((2, 3, 3)), r"^Kraus operator has shape \(3, 3\), expected \(2, 2\)$"),
        (QUANTUM, np.eye(2), r"^Kraus operator has shape \(2,\), expected \(2, 2\)$"),
        (QUANTUM, [np.eye(2), np.full((2, 2), np.nan)], r"^Kraus operator must be finite$"),
        (QUANTUM, [], r"^a Kraus list needs at least one operator$"),
        (CLASSICAL, [np.eye(2)], r"^classical processes use stochastic matrices, not Kraus lists$"),
        (CLASSICAL, [], r"^classical processes use stochastic matrices, not Kraus lists$"),
        (
            REAL,
            [np.eye(2) / 2, np.array([[1, 1j], [0, 0]]) / 2],
            r"^real-backend Kraus operators must be entrywise real or entrywise purely imaginary$",
        ),
        (QUANTUM, [2 * np.eye(2)], r"^Kraus list is not physical: sum K\^dag K exceeds the identity$"),
        # the first operator at fault decides, whichever check it fails
        (QUANTUM, [np.full((2, 2), np.nan), np.zeros((2, 3))], r"^Kraus operator must be finite$"),
        (QUANTUM, [np.zeros((3, 2)), np.full((2, 2), np.nan)], r"^Kraus operator has shape \(3, 2\)"),
        (CLASSICAL, [np.zeros((2, 3))], r"^Kraus operator has shape \(2, 3\)"),
        (REAL, [np.array([[1, 1j], [0, 0]]), np.full((2, 2), np.inf)], r"^Kraus operator must be finite$"),
    ],
)
def test_kraus_process_errors_keep_their_text_and_order(backend, kraus, message):
    a = system(backend, 2)
    with pytest.raises(ValueError, match=message):
        c.kraus_process(a, a, kraus)


def test_ragged_literal_keeps_its_positioned_diagnostic():
    text = "system A quantum 2;\nproc f on A -> A = kraus[[[1, 0], [0, 1]], [[1], [0]]];\nrun f"
    with pytest.raises(dsl.DslError) as err:
        dsl.run_program(text, "r.opt")
    assert str(err.value) == "r.opt:2:1: Kraus operator has shape (2, 1), expected (2, 2)"
