"""The one factor reduction and the polar-factor connection against their slow twins.

``composite_oracles`` holds the separate permute, contract and connect
routines that ``core._reduce`` and ``witnesses._unitary_connecting``
replaced.  Contract, permute and a marginal kept in ascending order take
the same floating-point steps as the matrix twins, on every backend, so they
must agree bit for bit; a marginal kept out of order permutes before
contracting instead of after, and may move by round-off.  A classical state
is a diagonal matrix: its permutation must also match the vector twin bit
for bit, and its contraction the vector twin to round-off.  The connection
is unique only where W1 is square and of full rank; elsewhere it is held to
its defining identities.
"""

from itertools import combinations, permutations

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import witnesses as wt
from gpt_tomo.core import BACKENDS, CLASSICAL, QUANTUM, REAL, system

from composite_oracles import (
    contract_matrix,
    contract_vector,
    permute_matrix,
    permute_vector,
    unitary_connecting,
)

DIMS = (2, 3, 2)
SEEDS = range(5)


def _oracle_contract(s, effect, on):
    sys = s.system
    out_sys = c.subsystem(sys, [i for i in range(sys.n_factors) if i not in on])
    return c.state_from_matrix(out_sys, contract_matrix(s.matrix, sys.dims, effect.matrix, on))


def _oracle_permute(s, perm):
    sys = s.system
    return c.state_from_matrix(c.subsystem(sys, perm), permute_matrix(s.matrix, sys.dims, perm))


def _oracle_marginal(s, keep):
    """The deterministic effect contracted on the rest, then the kept factors put in order."""
    on = [i for i in range(s.system.n_factors) if i not in keep]
    reduced = _oracle_contract(s, c.deterministic_effect(c.subsystem(s.system, on)), on)
    if list(keep) == sorted(keep):
        return reduced
    return _oracle_permute(reduced, list(np.argsort(np.argsort(keep))))


def _selections(n):
    return [list(sel) for k in range(1, n) for sub in combinations(range(n), k) for sel in permutations(sub)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_contract_is_bit_identical_to_the_twin(backend, seed):
    sys = system(backend, *DIMS)
    rng = np.random.default_rng(seed)
    s = bk.random_state(sys, rng)
    for on in _selections(len(DIMS)):
        effect = bk.random_povm(c.subsystem(sys, on), 2, rng)[0]
        got = c.contract(s, effect, on).coords
        assert np.array_equal(got, _oracle_contract(s, effect, on).coords), on
        if backend == CLASSICAL:
            assert np.abs(got - contract_vector(s.coords, DIMS, effect.coords, on)).max() <= 1e-16, on


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_permute_is_bit_identical_to_the_twin(backend, seed):
    s = bk.random_state(system(backend, *DIMS), seed)
    for perm in permutations(range(len(DIMS))):
        got = c.permute_factors(s, perm).coords
        assert np.array_equal(got, _oracle_permute(s, list(perm)).coords), perm
        if backend == CLASSICAL:
            assert np.array_equal(got, permute_vector(s.coords, DIMS, perm)), perm


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_marginal_matches_the_twin(backend, seed):
    s = bk.random_state(system(backend, *DIMS), seed)
    for keep in _selections(len(DIMS)) + [[0, 1, 2]]:
        got = c.marginal(s, keep).coords
        expected = _oracle_marginal(s, keep).coords
        if keep == sorted(keep):
            assert np.array_equal(got, expected), keep
        else:
            assert np.abs(got - expected).max() <= 1e-16, keep


def _unitary(n, rng, complex_):
    g = rng.normal(size=(n, n)) + (1j * rng.normal(size=(n, n)) if complex_ else 0)
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _connection_cases(backend, d, rng):
    """(kind, W1, W2) with W1 W1^dag = W2 W2^dag: full rank, rank deficient, and a wide W2."""
    complex_ = backend == QUANTUM

    def gauss(*shape):
        return rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0)

    w1 = gauss(d, d)
    yield "full", w1, w1 @ _unitary(d, rng, complex_)
    # the wide shape of channel_from_purification: R -> E (x) F with E = A, F = A (x) E
    iso = _unitary(d**3, rng, complex_)[:, :d]
    yield "wide", w1, w1 @ iso.conj().T
    for r in range(1, d):
        low = gauss(d, r) @ gauss(r, d)
        yield "deficient", low, low @ _unitary(d, rng, complex_)


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_connection_is_an_isometry_carrying_w1_to_w2(backend, d, seed):
    rng = np.random.default_rng(seed)
    for kind, w1, w2 in _connection_cases(backend, d, rng):
        x = wt._unitary_connecting(w1, w2)
        assert np.abs(w1 @ x - w2).max() <= 1e-12, kind
        assert np.abs(x @ x.conj().T - np.eye(d)).max() <= 1e-12, kind
        if backend == REAL:
            assert np.isrealobj(x), kind
        if kind != "deficient":  # W1 square and of full rank: X = W1^-1 W2 is unique
            assert np.abs(x - unitary_connecting(w1, w2)).max() <= 1e-12, kind


def test_connection_cases_cover_every_kind():
    kinds = [kind for kind, _, _ in _connection_cases(QUANTUM, 3, np.random.default_rng(0))]
    assert kinds == ["full", "wide", "deficient", "deficient"]
