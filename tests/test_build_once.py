"""Each fixed or already computed object is built once.

A validated state or effect holds the matrix its PSD test ran on, read-only,
and ``.matrix`` returns it; the slow twin is ``coords_to_matrix`` of the
coordinates.  The per-system families (spanning sets, complete and maximally
entangled states and effects, the deterministic effect) and the rebit
counterexample's constants are cached: a second call validates nothing.
"""

import dataclasses

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import rebit as rb
from gpt_tomo import witnesses as wt
from gpt_tomo.core import BACKENDS, CLASSICAL, REAL, system

from conftest import count_calls


def _built(backend):
    """One state or effect from each public constructor and operation that returns one."""
    a, b = system(backend, 2), system(backend, 3)
    rho = bk.random_state(c.tensor_systems(a, b), 1)
    p = bk.random_process(a, b, 2)
    e = bk.random_povm(b, 2, 3)[0]
    out = {
        "state_from_coords": lambda: c.state_from_coords(a, bk.random_state(a, 4).coords),
        "effect_from_coords": lambda: c.effect_from_coords(b, e.coords),
        "apply": lambda: c.apply(p, bk.random_state(a, 5)),
        "apply_to_factors": lambda: c.apply_to_factors(p, rho, 0),
        "tensor_states": lambda: c.tensor_states(bk.random_state(a, 6), bk.random_state(b, 7)),
        "tensor_effects": lambda: c.tensor_effects(bk.random_povm(a, 2, 8)[1], e),
        "contract": lambda: c.contract(rho, e, [1]),
        "permute_factors": lambda: c.permute_factors(rho, [1, 0]),
        "marginal": lambda: c.marginal(rho, 1),
    }
    out["state_from_matrix"] = lambda: c.state_from_matrix(b, bk.random_state(b, 9).matrix.copy())
    vec = {CLASSICAL: [0.0, 1.0], "quantum": [0.6, 0.8j], "real": [0.6, 0.8]}[backend]  # classical: a point mass
    out["state_from_vector"] = lambda: c.state_from_vector(a, np.array(vec))
    out["effect_from_matrix"] = lambda: c.effect_from_matrix(b, e.matrix.copy())
    return out


BUILDERS = [(backend, name) for backend in BACKENDS for name in _built(backend)]


@pytest.mark.parametrize("backend, name", BUILDERS, ids=[f"{b}-{n}" for b, n in BUILDERS])
def test_held_matrix_is_the_coordinate_matrix(backend, name):
    s = _built(backend)[name]()
    other = (c.deterministic_effect if isinstance(s, c.EffectVector) else bk.complete_state)(s.system)
    moved = dataclasses.replace(s, coords=other.coords)
    assert np.array_equal(s.matrix, c.coords_to_matrix(s.system, s.coords))
    assert s.matrix.flags.writeable is False
    assert s.matrix is s.matrix
    assert not np.array_equal(s.matrix, other.matrix)
    assert np.array_equal(moved.matrix, c.coords_to_matrix(s.system, other.coords))


FAMILIES = {
    "spanning_states": bk.spanning_states,
    "spanning_effects": bk.spanning_effects,
    "complete_state": bk.complete_state,
    "maximally_entangled_state": bk.maximally_entangled_state,
    "maximally_entangled_effect": bk.maximally_entangled_effect,
    "deterministic_effect": c.deterministic_effect,
}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", FAMILIES)
def test_second_call_builds_nothing(monkeypatch, backend, name):
    sys_ = system(backend, 3)
    first = FAMILIES[name](sys_)
    calls = count_calls(monkeypatch, ("state_from_coords", "effect_from_coords"))
    second = FAMILIES[name](sys_)
    assert calls == []
    if isinstance(first, list):
        assert second is not first and len(second) == len(first)
        assert all(x is y for x, y in zip(first, second))
    else:
        assert second is first


@pytest.mark.parametrize("family", [bk.spanning_states, bk.spanning_effects])
def test_extending_a_family_leaves_the_cache_alone(family):
    sys_ = system(CLASSICAL, 2)
    probes = family(sys_)
    kept = list(probes)
    probes += [probes[0]]  # as counterexample_report extends its probes
    probes[0] = None
    assert family(sys_) == kept


def test_rebit_constants_are_built_once(monkeypatch):
    rb.counterexample_report(seed=0, n_random=1)
    calls = count_calls(monkeypatch, ("effect_from_coords", "kraus_process", "tensor_effects"))
    assert rb.rebit_processes() is rb.rebit_processes()
    assert rb._product_effects() is rb._product_effects()
    rb.counterexample_report(seed=1, n_random=1)
    assert calls == []
    assert rb._pauli_products().flags.writeable is False


def test_rebit_source_is_built_once(monkeypatch):
    """The standard-tomography source of the rebit report depends on the system alone."""
    rebit = system(REAL, 2)
    first = wt.is_doubly_preparationally_faithful(rebit, rebit, seed=0, samples=1)
    calls = []
    for name in ("preparation_test", "randomize"):
        original = getattr(wt, name)
        monkeypatch.setattr(wt, name, lambda *a, _o=original, _n=name, **kw: calls.append(_n) or _o(*a, **kw))
    second = wt.is_doubly_preparationally_faithful(rebit, rebit, seed=0, samples=1)
    assert calls == []
    assert second.to_dict() == first.to_dict() and first.details["standard_tomography_fails"] is True
    assert wt._spanning_source(rebit) is wt._spanning_source(rebit)


def test_cached_constants_match_a_fresh_build():
    """The cached rebit constants are what building them afresh gives."""
    local = bk.spanning_effects(rb.REBIT)
    fresh = [c.tensor_effects(ea, eb) for ea in local for eb in local]
    assert all(np.array_equal(x.coords, y.coords) for x, y in zip(rb._product_effects(), fresh))
    paulis = [rb.PAULI[k] for k in ("I", "X", "Y", "Z")]
    kron = [np.kron(p, q) for p in paulis for q in paulis]
    assert all(np.array_equal(x, y) for x, y in zip(rb._pauli_products(), kron))
