"""Core algebra: pairing, composition, lifting, coarse-graining, marginals."""

import tracemalloc
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo.core import CLASSICAL, QUANTUM, REAL, system, tensor_systems, trivial

from conftest import I2, PAULI_Y, PHI_PLUS, proj

BACKEND_ST = st.sampled_from([CLASSICAL, QUANTUM, REAL])
SEED_ST = st.integers(0, 2**31 - 1)


# ---------------------------------------------------------------------------
# systems
# ---------------------------------------------------------------------------

def test_composite_dimensions(qubit, rebit, bit):
    assert tensor_systems(rebit, rebit).state_dim == 10  # 4*5/2 symmetric matrices
    assert tensor_systems(qubit, qubit).state_dim == 16  # 4x4 Hermitian matrices
    assert tensor_systems(bit, system(CLASSICAL, 3)).state_dim == 6


def test_trivial_system_is_unit(qubit):
    assert tensor_systems(qubit, trivial(QUANTUM)) == qubit
    assert tensor_systems(trivial(QUANTUM), qubit) == qubit
    assert trivial(REAL).state_dim == 1


def test_mixed_backend_composition_rejected(qubit, bit):
    with pytest.raises(ValueError, match="mixed backends"):
        tensor_systems(qubit, bit)


def test_dimensions_are_stored_as_python_ints():
    for bad in (2.0, np.float64(2.0), 0, -1, "2"):
        with pytest.raises(ValueError, match="positive integers"):
            system(QUANTUM, bad)
    sys = system(QUANTUM, np.int64(2), 3)
    assert sys == system(QUANTUM, 2, 3) and hash(sys) == hash(system(QUANTUM, 2, 3))
    assert all(type(d) is int for d in sys.dims)


# ---------------------------------------------------------------------------
# coordinate conversions: closed form against the dense basis
# ---------------------------------------------------------------------------

ORACLE_DIMS = (1, 2, 3, 4, 9, 16, 27)


def _dense_basis(backend, n):
    """The orthonormal basis as a dense (k, n, n) stack, in coordinate order."""
    mats = []
    for i in range(n):
        m = np.zeros((n, n), dtype=complex)
        m[i, i] = 1.0
        mats.append(m)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for i, j in pairs:
        m = np.zeros((n, n), dtype=complex)
        m[i, j] = m[j, i] = 1.0 / np.sqrt(2.0)
        mats.append(m)
    if backend == QUANTUM:
        for i, j in pairs:
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1.0j / np.sqrt(2.0)
            m[j, i] = 1.0j / np.sqrt(2.0)
            mats.append(m)
    out = np.stack(mats)
    return out if backend == QUANTUM else out.real


def _random_matrix(backend, n, rng):
    m = rng.normal(size=(n, n))
    return m + 1j * rng.normal(size=(n, n)) if backend == QUANTUM else m


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("n", ORACLE_DIMS)
def test_coordinates_match_dense_basis(backend, n):
    sys = system(backend, n)
    basis = _dense_basis(backend, n)
    rng = np.random.default_rng(n)
    assert basis.shape[0] == sys.state_dim
    # matrix -> coords, on a general matrix: the orthogonal projection
    mat = _random_matrix(backend, n, rng)
    coords = c.matrix_to_coords(sys, mat, tol=np.inf)
    expected = np.real(np.einsum("kab,ab->k", basis.conj(), mat))
    assert coords.dtype == np.float64 and coords.shape == (sys.state_dim,)
    np.testing.assert_allclose(coords, expected, rtol=0, atol=1e-13)
    # coords -> matrix
    x = rng.normal(size=sys.state_dim)
    back = c.coords_to_matrix(sys, x)
    assert back.dtype == (np.complex128 if backend == QUANTUM else np.float64)
    np.testing.assert_allclose(back, np.tensordot(x, basis, axes=(0, 0)), rtol=0, atol=1e-13)
    # and they invert each other on the representable matrices
    np.testing.assert_allclose(c.matrix_to_coords(sys, back), x, rtol=0, atol=1e-13)
    herm = (mat + mat.conj().T) / 2
    round_trip = c.coords_to_matrix(sys, c.matrix_to_coords(sys, herm))
    np.testing.assert_allclose(round_trip, herm, rtol=0, atol=1e-13)


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("shape", [(2,), (4,), (2, 3), (3, 2), (3, 3), (1, 2, 2)])
def test_matrix_of_wrong_shape_rejected(backend, shape):
    with pytest.raises(ValueError, match=r"expected a 2 x 2 matrix"):
        c.matrix_to_coords(system(backend, 2), np.zeros(shape))


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_coordinates_of_wrong_length_rejected(backend):
    with pytest.raises(ValueError, match="expected .* coordinates"):
        c.coords_to_matrix(system(backend, 2), np.zeros(5))


def test_classical_coordinates_are_the_diagonal_block():
    for n in ORACLE_DIMS:
        sys = system(CLASSICAL, n)
        x = np.random.default_rng(n).normal(size=n)
        back = c.coords_to_matrix(sys, x)
        assert back.dtype == np.float64 and np.array_equal(back, np.diag(x)), n
        assert np.array_equal(c.matrix_to_coords(sys, back), x), n
        w = np.random.default_rng(n + 1).random(n)
        s = c.state_from_coords(sys, w / w.sum())
        assert np.array_equal(s.matrix, np.diag(s.coords)), n
        assert s.matrix is s.matrix and s.matrix.flags.writeable is False, n


E01 = np.array([[0.0, 1.0], [0.0, 0.0]])
UNREPRESENTABLE = [
    (REAL, 1j * (E01 - E01.T)),  # Hermitian, but imaginary
    (REAL, E01 - E01.T),  # real, but antisymmetric
    (QUANTUM, E01 - E01.T),  # anti-Hermitian
    (QUANTUM, 1j * (E01 + E01.T)),  # anti-Hermitian
    (CLASSICAL, E01 + E01.T),  # real symmetric, but off the diagonal
    (CLASSICAL, 1j * np.eye(2)),  # diagonal, but imaginary
]


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("backend,part", UNREPRESENTABLE)
def test_unrepresentable_part_checked_against_tol(backend, part, tol):
    """The residue is max|M - H|, here exactly the size of the added part."""
    sys = system(backend, 2)
    base = np.diag([0.6, 0.4]) if backend == CLASSICAL else np.array([[0.6, 0.1], [0.1, 0.4]])
    expected = c.matrix_to_coords(sys, base)
    below = c.matrix_to_coords(sys, base + 0.999 * tol * part, tol=tol)
    np.testing.assert_allclose(below, expected, rtol=0, atol=1e-15)
    for convert in (c.matrix_to_coords, c.state_from_matrix, c.effect_from_matrix):
        with pytest.raises(ValueError, match="not representable"):
            convert(sys, base + 1.001 * tol * part, tol=tol)


def test_conversion_allocates_no_dense_basis():
    """A dense basis at n = 64 would be 268 MB; the closed form needs O(n^2)."""
    sys = system(QUANTUM, 64)
    mat = _random_matrix(QUANTUM, 64, np.random.default_rng(0))
    mat = (mat + mat.conj().T) / 2
    tracemalloc.start()
    try:
        back = c.coords_to_matrix(sys, c.matrix_to_coords(sys, mat))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert np.abs(back - mat).max() < 1e-13


# ---------------------------------------------------------------------------
# pairing
# ---------------------------------------------------------------------------

def test_pair_deterministic_effect_on_maxmix(qubit):
    u = c.deterministic_effect(qubit)
    assert c.pair(u, bk.complete_state(qubit)) == pytest.approx(1.0, abs=1e-12)


def test_pair_orthogonal_projectors(qubit):
    e0 = c.effect_from_matrix(qubit, np.diag([1.0, 0.0]))
    s1 = c.state_from_matrix(qubit, np.diag([0.0, 1.0]))
    assert c.pair(e0, s1) == pytest.approx(0.0, abs=1e-12)


def test_pair_bell_effect_on_wootters_state(qubit):
    # oracle: direct 4x4 matrix trace of the projector against 1/4 (II - YY)
    rho1 = 0.25 * (np.eye(4) - np.kron(PAULI_Y, PAULI_Y).real)
    expected = float(np.trace(proj(PHI_PLUS) @ rho1).real)
    assert expected == pytest.approx(0.5, abs=1e-12)
    two = tensor_systems(qubit, qubit)
    e = c.effect_from_matrix(two, proj(PHI_PLUS))
    s = c.state_from_matrix(two, rho1)
    assert c.pair(e, s) == pytest.approx(expected, abs=1e-12)


def test_pair_rejects_system_mismatch(qubit, rebit):
    with pytest.raises(ValueError, match="effect on"):
        c.pair(c.deterministic_effect(rebit), bk.complete_state(qubit))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_pair_is_bilinear(backend, seed):
    rng = np.random.default_rng(seed)
    sys = system(backend, 2)
    s1, s2 = bk.random_state(sys, rng), bk.random_state(sys, rng)
    effects = bk.spanning_effects(sys)
    e1, e2 = effects[0], effects[-1]
    a, b = rng.random(), rng.random()
    combo = a * s1.coords + b * s2.coords
    lhs = float(np.dot(e1.coords, combo))
    assert lhs == pytest.approx(a * c.pair(e1, s1) + b * c.pair(e1, s2), abs=1e-12)
    combo_e = a * e1.coords + b * e2.coords
    assert float(np.dot(combo_e, s1.coords)) == pytest.approx(
        a * c.pair(e1, s1) + b * c.pair(e2, s1), abs=1e-12
    )


# ---------------------------------------------------------------------------
# states, effects, cones
# ---------------------------------------------------------------------------

def test_state_cone_membership_enforced(qubit, bit):
    with pytest.raises(ValueError, match="negative eigenvalue"):
        c.state_from_matrix(qubit, np.diag([1.5, -0.5]))
    with pytest.raises(ValueError, match="negative eigenvalue"):
        c.state_from_coords(bit, [-0.1, 1.1])


C2, Q1, Q2, R2 = system(CLASSICAL, 2), system(QUANTUM, 1), system(QUANTUM, 2), system(REAL, 2)
NAN, INF = np.nan, np.inf
_C2_STATE = c.state_from_coords(C2, [1.0, 0.0])
NON_FINITE = [
    pytest.param("state", lambda: c.state_from_coords(C2, [NAN, 0.5]), id="classical-state-nan"),
    pytest.param("state", lambda: c.state_from_coords(Q2, [0.5, 0.5, NAN, 0.0]), id="quantum-state-nan"),
    pytest.param("state", lambda: c.state_from_coords(R2, [INF, 0.5, 0.0]), id="real-state-inf"),
    pytest.param("effect", lambda: c.effect_from_coords(C2, [NAN, 0.5]), id="classical-effect-nan"),
    pytest.param("effect", lambda: c.effect_from_coords(Q2, [0.5, NAN, 0.0, 0.0]), id="quantum-effect-nan"),
    # the projection drops these parts, so the NaN must reach the coordinates through the residue
    pytest.param("state", lambda: c.state_from_matrix(C2, [[0.5, NAN], [0.0, 0.5]]), id="classical-off-diag-nan"),
    pytest.param("effect", lambda: c.effect_from_matrix(R2, np.diag([0.5, complex(0.5, NAN)])), id="real-imag-nan"),
    pytest.param("stochastic", lambda: c.stochastic_process(C2, C2, np.full((2, 2), NAN)), id="stochastic-all-nan"),
    pytest.param("Kraus", lambda: c.kraus_process(Q1, Q2, [[[NAN], [0.0]]]), id="kraus-nan"),
    pytest.param("Kraus", lambda: c.kraus_process(Q2, Q2, [np.diag([1e999, 1.0])]), id="kraus-inf"),
    pytest.param("Kraus", lambda: c.kraus_process(R2, R2, [np.eye(2), np.diag([INF, 0.0])]), id="real-kraus-inf-second"),
    pytest.param("probabilities", lambda: c.mixture([_C2_STATE] * 2, [NAN, 1.0]), id="mixture-nan"),
    pytest.param(
        "probabilities",
        lambda: c.randomize([c.preparation_test([_C2_STATE])] * 2, [NAN, 1.0]),
        id="randomize-nan",
    ),
]


@pytest.mark.parametrize("what,build", NON_FINITE)
def test_non_finite_entries_rejected(what, build):
    # NaN fails every `x < -tol` guard, so each constructor checks finiteness first
    with pytest.raises(ValueError, match=f"{what} .*must be finite"):
        build()


def test_check_prob_vector_rejects_nan():
    # NaN passed both the sign and the sum guard, and mixture then blamed the state coordinates
    with pytest.raises(ValueError, match="probabilities must be finite"):
        c.check_prob_vector([NAN])


# One flag rule, max|. - target| <= tol, with no relative slack: a deviation
# of 5e-6 is far outside tol = 1e-9 and must not read as deterministic.
SHORT = 1.0 - 5e-6


def test_kraus_flags_have_no_relative_slack(qubit):
    p = c.kraus_process(qubit, qubit, [np.sqrt(SHORT) * np.eye(2)])
    assert not p.deterministic and not p.reversible


def test_effect_kind_has_no_relative_slack(qubit):
    assert c.effect_from_matrix(qubit, SHORT * np.eye(2)).kind == "general"


def test_classical_flags_have_no_relative_slack(bit):
    p = c.stochastic_process(bit, bit, SHORT * np.eye(2))
    assert not p.deterministic and not p.reversible
    assert c.effect_from_coords(bit, [SHORT, SHORT]).kind == "general"


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_flag_boundary_is_tol(backend):
    # deviations of 0.999 tol keep the flag, 1.001 tol drop it
    tol, sys = c.DEFAULT_TOL, system(backend, 2)
    for scale, expected in ((0.999, True), (1.001, False)):
        w = 1.0 - scale * tol
        if backend == CLASSICAL:
            p = c.stochastic_process(sys, sys, w * np.eye(2))
            e = c.effect_from_coords(sys, [w, w])
        else:
            p = c.kraus_process(sys, sys, [np.sqrt(w) * np.eye(2)])
            e = c.effect_from_matrix(sys, w * np.eye(2))
        assert (p.deterministic, e.kind == "deterministic") == (expected, expected), scale
        if backend != CLASSICAL:  # K K^dag = w I sits at the same distance; M M^T = w^2 I twice as far
            assert p.reversible is expected, scale


def test_composites_flag_by_the_same_rule(qubit):
    # compose and tensor_processes skip validation but not the flag rule
    short = c.kraus_process(qubit, qubit, [np.sqrt(SHORT) * np.eye(2)])
    unit = c.identity_process(qubit)
    for p in (c.compose(unit, short), c.compose(short, unit), c.tensor_processes(short, unit)):
        assert not p.deterministic and not p.reversible
    assert c.compose(unit, unit).reversible and c.tensor_processes(unit, unit).reversible


def test_real_backend_rejects_complex_states(rebit):
    with pytest.raises(ValueError, match="not representable"):
        c.state_from_matrix(rebit, np.array([[0.5, 0.5j], [-0.5j, 0.5]]))


def test_zero_state_allowed_subnormalized(qubit):
    z = c.state_from_matrix(qubit, np.zeros((2, 2)))
    assert z.kind == "subnormalized"


def test_kind_tracks_weight(qubit):
    assert bk.complete_state(qubit).kind == "deterministic"
    half = c.state_from_matrix(qubit, np.diag([0.25, 0.25]))
    assert half.kind == "subnormalized"


def test_effect_must_stay_below_identity(qubit):
    with pytest.raises(ValueError, match="exceeds the identity"):
        c.effect_from_matrix(qubit, np.diag([1.5, 0.0]))


def test_deterministic_effect_is_unique(qubit, bit):
    # any effect flagged deterministic has the canonical coordinates
    for sys in (qubit, bit):
        u = c.deterministic_effect(sys)
        for e in bk.spanning_effects(sys):
            if e.kind == "deterministic":
                assert np.abs(e.coords - u.coords).max() < 1e-12
        rebuilt = (
            c.effect_from_matrix(sys, np.eye(sys.total_dim))
            if sys.backend != "classical"
            else c.effect_from_coords(sys, np.ones(sys.total_dim))
        )
        assert rebuilt.kind == "deterministic"
        assert np.abs(rebuilt.coords - u.coords).max() < 1e-12


def test_tensor_states_product(qubit, bit):
    mm = bk.complete_state(qubit)
    prod = c.tensor_states(mm, mm)
    assert np.allclose(prod.matrix, np.eye(4) / 4.0)
    e0 = c.state_from_coords(bit, [1.0, 0.0])
    e1 = c.state_from_coords(bit, [0.0, 1.0])
    assert np.allclose(c.tensor_states(e0, e1).coords, [0.0, 1.0, 0.0, 0.0])


def test_tensor_states_rebit_rank_one(rebit):
    # oracle: direct outer product of |0> (x) |+>
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    vec = np.kron(np.array([1.0, 0.0]), plus)
    expected = np.outer(vec, vec)
    s0 = c.state_from_matrix(rebit, np.diag([1.0, 0.0]))
    sp = c.state_from_matrix(rebit, np.outer(plus, plus))
    got = c.tensor_states(s0, sp).matrix
    assert np.abs(got - expected).max() < 1e-12
    assert np.linalg.matrix_rank(got) == 1
    assert np.abs(got - got.T).max() < 1e-15


# ---------------------------------------------------------------------------
# processes: apply, compose, lift
# ---------------------------------------------------------------------------

def test_identity_apply(qubit):
    rho = bk.random_state(qubit, 3)
    out = c.apply(c.identity_process(qubit), rho)
    assert np.abs(out.coords - rho.coords).max() < 1e-14


def test_rebit_scrambler_sends_everything_to_maxmix(rebit):
    p = c.kraus_process(rebit, rebit, [I2 / np.sqrt(2), PAULI_Y / np.sqrt(2)])
    for seed in range(5):
        rho = bk.random_state(rebit, seed)
        assert np.abs(c.apply(p, rho).matrix - I2 / 2).max() < 1e-12


def test_bitflip_permutes(bit):
    flip = c.stochastic_process(bit, bit, [[0.0, 1.0], [1.0, 0.0]])
    s = c.state_from_coords(bit, [0.3, 0.7])
    assert np.allclose(c.apply(flip, s).coords, [0.7, 0.3])
    assert flip.deterministic and flip.reversible


def test_misshaped_process_operands_rejected(qubit, qutrit, bit):
    # a 2 x 3 operator for 2 -> 3 reshapes to an isometry; it must not be accepted
    with pytest.raises(ValueError, match=r"Kraus operator has shape \(2, 3\), expected \(3, 2\)"):
        c.kraus_process(qubit, qutrit, [[[1, 0, 0], [0, 0, 1]]])
    with pytest.raises(ValueError, match=r"matrix has shape \(1, 4\), expected \(2, 2\)"):
        c.stochastic_process(bit, bit, [[1, 0, 0, 1]])


def test_kraus_physicality_rejected(qubit):
    with pytest.raises(ValueError, match="not physical"):
        c.kraus_process(qubit, qubit, [np.eye(2) * 1.1])


def test_real_backend_kraus_reality_enforced(rebit):
    mixed = np.array([[1.0, 1.0j], [0.0, 0.0]]) / 2.0  # neither real nor purely imaginary
    with pytest.raises(ValueError, match="entrywise"):
        c.kraus_process(rebit, rebit, [mixed])
    # purely imaginary operators are inside the class
    c.kraus_process(rebit, rebit, [PAULI_Y])


def test_lift_identity_is_identity(qubit):
    lifted = c.lift(c.identity_process(qubit), qubit)
    rho = bk.random_state(tensor_systems(qubit, qubit), 0)
    assert np.abs(c.apply(lifted, rho).coords - rho.coords).max() < 1e-12


def test_lift_rebit_scramblers_split_the_bell_state(rebit):
    # oracle: Pauli algebra gives 1/2(Phi+ + Psi-) and 1/2(Psi+ + Phi-)
    p = c.kraus_process(rebit, rebit, [I2 / np.sqrt(2), PAULI_Y / np.sqrt(2)])
    p2 = c.kraus_process(
        rebit, rebit, [np.array([[0, 1.0], [1.0, 0]]) / np.sqrt(2), np.diag([1.0, -1.0]) / np.sqrt(2)]
    )
    bell = bk.maximally_entangled_state(rebit)
    yy = np.kron(PAULI_Y, PAULI_Y).real
    out1 = c.apply(c.lift(p, rebit), bell).matrix
    out2 = c.apply(c.lift(p2, rebit), bell).matrix
    assert np.abs(out1 - 0.25 * (np.eye(4) - yy)).max() < 1e-12
    assert np.abs(out2 - 0.25 * (np.eye(4) + yy)).max() < 1e-12


@settings(max_examples=25, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_lift_functoriality(backend, seed):
    # apply(lift(P, C), s (x) t) == apply(P, s) (x) t
    rng = np.random.default_rng(seed)
    a, anc = system(backend, 2), system(backend, 2)
    p = bk.random_process(a, a, rng)
    s, t = bk.random_state(a, rng), bk.random_state(anc, rng)
    lhs = c.apply(c.lift(p, anc), c.tensor_states(s, t))
    rhs = c.tensor_states(c.apply(p, s), t)
    assert np.abs(lhs.coords - rhs.coords).max() < 1e-12


def test_compose_types_checked(qubit, qutrit):
    p = c.identity_process(qubit)
    q = c.identity_process(qutrit)
    with pytest.raises(ValueError, match="cannot compose"):
        c.compose(p, q)


# ---------------------------------------------------------------------------
# minimal Kraus form under composition, against the product list
# ---------------------------------------------------------------------------

def _product_compose(after, before):
    """Sequential composition as the full product Kraus list, uncompressed."""
    ops = [k2 @ k1 for k2 in after.kraus for k1 in before.kraus]
    return c.kraus_process(before.input, after.output, ops)


def _choi(proc):
    vecs = np.stack([k.reshape(-1) for k in proc.kraus], axis=1)
    return vecs @ vecs.conj().T


def _random_channel(rng, a, b, n_ops):
    """At least ``n_ops`` Kraus operators sliced from a random isometry; on the
    real backend each is entrywise real or, at random, entrywise purely imaginary."""
    real = a.backend == REAL
    n_ops = max(n_ops, -(-a.total_dim // b.total_dim))  # an isometry needs b * n_ops >= a
    shape = (b.total_dim * n_ops, a.total_dim)
    g = rng.normal(size=shape) if real else rng.normal(size=shape) + 1j * rng.normal(size=shape)
    q = np.linalg.qr(g)[0]
    ops = np.split(q, n_ops)
    if real:
        ops = [k * (1j if rng.random() < 0.5 else 1.0) for k in ops]
    return c.kraus_process(a, b, ops)


def _assert_same_process(proc, oracle, rng):
    assert np.abs(_choi(proc) - _choi(oracle)).max() < 1e-12
    anc = system(proc.backend, 2)
    s = bk.random_state(tensor_systems(proc.input, anc), rng)
    lhs = c.apply(c.lift(proc, anc), s)
    rhs = c.apply(c.lift(oracle, anc), s)
    assert np.abs(lhs.coords - rhs.coords).max() < 1e-12


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("seed", range(12))
def test_compose_matches_product_list(backend, seed):
    rng = np.random.default_rng(seed)
    depth = int(rng.integers(1, 9))
    wires = [system(backend, int(d)) for d in rng.choice([1, 2, 3], size=depth + 1)]
    chans = [_random_channel(rng, a, b, int(rng.integers(1, 5))) for a, b in zip(wires, wires[1:])]
    proc = oracle = chans[0]
    for chan in chans[1:]:
        formed = len(chan.kraus) * len(proc.kraus)
        proc, oracle = c.compose(chan, proc), _product_compose(chan, oracle)
        bound = proc.input.total_dim * proc.output.total_dim
        if formed <= bound:
            assert len(proc.kraus) == formed
        else:
            assert len(proc.kraus) <= bound
            if backend == REAL:
                assert all(not k.imag.any() for k in proc.kraus)
        _assert_same_process(proc, oracle, rng)
    assert proc.deterministic


def test_compose_rebit_y_chain_stays_real(rebit):
    # Y is purely imaginary; the compressed operators come back entrywise real
    half_y = c.kraus_process(rebit, rebit, [I2 / np.sqrt(2.0), PAULI_Y / np.sqrt(2.0)])
    rng = np.random.default_rng(3)
    proc = oracle = half_y
    for step in range(6):
        chan = half_y if step % 2 else _random_channel(rng, rebit, rebit, 2)
        proc, oracle = c.compose(chan, proc), _product_compose(chan, oracle)
        _assert_same_process(proc, oracle, rng)
    assert len(oracle.kraus) == 128 and len(proc.kraus) <= 4
    assert all(not k.imag.any() for k in proc.kraus)


def test_compose_of_zero_processes_keeps_one_zero_operator(qubit):
    zero = c.kraus_process(qubit, qubit, [np.zeros((2, 2))] * 3)
    out = c.compose(zero, zero)
    assert len(out.kraus) == 1
    assert not out.kraus[0].any()
    assert not out.deterministic


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_compose_within_bound_is_the_product_list(backend):
    rng = np.random.default_rng(7)
    a, b = system(backend, 2), system(backend, 3)
    for after, before in [
        (_random_channel(rng, a, a, 2), _random_channel(rng, a, a, 2)),
        (_random_channel(rng, b, a, 2), _random_channel(rng, a, b, 2)),
        (_random_channel(rng, a, b, 1), _random_channel(rng, a, a, 1)),
        (_random_channel(rng, a, b, 3), _random_channel(rng, a, a, 2)),
    ]:
        out = c.compose(after, before)
        expected = _product_compose(after, before)
        assert len(out.kraus) == len(expected.kraus)
        assert all(np.array_equal(k, e) for k, e in zip(out.kraus, expected.kraus))


def test_apply_to_factors_middle():
    three = system(QUANTUM, 2, 2, 2)
    rho = bk.random_state(three, 1)
    flip = c.kraus_process(system(QUANTUM, 2), system(QUANTUM, 2), [np.array([[0, 1], [1, 0]])])
    out = c.apply_to_factors(flip, rho, 1)
    big = np.kron(np.kron(I2, np.array([[0, 1], [1, 0]])), I2)
    assert np.abs(out.matrix - big @ rho.matrix @ big.T).max() < 1e-12


def _kron_apply_to_factors(p, s, start):
    """The former body of ``apply_to_factors``: each operator padded to I (x) K (x) I.

    Coordinates on the classical backend, the output matrix otherwise.
    """
    dims = s.system.dims
    left, right = prod(dims[:start]), prod(dims[start + p.input.n_factors :])
    if p.stoch is not None:
        return np.kron(np.kron(np.eye(left), p.stoch), np.eye(right)) @ s.coords
    out = 0
    for k_op in p.kraus:
        big = np.kron(np.kron(np.eye(left), k_op), np.eye(right))
        out = out + big @ s.matrix @ big.conj().T
    return out


def _action(s):
    return s.coords if s.system.backend == CLASSICAL else s.matrix


def _assert_matches_kron_oracle(p, s, start):
    out = c.apply_to_factors(p, s, start)
    dims = s.system.dims
    k = p.input.n_factors
    assert out.system.dims == dims[:start] + p.output.dims + dims[start + k :]
    assert np.abs(_action(out) - _kron_apply_to_factors(p, s, start)).max() <= 1e-14


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
@pytest.mark.parametrize("dl", [1, 2, 3])
@pytest.mark.parametrize("dr", [1, 2, 3])
def test_apply_to_factors_matches_kron_oracle(backend, dl, dr):
    rng = np.random.default_rng(10 * dl + dr)
    for din, dout in [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)]:
        p = bk.random_process(system(backend, din), system(backend, dout), rng)
        s = bk.random_state(system(backend, dl, din, dr), rng)
        _assert_matches_kron_oracle(p, s, 1)


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_apply_to_factors_matches_kron_oracle_at_every_start(backend):
    rng = np.random.default_rng(5)
    dims = (2, 3, 1, 2)
    s = bk.random_state(system(backend, *dims), rng)
    for k in (1, 2):
        for start in range(len(dims) - k + 1):
            a = system(backend, *dims[start : start + k])
            for dout in (1, 2, 3):
                _assert_matches_kron_oracle(bk.random_process(a, system(backend, dout), rng), s, start)


def test_apply_to_factors_matches_kron_oracle_on_imaginary_rebit_operators(rebit):
    half_y = c.kraus_process(rebit, rebit, [I2 / np.sqrt(2.0), PAULI_Y / np.sqrt(2.0)])
    s = bk.random_state(system(REAL, 3, 2, 2), 4)
    for start in (1, 2):
        _assert_matches_kron_oracle(half_y, s, start)


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_apply_is_the_whole_system_action(backend):
    rng = np.random.default_rng(8)
    a, b = system(backend, 3), system(backend, 2)
    p = bk.random_process(a, b, rng)
    s = bk.random_state(a, rng)
    out = c.apply(p, s)
    if backend == CLASSICAL:
        expected = p.stoch @ s.coords
    else:
        expected = sum(k @ s.matrix @ k.conj().T for k in p.kraus)
    assert out.system == b
    assert np.abs(_action(out) - expected).max() <= 1e-14


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_apply_to_factors_at_zero_is_the_lifted_action(backend):
    rng = np.random.default_rng(9)
    a, b, ref = system(backend, 2), system(backend, 3), system(backend, 2, 3)
    p = bk.random_process(a, b, rng)
    phi = bk.random_state(tensor_systems(a, ref), rng)
    out = c.apply_to_factors(p, phi, 0)
    lifted = c.apply(c.lift(p, ref), phi)
    assert out.system == lifted.system
    assert np.abs(out.coords - lifted.coords).max() <= 1e-14


def test_apply_to_factors_forms_no_kronecker_product(monkeypatch):
    rng = np.random.default_rng(2)
    cases = []
    for backend in (CLASSICAL, QUANTUM, REAL):
        p = bk.random_process(system(backend, 2), system(backend, 3), rng)
        cases.append((p, bk.random_state(system(backend, 3, 2, 2), rng)))

    def no_kron(*args, **kwargs):
        raise AssertionError("np.kron called")

    monkeypatch.setattr(np, "kron", no_kron)
    for p, s in cases:
        c.apply_to_factors(p, s, 1)
        c.apply(p, c.marginal(s, 1))


# ---------------------------------------------------------------------------
# cancellation (exact arithmetic on representations)
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    p=st.floats(min_value=1e-6, max_value=1.0),
    x=st.floats(min_value=-1.0, max_value=1.0),
    delta=st.floats(min_value=1e-9, max_value=1.0),
)
def test_cancellative_scalars_never_collapse_coordinates(p, x, delta):
    # p > 0 and x != y imply p*x != p*y at representation scale
    y = x + delta
    assert p * x != p * y


def test_scaling_by_zero_is_not_cancellative(qubit):
    p = bk.random_process(qubit, qubit, 0)
    zeroed = c.scale_process(0.0, p)
    zeroed2 = c.scale_process(0.0, bk.random_process(qubit, qubit, 1))
    assert np.abs(bk.process_coords(zeroed) - bk.process_coords(zeroed2)).max() < 1e-15


# ---------------------------------------------------------------------------
# tests, coarse-graining, randomization
# ---------------------------------------------------------------------------

def _bell_measurement(qubit):
    two = tensor_systems(qubit, qubit)
    from conftest import PHI_MINUS, PSI_MINUS, PSI_PLUS

    effects = {
        "phi+": proj(PHI_PLUS),
        "phi-": proj(PHI_MINUS),
        "psi+": proj(PSI_PLUS),
        "psi-": proj(PSI_MINUS),
    }
    branches = tuple(
        (name, c.effect_process(c.effect_from_matrix(two, mat))) for name, mat in effects.items()
    )
    return c.Test(branches)


def test_full_coarse_graining_is_deterministic(qubit):
    t = _bell_measurement(qubit)
    merged = c.coarse_grain(t, [list(t.outcomes())])
    assert len(merged.branches) == 1
    assert merged.branches[0][1].deterministic


def test_identity_partition_preserves_test(qubit):
    t = _bell_measurement(qubit)
    same = c.coarse_grain(t, [[lab] for lab in t.outcomes()])
    assert same.outcomes() == t.outcomes()
    for lab in t.outcomes():
        before = sum(k.conj().T @ k for k in t.branch(lab).kraus)
        after = sum(k.conj().T @ k for k in same.branch(lab).kraus)
        assert np.abs(before - after).max() < 1e-12


def test_bell_measurement_pair_merge_sums_to_unit(qubit):
    t = _bell_measurement(qubit)
    merged = c.coarse_grain(t, [["phi+", "phi-"], ["psi+", "psi-"]])
    mats = [sum(k.conj().T @ k for k in proc.kraus) for _, proc in merged.branches]
    assert np.abs(sum(mats) - np.eye(4)).max() < 1e-12
    assert len(merged.branches) == 2


def test_invalid_partition_rejected(qubit):
    t = _bell_measurement(qubit)
    with pytest.raises(ValueError, match="invalid partition"):
        c.coarse_grain(t, [["phi+", "phi+"], ["phi-", "psi+", "psi-"]])
    with pytest.raises(ValueError, match="invalid partition"):
        c.coarse_grain(t, [["phi+"]])


def test_randomize_single_test_is_identity_up_to_labels(qubit):
    t = _bell_measurement(qubit)
    r = c.randomize([t], [1.0])
    for (lab, proc), (_, orig) in zip(r.branches, t.branches):
        assert np.abs(bk.process_coords(proc) - bk.process_coords(orig)).max() < 1e-12


def test_randomize_preparations_averages_to_mixture(rebit):
    s0 = c.state_from_matrix(rebit, np.diag([1.0, 0.0]))
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    sp = c.state_from_matrix(rebit, np.outer(plus, plus))
    r = c.randomize([c.preparation_test([s0]), c.preparation_test([sp])], [0.25, 0.75])
    avg = sum(state.coords for _, state in c.source_states(r))
    # oracle: plain coordinate arithmetic
    assert np.abs(avg - (0.25 * s0.coords + 0.75 * sp.coords)).max() < 1e-12
    assert np.abs(c.mixture([s0, sp], [0.25, 0.75]).coords - avg).max() < 1e-12


@pytest.mark.parametrize("backend", [QUANTUM, CLASSICAL])
@pytest.mark.parametrize("probs", [[1 + 5e-7, -5e-7], [-5e-7, 1 + 5e-7]])
def test_randomize_scales_at_its_own_tol(backend, probs):
    # check_prob_vector accepts both weights at tol = 1e-6, and so must the scaling;
    # a weight within tol below 0 scales to the zero process
    a = system(backend, 2)
    t = c.preparation_test([bk.complete_state(a)])
    r = c.randomize([t, t], probs, tol=1e-6)
    unscaled = bk.process_coords(t.branches[0][1])
    for (_, proc), p in zip(r.branches, probs):
        assert np.abs(bk.process_coords(proc) - max(p, 0.0) * unscaled).max() < 1e-15
    # mixture honours the same tol on the same weights
    assert c.mixture([bk.complete_state(a)] * 2, probs, tol=1e-6).system == a


def test_randomize_length_mismatch(qubit):
    t = _bell_measurement(qubit)
    with pytest.raises(ValueError, match="probabilities"):
        c.randomize([t], [0.5, 0.5])


def test_mixture_and_preparation_test_length_mismatch(qubit):
    s0 = c.state_from_matrix(qubit, np.diag([1.0, 0.0]))
    s1 = c.state_from_matrix(qubit, np.diag([0.0, 1.0]))
    with pytest.raises(ValueError, match="got 2 states but 1 probabilities"):
        c.mixture([s0, s1], [1.0])
    with pytest.raises(ValueError, match="got 2 states but 1 labels"):
        c.preparation_test([s0, s1], ["a"])


@settings(max_examples=20, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_coarse_graining_distributes_over_composition(backend, seed):
    # (sum_x T_x) o C == sum_x (T_x o C) and A (x) (sum_x T_x) == sum_x (A (x) T_x)
    rng = np.random.default_rng(seed)
    a = system(backend, 2)
    t1 = c.scale_process(0.4, bk.random_process(a, a, rng))
    t2 = c.scale_process(0.6, bk.random_process(a, a, rng))
    after = bk.random_process(a, a, rng)
    summed_then = c.compose(after, c.add_processes([t1, t2]))
    then_summed = c.add_processes([c.compose(after, t1), c.compose(after, t2)])
    assert np.abs(bk.process_coords(summed_then) - bk.process_coords(then_summed)).max() < 1e-12
    par_sum = c.tensor_processes(after, c.add_processes([t1, t2]))
    sum_par = c.add_processes([c.tensor_processes(after, t1), c.tensor_processes(after, t2)])
    assert np.abs(bk.process_coords(par_sum) - bk.process_coords(sum_par)).max() < 1e-12


# ---------------------------------------------------------------------------
# marginals and contractions
# ---------------------------------------------------------------------------

def test_marginal_of_product(qubit):
    rho = bk.random_state(qubit, 5)
    omega = bk.random_state(qubit, 6)
    joint = c.tensor_states(rho, omega)
    assert np.abs(c.marginal(joint, 0).coords - rho.coords).max() < 1e-12
    assert np.abs(c.marginal(joint, 1).coords - omega.coords).max() < 1e-12


def test_marginal_of_bell_is_maximally_mixed(rebit):
    # oracle: partial trace of the projector onto (|00> + |11>)/sqrt2
    bell = bk.maximally_entangled_state(rebit)
    mat = bell.matrix
    traced = mat.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    assert np.abs(traced - I2 / 2).max() < 1e-12
    for keep in (0, 1):
        assert np.abs(c.marginal(bell, keep).matrix - I2 / 2).max() < 1e-12


@pytest.mark.parametrize("selector", [np.int64(1), np.intp(1), np.int32(1), np.flatnonzero([0, 1])[0]])
def test_marginal_takes_a_numpy_integer_as_one_selector(rebit, selector):
    joint = c.tensor_states(bk.random_state(rebit, 3), bk.random_state(rebit, 4))
    out = c.marginal(joint, selector)
    assert out.system == rebit
    assert np.array_equal(out.coords, c.marginal(joint, 1).coords)


def test_marginal_selector_out_of_range(qubit):
    joint = bk.random_state(tensor_systems(qubit, qubit), 9)
    with pytest.raises(ValueError, match="out of range"):
        c.marginal(joint, [2])


def test_repeated_factor_selectors_are_rejected(qubit):
    bell = bk.maximally_entangled_state(qubit)
    with pytest.raises(ValueError, match="factor selector 0 repeated"):
        c.marginal(bell, [0, 0])
    with pytest.raises(ValueError, match="factor selector 1 repeated"):
        c.contract(bell, c.deterministic_effect(tensor_systems(qubit, qubit)), [1, 1])


def test_marginal_of_extension_recovers_the_state(qubit):
    rho = bk.random_state(qubit, 11)
    gamma = bk.random_extension(rho, qubit, 12)
    assert np.abs(c.marginal(gamma, 0).coords - rho.coords).max() < 1e-9


def test_contract_classical(bit):
    joint = c.state_from_coords(tensor_systems(bit, bit), [0.1, 0.2, 0.3, 0.4])
    pick0 = c.effect_from_coords(bit, [1.0, 0.0])
    out = c.contract(joint, pick0, [1])
    assert np.allclose(out.coords, [0.1, 0.3])
