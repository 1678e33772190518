"""Backend constructions: spanning sets, purification, process bases, generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo.core import CLASSICAL, QUANTUM, REAL, system, tensor_systems

from conftest import I2, PHI_PLUS, basis_processes, proj

BACKEND_ST = st.sampled_from([CLASSICAL, QUANTUM, REAL])
SEED_ST = st.integers(0, 2**31 - 1)


# ---------------------------------------------------------------------------
# spanning families
# ---------------------------------------------------------------------------

def test_qubit_spanning_states_have_full_gram_rank(qubit):
    states = bk.spanning_states(qubit)
    assert len(states) == 4
    gram = np.stack([s.coords for s in states])
    assert np.linalg.matrix_rank(gram, tol=1e-9) == 4


@pytest.mark.parametrize("ratio,rank", [(0.5e-9, 1), (2e-9, 2)])
def test_matrix_rank_cutoff_is_relative_1e_9(ratio, rank):
    # sigma / sigma_1 below the 1e-9 cutoff is dropped, above it kept
    for top in (1.0, 1e6):
        assert bk.matrix_rank(np.diag([top, ratio * top, 0.0])) == rank


def test_sector_rank_cuts_every_sector_against_one_scale():
    # a sector at round-off level reads as rank 2 against its own top, 0 here
    tiny = 1e-17 * np.eye(2)
    assert bk.matrix_rank(tiny) == 2
    assert bk.sector_rank([(3, np.eye(2)), (1, tiny)]) == 6
    assert bk.sector_rank([(3, np.diag([1.0, 0.5e-9])), (1, 2e-9 * np.eye(2))]) == 5
    # a sector of weight zero neither counts nor sets the scale
    assert bk.sector_rank([(1, np.diag([1.0, 1e-7])), (0, 1e3 * np.eye(2))]) == 2
    assert bk.sector_rank([(2, np.zeros((2, 2)))]) == 0


def test_rebit_spanning_states_have_rank_three(rebit):
    states = bk.spanning_states(rebit)
    assert len(states) == 3
    gram = np.stack([s.coords for s in states])
    assert np.linalg.matrix_rank(gram, tol=1e-9) == 3


def test_classical_spanning_states_are_point_masses(bit):
    states = bk.spanning_states(bit)
    assert np.allclose(np.stack([s.coords for s in states]), np.eye(2))


@settings(max_examples=20, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, d=st.sampled_from([2, 3]))
def test_spanning_families_span_and_are_physical(backend, d):
    sys = system(backend, d)
    states = bk.spanning_states(sys)
    effects = bk.spanning_effects(sys)
    assert bk.matrix_rank(np.stack([s.coords for s in states])) == sys.state_dim
    assert bk.matrix_rank(np.stack([e.coords for e in effects])) == sys.effect_dim
    for e in effects:
        for s in states:
            val = c.pair(e, s)
            assert -1e-12 <= val <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# complete states
# ---------------------------------------------------------------------------

def test_complete_states(qubit, bit, rebit):
    assert np.abs(bk.complete_state(qubit).matrix - I2 / 2).max() < 1e-15
    assert np.allclose(bk.complete_state(system(CLASSICAL, 3)).coords, [1 / 3] * 3)
    two = tensor_systems(rebit, rebit)
    mat = bk.complete_state(two).matrix
    assert np.abs(mat - np.eye(4) / 4).max() < 1e-15
    assert np.linalg.matrix_rank(mat) == 4


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------

def test_purify_maximally_mixed_gives_bell(qubit):
    psi = bk.purify(bk.complete_state(qubit))
    assert np.abs(psi.matrix - proj(PHI_PLUS)).max() < 1e-12


def test_purify_pure_state_is_a_product(qubit):
    v = np.array([0.6, 0.8j])
    rho = c.state_from_matrix(qubit, np.outer(v, v.conj()))
    psi = bk.purify(rho)
    w = psi.matrix
    assert np.linalg.matrix_rank(w, tol=1e-9) == 1
    assert np.abs(c.marginal(psi, 0).matrix - rho.matrix).max() < 1e-12
    # Schmidt rank 1: the purifying side is also pure
    assert np.linalg.matrix_rank(c.marginal(psi, 1).matrix, tol=1e-9) == 1


def test_purify_schmidt_coefficients(qubit):
    rho = c.state_from_matrix(qubit, np.diag([0.75, 0.25]))
    psi = bk.purify(rho)
    # oracle: Schmidt coefficients are the square roots of the eigenvalues
    vals = np.linalg.svd(
        np.asarray(psi.matrix), compute_uv=False
    )  # rank-1 projector: top singular value 1
    vec = np.linalg.eigh(psi.matrix)[1][:, -1]
    schmidt = np.linalg.svd(vec.reshape(2, 2), compute_uv=False)
    assert np.abs(np.sort(schmidt) - np.sort([np.sqrt(0.75), np.sqrt(0.25)])).max() < 1e-12
    assert np.abs(c.marginal(psi, 0).matrix - rho.matrix).max() < 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(backend=st.sampled_from([QUANTUM, REAL]), d=st.sampled_from([2, 3]), seed=SEED_ST)
def test_purify_marginal_and_rank(backend, d, seed):
    sys = system(backend, d)
    rho = bk.random_state(sys, seed)
    psi = bk.purify(rho)
    assert np.abs(c.marginal(psi, 0).coords - rho.coords).max() < 1e-12
    assert np.linalg.matrix_rank(psi.matrix, tol=1e-9) == 1


def test_purify_rejects_classical(bit):
    with pytest.raises(ValueError, match="no purification"):
        bk.purify(bk.complete_state(bit))


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("d", [2, 3])
def test_purify_matches_kron_sum(backend, d):
    """psi = sum_i sqrt(l_i) v_i (x) e_i, accumulated term by term as a reference."""
    for seed in range(5):
        rho = bk.random_state(system(backend, d), seed)
        vals, vecs = np.linalg.eigh(rho.matrix)
        order = np.argsort(-vals, kind="stable")
        vals, vecs = np.clip(vals[order], 0.0, None), bk._canonical_signs(vecs[:, order])
        psi = sum(np.sqrt(vals[i]) * np.kron(vecs[:, i], np.eye(d)[i]) for i in range(d))
        expected = c.state_from_vector(tensor_systems(rho.system, rho.system), psi)
        np.testing.assert_array_equal(bk.purify(rho).coords, expected.coords)


# ---------------------------------------------------------------------------
# process-space bases and operational coordinates
# ---------------------------------------------------------------------------

def test_process_space_dimensions(qubit, rebit, bit):
    assert bk.process_space_basis(qubit, qubit).dim == 16
    assert bk.process_space_basis(bit, system(CLASSICAL, 3)).dim == 6
    assert bk.process_space_basis(rebit, rebit).dim == 10


def test_rebit_process_span_stable_across_seeds(rebit):
    basis = bk.process_space_basis(rebit, rebit)
    for s in range(5):
        extra = bk.process_coords(bk.random_process(rebit, rebit, s))
        assert bk.matrix_rank(np.vstack([basis.elements, extra])) == basis.dim == 10


def _polarization_processes(a, b):
    """The process family built one validated process at a time, as the basis once was."""
    if a.backend == CLASSICAL:
        procs = []
        for i in range(b.total_dim):
            for j in range(a.total_dim):
                m = np.zeros((b.total_dim, a.total_dim))
                m[i, j] = 1.0
                procs.append(c.stochastic_process(a, b, m))
        return procs
    flat = []
    for i in range(b.total_dim):
        for j in range(a.total_dim):
            m = np.zeros((b.total_dim, a.total_dim), dtype=complex)
            m[i, j] = 1.0
            flat.append(m)
    kops = list(flat)
    for x in range(len(flat)):
        for y in range(x + 1, len(flat)):
            kops.append((flat[x] + flat[y]) / np.sqrt(2.0))
    if a.backend == QUANTUM:
        for x in range(len(flat)):
            for y in range(x + 1, len(flat)):
                kops.append((flat[x] + 1j * flat[y]) / np.sqrt(2.0))
    return [c.kraus_process(a, b, [k]) for k in kops]


@pytest.mark.parametrize("backend", [QUANTUM, REAL, CLASSICAL])
@pytest.mark.parametrize("din", [1, 2, 3])
@pytest.mark.parametrize("dout", [1, 2, 3])
def test_process_basis_is_lower_triangular_with_svd_oracle(backend, din, dout):
    """The structural full-rank check against the SVD rank it replaces (N <= 81)."""
    basis = bk.process_space_basis(system(backend, din), system(backend, dout))
    elements = basis.elements
    assert elements.shape == (basis.dim, basis.dim)
    assert not np.triu(elements, 1).any()
    diag = elements.diagonal()
    assert np.all((np.abs(diag - 1.0) <= 1e-15) | (np.abs(diag - 1 / np.sqrt(2.0)) <= 1e-15))
    assert bk.matrix_rank(elements) == basis.dim == len(basis_processes(basis))


@pytest.mark.parametrize("backend", [QUANTUM, REAL, CLASSICAL])
@pytest.mark.parametrize("din", [1, 2, 3])
@pytest.mark.parametrize("dout", [1, 2, 3])
def test_process_basis_arrays_match_validated_processes(backend, din, dout):
    """Closed-form operators and elements against one process_coords per built process."""
    a, b = system(backend, din), system(backend, dout)
    basis = bk.process_space_basis(a, b)
    procs = _polarization_processes(a, b)
    expected = np.stack([bk.process_coords(p) for p in procs])
    assert basis.elements.dtype == expected.dtype
    assert basis.elements.tobytes() == expected.tobytes()
    ops = [p.stoch if p.stoch is not None else p.kraus[0] for p in procs]
    np.testing.assert_array_equal(basis.operators, np.stack(ops))
    assert basis.operators.shape == (basis.dim, dout, din)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_random_processes_lie_in_the_span(backend, seed):
    a = system(backend, 2)
    basis = bk.process_space_basis(a, a)
    extra = bk.process_coords(bk.random_process(a, a, seed))
    stacked = np.vstack([basis.elements, extra])
    assert bk.matrix_rank(stacked) == basis.dim


@settings(max_examples=10, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_lift_coordinates_are_linear_in_process_coordinates(backend, seed):
    # solve P = sum_i alpha_i T_i in coordinates, then check the same
    # combination reproduces the lifted coordinates
    a = system(backend, 2)
    anc = system(backend, 2)
    basis = bk.process_space_basis(a, a)
    p = bk.random_process(a, a, seed)
    alpha, *_ = np.linalg.lstsq(basis.elements.T, bk.process_coords(p), rcond=None)
    lifted = bk.process_coords(c.lift(p, anc))
    lifted_combo = sum(
        al * bk.process_coords(c.lift(t, anc)) for al, t in zip(alpha, basis_processes(basis))
    )
    assert np.abs(lifted - lifted_combo).max() < 1e-9


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("din,dout", [(2, 2), (2, 3), (3, 2)])
def test_choi_matrix_matches_lifted_action(backend, din, dout):
    """The Choi matrix against sum_k v_k v_k^dag with v_k = (K_k (x) I) sum_i |i>|i>."""
    omega = np.eye(din).reshape(-1)
    for seed in range(5):
        p = bk.random_process(system(backend, din), system(backend, dout), seed)
        vecs = [np.kron(k, np.eye(din)) @ omega for k in p.kraus]
        expected = sum(np.outer(v, v.conj()) for v in vecs)
        np.testing.assert_allclose(c.choi(p.kraus), expected, rtol=0, atol=1e-14)


def test_process_coords_separate_the_rebit_pair(rebit):
    from gpt_tomo.rebit import rebit_processes

    p, p2 = rebit_processes()
    assert np.abs(bk.process_coords(p) - bk.process_coords(p2)).max() > 0.4


# ---------------------------------------------------------------------------
# seeded generators
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_generators_are_deterministic_given_seed(backend, seed):
    sys = system(backend, 2)
    s1, s2 = bk.random_state(sys, seed), bk.random_state(sys, seed)
    assert np.array_equal(s1.coords, s2.coords)
    p1, p2 = bk.random_process(sys, sys, seed), bk.random_process(sys, sys, seed)
    assert np.abs(bk.process_coords(p1) - bk.process_coords(p2)).max() == 0.0


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_generated_objects_are_physical(backend):
    sys = system(backend, 2)
    rng = np.random.default_rng(0)
    for _ in range(1000):
        s = bk.random_state(sys, rng)  # constructor enforces the cone
        assert s.kind == "deterministic"
    for _ in range(50):
        p = bk.random_process(sys, sys, rng)
        assert p.deterministic


def test_random_qubit_states_average_to_maxmix(qubit):
    rng = np.random.default_rng(123)
    total = np.zeros(qubit.state_dim)
    n = 10_000
    for _ in range(n):
        total += bk.random_state(qubit, rng).coords
    mean = total / n
    assert np.linalg.norm(mean - bk.complete_state(qubit).coords) < 0.1


def test_random_extensions_extend(qubit, bit):
    rho = bk.random_state(qubit, 21)
    gamma = bk.random_extension(rho, qubit, 22)
    assert np.abs(c.marginal(gamma, 0).coords - rho.coords).max() < 1e-9
    rho_c = bk.random_state(bit, 23)
    gamma_c = bk.random_extension(rho_c, bit, 24)
    assert np.abs(c.marginal(gamma_c, 0).coords - rho_c.coords).max() < 1e-12


def test_random_ensemble_extensions_extend(rebit):
    rho = bk.complete_state(rebit)
    for seed in range(5):
        gamma = bk.random_ensemble_extension(rho, rebit, seed)
        assert np.abs(c.marginal(gamma, 0).coords - rho.coords).max() < 1e-9


# ---------------------------------------------------------------------------
# the dimension law
# ---------------------------------------------------------------------------

def test_dimension_law_multiplicative_for_tomographic_backends():
    for backend in (CLASSICAL, QUANTUM):
        for d1 in (2, 3):
            for d2 in (2, 3):
                a, b = system(backend, d1), system(backend, d2)
                assert tensor_systems(a, b).state_dim == a.state_dim * b.state_dim


def test_dimension_law_fails_for_two_rebits(rebit):
    comp = tensor_systems(rebit, rebit)
    assert comp.state_dim == 10
    assert rebit.state_dim * rebit.state_dim == 9
    assert comp.state_dim > rebit.state_dim**2
