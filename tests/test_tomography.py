"""Equality hierarchy, containment, tomographic ordering, faithfulness checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import rebit as rebit_module
from gpt_tomo import tomography as tm
from gpt_tomo.core import CLASSICAL, QUANTUM, REAL, system
from gpt_tomo.rebit import counterexample_report, rebit_processes

from conftest import PHI_PLUS, basis_processes, count_calls, proj

SEED_ST = st.integers(0, 2**31 - 1)
BACKEND_ST = st.sampled_from([CLASSICAL, QUANTUM, REAL])


def spanning_source(sys):
    states = bk.spanning_states(sys)
    return c.randomize(
        [c.preparation_test([s]) for s in states], [1.0 / len(states)] * len(states)
    )


def remixed(p, rng):
    """An operationally equal rewrite of p via Kraus gauge freedom."""
    if p.stoch is not None:
        return c.stochastic_process(p.input, p.output, p.stoch.copy())
    n = len(p.kraus)
    g = rng.normal(size=(n, n))
    if p.backend == QUANTUM:
        g = g + 1j * rng.normal(size=(n, n))
    q, _ = np.linalg.qr(g)
    new_ops = [sum(q[m, j] * p.kraus[j] for j in range(n)) for m in range(n)]
    return c.kraus_process(p.input, p.output, new_ops)


# ---------------------------------------------------------------------------
# equality on a source
# ---------------------------------------------------------------------------

def test_equal_on_source_reflexive(qubit):
    p = bk.random_process(qubit, qubit, 0)
    assert tm.equal_on_source(p, p, spanning_source(qubit))


def test_rebit_pair_equal_on_single_system_source(rebit):
    p, p2 = rebit_processes()
    assert tm.equal_on_source(p, p2, spanning_source(rebit))


def test_lifted_rebit_pair_differs_on_entangled_source(rebit):
    p, p2 = rebit_processes()
    bell = bk.maximally_entangled_state(rebit)
    source = c.preparation_test([bell])
    assert not tm.equal_on_source(c.lift(p, rebit), c.lift(p2, rebit), source)


# ---------------------------------------------------------------------------
# containment and completeness
# ---------------------------------------------------------------------------

def _max_feasible_p_grid(rho_mat, sigma_mat):
    # independent oracle: dense grid search on PSD-ness of rho - p sigma
    best = 0.0
    for p in np.linspace(0.0, 1.0, 20001):
        if np.linalg.eigvalsh(rho_mat - p * sigma_mat).min() >= -1e-12:
            best = p
    return best


def test_contains_self(qubit):
    rho = bk.random_state(qubit, 1)
    p, tau = tm.contains(rho, rho)
    assert p == pytest.approx(1.0, abs=1e-8)
    assert tau.kind == "deterministic"


def test_contains_maxmix_spanning_example(qubit):
    mm = bk.complete_state(qubit)
    zero = c.state_from_matrix(qubit, np.diag([1.0, 0.0]))
    oracle = _max_feasible_p_grid(mm.matrix, zero.matrix)
    assert oracle == pytest.approx(0.5, abs=1e-4)
    p, tau = tm.contains(mm, zero)
    assert p == pytest.approx(0.5, abs=1e-6)
    assert np.abs(tau.matrix - np.diag([0.0, 1.0])).max() < 1e-6


def test_contains_infeasible_on_support_violation(qubit):
    zero = c.state_from_matrix(qubit, np.diag([1.0, 0.0]))
    plus = c.state_from_matrix(qubit, np.full((2, 2), 0.5))
    assert tm.contains(zero, plus) is None


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("factor,feasible", [(0.9, True), (1.1, False)])
def test_contains_support_test_is_at_sqrt_tol(backend, factor, feasible):
    # rho's eigenvalue 0.5 tol puts |1> in its kernel; sigma's weight there is
    # just below or just above sqrt(tol), so only the support test decides
    a = system(backend, 2)
    tol = c.DEFAULT_TOL
    weight = factor * np.sqrt(tol)
    rho = c.state_from_matrix(a, np.diag([1.0 - 0.5 * tol, 0.5 * tol]))
    sigma = c.state_from_matrix(a, np.diag([1.0 - weight, weight]))
    found = tm.contains(rho, sigma, tol=tol)
    if feasible:
        p, tau = found
        assert tol < p < 1e-4
        assert tau.kind == "deterministic"
    else:
        assert found is None


def test_contains_classical(bit):
    rho = c.state_from_coords(bit, [0.7, 0.3])
    point = c.state_from_coords(bit, [1.0, 0.0])
    p, tau = tm.contains(rho, point)
    assert p == pytest.approx(0.7, abs=1e-12)
    assert np.allclose(tau.coords, [0.0, 1.0])
    assert tm.contains(point, rho) is None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_containment_is_transitive(backend, seed):
    rng = np.random.default_rng(seed)
    sys = system(backend, 2)
    tau = bk.random_state(sys, rng)
    fill1, fill2 = bk.random_state(sys, rng), bk.random_state(sys, rng)
    sigma = c.mixture([tau, fill1], [0.4, 0.6])
    rho = c.mixture([sigma, fill2], [0.5, 0.5])
    assert tm.contains(rho, sigma) is not None
    assert tm.contains(sigma, tau) is not None
    assert tm.contains(rho, tau) is not None


def _contains_p_bisection(rho, sigma, tol=1e-9):
    """The former ``contains`` search: bisection on PSD-ness of rho - p sigma.

    Classical states run through it as diagonal matrices.  Returns None when
    sigma leaves the support of rho or p is negligible.
    """
    if rho.system.backend == CLASSICAL:
        r_mat, s_mat = np.diag(rho.coords), np.diag(sigma.coords)
    else:
        r_mat, s_mat = rho.matrix, sigma.matrix
    vals, vecs = np.linalg.eigh(r_mat)
    kernel = vecs[:, vals <= tol]
    if kernel.size and np.abs(kernel.conj().T @ s_mat @ kernel).max() > np.sqrt(tol):
        return None
    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if float(np.linalg.eigvalsh(r_mat - mid * s_mat).min()) >= -1e-14:
            lo = mid
        else:
            hi = mid
    if lo <= tol:
        return None
    return 1.0 if lo >= 1.0 - tol else lo


def _leaking_pair(sys, leak):
    """rho = |0><0| and a pure sigma putting weight ``leak`` on the kernel of rho.

    With ``leak`` under sqrt(tol) sigma passes the support test, so only the
    PSD condition on the whole space can reject it.
    """
    r, s = np.zeros(sys.total_dim), np.zeros(sys.total_dim)
    r[0] = 1.0
    if sys.backend == CLASSICAL:
        s[:2] = 1.0 - leak, leak
        return c.state_from_coords(sys, r), c.state_from_coords(sys, s)
    s[:2] = np.sqrt(1.0 - leak), np.sqrt(leak)
    return c.state_from_matrix(sys, np.diag(r)), c.state_from_matrix(sys, np.outer(s, s))


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
@pytest.mark.parametrize("d", [2, 3])
def test_contains_closed_form_matches_bisection(backend, d):
    sys = system(backend, d)
    for rho, sigma in (_leaking_pair(sys, 1e-5), _leaking_pair(sys, 1e-4)):
        assert _contains_p_bisection(rho, sigma) is None
        assert tm.contains(rho, sigma) is None
    for seed in range(5):
        rng = np.random.default_rng(seed)
        full, other = bk.random_state(sys, rng), bk.random_state(sys, rng)
        deficient = bk.random_rank_deficient_state(sys, rng)
        face = tm.face_spanning_states(deficient)
        inside = c.mixture(face, rng.dirichlet(np.ones(len(face))))
        pairs = [(full, other), (other, full), (full, deficient), (deficient, inside),
                 (deficient, full), (full, full)]
        for rho, sigma in pairs:
            expected = _contains_p_bisection(rho, sigma)
            got = tm.contains(rho, sigma)
            if expected is None:
                assert got is None
                continue
            p, tau = got
            assert p == pytest.approx(expected, abs=1e-9)
            assert np.abs(p * sigma.coords + (1 - p) * tau.coords - rho.coords).max() < 1e-9


def test_is_complete(qubit, bit):
    assert tm.is_complete(bk.complete_state(qubit))
    assert not tm.is_complete(c.state_from_matrix(qubit, np.diag([1.0, 0.0])))
    assert tm.is_complete(bk.complete_state(bit))
    assert not tm.is_complete(c.state_from_coords(bit, [1.0, 0.0]))


def test_complete_iff_contains_every_spanning_state(qubit):
    mm = bk.complete_state(qubit)
    assert all(tm.contains(mm, s) is not None for s in bk.spanning_states(qubit))
    zero = c.state_from_matrix(qubit, np.diag([1.0, 0.0]))
    assert any(tm.contains(zero, s) is None for s in bk.spanning_states(qubit))


# ---------------------------------------------------------------------------
# equality upon input
# ---------------------------------------------------------------------------

def test_rebit_pair_equal_upon_input_of_complete_state(rebit):
    p, p2 = rebit_processes()
    assert tm.equal_upon_input(p, p2, bk.complete_state(rebit))


def _measure_and_prepare(qubit, sigma_mat, tau_mat):
    """rho -> <0|rho|0> sigma + <1|rho|1> tau as a Kraus channel."""
    ops = []
    vals, vecs = np.linalg.eigh(sigma_mat)
    ops += [np.sqrt(v) * np.outer(vecs[:, i], [1, 0]) for i, v in enumerate(vals) if v > 1e-12]
    vals, vecs = np.linalg.eigh(tau_mat)
    ops += [np.sqrt(v) * np.outer(vecs[:, i], [0, 1]) for i, v in enumerate(vals) if v > 1e-12]
    return c.kraus_process(qubit, qubit, ops)


def test_channels_agreeing_on_one_point_face(qubit):
    sigma = np.full((2, 2), 0.5)
    p = _measure_and_prepare(qubit, sigma, np.diag([1.0, 0.0]))
    p2 = _measure_and_prepare(qubit, sigma, np.diag([0.0, 1.0]))
    zero = c.state_from_matrix(qubit, np.diag([1.0, 0.0]))
    assert tm.equal_upon_input(p, p2, zero)
    assert not tm.equal_upon_input(p, p2, bk.complete_state(qubit))


def test_random_distinct_channels_differ_at_complete_state(qubit):
    p = bk.random_process(qubit, qubit, 100)
    p2 = bk.random_process(qubit, qubit, 200)
    assert not tm.equal_upon_input(p, p2, bk.complete_state(qubit))


# ---------------------------------------------------------------------------
# equality on extensions
# ---------------------------------------------------------------------------

def test_rebit_pair_not_equal_on_extensions_of_complete_state(rebit):
    p, p2 = rebit_processes()
    assert not tm.equal_on_extensions(p, p2, bk.complete_state(rebit))


def test_equal_on_extensions_reflexive(qubit):
    p = bk.random_process(qubit, qubit, 7)
    assert tm.equal_on_extensions(p, p, bk.complete_state(qubit))


def test_channels_equal_outside_support_pass_on_face_extensions(qubit):
    sigma = np.full((2, 2), 0.5)
    p = _measure_and_prepare(qubit, sigma, np.diag([1.0, 0.0]))
    p2 = _measure_and_prepare(qubit, sigma, np.diag([0.0, 1.0]))
    zero = c.state_from_matrix(qubit, np.diag([1.0, 0.0]))
    assert tm.equal_on_extensions(p, p2, zero)


def test_equal_on_extensions_falsified_by_sampled_extensions(rebit):
    # the decision procedure must agree with brute-force sampled extensions
    p, p2 = rebit_processes()
    omega = bk.complete_state(rebit)
    found_difference = False
    for seed in range(10):
        gamma = bk.random_extension(omega, rebit, seed)
        lhs = c.apply(c.lift(p, rebit), gamma)
        rhs = c.apply(c.lift(p2, rebit), gamma)
        if np.abs(lhs.coords - rhs.coords).max() > 1e-9:
            found_difference = True
    assert found_difference == (not tm.equal_on_extensions(p, p2, omega))


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=SEED_ST)
def test_equal_on_extensions_matches_equal_upon_input_in_complex_backend(seed):
    # with Causality and the dimension law, the two middle levels coincide
    qubit = system(QUANTUM, 2)
    rng = np.random.default_rng(seed)
    rho = bk.random_state(qubit, rng)
    p = bk.random_process(qubit, qubit, rng)
    p2 = remixed(p, rng) if seed % 2 == 0 else bk.random_process(qubit, qubit, rng)
    assert tm.equal_upon_input(p, p2, rho) == tm.equal_on_extensions(p, p2, rho)


def test_classical_extensions_use_display_register(bit):
    p = bk.random_process(bit, bit, 31)
    p2 = bk.random_process(bit, bit, 32)
    rho = bk.complete_state(bit)
    assert tm.equal_on_extensions(p, p, rho)
    assert not tm.equal_on_extensions(p, p2, rho)


# ---------------------------------------------------------------------------
# tomographic ordering
# ---------------------------------------------------------------------------

def test_ordering_reflexive(qubit):
    phi = tm.find_faithful_state(qubit)
    assert tm.tomographically_geq(phi, phi, qubit, qubit)


def test_bell_dominates_products(qubit):
    phi = tm.find_faithful_state(qubit)
    omega = bk.random_state(qubit, 3)
    prod = c.tensor_states(bk.complete_state(qubit), omega)
    assert tm.tomographically_geq(phi, prod, qubit, qubit)


def test_rank_deficient_product_does_not_dominate_bell(qubit):
    phi = tm.find_faithful_state(qubit)
    zero = c.state_from_matrix(qubit, np.diag([1.0, 0.0]))
    prod = c.tensor_states(zero, bk.complete_state(qubit))
    assert not tm.tomographically_geq(prod, phi, qubit, qubit)
    assert tm.tomographically_geq(phi, prod, qubit, qubit)


# ---------------------------------------------------------------------------
# dynamical faithfulness
# ---------------------------------------------------------------------------

def test_qubit_bell_is_faithful_with_rank_16(qubit):
    phi = tm.find_faithful_state(qubit)
    basis = bk.process_space_basis(qubit, qubit)
    assert bk.matrix_rank(tm.lifting_matrix(phi, qubit, basis)) == 16
    assert tm.is_dynamically_faithful(phi, qubit, qubit)


@pytest.mark.parametrize("backend", [QUANTUM, REAL, CLASSICAL])
@pytest.mark.parametrize("din,dout", [(2, 2), (3, 3), (2, 3), (3, 2)])
def test_lifting_on_canonical_faithful_state_is_choi_matrix(backend, din, dout):
    """Choi-Jamiolkowski: on the canonical faithful state M = elements^T / d_in."""
    a = system(backend, din)
    basis = bk.process_space_basis(a, system(backend, dout))
    m = tm.lifting_matrix(tm.find_faithful_state(a), a, basis)
    assert np.abs(m - basis.elements.T / din).max() <= 1e-15


def _lifting_oracle_states(a):
    """Faithful, random mixed, product and (quantum family) pure states, qubit reference."""
    ref = system(a.backend, 2)
    states = [
        tm.find_faithful_state(a),
        bk.random_state(c.tensor_systems(a, ref), 7),
        c.tensor_states(bk.random_state(a, 3), bk.random_state(ref, 4)),
    ]
    if a.backend != CLASSICAL:
        states.append(bk.random_pure_state(c.tensor_systems(a, ref), 5))
    return states


@pytest.mark.parametrize("backend", [QUANTUM, REAL, CLASSICAL])
@pytest.mark.parametrize("din,dout", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_lifting_matrix_matches_apply_to_factors_loop(backend, din, dout):
    """Each column against applying its validated basis process with apply_to_factors."""
    a = system(backend, din)
    basis = bk.process_space_basis(a, system(backend, dout))
    procs = basis_processes(basis)
    for phi in _lifting_oracle_states(a):
        expected = np.stack([c.apply_to_factors(p, phi, 0).coords for p in procs], axis=1)
        m = tm.lifting_matrix(phi, a, basis)
        assert m.shape == expected.shape
        assert np.abs(m - expected).max() <= 1e-14
        assert bk.matrix_rank(m) == bk.matrix_rank(expected)


def test_lifting_matrix_rejects_a_basis_of_another_input(qubit, qutrit, rebit):
    phi = tm.find_faithful_state(qubit)
    for a in (qutrit, rebit):
        with pytest.raises(ValueError, match="process basis starts at"):
            tm.lifting_matrix(phi, qubit, bk.process_space_basis(a, a))
    with pytest.raises(ValueError, match="does not start with input"):
        tm.lifting_matrix(phi, rebit, bk.process_space_basis(rebit, rebit))


@pytest.mark.parametrize("backend", [QUANTUM, REAL, CLASSICAL])
def test_lifting_matrix_builds_no_process(monkeypatch, backend):
    a = system(backend, 2)
    basis = bk.process_space_basis(a, system(backend, 3))
    phi = bk.random_state(c.tensor_systems(a, system(backend, 2)), 1)
    calls = count_calls(monkeypatch, ("apply_to_factors", "kraus_process", "stochastic_process"))
    m = tm.lifting_matrix(phi, a, basis)
    assert m.shape == (c.tensor_systems(system(backend, 3), a).state_dim, basis.dim)
    assert calls == []


def _counting_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


def test_faithful_check_runs_one_svd(monkeypatch):
    calls = _counting_svd(monkeypatch)
    report = tm.faithful_state_check(QUANTUM, 3, 3)
    assert report.passed and report.details["lifting_rank"] == 81
    assert calls == [(9, 9)]


def test_real_faithful_check_runs_one_svd_per_sector(monkeypatch):
    calls = _counting_svd(monkeypatch)
    report = tm.faithful_state_check(REAL, 3, 3)
    assert report.passed and report.details["lifting_rank"] == 45
    assert calls == [(9, 9), (9, 9)]


def test_rank_decisions_build_no_lifting_matrix(monkeypatch, qubit):
    calls = []
    for mod, name in ((tm, "lifting_matrix"), (bk, "process_space_basis")):
        original = getattr(mod, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(mod, name, counting)
    for backend in (QUANTUM, REAL, CLASSICAL):
        assert tm.faithful_state_check(backend, 3, 2).passed
    phi = tm.find_faithful_state(qubit)
    prod = c.tensor_states(bk.complete_state(qubit), bk.complete_state(qubit))
    assert tm.is_dynamically_faithful(phi, qubit, qubit)
    assert tm.tomographically_geq(phi, prod, qubit, qubit)
    assert not tm.is_dynamically_faithful(prod, qubit, qubit)
    assert counterexample_report().faithful_rank == 10
    assert calls == []


# ---------------------------------------------------------------------------
# the sector route against the lifting matrix (differential oracle, N <= 81)
# ---------------------------------------------------------------------------

def _oracle_rank(phi, a, b):
    return bk.matrix_rank(tm.lifting_matrix(phi, a, bk.process_space_basis(a, b)))


def _grid_states(a, dref, rng):
    """Mixed, product, separable, rank-1 and rank-2 states on a (x) ref; canonical when dref = d_in."""
    ref = system(a.backend, dref)
    comp = c.tensor_systems(a, ref)
    prods = [c.tensor_states(bk.random_state(a, rng), bk.random_state(ref, rng)) for _ in range(3)]
    states = [bk.random_state(comp, rng), prods[0], c.mixture(prods, [0.5, 0.3, 0.2])]
    if a.backend == CLASSICAL:
        points = rng.choice(comp.total_dim, size=min(2, comp.total_dim), replace=False)
        for r in (1, len(points)):
            coords = np.zeros(comp.total_dim)
            coords[points[:r]] = rng.random(r) + 0.1
            states.append(c.state_from_coords(comp, coords / coords.sum()))
    else:
        pures = [bk.random_pure_state(comp, rng) for _ in range(2)]
        states += [pures[0], c.mixture(pures, [0.6, 0.4])]
    if dref == a.total_dim:
        states.append(tm.find_faithful_state(a))
    return states


@pytest.mark.parametrize("backend", [QUANTUM, REAL, CLASSICAL])
@pytest.mark.parametrize("din,dout", [(i, o) for i in (1, 2, 3) for o in (1, 2, 3)])
def test_sector_route_matches_lifting_matrix(backend, din, dout):
    a, b = system(backend, din), system(backend, dout)
    basis = bk.process_space_basis(a, b)
    rng = np.random.default_rng(10 * din + dout)
    states, mats = [], []
    for dref in sorted({1, 2, din, din + 1}):
        for phi in _grid_states(a, dref, rng):
            m = tm.lifting_matrix(phi, a, basis)
            rank = bk.matrix_rank(m)
            assert tm.lifting_rank(phi, a, b) == rank
            assert tm.is_dynamically_faithful(phi, a, b) == (rank == basis.dim)
            states.append(phi)
            mats.append((m, rank))
    # every ordered pair, reference dimensions equal or not
    for phi, (m_phi, r_phi) in zip(states, mats):
        for psi, (m_psi, _) in zip(states, mats):
            expected = bk.matrix_rank(np.vstack([m_phi, m_psi])) == r_phi
            assert tm.tomographically_geq(phi, psi, a, b) == expected
    report = tm.faithful_state_check(backend, din, dout)
    assert report.details["process_span_dim"] == basis.dim
    assert report.details["lifting_rank"] == _oracle_rank(tm.find_faithful_state(a), a, b)


def _schmidt_state(a, r, rng):
    """A pure state on a (x) a of Schmidt rank r (quantum backend)."""
    n = a.total_dim
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    weights = rng.random(r) + 0.1
    vec = sum(w * np.kron(u[:, k], v[:, k]) for k, w in enumerate(weights / np.linalg.norm(weights)))
    return c.state_from_vector(c.tensor_systems(a, a), vec)


@pytest.mark.parametrize("d,r,rank", [(2, 1, 4), (2, 2, 16), (3, 1, 9), (3, 2, 36), (3, 3, 81)])
def test_pure_state_lifting_rank_is_dout_squared_times_schmidt_rank_squared(d, r, rank):
    a = system(QUANTUM, d)
    phi = _schmidt_state(a, r, np.random.default_rng(r))
    assert tm.lifting_rank(phi, a, a) == _oracle_rank(phi, a, a) == rank


@pytest.mark.parametrize("d,rank,span", [(2, 9, 10), (3, 36, 45)])
def test_real_separable_state_misses_the_antisymmetric_sector(d, rank, span):
    """Product terms have S_phi P_anti = 0: the rank falls short by anti(d_out) * anti(d_in)."""
    a = system(REAL, d)
    rng = np.random.default_rng(d)
    terms = [c.tensor_states(bk.random_state(a, rng), bk.random_state(a, rng)) for _ in range(40)]
    phi = c.mixture(terms, [1.0 / 40] * 40)
    assert tm.lifting_rank(phi, a, a) == _oracle_rank(phi, a, a) == rank
    assert span - rank == (d * (d - 1) // 2) ** 2
    assert not tm.is_dynamically_faithful(phi, a, a)


def test_faithful_state_check_fails_on_a_schmidt_rank_two_state(monkeypatch):
    a = system(QUANTUM, 3)
    monkeypatch.setattr(tm, "find_faithful_state", lambda a: _schmidt_state(a, 2, np.random.default_rng(2)))
    report = tm.faithful_state_check(QUANTUM, 3, 3)
    assert report.passed is False
    assert report.details["lifting_rank"] == 36
    assert report.details["process_span_dim"] == 81


def test_faithfulness_errors_are_unchanged(qubit, qutrit, rebit):
    phi = tm.find_faithful_state(qubit)
    phi3 = tm.find_faithful_state(qutrit)
    phi_r = tm.find_faithful_state(rebit)
    wrong_input = [
        lambda: tm.is_dynamically_faithful(phi, qutrit, qutrit),
        lambda: tm.tomographically_geq(phi, phi3, qutrit, qutrit),
        lambda: tm.tomographically_geq(phi3, phi, qutrit, qutrit),
        lambda: tm.is_dynamically_faithful(phi_r, qubit, qubit),
        lambda: tm.tomographically_geq(phi, phi_r, qubit, qubit),
        lambda: tm.tomographically_geq(phi_r, phi, qubit, qubit),
    ]
    for call in wrong_input:
        with pytest.raises(ValueError, match=r"does not start with input"):
            call()
    for call in (
        lambda: tm.is_dynamically_faithful(phi, qubit, rebit),
        lambda: tm.tomographically_geq(phi, phi, qubit, rebit),
    ):
        with pytest.raises(ValueError, match="process space needs matching backends"):
            call()


def test_rebit_bell_is_faithful(rebit):
    assert tm.is_dynamically_faithful(tm.find_faithful_state(rebit), rebit, rebit)


def test_product_states_are_not_faithful(qubit, rebit, bit):
    for sys in (qubit, rebit):
        prod = c.tensor_states(bk.complete_state(sys), bk.complete_state(sys))
        assert not tm.is_dynamically_faithful(prod, sys, sys)
    prod_c = c.tensor_states(bk.complete_state(bit), bk.complete_state(bit))
    assert not tm.is_dynamically_faithful(prod_c, bit, bit)


def test_find_faithful_state_values(qubit, bit, rebit):
    assert np.abs(tm.find_faithful_state(qubit).matrix - proj(PHI_PLUS)).max() < 1e-12
    copy = tm.find_faithful_state(bit)
    assert np.allclose(copy.coords, [0.5, 0.0, 0.0, 0.5])
    basis = bk.process_space_basis(bit, bit)
    assert bk.matrix_rank(tm.lifting_matrix(copy, bit, basis)) == 4
    basis_r = bk.process_space_basis(rebit, rebit)
    rank = bk.matrix_rank(tm.lifting_matrix(tm.find_faithful_state(rebit), rebit, basis_r))
    assert rank == basis_r.dim == 10


@pytest.mark.parametrize("backend", [QUANTUM, REAL, CLASSICAL])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_find_faithful_state_is_the_maximally_entangled_state(monkeypatch, backend, d):
    a = system(backend, d)
    expected = bk.maximally_entangled_state(a)

    def no_purify(*args, **kwargs):
        raise AssertionError("purify called")

    monkeypatch.setattr(bk, "purify", no_purify)
    phi = tm.find_faithful_state(a)
    assert phi.system == expected.system
    assert np.array_equal(phi.coords, expected.coords)


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("d", range(1, 9))
def test_find_faithful_state_is_the_purified_complete_state(backend, d):
    # the state find_faithful_state returned before, built with one eigh
    a = system(backend, d)
    old = bk.purify(bk.complete_state(a))
    phi = tm.find_faithful_state(a)
    assert phi.system == old.system
    assert np.abs(phi.coords - old.coords).max() <= 2.3e-16
    assert tm.lifting_rank(phi, a, a) == tm.lifting_rank(old, a, a) == c.tensor_systems(a, a).state_dim


def test_faithful_check_fails_on_a_separable_state(monkeypatch, rebit):
    """Negative control: a separable two-rebit state falls one short of the process span."""
    rng = np.random.default_rng(0)
    terms = [
        c.tensor_states(bk.random_pure_state(rebit, rng), bk.random_pure_state(rebit, rng)) for _ in range(16)
    ]
    weights = rng.random(16)
    separable = c.mixture(terms, weights / weights.sum())
    monkeypatch.setattr(tm, "find_faithful_state", lambda a: separable)
    rep = tm.faithful_state_check(REAL, 2, 2)
    assert rep.details["process_span_dim"] == 10 and rep.details["lifting_rank"] == 9
    assert not rep.passed


def test_faithful_state_extends_a_complete_state(qubit, rebit, bit):
    for sys in (qubit, rebit, bit):
        phi = tm.find_faithful_state(sys)
        marg = c.marginal(phi, 0)
        assert tm.is_complete(marg)


# ---------------------------------------------------------------------------
# local tomography
# ---------------------------------------------------------------------------

def test_local_tomography_table(qubit, qutrit, rebit, bit):
    assert tm.is_locally_tomographic(qubit, qubit).passed
    assert tm.is_locally_tomographic(qubit, qutrit).passed
    assert tm.is_locally_tomographic(bit, system(CLASSICAL, 3)).passed
    rep = tm.is_locally_tomographic(rebit, rebit)
    assert not rep.passed
    assert rep.details["dim_composite"] == 10
    assert rep.details["dim_product"] == 9


@pytest.mark.parametrize("backend", [QUANTUM, REAL, CLASSICAL])
def test_local_tomography_rank_matches_dense_product_effects(backend):
    """The product of local ranks against the SVD of every product effect (d_A d_B <= 9)."""
    for d1 in range(1, 10):
        for d2 in range(1, 9 // d1 + 1):
            a, b = system(backend, d1), system(backend, d2)
            effects_a, effects_b = bk.spanning_effects(a), bk.spanning_effects(b)
            dense = np.stack([c.tensor_effects(e, f).coords for e in effects_a for f in effects_b])
            rep = tm.is_locally_tomographic(a, b)
            assert rep.details["product_effect_span_rank"] == bk.matrix_rank(dense), (d1, d2)


def test_local_tomography_builds_no_composite_effect(monkeypatch, qubit, qutrit, rebit):
    calls = count_calls(monkeypatch, ("effect_from_coords", "tensor_effects"))
    for a, b in ((qubit, qutrit), (rebit, rebit)):
        bk._spanning_effects.cache_clear()  # the families are cached: count a cold build
        calls.clear()
        tm.is_locally_tomographic(a, b)
        built = {args[0] for name, args in calls if name == "effect_from_coords"}
        assert built == {a, b} and "tensor_effects" not in {name for name, _ in calls}


def test_local_tomography_fails_when_the_product_effects_miss_a_direction(monkeypatch, qubit):
    """Negative control: the dimension law holds, but each side's family lacks one spanning effect."""
    spanning = bk.spanning_effects
    monkeypatch.setattr(bk, "spanning_effects", lambda sys_: spanning(sys_)[:-1])
    rep = tm.is_locally_tomographic(qubit, qubit)
    assert rep.details["dim_composite"] == rep.details["dim_product"] == 16
    assert rep.details["product_effect_span_rank"] == 9
    assert not rep.passed


# ---------------------------------------------------------------------------
# full process equality
# ---------------------------------------------------------------------------

def test_rebit_pair_not_equal_processes(rebit):
    p, p2 = rebit_processes()
    assert not tm.equal_processes(p, p2)


def test_identity_equals_identity(qubit):
    assert tm.equal_processes(c.identity_process(qubit), c.identity_process(qubit))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_kraus_remix_preserves_process_equality(backend, seed):
    rng = np.random.default_rng(seed)
    a = system(backend, 2)
    p = bk.random_process(a, a, rng)
    p2 = remixed(p, rng)
    assert tm.equal_processes(p, p2)
    assert np.abs(bk.process_coords(p) - bk.process_coords(p2)).max() < 1e-9


def test_lifted_equalities_build_no_lifted_process(monkeypatch, qubit, rebit):
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    rng = np.random.default_rng(3)
    p, p2 = bk.random_process(qubit, qubit, rng), bk.random_process(qubit, qubit, rng)
    rho = bk.random_state(qubit, rng)
    r, r2 = rebit_processes()
    for name in ("lift", "tensor_processes"):
        fn = getattr(c, name)
        for mod in (c, tm, rebit_module):
            monkeypatch.setattr(mod, name, counted(name, fn), raising=False)
    assert not tm.equal_processes(p, p2) and tm.equal_processes(p, p)
    assert not tm.equal_on_extensions(p, p2, rho) and tm.equal_on_extensions(p, p, rho)
    assert not tm.equal_processes(r, r2)
    assert not tm.equal_on_extensions(r, r2, bk.complete_state(rebit))
    assert counterexample_report(n_random=2).faithful_rank == 10
    assert calls == []


def test_equal_processes_matches_coordinate_equality(qubit):
    p = bk.random_process(qubit, qubit, 5)
    p2 = bk.random_process(qubit, qubit, 6)
    coord_equal = np.abs(bk.process_coords(p) - bk.process_coords(p2)).max() < 1e-9
    assert tm.equal_processes(p, p2) == coord_equal


# ---------------------------------------------------------------------------
# the stacked equality rule at its bound, against the per-state twin
# ---------------------------------------------------------------------------

def agree_twin(p, p2, states, tol):
    """The equality rule one test state at a time, as it ran before the states were stacked."""
    return all(
        np.abs(c.apply_to_factors(p, s, 0).coords - c.apply_to_factors(p2, s, 0).coords).max() <= tol
        for s in states
    )


def deviations(p, p2, states):
    return [np.abs(c.apply_to_factors(p, s, 0).coords - c.apply_to_factors(p2, s, 0).coords).max() for s in states]


def equality_level(level, a, rng):
    """The level's verdict as a function of p, p2, and the test states ``_agree`` sees."""
    if level == "source":
        source = spanning_source(a)
        return (lambda p, p2: tm.equal_on_source(p, p2, source)), [s for _, s in c.source_states(source)]
    rho = bk.random_state(a, rng)
    if level == "upon-input":
        return (lambda p, p2: tm.equal_upon_input(p, p2, rho)), tm.face_spanning_states(rho)
    if level == "extensions":
        return (lambda p, p2: tm.equal_on_extensions(p, p2, rho)), [tm.canonical_extension(rho)]
    return tm.equal_processes, [tm.find_faithful_state(a)]


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
@pytest.mark.parametrize("level", ["source", "upon-input", "extensions", "processes"])
def test_equality_levels_decide_at_tol_on_the_one_state_that_moves(backend, level):
    """p2 mixes a weight eps of p o R into p, where R replaces every input by the first test state.

    The deviation eps * max|p(s) - p(R(s))| vanishes on the first test state
    and is largest on a later one; eps puts it at 0.5 tol and at 2 tol.
    """
    tol = c.DEFAULT_TOL
    rng = np.random.default_rng(61)
    a = system(backend, 3)
    decide, states = equality_level(level, a, rng)
    p = bk.random_process(a, a, rng)
    first = states[0]  # a source's states are subnormalized: R prepares first / weight
    target = c.state_from_coords(a, first.coords / first.weight) if first.system == a else bk.complete_state(a)
    replace = c.compose(c.preparation_process(target), c.effect_process(c.deterministic_effect(a)))
    q = c.compose(p, replace)
    full = deviations(p, q, states)
    if len(states) > 1:
        assert full[0] < 1e-12 * max(full) and int(np.argmax(full)) > 0
    for factor in (0.5, 2.0):
        eps = factor * tol / max(full)
        p2 = c.add_processes([c.scale_process(1.0 - eps, p), c.scale_process(eps, q)])
        dev = deviations(p, p2, states)
        assert abs(max(dev) - factor * tol) < 1e-3 * tol
        assert len(states) == 1 or dev[0] < 1e-3 * tol
        verdict = decide(p, p2)
        assert verdict is (factor < 1.0)
        assert verdict is agree_twin(p, p2, states, tol)


# ---------------------------------------------------------------------------
# structural facts as property tests
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=SEED_ST)
def test_containment_orders_purification_tomographic_power(seed):
    # rho contains sigma: the purification of rho dominates that of sigma
    qubit = system(QUANTUM, 2)
    rng = np.random.default_rng(seed)
    sigma = bk.random_state(qubit, rng)
    rho = c.mixture([sigma, bk.random_state(qubit, rng)], [0.3, 0.7])
    assert tm.contains(rho, sigma) is not None
    assert tm.tomographically_geq(bk.purify(rho), bk.purify(sigma), qubit, qubit)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_equality_on_extensions_of_complete_state_implies_full_equality(backend, seed):
    rng = np.random.default_rng(seed)
    a = system(backend, 2)
    omega = bk.complete_state(a)
    p = bk.random_process(a, a, rng)
    for p2 in (remixed(p, rng), bk.random_process(a, a, rng)):
        if tm.equal_on_extensions(p, p2, omega):
            assert tm.equal_processes(p, p2)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_hierarchy_is_monotone(backend, seed):
    rng = np.random.default_rng(seed)
    a = system(backend, 2)
    omega = bk.complete_state(a)
    source = spanning_source(a)
    p = bk.random_process(a, a, rng)
    for p2 in (remixed(p, rng), bk.random_process(a, a, rng)):
        levels = [
            tm.equal_processes(p, p2),
            tm.equal_on_extensions(p, p2, omega),
            tm.equal_upon_input(p, p2, omega),
            tm.equal_on_source(p, p2, source),
        ]
        for stronger, weaker in zip(levels, levels[1:]):
            assert (not stronger) or weaker


def test_standard_tomography_decides_complex_but_not_real_processes(qubit, rebit):
    # complex backend: agreement on a spanning set implies full equality
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = bk.random_process(qubit, qubit, rng)
        p2 = remixed(p, rng)
        agree = all(
            np.abs(c.apply(p, s).coords - c.apply(p2, s).coords).max() < 1e-9
            for s in bk.spanning_states(qubit)
        )
        assert agree and tm.equal_processes(p, p2)
    for _ in range(10):
        p = bk.random_process(qubit, qubit, rng)
        p2 = bk.random_process(qubit, qubit, rng)
        agree = all(
            np.abs(c.apply(p, s).coords - c.apply(p2, s).coords).max() < 1e-9
            for s in bk.spanning_states(qubit)
        )
        if agree:
            assert tm.equal_processes(p, p2)
    # real backend: the counterexample pair breaks the implication
    p, p2 = rebit_processes()
    agree = all(
        np.abs(c.apply(p, s).coords - c.apply(p2, s).coords).max() < 1e-12
        for s in bk.spanning_states(rebit)
    )
    assert agree
    assert not tm.equal_processes(p, p2)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(backend=BACKEND_ST, seed=SEED_ST)
def test_faithful_state_dominates_sampled_extensions(backend, seed):
    a = system(backend, 2)
    omega = bk.complete_state(a)
    phi = tm.find_faithful_state(a)
    gamma = bk.random_extension(omega, a, seed)
    assert tm.tomographically_geq(phi, gamma, a, a)
