"""Teleportation, universal-extension, purification and faithfulness witnesses."""

import tracemalloc

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import tomography as tm
from gpt_tomo import witnesses as wt
from gpt_tomo.core import CLASSICAL, QUANTUM, REAL, system, tensor_systems
from gpt_tomo.rebit import wootters_pair
from gpt_tomo.reports import UsageError

from composite_oracles import contract_matrix, unitary_connecting
from conftest import I2


# ---------------------------------------------------------------------------
# conclusive teleportation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "backend,d,expected_p",
    [
        (QUANTUM, 2, 0.25),
        (QUANTUM, 3, 1.0 / 9.0),
        (REAL, 2, 0.25),
        (CLASSICAL, 2, 0.5),
        (CLASSICAL, 3, 1.0 / 3.0),
    ],
)
def test_teleportation_identity(backend, d, expected_p):
    a = system(backend, d)
    phi, effect, p = wt.teleportation_witness(a)
    assert p == pytest.approx(expected_p, abs=1e-15)
    for rho in bk.spanning_states(a):
        out = wt.teleport_map(phi, effect, rho)
        assert np.abs(out.coords - p * rho.coords).max() < 1e-12


def test_qubit_teleport_map_against_direct_contraction(qubit):
    # oracle: explicit index contraction of the three-party tensor
    phi, effect, p = wt.teleportation_witness(qubit)
    rho = bk.random_state(qubit, 5)
    big = np.kron(phi.matrix, rho.matrix)
    m4 = big.reshape(2, 4, 2, 4)
    expected = np.einsum("xy,aybx->ab", effect.matrix, m4)
    assert np.abs(expected - p * rho.matrix).max() < 1e-14
    out = wt.teleport_map(phi, effect, rho)
    assert np.abs(out.matrix - expected).max() < 1e-14


def test_wrong_scalar_fails_verification(qubit, bit):
    phi, effect, _ = wt.teleportation_witness(qubit)
    assert not wt.verify_teleportation(phi, effect, 0.5)
    # the zero effect realizes 0 * identity exactly, but p = 0 teleports nothing
    for a in (qubit, bit):
        phi, effect, _ = wt.teleportation_witness(a)
        zero = c.effect_from_coords(effect.system, np.zeros(effect.system.effect_dim))
        assert not wt.verify_teleportation(phi, zero, 0.0)


def test_deterministic_effect_is_not_a_teleportation_effect(qubit):
    phi, _, p = wt.teleportation_witness(qubit)
    u = c.deterministic_effect(tensor_systems(qubit, qubit))
    # the induced map sends rho to its weight times the marginal, not p * rho
    assert not wt.verify_teleportation(phi, u, p)
    assert not wt.verify_teleportation(phi, u, 1.0)


# ---------------------------------------------------------------------------
# the chi state
# ---------------------------------------------------------------------------

def test_chi_state_qubit_is_maximally_mixed(qubit):
    phi, effect, p = wt.teleportation_witness(qubit)
    chi = wt.chi_state(phi, bk.complete_state(qubit))
    assert np.abs(chi.matrix - I2 / 2).max() < 1e-12
    assert tm.is_complete(chi)


def test_chi_state_classical_uniform(bit):
    phi, _, _ = wt.teleportation_witness(bit)
    chi = wt.chi_state(phi, bk.complete_state(bit))
    assert np.allclose(chi.coords, [0.5, 0.5])
    assert tm.is_complete(chi)


def test_chi_state_rebit_complete(rebit):
    phi, _, _ = wt.teleportation_witness(rebit)
    chi = wt.chi_state(phi, bk.complete_state(rebit))
    assert np.abs(chi.matrix - I2 / 2).max() < 1e-12
    assert tm.is_complete(chi)


def test_chi_state_matches_marginal_with_unit_effect(qubit):
    phi, _, _ = wt.teleportation_witness(qubit)
    chi = wt.chi_state(phi, bk.complete_state(qubit))
    assert np.abs(chi.coords - c.marginal(phi, 0).coords).max() < 1e-12


def test_chi_construction_is_a_marginal_of_its_input(qubit):
    # the deterministic-effect contraction of Phi (x) omega is exactly the
    # marginal over the contracted block
    phi, _, _ = wt.teleportation_witness(qubit)
    omega = bk.random_state(qubit, 55)
    big = c.tensor_states(phi, omega)
    chi = wt.chi_state(phi, omega)
    assert np.abs(c.marginal(big, 0).coords - chi.coords).max() < 1e-12


def test_chi_state_with_binary_measurement_coarse_graining(qubit):
    # T = E + F with F = u - E reproduces the deterministic contraction
    phi, effect, _ = wt.teleportation_witness(qubit)
    two = tensor_systems(qubit, qubit)
    f = c.effect_from_matrix(two, np.eye(4) - effect.matrix)
    t = c.effect_from_matrix(two, effect.matrix + f.matrix)
    chi = wt.chi_state(phi, bk.complete_state(qubit), t)
    assert np.abs(chi.matrix - I2 / 2).max() < 1e-12


# ---------------------------------------------------------------------------
# universal extensions from teleportation
# ---------------------------------------------------------------------------

def test_extension_witness_product_case(qubit):
    phi, effect, p_a = wt.teleportation_witness(qubit)
    chi = wt.chi_state(phi, bk.complete_state(qubit))
    omega = bk.random_state(qubit, 17)
    gamma = c.tensor_states(chi, omega)
    p, t_proc = wt.extension_from_teleportation(phi, effect, gamma)
    assert p == pytest.approx(p_a, abs=1e-15)
    assert wt.verify_universal_extension(phi, gamma, p, t_proc, tol=1e-9)
    assert not t_proc.deterministic  # measure-then-prepare branch is lossy


def test_extension_witness_self_extension(qubit):
    phi, effect, p_a = wt.teleportation_witness(qubit)
    p, t_proc = wt.extension_from_teleportation(phi, effect, phi)
    assert wt.verify_universal_extension(phi, phi, p, t_proc, tol=1e-9)
    # T is proportional to the identity: its Choi is proportional to the Bell projector
    choi = bk.process_coords(t_proc)
    ident = bk.process_coords(c.scale_process(p_a, c.identity_process(qubit)))
    assert np.abs(choi - ident).max() < 1e-9


def test_extension_witness_random_ensembles(qubit):
    phi, effect, _ = wt.teleportation_witness(qubit)
    chi = wt.chi_state(phi, bk.complete_state(qubit))
    for seed in range(5):
        gamma = bk.random_ensemble_extension(chi, qubit, seed)
        p, t_proc = wt.extension_from_teleportation(phi, effect, gamma)
        assert wt.verify_universal_extension(phi, gamma, p, t_proc, tol=1e-9)


def test_extension_witness_classical(bit):
    phi, effect, _ = wt.teleportation_witness(bit)
    for seed in range(5):
        gamma = bk.random_extension(bk.complete_state(bit), bit, seed)
        p, t_proc = wt.extension_from_teleportation(phi, effect, gamma)
        assert p == pytest.approx(0.5, abs=1e-15)
        assert wt.verify_universal_extension(phi, gamma, p, t_proc, tol=1e-12)


def test_extension_witness_rebit(rebit):
    phi, effect, _ = wt.teleportation_witness(rebit)
    for seed in range(5):
        gamma = bk.random_extension(bk.complete_state(rebit), rebit, seed)
        p, t_proc = wt.extension_from_teleportation(phi, effect, gamma)
        assert wt.verify_universal_extension(phi, gamma, p, t_proc, tol=1e-9)


def _choi_by_kron_loop(effect, gamma, d):
    """Reference: the teleportation Choi matrix from one kron per matrix unit on R (E = R = A)."""
    choi = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d)
    for i, j in np.ndindex(d, d):
        unit = np.outer(eye[i], eye[j])
        image = contract_matrix(np.kron(unit, gamma.matrix), [d, d, d], effect.matrix, [0, 1])
        choi += np.kron(image, unit)
    return choi


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_teleportation_choi_matches_kron_loop_bit_for_bit(monkeypatch, backend, d):
    a = system(backend, d)
    phi, effect, _ = wt.teleportation_witness(a)
    seen = []
    kraus_from_choi = wt._kraus_from_choi

    def capture(inp, out, choi, **kw):
        seen.append(choi)
        return kraus_from_choi(inp, out, choi, **kw)

    monkeypatch.setattr(wt, "_kraus_from_choi", capture)
    for seed in range(3):
        gamma = bk.random_extension(bk.complete_state(a), a, seed)
        wt.extension_from_teleportation(phi, effect, gamma, tol=1e-9)
        assert np.array_equal(seen[-1], _choi_by_kron_loop(effect, gamma, d))


def test_verify_universal_extension_trivial_and_wrong_scalar(qubit):
    phi = tm.find_faithful_state(qubit)
    ident = c.identity_process(qubit)
    assert wt.verify_universal_extension(phi, phi, 1.0, ident)
    assert not wt.verify_universal_extension(phi, phi, 0.5, ident)


def test_verify_universal_extension_replace_channel(qubit):
    # Psi = Bell, Gamma = I/2 (x) omega, T = replace-with-omega, p = 1
    phi = tm.find_faithful_state(qubit)
    omega = bk.random_state(qubit, 40)
    gamma = c.tensor_states(bk.complete_state(qubit), omega)
    vals, vecs = np.linalg.eigh(omega.matrix)
    ops = []
    for i, v in enumerate(vals):
        if v > 1e-12:
            for j in range(2):
                ops.append(np.sqrt(v) * np.outer(vecs[:, i], np.eye(2)[j]))
    replace = c.kraus_process(qubit, qubit, ops)
    assert replace.deterministic
    assert wt.verify_universal_extension(phi, gamma, 1.0, replace)


# ---------------------------------------------------------------------------
# purification symmetry
# ---------------------------------------------------------------------------

def test_connect_purifications_identity(qubit):
    psi = bk.purify(bk.random_state(qubit, 3))
    u = wt.connect_purifications(psi, psi)
    assert u.reversible
    assert np.abs(np.abs(u.kraus[0]) - I2).max() < 1e-9


def test_connect_purifications_bell_vs_x_rotated(qubit):
    x_mat = np.array([[0.0, 1.0], [1.0, 0.0]])
    psi = bk.purify(bk.complete_state(qubit))
    psi2 = c.apply_to_factors(c.kraus_process(qubit, qubit, [x_mat]), psi, 1)
    u = wt.connect_purifications(psi, psi2)
    assert np.abs(np.abs(u.kraus[0]) - x_mat).max() < 1e-9


def test_connect_purifications_phase_pair_is_diagonal(qubit):
    base = np.sqrt(0.75) * np.kron([1, 0], [1, 0]) + np.sqrt(0.25) * np.kron([0, 1], [0, 1])
    other = np.sqrt(0.75) * np.kron([1, 0], [1, 0]) - np.sqrt(0.25) * np.kron([0, 1], [0, 1])
    two = tensor_systems(qubit, qubit)
    psi = c.state_from_vector(two, base)
    psi2 = c.state_from_vector(two, other)
    u = wt.connect_purifications(psi, psi2)
    mat = u.kraus[0]
    assert np.abs(mat - np.diag(np.diag(mat))).max() < 1e-9
    assert np.abs(np.diag(mat) - np.array([1.0, -1.0])).max() < 1e-9


def test_connect_purifications_rejects_different_marginals(qubit):
    psi = bk.purify(bk.random_state(qubit, 1))
    psi2 = bk.purify(bk.random_state(qubit, 2))
    with pytest.raises(ValueError, match="marginals differ"):
        wt.connect_purifications(psi, psi2)


def test_connect_purifications_real_backend_orthogonal(rebit):
    rho = bk.random_state(rebit, 9)
    psi = bk.purify(rho)
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    psi2 = c.apply_to_factors(c.kraus_process(rebit, rebit, [rot]), psi, 1)
    u = wt.connect_purifications(psi, psi2)
    assert np.abs(u.kraus[0].imag).max() < 1e-12
    moved = c.apply_to_factors(u, psi, 1)
    assert np.abs(moved.coords - psi2.coords).max() < 1e-9


# ---------------------------------------------------------------------------
# channels from purifications
# ---------------------------------------------------------------------------

def test_channel_from_purification_product_extension(qubit):
    psi = bk.purify(bk.complete_state(qubit))
    omega = bk.random_state(qubit, 8)
    gamma = c.tensor_states(bk.complete_state(qubit), omega)
    t_proc = wt.channel_from_purification(psi, gamma)
    assert t_proc.deterministic
    moved = c.apply_to_factors(t_proc, psi, 1)
    assert np.abs(moved.coords - gamma.coords).max() < 1e-9


def test_channel_from_purification_self(qubit):
    psi = bk.purify(bk.complete_state(qubit))
    t_proc = wt.channel_from_purification(psi, psi)
    moved = c.apply_to_factors(t_proc, psi, 1)
    assert np.abs(moved.coords - psi.coords).max() < 1e-9


def test_channel_from_purification_classical_quantum_extension(qubit):
    # Gamma = 1/2 |0><0| (x) |0><0| + 1/2 |1><1| (x) |1><1| extends I/2
    psi = bk.purify(bk.complete_state(qubit))
    two = tensor_systems(qubit, qubit)
    gamma_mat = 0.5 * np.kron(np.diag([1.0, 0]), np.diag([1.0, 0])) + 0.5 * np.kron(
        np.diag([0, 1.0]), np.diag([0, 1.0])
    )
    gamma = c.state_from_matrix(two, gamma_mat)
    t_proc = wt.channel_from_purification(psi, gamma)
    assert t_proc.deterministic
    moved = c.apply_to_factors(t_proc, psi, 1)
    assert np.abs(moved.coords - gamma.coords).max() < 1e-9


def test_channel_from_purification_rebit(rebit):
    psi = bk.purify(bk.complete_state(rebit))
    for seed in range(3):
        gamma = bk.random_extension(bk.complete_state(rebit), rebit, seed)
        t_proc = wt.channel_from_purification(psi, gamma)
        assert t_proc.deterministic
        for k in t_proc.kraus:
            assert np.abs(k.imag).max() < 1e-12
        moved = c.apply_to_factors(t_proc, psi, 1)
        assert np.abs(moved.coords - gamma.coords).max() < 1e-9


def test_channel_from_purification_output_stays_deterministic(qubit):
    # the generated channel preserves total probability on every input
    psi = bk.purify(bk.complete_state(qubit))
    gamma = bk.random_extension(bk.complete_state(qubit), qubit, 77)
    t_proc = wt.channel_from_purification(psi, gamma)
    for seed in range(3):
        rho = bk.random_state(qubit, seed)
        assert c.apply(t_proc, rho).kind == "deterministic"


def _channel_by_d4_unitary(psi, gamma, tol=1e-9):
    """Reference: the generating channel from the reversible U on R (x) E (x) F.

    Purify Gamma with F a copy of A (x) E, pad Psi with |0> on E (x) F and
    Gamma's purification with |0> on R, connect the two on R (x) E (x) F, feed
    the EF reference and keep one Kraus operator per traced (R, F) output.
    """
    a = c.subsystem(psi.system, [0])
    r_sys = c.subsystem(psi.system, [1])
    env = c.subsystem(gamma.system, [1])
    phi_g = bk.purify(gamma, tol=tol)
    n_a, n_r, n_e = a.total_dim, r_sys.total_dim, env.total_dim
    n_f = n_a * n_e
    ref_ef = np.zeros(n_e * n_f)
    ref_ef[0] = 1.0
    ref_r = np.zeros(n_r)
    ref_r[0] = 1.0
    v1 = np.kron(wt._pure_vector(psi, tol=tol), ref_ef)
    v2 = np.kron(wt._pure_vector(phi_g, tol=tol), ref_r)
    v2 = v2.reshape(n_a, n_e * n_f, n_r).transpose(0, 2, 1).reshape(-1)
    u = unitary_connecting(v1.reshape(n_a, -1), v2.reshape(n_a, -1), tol=tol).T
    assert u.shape == (n_r * n_e * n_f,) * 2
    blocks = u.reshape(n_r * n_e * n_f, n_r, n_e * n_f)[:, :, 0].reshape(n_r, n_e, n_f, n_r)
    ops = [blocks[r, :, f, :] for r in range(n_r) for f in range(n_f)]
    return c.kraus_process(r_sys, env, ops, tol=np.sqrt(tol))


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_channel_from_purification_matches_d4_unitary(backend, d):
    a = system(backend, d)
    for seed in range(3):
        rho = bk.random_state(a, seed)
        for psi, gamma in [
            (bk.maximally_entangled_state(a), bk.random_extension(bk.complete_state(a), a, seed)),
            (bk.purify(rho), bk.random_extension(rho, a, seed)),
        ]:
            t_proc = wt.channel_from_purification(psi, gamma, tol=1e-9)
            expected = _channel_by_d4_unitary(psi, gamma)
            assert np.abs(bk.process_coords(t_proc) - bk.process_coords(expected)).max() <= 1e-12


def test_channel_from_purification_builds_no_d4_array(monkeypatch):
    # quantum d = 6: Gamma's purification alone has d^4 = 1296 entries and the
    # reversible connection on R (x) E (x) F is 1296 x 1296 (27 MB)
    a = system(QUANTUM, 6)
    phi = bk.maximally_entangled_state(a)
    gamma = bk.random_extension(bk.complete_state(a), a, 0)

    def no_purify(*args, **kwargs):
        raise AssertionError("the generating channel purified Gamma")

    monkeypatch.setattr(bk, "purify", no_purify)
    tracemalloc.start()
    try:
        t_proc = wt.channel_from_purification(phi, gamma, tol=1e-9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert t_proc.deterministic
    assert peak < 8e6


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_purifications_of_rank_deficient_states(backend, d):
    # round-off eigenvalues of rho become singular values of order 1e-8 in its
    # purification; the connecting routine must not invert them
    a = system(backend, d)
    for seed in range(10):
        rho = bk.random_rank_deficient_state(a, seed)
        psi = bk.purify(rho)
        gamma = bk.random_extension(rho, a, seed)
        t_proc = wt.channel_from_purification(psi, gamma)
        assert t_proc.deterministic
        if backend == REAL:
            assert all(np.abs(k.imag).max() == 0.0 for k in t_proc.kraus)
        moved = c.apply_to_factors(t_proc, psi, 1)
        assert np.abs(moved.coords - gamma.coords).max() < 1e-6

        rng = np.random.default_rng(seed)
        g = rng.normal(size=(d, d))
        if backend == QUANTUM:
            g = g + 1j * rng.normal(size=(d, d))
        q, _ = np.linalg.qr(g)
        psi2 = c.apply_to_factors(c.kraus_process(a, a, [q]), psi, 1)
        u = wt.connect_purifications(psi, psi2)
        assert u.reversible
        moved = c.apply_to_factors(u, psi, 1)
        assert np.abs(moved.coords - psi2.coords).max() < 1e-6


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_purification_check_fails_when_the_marginal_is_off(monkeypatch, backend):
    """Negative control: ``purify`` purifies rho moved by 1e-6, and only the marginal bound sees it."""
    purify = bk.purify

    def purify_moved(rho, *, tol=c.DEFAULT_TOL):
        return purify(c.state_from_matrix(rho.system, rho.matrix + 1e-6 * np.diag([1.0, -1.0])), tol=tol)

    monkeypatch.setattr(bk, "purify", purify_moved)
    rep = wt.purification_check(backend, 2)
    details = rep.details
    assert details["marginal_max_deviation"] == pytest.approx(1e-6, rel=1e-6)
    assert details["purification_rank"] == 1 and details["connection_reversible"]
    assert details["connection_max_deviation"] <= 1e-9
    assert not rep.passed


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_purification_check_raises_on_a_product_purification(monkeypatch, backend):
    """Control for ``purity_rank == 1``: ``purify`` returns rho (x) sigma, which has the right marginal
    but is not pure, and ``connect_purifications`` refuses it before the rank is read."""

    def product(rho, *, tol=c.DEFAULT_TOL):
        return c.tensor_states(rho, bk.complete_state(rho.system))

    monkeypatch.setattr(bk, "purify", product)
    with pytest.raises(ValueError, match="state is not pure"):
        wt.purification_check(backend, 2)


# ---------------------------------------------------------------------------
# preparational faithfulness
# ---------------------------------------------------------------------------

def test_prep_witness_identity_on_the_source_state(qubit):
    phi = bk.maximally_entangled_state(qubit)
    p, s_proc = wt.preparationally_faithful_witness(phi, phi)
    assert p == pytest.approx(1.0, abs=1e-9)
    ident = bk.process_coords(c.identity_process(qubit))
    assert np.abs(bk.process_coords(s_proc) - ident).max() < 1e-9


def test_prep_witness_pure_product_target(qubit):
    phi = bk.maximally_entangled_state(qubit)
    two = tensor_systems(qubit, qubit)
    target = c.state_from_vector(two, np.kron([1.0, 0.0], [1.0, 0.0]))
    p, s_proc = wt.preparationally_faithful_witness(phi, target)
    assert p == pytest.approx(0.5, abs=1e-12)  # 1/d for a product of basis states
    assert len(s_proc.kraus) == 1
    assert np.linalg.matrix_rank(s_proc.kraus[0], tol=1e-9) == 1


def test_prep_witness_rebit_wootters_target(rebit):
    phi = bk.maximally_entangled_state(rebit)
    rho1, _ = wootters_pair()
    p, s_proc = wt.preparationally_faithful_witness(phi, rho1)
    assert p > 0
    out = c.apply_to_factors(s_proc, phi, 1)
    assert np.abs(out.coords - p * rho1.coords).max() < 1e-9


def test_prep_witness_mixed_targets(qubit):
    phi = bk.maximally_entangled_state(qubit)
    two = tensor_systems(qubit, qubit)
    for seed in range(5):
        target = bk.random_state(two, seed)
        p, s_proc = wt.preparationally_faithful_witness(phi, target)
        assert p > 0
        out = c.apply_to_factors(s_proc, phi, 1)
        assert np.abs(out.coords - p * target.coords).max() < 1e-9


def test_prep_witness_first_side(qubit):
    phi = bk.maximally_entangled_state(qubit)
    two = tensor_systems(qubit, qubit)
    target = bk.random_state(two, 3)
    p, s_proc = wt.preparationally_faithful_witness(phi, target, side="first")
    out = c.apply_to_factors(s_proc, phi, 0)
    assert np.abs(out.coords - p * target.coords).max() < 1e-9


def test_prep_witness_rejects_zero_target(qubit):
    phi = bk.maximally_entangled_state(qubit)
    two = tensor_systems(qubit, qubit)
    zero = c.state_from_matrix(two, np.zeros((4, 4)))
    with pytest.raises(ValueError, match="zero target"):
        wt.preparationally_faithful_witness(phi, zero)


@pytest.mark.parametrize("side", ["second", "first"])
def test_prep_witness_rejects_target_with_no_branch_above_tol(qubit, side):
    # weight 2e-9 passes the weight guard, but every eigenvalue is at most tol
    phi = bk.maximally_entangled_state(qubit)
    tiny = c.state_from_matrix(tensor_systems(qubit, qubit), 5e-10 * np.eye(4))
    with pytest.raises(ValueError, match="zero target"):
        wt.preparationally_faithful_witness(phi, tiny, side=side)


def test_prep_witness_classical(bit):
    phi = bk.maximally_entangled_state(bit)
    two = tensor_systems(bit, bit)
    target = bk.random_state(two, 4)
    p, s_proc = wt.preparationally_faithful_witness(phi, target)
    out = c.apply_to_factors(s_proc, phi, 1)
    assert np.abs(out.coords - p * target.coords).max() < 1e-12


# ---------------------------------------------------------------------------
# doubly preparationally faithful reports
# ---------------------------------------------------------------------------

def test_doubly_prep_faithful_complex(qubit):
    rep = wt.is_doubly_preparationally_faithful(qubit, qubit, seed=0)
    assert rep.passed
    assert rep.details["local_tomography_pass"]
    assert rep.details["witness_max_residual"] < 1e-9


def test_doubly_prep_faithful_real_contrapositive(rebit):
    rep = wt.is_doubly_preparationally_faithful(rebit, rebit, seed=0)
    assert rep.passed  # the witnesses exist
    assert not rep.details["local_tomography_pass"]  # but the dimension law fails
    assert rep.details["standard_tomography_fails"]  # so single-system probing cannot work


def test_doubly_prep_faithful_classical(bit):
    rep = wt.is_doubly_preparationally_faithful(bit, bit, seed=0)
    assert rep.passed
    assert rep.details["local_tomography_pass"]


@pytest.mark.parametrize("samples", [0, -3])
def test_doubly_prep_faithful_refuses_fewer_than_one_sample(qubit, samples):
    # judging no witness must not pass vacuously
    with pytest.raises(UsageError, match=f"needs at least one sample, got {samples}"):
        wt.is_doubly_preparationally_faithful(qubit, qubit, samples=samples)


# ---------------------------------------------------------------------------
# the bent-wire identity restricted to a state's face
# ---------------------------------------------------------------------------

def test_teleportation_restricted_to_complete_state_face(qubit):
    # with the faithful state and its effect, the bent wire acts as p * identity
    # on every state supported inside the complete state's support (that is all
    # of them); checked on the face spanning family
    phi = tm.find_faithful_state(qubit)
    _, effect, p = wt.teleportation_witness(qubit)
    omega = bk.complete_state(qubit)
    for rho in tm.face_spanning_states(omega):
        out = wt.teleport_map(phi, effect, rho)
        assert np.abs(out.coords - p * rho.coords).max() < 1e-12


def test_universal_extension_check_refuses_zero_samples():
    with pytest.raises(UsageError, match="at least one sample"):
        wt.universal_extension_check(QUANTUM, 2, samples=0)


def test_universal_extension_check_runs_no_bent_wire_map(monkeypatch):
    # the teleportation pair is checked by the report's own residual of
    # (I (x) T) Phi = p Gamma, not by a second self-check of the pair
    calls = []
    teleport_map = wt.teleport_map

    def counted(*args, **kwargs):
        calls.append(1)
        return teleport_map(*args, **kwargs)

    monkeypatch.setattr(wt, "teleport_map", counted)
    rep = wt.universal_extension_check(QUANTUM, 3, samples=1)
    assert rep.passed
    assert calls == []


# ---------------------------------------------------------------------------
# negative controls: each report fails on a wrong witness from its builder
# ---------------------------------------------------------------------------

def test_teleportation_check_fails_on_a_wrong_scalar(monkeypatch):
    build = wt.teleportation_witness

    def off(a):
        phi, effect, p = build(a)
        return phi, effect, p * (1.0 + 1e-6)

    monkeypatch.setattr(wt, "teleportation_witness", off)
    rep = wt.teleportation_check(QUANTUM, 2)
    assert rep.passed is False
    assert rep.details["max_residual"] == pytest.approx(2.5e-7, rel=1e-3)


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_universal_extension_check_fails_on_a_dropped_kraus_operator(monkeypatch, backend):
    build = wt.extension_from_teleportation

    def dropped(*args, **kwargs):
        p, t_proc = build(*args, **kwargs)
        return p, c.kraus_process(t_proc.input, t_proc.output, t_proc.kraus[1:])

    monkeypatch.setattr(wt, "extension_from_teleportation", dropped)
    rep = wt.universal_extension_check(backend, 2, samples=2)
    assert rep.passed is False
    assert rep.details["teleportation_max_residual"] > 0.05
    assert rep.details["purification_max_residual"] < 1e-12


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_purification_check_fails_on_a_halved_connection(monkeypatch, backend):
    build = wt.connect_purifications

    def halved(*args, **kwargs):
        u = build(*args, **kwargs)
        return c.kraus_process(u.input, u.output, [0.5 * u.kraus[0]])

    monkeypatch.setattr(wt, "connect_purifications", halved)
    rep = wt.purification_check(backend, 2)
    assert rep.passed is False
    assert rep.details["connection_reversible"] is False
    assert rep.details["connection_max_deviation"] > 0.4


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_purification_check_fails_on_a_reversible_but_wrong_connection(monkeypatch, backend):
    def identity(psi, psi2, **kwargs):
        return c.identity_process(c.subsystem(psi.system, [1]))

    monkeypatch.setattr(wt, "connect_purifications", identity)
    rep = wt.purification_check(backend, 2)
    assert rep.passed is False
    assert rep.details["connection_reversible"] is True
    assert rep.details["connection_max_deviation"] > 0.05


# near-bound controls: a witness off by about ten times the 1e-9 bound, so a
# bound loosened towards 1e-3 lets the report pass

def _rotation(n, angle):
    """A rotation by ``angle`` in the plane of the first two basis vectors."""
    rot = np.eye(n)
    rot[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return rot


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("d", [2, 3])
def test_purification_check_fails_on_a_connection_rotated_by_1e_8(monkeypatch, backend, d):
    build = wt.connect_purifications

    def rotated(*args, **kwargs):
        u = build(*args, **kwargs)
        return c.compose(c.kraus_process(u.output, u.output, [_rotation(d, 1e-8)]), u)

    monkeypatch.setattr(wt, "connect_purifications", rotated)
    rep = wt.purification_check(backend, d)
    assert rep.passed is False
    assert rep.details["connection_reversible"] is True
    assert 1e-9 < rep.details["connection_max_deviation"] < 1e-7


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("d", [2, 3])
def test_universal_extension_check_fails_on_1e_8_of_a_replace_channel(monkeypatch, backend, d):
    build = wt.channel_from_purification
    eps = 1e-8

    def mixed(*args, **kwargs):
        t_proc = build(*args, **kwargs)
        # replace every input with the first basis state
        ops = [np.outer(np.eye(d)[0], row) for row in np.eye(d)]
        replace = c.kraus_process(t_proc.input, t_proc.output, ops)
        return c.add_processes([c.scale_process(1.0 - eps, t_proc), c.scale_process(eps, replace)])

    monkeypatch.setattr(wt, "channel_from_purification", mixed)
    rep = wt.universal_extension_check(backend, d, samples=2)
    assert rep.passed is False
    assert 1e-9 < rep.details["purification_max_residual"] < 1e-7
    assert rep.details["teleportation_max_residual"] < 1e-12


@pytest.mark.parametrize("backend", [QUANTUM, REAL, CLASSICAL])
def test_doubly_prep_faithful_fails_on_a_wrong_scalar(monkeypatch, backend):
    build = wt._prep_witnesses

    def off(*args, **kwargs):
        p, ops, env = build(*args, **kwargs)
        return p * (1.0 + 1e-3), ops, env

    monkeypatch.setattr(wt, "_prep_witnesses", off)
    a = system(backend, 2)
    rep = wt.is_doubly_preparationally_faithful(a, a, seed=0)
    assert rep.passed is False
    # judged at sqrt(tol), about 3.2e-5
    assert rep.details["witness_max_residual"] > 1e-4


def test_doubly_prep_faithful_reports_first_factor_residuals(monkeypatch):
    build = wt._prep_witnesses

    def off_on_first(*args, side, **kwargs):
        p, ops, env = build(*args, side=side, **kwargs)
        return (p * 1.001 if side == "first" else p), ops, env

    monkeypatch.setattr(wt, "_prep_witnesses", off_on_first)
    rep = wt.is_doubly_preparationally_faithful(system(QUANTUM, 2), system(QUANTUM, 3), seed=0)
    assert rep.passed is False
    # the maximum covers the first-factor witnesses it judged
    assert rep.details["witness_max_residual"] > 1e-4
