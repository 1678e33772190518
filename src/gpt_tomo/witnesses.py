"""Constructive witnesses: teleportation, universal extensions, purification.

Each witness family has one builder, and a builder returns its witness
unverified.  A witness is verified where it is reported: by
``verify_teleportation`` and ``verify_universal_extension``, and by the
``*_check`` reports, which hold the family's one residual (the bent-wire
residual for teleportation, ``_residual`` for the rest) to their own bounds.

The chain realized here: a teleportation pair (Phi, E) with a cancellative
scalar p turns Phi into the universal extension of a complete state chi,
with the generating transformation read off by contracting E against the
target extension.  Independently, for the quantum family any purification is
a universal extension with scalar 1: two purifications of the same state are
connected by a reversible transformation on the purifying system.  Gamma's
eigendecomposition is itself a purification of Gamma, so the connection
from Psi's purifying system R to E (x) F is an isometry (the reversible map
with a pure reference fed in), and discarding F leaves the deterministic
generating channel.  ``_unitary_connecting`` builds both the reversible
connections and these isometries, as the polar factor of W1^dag W2.

The reports compare processes with the equality levels of ``tomography``,
which are one rule over four families of test states.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod, sqrt

import numpy as np

from . import backends as bk
from .core import (
    CLASSICAL,
    QUANTUM,
    REAL,
    DEFAULT_TOL,
    EffectVector,
    ProcessRep,
    StateVector,
    SystemDescriptor,
    Test,
    apply_to_factors,
    contract,
    deterministic_effect,
    kraus_from_psd,
    kraus_process,
    marginal,
    preparation_test,
    randomize,
    stochastic_process,
    subsystem,
    system,
    tensor_states,
    tensor_systems,
    _checked_images,
    _kraus_rep,
    _on_rows,
    _require_finite,
    _sandwich,
    _stoch_rep,
)
from .reports import CheckReport, UsageError
from .tomography import equal_on_source, equal_processes, is_locally_tomographic


# ---------------------------------------------------------------------------
# Conclusive teleportation
# ---------------------------------------------------------------------------

def _teleportation_scalar(a: SystemDescriptor) -> float:
    """The p of the canonical teleportation pair on A."""
    d = a.total_dim
    return 1.0 / d if a.backend == CLASSICAL else 1.0 / d**2


def teleportation_witness(a: SystemDescriptor) -> tuple[StateVector, EffectVector, float]:
    """A state on A (x) R, an effect on R (x) A and a scalar p meant to realize p * identity.

    Quantum family: the maximally entangled pair with p = 1/d^2.  Classical:
    the perfect-copy state with the equality effect and p = 1/d.  The pair is
    returned unverified; ``verify_teleportation`` checks it.
    """
    phi, effect = bk.maximally_entangled_state(a), bk.maximally_entangled_effect(a)
    return phi, effect, _teleportation_scalar(a)


def teleport_map(
    phi: StateVector, effect: EffectVector, rho: StateVector, *, tol: float = DEFAULT_TOL
) -> StateVector:
    """The bent-wire map: feed rho beside Phi and apply the effect on (R, A')."""
    big = tensor_states(phi, rho, tol=tol)
    half = phi.system.n_factors // 2
    on = list(range(half, big.system.n_factors))
    return contract(big, effect, on, tol=tol)


def _teleportation_residual(
    phi: StateVector, effect: EffectVector, p: float, *, tol: float
) -> float:
    """Largest deviation of the bent-wire map from rho -> p rho on a spanning family."""
    half = phi.system.n_factors // 2
    a = subsystem(phi.system, range(half))
    return max(
        float(np.abs(teleport_map(phi, effect, rho, tol=tol).coords - p * rho.coords).max())
        for rho in bk.spanning_states(a)
    )


def verify_teleportation(
    phi: StateVector, effect: EffectVector, p: float, tol: float = DEFAULT_TOL
) -> bool:
    """Check the bent-wire identity rho -> p rho on a spanning family of inputs, with p > 0."""
    return p > 0.0 and _teleportation_residual(phi, effect, p, tol=tol) <= tol


def teleportation_check(
    backend: str, d: int, *, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckReport:
    """The bent-wire identity of the teleportation witness on ``system(backend, d)``."""
    phi, effect, p = teleportation_witness(system(backend, d))
    residual = _teleportation_residual(phi, effect, p, tol=min(tol, DEFAULT_TOL))
    passed = residual <= min(DEFAULT_TOL, max(tol, 1e-12))
    details = {"backend": backend, "d": d, "p": p, "max_residual": residual}
    return CheckReport("conclusive-teleportation", passed, tol, seed, details)


def chi_state(
    phi: StateVector,
    omega: StateVector,
    t_effect: EffectVector | None = None,
    *,
    tol: float = DEFAULT_TOL,
) -> StateVector:
    """The complete state whose universal extension is the teleportation state.

    This is the bent-wire map of Phi with the coarse-grained binary effect
    T = E + F on (R, A') fed omega; with the deterministic T it is just the
    marginal of Phi.
    """
    if t_effect is None:
        r_sys = subsystem(phi.system, range(phi.system.n_factors // 2, phi.system.n_factors))
        t_effect = deterministic_effect(tensor_systems(r_sys, omega.system))
    return teleport_map(phi, t_effect, omega, tol=tol)


# ---------------------------------------------------------------------------
# Universal extensions
# ---------------------------------------------------------------------------

def _kraus_from_choi(
    inp: SystemDescriptor, out: SystemDescriptor, choi: np.ndarray, *, tol: float = DEFAULT_TOL
) -> ProcessRep:
    """Recover a Kraus list from a Choi-style matrix on out (x) in.

    For the real backend the Choi matrix must come out real symmetric, which
    makes the extracted Kraus operators entrywise real.  The matrix must be
    positive semidefinite up to sqrt(tol); ``kraus_from_psd`` reads the
    operators off it.
    """
    if inp.backend == REAL:
        if np.abs(choi.imag).max() > tol or np.abs(choi - choi.T).max() > np.sqrt(tol):
            raise ValueError("real-backend construction produced a non-symmetric Choi matrix")
        choi = 0.5 * (choi.real + choi.real.T)
    ops = kraus_from_psd(choi, (out.total_dim, inp.total_dim), cutoff=tol, floor=-np.sqrt(tol))
    return kraus_process(inp, out, ops, tol=np.sqrt(tol))


def extension_from_teleportation(
    phi: StateVector,
    effect: EffectVector,
    gamma: StateVector,
    *,
    tol: float = DEFAULT_TOL,
) -> tuple[float, ProcessRep]:
    """Build (p, T) meant to satisfy p * Gamma = (I (x) T) Phi from a teleportation pair.

    ``T: R -> E`` contracts the teleportation effect against Gamma: feeding a
    reference state r, the effect absorbs (r, A-part of Gamma) and leaves the
    E-part, scaled so the bent-wire identity turns Phi into p * Gamma.  The
    witness is returned unverified; ``verify_universal_extension`` checks it.
    """
    half = phi.system.n_factors // 2
    a = subsystem(phi.system, range(half))
    r_sys = subsystem(phi.system, range(half, phi.system.n_factors))
    env = SystemDescriptor(a.backend, gamma.system.dims[a.n_factors :])
    d = a.total_dim
    p = _teleportation_scalar(a)

    if a.backend == CLASSICAL:
        # T[e, r] = sum_a effect[(r, a)] gamma[(a, e)]
        e_mat = effect.coords.reshape(r_sys.total_dim, d)
        g_mat = gamma.coords.reshape(d, env.total_dim)
        t_mat = (e_mat @ g_mat).T
        t_proc = stochastic_process(r_sys, env, t_mat, tol=np.sqrt(tol))
    else:
        # choi[(e, i), (f, j)] = sum_ab effect[(j, b), (i, a)] gamma[(a, e), (b, f)]
        n_r, n_e = r_sys.total_dim, env.total_dim
        e4 = effect.matrix.reshape(n_r, d, n_r, d)
        g4 = gamma.matrix.reshape(d, n_e, d, n_e)
        choi = np.einsum("jbia,aebf->eifj", e4, g4).reshape(n_e * n_r, n_e * n_r)
        t_proc = _kraus_from_choi(r_sys, env, choi, tol=tol)
    return p, t_proc


def verify_universal_extension(
    psi: StateVector,
    gamma: StateVector,
    p: float,
    t_proc: ProcessRep,
    *,
    tol: float = DEFAULT_TOL,
) -> bool:
    """Check p * Gamma == (I (x) T) Psi and that T is physical.

    ``psi`` and ``gamma`` must share their first block of factors (the system
    being extended); T maps the remaining factors of psi to those of gamma.
    """
    return p > 0.0 and _residual(t_proc, psi, gamma, p, tol=np.sqrt(tol)) <= tol


def _residual(
    proc: ProcessRep,
    state: StateVector,
    target: StateVector,
    p: float = 1.0,
    *,
    start: int | None = None,
    tol: float,
) -> float:
    """max |(I (x) proc) state - p target|, proc applied at ``tol`` from factor ``start``.

    ``start`` defaults to the trailing factors of ``state``.
    """
    trailing = state.system.n_factors - proc.input.n_factors
    moved = apply_to_factors(proc, state, trailing if start is None else start, tol=tol)
    if moved.system != target.system:
        raise ValueError(f"witness maps onto {moved.system}, target lives on {target.system}")
    return float(np.abs(moved.coords - p * target.coords).max())


def universal_extension_check(
    backend: str, d: int, *, samples: int = 10, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckReport:
    """The teleportation and (quantum family) purification witnesses on random extensions.

    The extensions are of the complete state; a witness that cannot be built
    fails the check.
    """
    if samples < 1:
        raise UsageError(f"universal extension needs at least one sample, got {samples}")
    a = system(backend, d)
    omega = bk.complete_state(a)
    phi, effect, p_tele = teleportation_witness(a)
    makers = {"teleportation": lambda g: extension_from_teleportation(phi, effect, g, tol=tol)}
    if a.backend != CLASSICAL:
        makers["purification"] = lambda g: (1.0, channel_from_purification(phi, g, tol=tol))
    apply_tol = min(sqrt(sqrt(tol)), DEFAULT_TOL)
    residuals = dict.fromkeys(makers, 0.0)
    ok = True
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        gamma = bk.random_extension(omega, a, rng)
        for name, make in makers.items():
            try:
                p, t_proc = make(gamma)
                residuals[name] = max(residuals[name], _residual(t_proc, phi, gamma, p, tol=apply_tol))
            except (ValueError, AssertionError):
                ok = False
    passed = ok and max(residuals.values()) <= min(sqrt(tol), max(tol, 1e-9))
    details = {"backend": backend, "d": d, "samples": samples, "p": p_tele}
    details.update({f"{name}_max_residual": r for name, r in residuals.items()})
    return CheckReport("universal-extension", passed, tol, seed, details)


# ---------------------------------------------------------------------------
# Purification symmetry
# ---------------------------------------------------------------------------

def _pure_vector(s: StateVector, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Extract the Hilbert-space vector of a rank-1 state, canonical phase."""
    vals, vecs = np.linalg.eigh(s.matrix)
    if vals[:-1].max(initial=0.0) > np.sqrt(tol):
        raise ValueError("state is not pure: second eigenvalue is not negligible")
    v = vecs[:, -1] * np.sqrt(max(vals[-1], 0.0))
    nz = np.flatnonzero(np.abs(v) > tol)
    if nz.size:
        v = v * (abs(v[nz[0]]) / v[nz[0]])
    return v


def _unitary_connecting(w1: np.ndarray, w2: np.ndarray, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """X with W1 X = W2 and X X^dag = I, given W1 W1^dag = W2 W2^dag: the polar factor of W1^dag W2.

    With W1^dag W2 = U S V^dag, X = U V^dag.  On the row space of W1 it is
    W1^+ W2; on the kernel of W1 it is an orthonormal completion.  Nothing
    is inverted, so a rank-deficient purification needs no cutoff.  With
    square W1 and W2, X is the unitary connecting two purifications; when W2
    has more columns, X^T is an isometry into the larger purifying system.
    Real inputs give a real X.
    """
    if np.abs(w1 @ w1.conj().T - w2 @ w2.conj().T).max() > np.sqrt(tol):
        raise ValueError("no connecting symmetry: the marginals differ")
    u, _, vh = np.linalg.svd(w1.conj().T @ w2, full_matrices=False)
    return u @ vh


def connect_purifications(
    psi: StateVector, psi2: StateVector, *, tol: float = DEFAULT_TOL
) -> ProcessRep:
    """U on the purifying system meant to be reversible with (I (x) U) psi == psi2.

    Both states must be pure with the same marginal on the first half of the
    factors.  Raises when the marginals differ.  U is returned unverified:
    ``purification_check`` reads its ``reversible`` flag and its residual.
    """
    if psi.system != psi2.system:
        raise ValueError("purifications must live on the same composite")
    sys = psi.system
    k = sys.n_factors // 2
    n_a = prod(sys.dims[:k])
    n_r = prod(sys.dims[k:])
    w1 = _pure_vector(psi, tol=tol).reshape(n_a, n_r)
    w2 = _pure_vector(psi2, tol=tol).reshape(n_a, n_r)
    x = _unitary_connecting(w1, w2, tol=tol)
    r_sys = subsystem(sys, range(k, sys.n_factors))
    return kraus_process(r_sys, r_sys, [x.T], tol=np.sqrt(tol))


def purification_check(
    backend: str, d: int, *, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckReport:
    """Purify a random state, rotate the purifying side, and reconnect the two."""
    if backend == CLASSICAL:
        raise UsageError("the classical backend admits no purification")
    a = system(backend, d)
    rng = np.random.default_rng(seed)
    rho = bk.random_state(a, rng)
    psi = bk.purify(rho, tol=tol)
    marginal_dev = float(np.abs(marginal(psi, 0).coords - rho.coords).max())
    purity_rank = bk.matrix_rank(psi.matrix)
    # symmetry: rotate the reference side, then reconnect
    n = a.total_dim
    g = rng.normal(size=(n, n))
    if backend == QUANTUM:
        g = g + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.real(np.diag(r)))
    psi2 = apply_to_factors(kraus_process(a, a, [q]), psi, a.n_factors)
    u_proc = connect_purifications(psi, psi2, tol=tol)
    connect_dev = _residual(u_proc, psi, psi2, tol=min(sqrt(tol), DEFAULT_TOL))
    passed = (
        marginal_dev <= max(tol, 1e-12)
        and purity_rank == 1
        and u_proc.reversible
        and connect_dev <= min(sqrt(tol), max(tol, 1e-9))
    )
    details = {
        "backend": backend,
        "d": d,
        "marginal_max_deviation": marginal_dev,
        "purification_rank": purity_rank,
        "connection_max_deviation": connect_dev,
        "connection_reversible": u_proc.reversible,
    }
    return CheckReport("purification", passed, tol, seed, details)


def channel_from_purification(
    psi: StateVector, gamma: StateVector, *, tol: float = DEFAULT_TOL
) -> ProcessRep:
    """Deterministic T: R -> E aiming at (I (x) T) Psi == Gamma, by the symmetry of purifications.

    Psi purifies its marginal on the first half of the factors (A) with R.
    Gamma's eigendecomposition gives a purification of Gamma with F a full
    copy of A (x) E; it and Psi purify the same marginal on A, so an isometry
    V: R -> E (x) F connects them (the reversible connection with a pure
    reference fed in).  Discarding F leaves the generating channel, one Kraus
    operator per F basis vector.  T is returned unverified;
    ``verify_universal_extension`` checks it with p = 1.
    """
    a = subsystem(psi.system, range(psi.system.n_factors // 2))
    r_sys = subsystem(psi.system, range(a.n_factors, psi.system.n_factors))
    if gamma.system.dims[: a.n_factors] != a.dims:
        raise ValueError(f"extension on {gamma.system} does not extend the {a} block")
    env = SystemDescriptor(a.backend, gamma.system.dims[a.n_factors :])
    if a.backend == CLASSICAL:
        raise ValueError("the classical backend admits no purification")

    n_a, n_r, n_e = a.total_dim, r_sys.total_dim, env.total_dim
    vals, vecs = np.linalg.eigh(gamma.matrix)
    w2 = (vecs * np.sqrt(np.clip(vals, 0.0, None))).reshape(n_a, -1)  # indices (A, E (x) F)
    w1 = _pure_vector(psi, tol=tol).reshape(n_a, n_r)
    v = _unitary_connecting(w1, w2, tol=tol).T  # isometry R -> E (x) F
    ops = v.reshape(n_e, n_a * n_e, n_r).transpose(1, 0, 2)  # one Kraus operator per F basis vector
    t_proc = kraus_process(r_sys, env, ops, tol=np.sqrt(tol))
    if not t_proc.deterministic:
        raise AssertionError("purification-based channel came out non-deterministic")
    return t_proc


# ---------------------------------------------------------------------------
# Preparational faithfulness
# ---------------------------------------------------------------------------

def preparationally_faithful_witness(
    phi: StateVector,
    target: StateVector,
    *,
    side: str = "second",
    tol: float = DEFAULT_TOL,
) -> tuple[float, ProcessRep]:
    """(p, S) meant to satisfy p * target == (I (x) S) Phi, S acting on the chosen factor block.

    Phi must be the canonical maximally correlated state on A (x) A.  For a
    pure target with coefficient matrix c the witness is the single Kraus
    operator carrying c, scaled by the top singular value; mixed targets
    eigendecompose and share one scalar across branches, fixed by the
    largest-branch normalization.  The one-target case of ``_prep_witnesses``,
    which validates the witness as ``kraus_process`` (``stochastic_process``
    on classical) would.  The witness is returned unverified;
    ``is_doubly_preparationally_faithful`` checks it with ``_prep_residuals``.
    """
    a = subsystem(phi.system, [0])
    p, ops, env = _prep_witnesses(phi, [target], side=side, tol=tol)
    rep = _stoch_rep if a.backend == CLASSICAL else _kraus_rep
    return float(p[0]), rep(a, env, ops[0], np.sqrt(tol))


def _prep_witnesses(
    phi: StateVector, targets: list[StateVector], *, side: str, tol: float
) -> tuple[np.ndarray, np.ndarray, SystemDescriptor]:
    """Scalars (m,), operator stack and output block of the witnesses of m targets on one composite.

    Quantum family: one ``eigh`` over the (m, n, n) targets keeps sqrt(lambda) u
    per eigenpair above ``tol`` (``kraus_from_psd``), one Gram ``eigvalsh``
    gives the scalars, and the stack is (m, k, d_out, d_in), complex.
    Classical: one (m, n_e, d) stochastic stack.  Each witness gets every
    check of ``kraus_process`` (finite, real class, I - sum K^dag K >= 0 by one
    stacked ``eigvalsh``) or of ``stochastic_process`` (finite, signs, column
    sums) at sqrt(tol).  A ``ValueError`` names the first failure in the
    stack; targets whose cutoffs keep different operator counts raise too.
    """
    a = subsystem(phi.system, [0])
    d, k_a = a.total_dim, a.n_factors
    comp = targets[0].system
    coords = np.stack([t.coords for t in targets])
    if (coords @ deterministic_effect(comp).coords <= tol).any():
        raise ValueError("cannot prepare the zero target with a cancellative scalar")
    slack = np.sqrt(tol)

    if a.backend == CLASSICAL:
        if side != "second":
            raise ValueError("classical witness is implemented on the second factor")
        env = SystemDescriptor(a.backend, comp.dims[1:])
        joints = coords.reshape(len(targets), d, env.total_dim)
        p = 1.0 / (d * joints.sum(axis=2).max(axis=1))
        stoch = (p * d)[:, None, None] * joints.swapaxes(1, 2)
        _require_finite(stoch, "stochastic matrix")
        if stoch.min() < -slack:
            raise ValueError("stochastic matrix has a negative entry")
        if stoch.sum(axis=1).max() > 1.0 + slack:
            raise ValueError("stochastic matrix has a column summing above 1")
        return p, stoch, env

    # one sqrt(lambda) u per branch, as a coefficient matrix from the A copy to E
    n_e = comp.total_dim // d
    if side == "second":
        env = SystemDescriptor(a.backend, comp.dims[k_a:])
    else:
        env = SystemDescriptor(a.backend, comp.dims[: comp.n_factors - k_a])
    vals, us = np.linalg.eigh(np.stack([t.matrix for t in targets]))
    kept = (vals > tol).sum(axis=1)  # eigh sorts ascending, so the kept pairs are the last ones
    k = int(kept[0])
    if (kept != k).any():
        raise ValueError("the targets keep different operator counts")
    if not k:
        raise ValueError("cannot prepare the zero target with a cancellative scalar")
    branches = np.ascontiguousarray((np.sqrt(vals[:, -k:])[:, None, :] * us[:, :, -k:]).swapaxes(1, 2))
    if side == "second":
        coeff_mats = branches.reshape(len(targets), k, d, n_e).swapaxes(2, 3)
    else:
        coeff_mats = branches.reshape(len(targets), k, n_e, d)
    gram = (coeff_mats.conj().swapaxes(2, 3) @ coeff_mats).sum(axis=1)
    top = np.linalg.eigvalsh(gram).max(axis=1)
    if (top <= 0.0).any():
        raise ValueError("cannot prepare the zero target with a cancellative scalar")
    p = 1.0 / (d * top)
    ops = np.ascontiguousarray(np.sqrt(p * d)[:, None, None, None] * coeff_mats, dtype=complex)
    _require_finite(ops, "Kraus operator")
    if a.backend == REAL and not np.all(
        (np.abs(ops.imag).max(axis=(2, 3)) <= slack) | (np.abs(ops.real).max(axis=(2, 3)) <= slack)
    ):
        raise ValueError("real-backend Kraus operators must be entrywise real or entrywise purely imaginary")
    stacked = ops.reshape(len(targets), -1, d)  # sum_k K_k^dag K_k per witness as one product
    if np.linalg.eigvalsh(np.eye(d) - stacked.conj().swapaxes(1, 2) @ stacked).min() < -slack:
        raise ValueError("Kraus list is not physical: sum K^dag K exceeds the identity")
    return p, ops, env


def _prep_residuals(
    phi: StateVector, targets: list[StateVector], side: str, tol: float
) -> np.ndarray:
    """max |(I (x) S) Phi - p target| per target, every witness judged in one stack.

    The witnesses act on Phi at once (``_sandwich``, or ``_on_rows`` for the
    stochastic stack), and their images are projected once with the residue,
    finite and weight checks at sqrt(tol) (``_checked_images``), as
    ``apply_to_factors`` checks one image.
    """
    p, ops, _ = _prep_witnesses(phi, targets, side=side, tol=tol)
    left = 1 if side == "first" else phi.system.dims[0]
    if phi.system.backend == CLASSICAL:
        images = _on_rows(ops, phi.coords[None, :, None], left)
    else:
        images = _sandwich(ops.swapaxes(0, 1), phi.matrix[None], left)
    coords = _checked_images(targets[0].system, images, np.sqrt(tol))
    return np.abs(coords - p[:, None] * np.stack([t.coords for t in targets])).max(axis=1)


@lru_cache(maxsize=None)
def _spanning_source(a: SystemDescriptor) -> Test:
    """The uniform randomization of the preparations of ``a``'s spanning states, built once per system."""
    src = bk.spanning_states(a)
    return randomize([preparation_test([s]) for s in src], [1.0 / len(src)] * len(src))


def is_doubly_preparationally_faithful(
    a: SystemDescriptor,
    b: SystemDescriptor,
    *,
    seed: int = 0,
    samples: int = 8,
    tol: float = DEFAULT_TOL,
) -> CheckReport:
    """Witness generation for targets on A (x) A and A (x) B from one fixed state.

    When standard process tomography identifies processes (complex and
    classical backends), the dimension law must also hold; for the real
    backend the witnesses exist while Local Tomography fails, so standard
    tomography must fail, as exhibited by a pair of processes that agree on
    every single-system input without being equal.

    Each (composite, side) pair draws its ``samples`` targets first, in the
    order one draw per target would take them, and judges their witnesses
    as one stack (``_prep_residuals``): p * target == (I (x) S) Phi within
    sqrt(tol), S applied at sqrt(tol) with the residue, finite and weight
    checks.  When the stack raises (the targets keep different operator
    counts, or one witness or image fails a check), that pair falls back to
    judging target by target on stacks of one, so a failure spoils only its
    own target's verdict and ``witness_max_residual`` is the largest residual
    of the witnesses judged.  Fewer than one sample is a usage error.
    """
    if samples < 1:
        raise UsageError(f"doubly preparational faithfulness needs at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    phi = bk.maximally_entangled_state(a)
    aa, ab = tensor_systems(a, a), tensor_systems(a, b)
    # "from A to A" once more with witnesses on the first factor (the classical
    # witness has only the second); the report's maximum covers every witness
    first = "first" if a.backend != CLASSICAL else "second"
    max_residual = 0.0
    ok = True
    for comp, side in ((aa, "second"), (ab, "second"), (aa, first)):
        targets = [bk.random_state(comp, rng) for _ in range(samples)]
        try:
            judged = [_prep_residuals(phi, targets, side, tol)]
        except ValueError:  # judge target by target, so one failure spoils only its own verdict
            judged = []
            for target in targets:
                try:
                    judged.append(_prep_residuals(phi, [target], side, tol))
                except ValueError:
                    ok = False
        for residuals in judged:
            ok = ok and bool((residuals <= sqrt(tol)).all())
            max_residual = max(max_residual, float(residuals.max()))

    lt_report = is_locally_tomographic(a, b, tol=tol)
    details = {
        "backend": a.backend,
        "witness_max_residual": max_residual,
        "local_tomography_pass": lt_report.passed,
    }
    if a.backend == REAL and a.total_dim == 2:
        from .rebit import rebit_processes

        p1, p2 = rebit_processes()
        details["standard_tomography_fails"] = bool(
            equal_on_source(p1, p2, _spanning_source(a), tol) and not equal_processes(p1, p2, tol)
        )
    return CheckReport(
        check="doubly-preparationally-faithful",
        passed=ok,
        tolerance=tol,
        seed=seed,
        details=details,
    )
