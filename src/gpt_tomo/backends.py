"""Concrete theories: spanning sets, complete states, purification, process bases.

The three backends supply everything the tomography layer treats as given:
fiducial families that span the state and effect spaces, a canonical complete
(full-rank / full-support) state, purifications for the quantum family, a
spanning set of the *operational* span of processes, and seeded generators
for property tests.  Classical states and effects are diagonal matrices, so
the fixed families and the process basis cut one pure family per backend.

Operational process coordinates deserve a note.  A process is identified by
its action on all composites, not by its single-system transfer matrix (the
whole point of the real backend).  We therefore coordinatize a process by a
Choi-style object: the lifted action on the unnormalized maximally correlated
state ``sum_ij E_ij (x) E_ij``.  For the complex backend that object ranges
over all Hermitian matrices on B (x) A, giving span dimension (d_A d_B)^2; for
the real backend over real symmetric matrices; for the classical backend over
diagonal ones, whose diagonal is the stochastic matrix itself.  The
process-space basis is plain arrays, the polarization operators and their
coordinate matrix; the latter is square and lower triangular with a nonzero
diagonal in every backend, so the builder asserts that structure instead of
taking a numerical rank.

The fixed families (spanning sets, complete and maximally entangled states and
effects) and process-space bases are built and validated once per system per
process and cached; a spanning family comes back as a fresh list each call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, islice

import numpy as np

from .core import (
    CLASSICAL,
    DEFAULT_TOL,
    QUANTUM,
    EffectVector,
    ProcessRep,
    StateVector,
    SystemDescriptor,
    _state_rep,
    apply_to_factors,
    choi,
    contract,
    effect_from_coords,
    effect_from_matrix,
    kraus_process,
    matrix_to_coords,
    state_from_coords,
    state_from_matrix,
    state_from_vector,
    stochastic_process,
    tensor_states,
    tensor_systems,
)


def _rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# Spanning families and complete states
# ---------------------------------------------------------------------------

def _pure_family(sys: SystemDescriptor) -> list[np.ndarray]:
    """Vectors e_i, then (e_i+e_j)/sqrt2, then (e_i+i e_j)/sqrt2 over i < j, cut at ``sys.state_dim``.

    The cut gives each backend its family; vectors past it are never formed.
    """
    n = sys.total_dim
    eye = np.eye(n)
    family = chain(
        (eye[i] for i in range(n)),
        ((eye[i] + eye[j]) / np.sqrt(2.0) for i, j in combinations(range(n), 2)),
        ((eye[i] + 1j * eye[j]) / np.sqrt(2.0) for i, j in combinations(range(n), 2)),
    )
    return list(islice(family, sys.state_dim))


def spanning_states(sys: SystemDescriptor) -> list[StateVector]:
    """Deterministic states whose real span is the full state space (a fresh list each call)."""
    return list(_spanning_states(sys))


@lru_cache(maxsize=None)
def _spanning_states(sys: SystemDescriptor) -> tuple[StateVector, ...]:
    return tuple(state_from_vector(sys, v) for v in _pure_family(sys))


def spanning_effects(sys: SystemDescriptor) -> list[EffectVector]:
    """Effects (rank-1 projectors / outcome indicators) spanning the effect space (a fresh list each call)."""
    return list(_spanning_effects(sys))


@lru_cache(maxsize=None)
def _spanning_effects(sys: SystemDescriptor) -> tuple[EffectVector, ...]:
    return tuple(effect_from_matrix(sys, np.outer(v, v.conj())) for v in _pure_family(sys))


@lru_cache(maxsize=None)
def complete_state(sys: SystemDescriptor) -> StateVector:
    """The maximally mixed (quantum family) or uniform (classical) state.

    Any full-rank state contains every deterministic state; this one is the
    canonical interior point.
    """
    return state_from_matrix(sys, np.eye(sys.total_dim) / sys.total_dim)


@lru_cache(maxsize=None)
def maximally_entangled_state(a: SystemDescriptor) -> StateVector:
    """Canonical two-copy correlated state: Bell-type for quantum, perfect copy for classical."""
    n = a.total_dim
    comp = tensor_systems(a, a)
    if a.backend == CLASSICAL:
        return state_from_coords(comp, np.eye(n).reshape(-1) / n)
    vec = np.eye(n).reshape(-1) / np.sqrt(n)
    return state_from_vector(comp, vec)


@lru_cache(maxsize=None)
def maximally_entangled_effect(a: SystemDescriptor) -> EffectVector:
    """The matching rank-1 effect (quantum) or equality indicator (classical)."""
    n = a.total_dim
    comp = tensor_systems(a, a)
    if a.backend == CLASSICAL:
        return effect_from_coords(comp, np.eye(n).reshape(-1))
    vec = np.eye(n).reshape(-1) / np.sqrt(n)
    return effect_from_matrix(comp, np.outer(vec, vec.conj()))


def _canonical_signs(vecs: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Flip eigenvector phases so the first nonzero entry is positive real."""
    out = vecs.copy()
    for i in range(out.shape[1]):
        col = out[:, i]
        nz = np.flatnonzero(np.abs(col) > tol)
        if nz.size:
            phase = col[nz[0]] / abs(col[nz[0]])
            out[:, i] = col / phase
    return out


def purify(rho: StateVector, *, tol: float = DEFAULT_TOL) -> StateVector:
    """A rank-1 extension of ``rho`` on A (x) R with R a copy of A.

    Built from the eigendecomposition with eigenvalues sorted descending, so
    the maximally mixed state purifies to the canonical maximally entangled
    state and pure states purify to products.
    """
    sys = rho.system
    if sys.backend == CLASSICAL:
        raise ValueError("the classical backend admits no purification")
    vals, vecs = np.linalg.eigh(rho.matrix)
    order = np.argsort(-vals, kind="stable")  # descending, ties keep eigh order
    vals, vecs = vals[order], _canonical_signs(vecs[:, order])
    psi = (vecs * np.sqrt(np.clip(vals, 0.0, None))).reshape(-1)  # sum_i sqrt(l_i) v_i (x) e_i
    return state_from_vector(tensor_systems(sys, sys), psi, tol=tol)


# ---------------------------------------------------------------------------
# Operational process coordinates and process-space bases
# ---------------------------------------------------------------------------

def process_coords(p: ProcessRep, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coordinates of a process in the fixed operational basis of its type.

    Two processes are operationally indistinguishable exactly when their
    coordinates agree; for the quantum backends these are the coordinates of
    the Choi-style matrix on the output (x) input system.
    """
    if p.stoch is not None:
        return p.stoch.reshape(-1).copy()
    comp = tensor_systems(p.output, p.input)
    return matrix_to_coords(comp, choi(p.kraus), tol=tol)


@dataclass(frozen=True)
class ProcessSpaceBasis:
    """A basis of the real span of processes of one type, as plain arrays.

    ``operators`` (N, d_out, d_in) are Kraus operators of physical processes
    (stochastic matrix units on the classical backend); row n of ``elements``
    is the operational coordinates of process n.  That matrix is square and
    lower triangular with a nonzero diagonal, so its rows span the space.
    """

    input: SystemDescriptor
    output: SystemDescriptor
    operators: np.ndarray
    elements: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.operators)


@lru_cache(maxsize=None)
def process_space_basis(a: SystemDescriptor, b: SystemDescriptor) -> ProcessSpaceBasis:
    """Basis of the operational span of processes A -> B.

    The operators are the pure family of B (x) A reshaped: matrix units E_x,
    then (E_x + E_y)/sqrt2, then (E_x + i E_y)/sqrt2 over x < y, cut at the
    span dimension, so the classical backend keeps the matrix units alone
    (dimension d_A d_B).  An element holds the coordinates of the rank-one
    Choi matrix vec(K) vec(K)^dag.  In the Gell-Mann order they are lower
    triangular with diagonal entries 1 and 1/sqrt2, so full rank is checked
    structurally in O(N^2) rather than by an SVD.
    """
    if a.backend != b.backend:
        raise ValueError("process space needs matching backends")
    comp = tensor_systems(b, a)
    vecs = _pure_family(comp)
    ops = np.array(vecs).reshape(-1, b.total_dim, a.total_dim)
    elements = np.stack([matrix_to_coords(comp, np.outer(v, v.conj())) for v in vecs])
    ops.flags.writeable = elements.flags.writeable = False
    square = elements.shape[0] == elements.shape[1]
    if not square or np.triu(elements, 1).any() or not elements.diagonal().all():
        raise ValueError("process basis construction produced dependent elements")
    return ProcessSpaceBasis(a, b, ops, elements)


# every rank counts the singular values above this fraction of the largest one
_RANK_CUTOFF = 1e-9


def matrix_rank(mat: np.ndarray) -> int:
    """Rank with a singular-value cutoff relative to the largest singular value."""
    return sector_rank([(1, mat)])


def sector_rank(sectors: list[tuple[int, np.ndarray]]) -> int:
    """Sum of weight * rank over (weight, matrix) pairs, cut against one scale.

    The cutoff is ``_RANK_CUTOFF`` times the largest singular value over every
    sector of nonzero weight: a sector that vanishes up to round-off (about
    1e-17) would read as rank 1 against its own largest singular value.
    """
    svals = [(w, np.linalg.svd(m, compute_uv=False)) for w, m in sectors if w and m.size]
    top = max((s[0] for _, s in svals), default=0.0)
    if top == 0.0:
        return 0
    return sum(w * int(np.sum(s > _RANK_CUTOFF * top)) for w, s in svals)


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------

def random_state(sys: SystemDescriptor, seed: int | np.random.Generator | None) -> StateVector:
    """A full-rank-in-expectation random deterministic state (Wishart style)."""
    rng = _rng(seed)
    n = sys.total_dim
    if sys.backend == CLASSICAL:
        w = rng.random(n) + 1e-12
        return state_from_coords(sys, w / w.sum())
    g = rng.normal(size=(n, n))
    if sys.backend == QUANTUM:
        g = g + 1j * rng.normal(size=(n, n))
    w = g @ g.conj().T
    return _state_rep(sys, w / np.trace(w).real, DEFAULT_TOL)  # a Gram matrix needs no eigenvalue test


def random_pure_state(sys: SystemDescriptor, seed: int | np.random.Generator | None) -> StateVector:
    rng = _rng(seed)
    n = sys.total_dim
    if sys.backend == CLASSICAL:
        raise ValueError("classical states are never pure unless deterministic points")
    v = rng.normal(size=n)
    if sys.backend == QUANTUM:
        v = v + 1j * rng.normal(size=n)
    return state_from_vector(sys, v / np.linalg.norm(v))


def random_rank_deficient_state(
    sys: SystemDescriptor, seed: int | np.random.Generator | None
) -> StateVector:
    """A random deterministic state supported on a proper subspace."""
    rng = _rng(seed)
    n = sys.total_dim
    if n < 2:
        raise ValueError("need dimension at least 2 for a rank-deficient state")
    if sys.backend == CLASSICAL:
        w = rng.random(n) + 1e-12
        w[int(rng.integers(n))] = 0.0
        return state_from_coords(sys, w / w.sum())
    rank = int(rng.integers(1, n))
    g = rng.normal(size=(n, rank))
    if sys.backend == QUANTUM:
        g = g + 1j * rng.normal(size=(n, rank))
    w = g @ g.conj().T
    return _state_rep(sys, w / np.trace(w).real, DEFAULT_TOL)


def random_process(
    a: SystemDescriptor, b: SystemDescriptor, seed: int | np.random.Generator | None
) -> ProcessRep:
    """A random deterministic process, Stinespring style for the quantum family.

    A Haar-ish isometry V: A -> B (x) E is drawn by QR of a Ginibre matrix
    (real orthogonal for the real backend, so the Kraus operators stay inside
    the entrywise-real class) and sliced along the environment.
    """
    rng = _rng(seed)
    if a.backend != b.backend:
        raise ValueError("random process needs matching backends")
    if a.backend == CLASSICAL:
        cols = np.stack([rng.dirichlet(np.ones(b.total_dim)) for _ in range(a.total_dim)], axis=1)
        return stochastic_process(a, b, cols)
    din, dout = a.total_dim, b.total_dim
    env = din  # any env with dout*env >= din works; this keeps Kraus counts small
    g = rng.normal(size=(dout * env, din))
    if a.backend == QUANTUM:
        g = g + 1j * rng.normal(size=(dout * env, din))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.real(np.diag(r)))  # fix QR sign gauge for reproducibility
    return kraus_process(a, b, q.reshape(env, dout, din))  # one operator per environment row block


def random_povm(
    sys: SystemDescriptor, n_outcomes: int, seed: int | np.random.Generator | None
) -> list[EffectVector]:
    """A random measurement: effects summing to the deterministic one."""
    rng = _rng(seed)
    n = sys.total_dim
    if sys.backend == CLASSICAL:
        raw = rng.random((n_outcomes, n)) + 1e-12
        raw /= raw.sum(axis=0, keepdims=True)
        return [effect_from_coords(sys, row) for row in raw]
    mats = []
    for _ in range(n_outcomes):
        g = rng.normal(size=(n, n))
        if sys.backend == QUANTUM:
            g = g + 1j * rng.normal(size=(n, n))
        mats.append(g @ g.conj().T)
    total = sum(mats)
    vals, vecs = np.linalg.eigh(total)
    inv_sqrt = vecs @ np.diag(1.0 / np.sqrt(vals)) @ vecs.conj().T
    return [effect_from_matrix(sys, inv_sqrt @ m @ inv_sqrt) for m in mats]


def random_extension(
    rho: StateVector, env: SystemDescriptor, seed: int | np.random.Generator | None
) -> StateVector:
    """A random extension of ``rho`` on A (x) env (marginal over env equals rho).

    Quantum family: a random deterministic channel pushed onto the purifying
    system.  Classical: a random conditional distribution on the environment.
    """
    rng = _rng(seed)
    sys = rho.system
    if sys.backend == CLASSICAL:
        cond = np.stack(
            [rng.dirichlet(np.ones(env.total_dim)) for _ in range(sys.total_dim)], axis=1
        )
        joint = cond * rho.coords  # joint[e, a] = p(e|a) rho_a
        comp = tensor_systems(sys, env)
        return state_from_coords(comp, joint.T.reshape(-1))
    psi = purify(rho)
    ref = SystemDescriptor(sys.backend, psi.system.dims[sys.n_factors :])
    channel = random_process(ref, env, rng)
    return apply_to_factors(channel, psi, sys.n_factors)


def random_ensemble_extension(
    rho: StateVector,
    env: SystemDescriptor,
    seed: int | np.random.Generator | None,
) -> StateVector:
    """A separable extension sum_x sigma_x (x) tau_x with sum_x sigma_x = rho, over three branches x."""
    rng = _rng(seed)
    sys = rho.system
    if sys.backend == CLASSICAL:
        return random_extension(rho, env, rng)
    psi = purify(rho)
    ref = SystemDescriptor(sys.backend, psi.system.dims[sys.n_factors :])
    effects = random_povm(ref, 3, rng)
    ref_indices = list(range(sys.n_factors, psi.system.n_factors))
    pieces = []
    for e in effects:
        sigma = contract(psi, e, ref_indices)  # subnormalized branch of rho
        tau = random_state(env, rng)
        pieces.append(tensor_states(sigma, tau))
    coords = sum(p.coords for p in pieces)
    return state_from_coords(tensor_systems(sys, env), coords)
