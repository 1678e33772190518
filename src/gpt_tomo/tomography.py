"""Process-equality levels, containment, tomographic ordering, faithfulness.

The four levels of identifying a process, from weakest to strongest:

1. equality on a fixed source (``equal_on_source``),
2. equality upon input of a state: on every source with that average state,
   equivalently on the face of the state (``equal_upon_input``),
3. equality on all extensions of a state (``equal_on_extensions``),
4. full equality as processes (``equal_processes``).

All four are one rule, ``_agree``, over four families of test states: the
source's states, the states spanning the face of rho, rho's canonical
extension, and the faithful state.

Tomographic ordering compares bipartite states by the kernels of their
lifting maps: ``Phi >= Psi`` when processes indistinguishable on Phi are
indistinguishable on Psi.  A state is dynamically faithful when its lifting
map is injective on the operational span of processes, i.e. its rank equals
the process-space dimension.  The lifting map is I_B (x) S_phi for a
d_ref^2 x d_in^2 reshuffle S_phi of phi, so every rank is decided on S_phi
per sector against one scale; ``lifting_matrix`` is the definition, kept as
the tests' differential oracle.

Classical states are diagonal matrices, so completeness and the lifting
matrix take one route on every backend; ``contains``, the face, the canonical
extension and the lifting sectors keep a classical branch where the theory or
the cost differs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import replace

import numpy as np

from . import backends as bk
from .core import (
    CLASSICAL,
    DEFAULT_TOL,
    QUANTUM,
    ProcessRep,
    StateVector,
    SystemDescriptor,
    Test,
    matrix_to_coords,
    _images,
    _near,
    _state_reps,
    source_states,
    state_from_coords,
    system,
    tensor_systems,
)
from .reports import CheckReport


# ---------------------------------------------------------------------------
# Equality level 1: on a source
# ---------------------------------------------------------------------------

def equal_on_source(p: ProcessRep, p2: ProcessRep, source: Test, tol: float = DEFAULT_TOL) -> bool:
    """True when the two processes agree on every branch state of the source."""
    _check_same_type(p, p2)
    if source.output != p.input:
        raise ValueError(f"source prepares {source.output}, processes expect {p.input}")
    return _agree(p, p2, (rho for _, rho in source_states(source)), tol)


def _check_same_type(p: ProcessRep, p2: ProcessRep) -> None:
    if p.input != p2.input or p.output != p2.output:
        raise ValueError(f"processes have different types: {p} vs {p2}")


def _agree(p: ProcessRep, p2: ProcessRep, states: Iterable[StateVector], tol: float) -> bool:
    """The one equality rule: the two outputs lie within ``tol`` on every test state.

    The test states all live on ``p.input``, followed by the reference
    factors on the extension levels.  They form one stack: each process acts
    on it once and both image stacks are projected once (``core._images``,
    with the residue, finite and weight checks at the default tolerance),
    and one ``_near`` over every coordinate of every image decides.  No
    output state is built.  An empty family agrees.
    """
    states = list(states)
    if not states:
        return True
    out, out2 = _images((p, p2), states)
    return _near(out, out2, tol)


# ---------------------------------------------------------------------------
# Containment and complete states
# ---------------------------------------------------------------------------

def contains(
    rho: StateVector, sigma: StateVector, *, tol: float = DEFAULT_TOL
) -> tuple[float, StateVector] | None:
    """Largest cancellative p with rho = p sigma + (1-p) tau, tau a state.

    Returns ``(p, tau)`` or ``None`` when infeasible.  Quantum criterion:
    the support of sigma must lie inside the support of rho, and then
    p = 2^(-D_max(sigma || rho)) = 1 / lambda_max(rho^-1/2 sigma rho^-1/2)
    (Datta, IEEE TIT 55, 2816 (2009)), capped at 1, with rho shifted by the
    1e-14 eigensolver slack that rho - p sigma may show: any weight of sigma
    on the kernel of rho still lowers p.  Classical: coordinate ratios.
    """
    if rho.system != sigma.system:
        raise ValueError("containment compares states of one system")
    sys = rho.system
    if sys.backend == CLASSICAL:
        mask = sigma.coords > tol
        if not mask.any():
            return None
        if (rho.coords[mask] <= tol).any():
            return None
        p = float(np.min(rho.coords[mask] / sigma.coords[mask]))
        p = min(p, 1.0)
    else:
        s_mat = sigma.matrix
        # support test: sigma must vanish on the kernel of rho
        vals, vecs = np.linalg.eigh(rho.matrix)
        kernel = vecs[:, vals <= tol]
        if kernel.size and np.abs(kernel.conj().T @ s_mat @ kernel).max() > np.sqrt(tol):
            return None
        shifted = vals + 1e-14  # the noise slack of rho - p sigma
        if shifted[0] <= 0.0:
            return None
        w = vecs / np.sqrt(shifted)  # (rho + slack)^-1/2 in the eigenbasis of rho
        top = float(np.linalg.eigvalsh(w.conj().T @ s_mat @ w).max())
        p = 1.0 if top <= 0.0 else min(1.0, 1.0 / top)
    if p <= tol:
        return None
    if p >= 1.0 - tol:
        return 1.0, rho
    tau = state_from_coords(sys, (rho.coords - p * sigma.coords) / (1.0 - p), tol=np.sqrt(tol))
    return p, tau


def is_complete(rho: StateVector, *, tol: float = DEFAULT_TOL) -> bool:
    """Full rank (quantum) / full support (classical): contains every state."""
    if rho.kind != "deterministic":
        raise ValueError("completeness is defined for deterministic states")
    return bool(np.linalg.eigvalsh(rho.matrix).min() > tol)


# ---------------------------------------------------------------------------
# Equality level 2: upon input of a state
# ---------------------------------------------------------------------------

def face_spanning_states(rho: StateVector, *, tol: float = DEFAULT_TOL) -> list[StateVector]:
    """Deterministic states spanning the face of rho (states contained in rho).

    On the quantum family each is V sigma V^dag for a spanning state sigma of
    the r-dimensional support and the isometry V onto it, a completely
    positive image.  The family is built as one stack: one broadcast matmul
    over the stacked sigma, then ``_state_reps`` projects and checks the
    stack once at the default tolerance, without an eigenvalue test, and
    flags each state.  An empty support (the zero state) has an empty face
    on every backend.
    """
    sys = rho.system
    if sys.backend == CLASSICAL:
        points = bk.spanning_states(sys)
        return [points[i] for i in np.flatnonzero(rho.coords > tol)]
    vals, vecs = np.linalg.eigh(rho.matrix)
    support = vecs[:, vals > tol]
    if not support.shape[1]:
        return []
    small = bk.spanning_states(SystemDescriptor(sys.backend, (support.shape[1],)))
    emb = support @ np.stack([s.matrix for s in small]) @ support.conj().T
    return _state_reps(sys, emb, DEFAULT_TOL)


def equal_upon_input(
    p: ProcessRep, p2: ProcessRep, rho: StateVector, tol: float = DEFAULT_TOL
) -> bool:
    """Equality on every source averaging to rho: agreement on the face of rho."""
    _check_same_type(p, p2)
    if rho.system != p.input:
        raise ValueError("reference state must live on the process input")
    return _agree(p, p2, face_spanning_states(rho, tol=tol), tol)


# ---------------------------------------------------------------------------
# Equality level 3: on the extensions of a state
# ---------------------------------------------------------------------------

def canonical_extension(rho: StateVector, *, tol: float = DEFAULT_TOL) -> StateVector:
    """The dominating extension used to decide equality on all extensions.

    Quantum family: a purification, which is a universal extension (every
    other extension is obtained from it by a deterministic transformation on
    the reference system).  Classical: the perfectly correlated extension
    with a display register, which plays the same role.
    """
    sys = rho.system
    if sys.backend == CLASSICAL:
        joint = np.diag(rho.coords).reshape(-1)  # rho_i at outcome (i, i)
        return state_from_coords(tensor_systems(sys, sys), joint, tol=tol)
    return bk.purify(rho, tol=tol)


def equal_on_extensions(
    p: ProcessRep, p2: ProcessRep, rho: StateVector, tol: float = DEFAULT_TOL
) -> bool:
    """True when the lifted processes agree on every extension of rho.

    Decided on the canonical (universal) extension alone; agreement there
    propagates to every extension through the generating transformation,
    while disagreement is already a counterexample since the canonical
    extension is an extension.
    """
    _check_same_type(p, p2)
    if rho.system != p.input:
        raise ValueError("reference state must live on the process input")
    return _agree(p, p2, [canonical_extension(rho, tol=tol)], tol)


# ---------------------------------------------------------------------------
# Tomographic ordering and dynamical faithfulness
# ---------------------------------------------------------------------------

def lifting_matrix(
    phi: StateVector, a: SystemDescriptor, basis: bk.ProcessSpaceBasis
) -> np.ndarray:
    """Column n is the coordinate vector of (K_n (x) I) phi (K_n (x) I)^dag.

    A process with basis coordinates c acts on phi as ``M c``; the kernel of
    M is the set of process-span elements invisible on phi.  phi = H H^dag is
    factored once and column n is W W^dag, W = (K_n (x) I) H; on the
    classical backend K_n is a stochastic matrix unit.
    """
    k = a.n_factors
    if phi.system.backend != a.backend or phi.system.dims[:k] != a.dims:
        raise ValueError(f"state on {phi.system} does not start with input {a}")
    if basis.input != a:
        raise ValueError(f"process basis starts at {basis.input}, not at input {a}")
    out = SystemDescriptor(a.backend, basis.output.dims + phi.system.dims[k:])
    vals, vecs = np.linalg.eigh(phi.matrix)
    h = (vecs[:, vals > 0] * np.sqrt(vals[vals > 0])).reshape(a.total_dim, -1)
    # one W at a time: N stacked outputs would set the check's peak memory
    ws = ((op @ h).reshape(out.total_dim, -1) for op in basis.operators)
    return np.stack([matrix_to_coords(out, w @ w.conj().T) for w in ws], axis=1)


def _lifting_sectors(
    phi: StateVector, a: SystemDescriptor, b: SystemDescriptor
) -> list[tuple[int, np.ndarray]]:
    """(weight, matrix) pairs whose weighted ranks add up to the lifting rank.

    The lifting map of phi on processes A -> B is I_B (x) S_phi, where
    S_phi[(r, s), (i, j)] = phi[(i, r), (j, s)] is a d_ref^2 x d_in^2
    reshuffle of phi that never involves d_out (D'Ariano & Lo Presti,
    PRL 91, 047902 (2003)).  Quantum: d_out^2 copies of S_phi.  Real: the
    symmetric Choi matrices split into Sym_B (x) Sym_A + Anti_B (x) Anti_A,
    and S_phi commutes with the swap of the two A indices, so the sectors are
    S_phi P_sym and S_phi P_anti with weights sym(d_out) and anti(d_out).
    Classical: the lifting matrix is I_{d_out} (x) joint^T.
    """
    if a.backend != b.backend:
        raise ValueError("process space needs matching backends")
    k = a.n_factors
    if phi.system.backend != a.backend or phi.system.dims[:k] != a.dims:
        raise ValueError(f"state on {phi.system} does not start with input {a}")
    din, dout = a.total_dim, b.total_dim
    if a.backend == CLASSICAL:
        return [(dout, phi.coords.reshape(din, -1).T)]
    dref = phi.system.total_dim // din
    s = phi.matrix.reshape(din, dref, din, dref).transpose(1, 3, 0, 2).reshape(dref * dref, -1)
    if a.backend == QUANTUM:
        return [(dout * dout, s)]
    sym = (s + s.reshape(-1, din, din).transpose(0, 2, 1).reshape(s.shape)) / 2.0
    return [(dout * (dout + 1) // 2, sym), (dout * (dout - 1) // 2, s - sym)]


def lifting_rank(phi: StateVector, a: SystemDescriptor, b: SystemDescriptor) -> int:
    """Rank of the lifting map of phi on processes A -> B, decided per sector."""
    return bk.sector_rank(_lifting_sectors(phi, a, b))


def tomographically_geq(phi: StateVector, psi: StateVector, a: SystemDescriptor, b: SystemDescriptor) -> bool:
    """Kernel inclusion ker M_phi <= ker M_psi via stacked-rank comparison.

    Both lifting maps act on the same input columns, so the comparison is made
    sector by sector on the stacked reshuffles; the reference systems may differ.
    """
    sectors = _lifting_sectors(phi, a, b)
    stacked = [(w, np.vstack([m, m2])) for (w, m), (_, m2) in zip(sectors, _lifting_sectors(psi, a, b))]
    return bk.sector_rank(stacked) == bk.sector_rank(sectors)


def is_dynamically_faithful(phi: StateVector, a: SystemDescriptor, b: SystemDescriptor) -> bool:
    """The lifting map on phi is injective on the span of processes A -> B."""
    return lifting_rank(phi, a, b) == tensor_systems(b, a).state_dim


def faithful_state_check(
    backend: str, din: int, dout: int, *, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckReport:
    """Lifting rank of ``find_faithful_state`` against the processes din -> dout.

    The rank is decided on the reshuffle S_phi per sector, against one scale
    (``_lifting_sectors``); no lifting matrix is built.  ``seed`` is only
    echoed into the report.
    """
    a, b = system(backend, din), system(backend, dout)
    span = tensor_systems(b, a).state_dim
    phi = find_faithful_state(a)
    rank = lifting_rank(phi, a, b)
    details = {
        "backend": backend,
        "din": din,
        "dout": dout,
        "process_span_dim": span,
        "lifting_rank": rank,
        "reference_dim": list(phi.system.dims[a.n_factors :]),
    }
    return CheckReport("dynamically-faithful", rank == span, tol, seed, details)


def find_faithful_state(a: SystemDescriptor) -> StateVector:
    """A dynamically faithful state for processes out of ``a``, any output.

    The canonical maximally entangled state on every backend: the complete
    state's purification, formed without an ``eigh``, on the quantum family,
    and the perfectly correlated copy state on the classical one.
    """
    return bk.maximally_entangled_state(a)


def is_locally_tomographic(
    a: SystemDescriptor, b: SystemDescriptor, *, tol: float = DEFAULT_TOL
) -> CheckReport:
    """Do product effects span the composite effect space?

    Equivalent to the dimension law state_dim(A (x) B) = state_dim(A) *
    state_dim(B); both the dimension count and the numeric span rank of the
    product effects are reported.  That rank is rank C_A * rank C_B for the
    stacked coordinates C of each side's spanning effects: coordinates are
    orthonormal, so the product-effect coordinates P have P P^T = G_A (x) G_B.
    """
    comp = tensor_systems(a, b)
    dim_composite = comp.state_dim
    dim_product = a.state_dim * b.state_dim
    local = [np.stack([e.coords for e in bk.spanning_effects(s)]) for s in (a, b)]
    rank = bk.matrix_rank(local[0]) * bk.matrix_rank(local[1])
    passed = dim_composite == dim_product and rank == dim_composite
    return CheckReport(
        check="local-tomography",
        passed=passed,
        tolerance=tol,
        details={
            "backend": a.backend,
            "dims": [list(a.dims), list(b.dims)],
            "dim_composite": dim_composite,
            "dim_product": dim_product,
            "product_effect_span_rank": rank,
        },
    )


def local_tomography_check(
    backend: str, d1: int, d2: int, *, tol: float = DEFAULT_TOL, seed: int = 0
) -> CheckReport:
    """``is_locally_tomographic`` on ``system(backend, d1)`` and ``system(backend, d2)``."""
    return replace(is_locally_tomographic(system(backend, d1), system(backend, d2), tol=tol), seed=seed)


# ---------------------------------------------------------------------------
# Equality level 4: full process equality
# ---------------------------------------------------------------------------

def equal_processes(p: ProcessRep, p2: ProcessRep, tol: float = DEFAULT_TOL) -> bool:
    """Operational equality: agreement of the lifted action on a faithful state.

    Equivalent to coordinate equality in the operational process basis.
    """
    _check_same_type(p, p2)
    return _agree(p, p2, [find_faithful_state(p.input)], tol)
