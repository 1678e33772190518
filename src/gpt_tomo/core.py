"""Theory-agnostic algebra of systems, states, effects, processes and tests.

Three concrete theories share this layer: finite classical probability
(``classical``), complex quantum theory (``quantum``), and real-vector-space
quantum theory (``real``).  Every state and effect is a matrix: Hermitian on
the complex backend, real symmetric on the real one, and real diagonal on the
classical one, whose states are the diagonal density matrices (Chiribella,
D'Ariano & Perinotti, PRA 81, 062348 (2010)).  States and effects are stored
as real coordinate vectors over a fixed orthonormal matrix basis per system,
so the pairing of an effect with a state is a plain dot product and the
coordinate 2-norm equals the Hilbert-Schmidt norm.

The matrix basis is the generalized Gell-Mann one with matrix units on the
diagonal (Bertlmann & Krammer, J. Phys. A 41, 235303 (2008)): E_ii, then
(E_ij + E_ji)/sqrt2 and, complex backend only, (-i E_ij + i E_ji)/sqrt2, over
i < j in row-major order.  The classical coordinates are its diagonal block
alone.  It is never built: a Hermitian H has coordinates [diag H, sqrt2 Re
H_ij, -sqrt2 Im H_ij], read off by index.  A matrix M is representable when
max|M - H| <= tol for its projection H: the Hermitian part, its real part on
the real backend, and the real diagonal on the classical one.

Processes carry an explicit representation (a stack of Kraus operators or
a substochastic matrix) that lifts canonically to composites via
``K -> K (x) I``.  Keeping the representation around, instead of a
single-system transfer matrix, is what keeps the real backend honest:
there, the action on single systems does not determine the action on
composite systems.

Scalars are plain nonnegative floats; a scalar is cancellative exactly when
it is strictly positive.  All values are immutable after construction and
every operation is a pure function.  A validated state or effect, on every
backend, keeps read-only the matrix rebuilt from its coordinates.  The
public constructors test positivity on it; images of completely positive
maps are positive by construction and skip that test (``_state_rep``).  Only
classical processes keep their own form, a substochastic matrix, which acts
on coordinate columns (``_act``) until they become Kraus stacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import prod
from numbers import Integral
from typing import Hashable, Iterable, Sequence

import numpy as np

DEFAULT_TOL = 1e-9
_INV_SQRT2 = 1.0 / np.sqrt(2.0)

CLASSICAL = "classical"
QUANTUM = "quantum"
REAL = "real"
BACKENDS = (CLASSICAL, QUANTUM, REAL)
QUANTUM_FAMILY = (QUANTUM, REAL)

DETERMINISTIC = "deterministic"
SUBNORMALIZED = "subnormalized"
GENERAL = "general"


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemDescriptor:
    """A physical system: a backend tag plus the ordered local dimensions.

    ``dims`` lists the dimension of each atomic factor (Hilbert dimension
    for the quantum backends, number of outcomes for the classical one).
    The trivial system has ``dims == ()``.
    """

    backend: str
    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}")
        if not all(isinstance(d, (int, np.integer)) and d >= 1 for d in self.dims):
            raise ValueError(f"local dimensions must be positive integers, got {self.dims}")
        object.__setattr__(self, "dims", tuple(map(int, self.dims)))

    @property
    def total_dim(self) -> int:
        """Hilbert dimension (quantum family) or number of outcomes (classical)."""
        return prod(self.dims)

    @property
    def state_dim(self) -> int:
        """Dimension of the real span of states of this system."""
        n = self.total_dim
        if self.backend == CLASSICAL:
            return n
        if self.backend == QUANTUM:
            return n * n
        return n * (n + 1) // 2

    @property
    def effect_dim(self) -> int:
        return self.state_dim

    @property
    def is_trivial(self) -> bool:
        return self.total_dim == 1

    @property
    def factors(self) -> tuple["SystemDescriptor", ...]:
        return tuple(SystemDescriptor(self.backend, (d,)) for d in self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def __repr__(self) -> str:
        return f"{self.backend}{list(self.dims)}"


def system(backend: str, *dims: int) -> SystemDescriptor:
    return SystemDescriptor(backend, tuple(dims))


def trivial(backend: str) -> SystemDescriptor:
    return SystemDescriptor(backend, ())


def tensor_systems(a: SystemDescriptor, b: SystemDescriptor) -> SystemDescriptor:
    if a.backend != b.backend:
        raise ValueError(f"cannot compose systems of mixed backends {a} and {b}")
    return SystemDescriptor(a.backend, a.dims + b.dims)


def subsystem(sys: SystemDescriptor, indices: Sequence[int]) -> SystemDescriptor:
    """The composite of the selected factors, in the given order; every factor selector passes here."""
    indices = list(indices)
    for n, i in enumerate(indices):
        if not 0 <= i < sys.n_factors:
            raise ValueError(f"factor selector {i} out of range for {sys}")
        if i in indices[:n]:
            raise ValueError(f"factor selector {i} repeated")
    return SystemDescriptor(sys.backend, tuple(sys.dims[i] for i in indices))


# ---------------------------------------------------------------------------
# Coordinate conversions
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _pairs(backend: str, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the off-diagonal pairs i < j in row-major order: none on classical."""
    rows, cols = np.triu_indices(n if backend != CLASSICAL else 0, 1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def coords_to_matrix(sys: SystemDescriptor, coords: np.ndarray) -> np.ndarray:
    """Reconstruct the density-operator-style matrix from basis coordinates."""
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (sys.state_dim,):
        raise ValueError(f"expected {sys.state_dim} coordinates for {sys}, got {coords.shape}")
    return _matrices(sys, coords)


def _matrices(sys: SystemDescriptor, coords: np.ndarray) -> np.ndarray:
    """``coords_to_matrix`` on a stack (..., state_dim) of coordinate rows, giving (..., n, n)."""
    n = sys.total_dim
    rows, cols = _pairs(sys.backend, n)
    m = len(rows)
    upper = coords[..., n : n + m]
    if sys.backend == QUANTUM:
        upper = upper - 1j * coords[..., n + m :]
    upper = upper * _INV_SQRT2
    mat = np.zeros((*coords.shape[:-1], n, n), dtype=upper.dtype)
    mat.reshape(*coords.shape[:-1], -1)[..., :: n + 1] = coords[..., :n]
    mat[..., rows, cols] = upper
    mat[..., cols, rows] = upper.conj()
    return mat


def matrix_to_coords(sys: SystemDescriptor, mat: np.ndarray, *, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Project a matrix onto the system's basis, checking it is representable.

    The one-matrix case of ``_projection``, with the shape checked.
    """
    n = sys.total_dim
    mat = np.asarray(mat)
    if mat.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix for {sys}, got shape {mat.shape}")
    return _projection(sys, mat, tol)


def _projection(sys: SystemDescriptor, mat: np.ndarray, tol: float) -> np.ndarray:
    """Coordinates of a matrix, or of each matrix in a stack (..., n, n), checking they are representable.

    The projection is the Hermitian part H, with each off-diagonal coordinate
    summed from M_ij and M_ji term by term as a dense projection rounds it.
    For the real backend the residue max|M - H| rejects imaginary or
    antisymmetric parts above ``tol``; that check is what catches processes
    that would leak out of the real-symmetric state space; for the classical
    backend H is the real diagonal, so off-diagonal parts are rejected too.
    A stack gives each matrix's coordinates bit for bit; its largest residue
    decides, and a NaN residue turns every coordinate NaN for the finite checks.
    """
    herm = (mat + mat.conj().swapaxes(-1, -2)) / 2
    if sys.backend != QUANTUM:
        herm = herm.real
    if sys.backend == CLASSICAL:
        herm = _matrices(sys, herm.diagonal(axis1=-2, axis2=-1))
    residue = np.abs(mat - herm).max()
    if residue > tol:
        raise ValueError(
            f"matrix is not representable on {sys}: residue {residue:.3e} exceeds {tol:.1e}"
        )
    rows, cols = _pairs(sys.backend, mat.shape[-1])
    re = mat.real
    blocks = [
        re.diagonal(axis1=-2, axis2=-1),
        re[..., rows, cols] * _INV_SQRT2 + re[..., cols, rows] * _INV_SQRT2,
    ]
    if sys.backend == QUANTUM:
        im = mat.imag
        blocks.append(im[..., cols, rows] * _INV_SQRT2 - im[..., rows, cols] * _INV_SQRT2)
    return np.concatenate(blocks, axis=-1) + 0.0 * residue  # -0.0 -> 0.0, as a sum over the whole basis gives


def _lock(arr: np.ndarray, dtype: type = float) -> np.ndarray:
    out = np.array(arr, dtype=dtype)
    out.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# States and effects
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class StateVector:
    """An element of the real span of states, with cone membership enforced."""

    system: SystemDescriptor
    coords: np.ndarray
    kind: str  # DETERMINISTIC or SUBNORMALIZED
    _matrix: np.ndarray | None = field(init=False, repr=False, default=None)

    @property
    def matrix(self) -> np.ndarray:
        """Density-matrix form, held since construction when it built one."""
        return coords_to_matrix(self.system, self.coords) if self._matrix is None else self._matrix

    @property
    def weight(self) -> float:
        """Pairing with the deterministic effect (trace / total probability)."""
        return float(np.dot(deterministic_effect(self.system).coords, self.coords))

    def __repr__(self) -> str:
        return f"StateVector({self.system}, kind={self.kind})"


@dataclass(frozen=True, eq=False)
class EffectVector:
    system: SystemDescriptor
    coords: np.ndarray
    kind: str  # DETERMINISTIC or GENERAL
    _matrix: np.ndarray | None = field(init=False, repr=False, default=None)

    @property
    def matrix(self) -> np.ndarray:
        return coords_to_matrix(self.system, self.coords) if self._matrix is None else self._matrix

    def __repr__(self) -> str:
        return f"EffectVector({self.system}, kind={self.kind})"


def _holding(vec, mat: np.ndarray):
    """``vec`` holding ``mat`` read-only as its ``.matrix``; a ``replace`` copy drops it (``init=False``)."""
    mat.flags.writeable = False
    object.__setattr__(vec, "_matrix", mat)
    return vec


def _require_finite(arr: np.ndarray, what: str) -> None:
    """Reject NaN and inf, which every ``x < -tol`` style guard would let through."""
    if np.count_nonzero(np.isfinite(arr)) != arr.size:  # half the cost of .all() on small arrays
        raise ValueError(f"{what} must be finite")


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(mat).min())


def _near(arr: np.ndarray, target, tol: float) -> bool:
    """max|arr - target| <= tol: the one rule behind every deterministic and reversible flag."""
    return bool(np.abs(arr - target).max() <= tol)


def state_from_coords(sys: SystemDescriptor, coords: np.ndarray, *, tol: float = DEFAULT_TOL) -> StateVector:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (sys.state_dim,):
        raise ValueError(f"expected {sys.state_dim} coordinates for {sys}, got {coords.shape}")
    _require_finite(coords, "state coordinates")
    mat = coords_to_matrix(sys, coords)
    low = _min_eig(mat)
    if low < -tol:
        raise ValueError(f"state matrix has negative eigenvalue {low:.3e}")
    return _weighed(sys, coords, float(np.trace(mat).real), mat, tol)


def _state_rep(sys: SystemDescriptor, mat: np.ndarray, tol: float) -> StateVector:
    """The state of a matrix known to be positive: every check of ``state_from_matrix`` but ``eigvalsh``.

    The state counterpart of ``_kraus_rep``, for images of validated states
    under completely positive maps (Choi, LAA 10, 285 (1975)) and for vv^dag
    and gg^dag/tr.  An image inherits its input's slack: it can be negative
    by at most the sum of the input's negative eigenvalues, each >= -tol.
    """
    coords = matrix_to_coords(sys, mat, tol=tol)
    _require_finite(coords, "state coordinates")
    held = coords_to_matrix(sys, coords)
    return _weighed(sys, coords, float(np.trace(held).real), held, tol)


def _state_reps(sys: SystemDescriptor, mats: np.ndarray, tol: float) -> list[StateVector]:
    """``_state_rep`` on a stack (m, n, n) of matrices known to be positive.

    One projection, one finite check and one ``_matrices`` for the whole
    stack; the weight check and kind flag per state.  Each state is bit for
    bit the one ``_state_rep`` builds from its matrix.
    """
    coords = _projection(sys, mats, tol)
    _require_finite(coords, "state coordinates")
    held = _matrices(sys, coords)
    return [_weighed(sys, row, float(np.trace(mat).real), mat, tol) for row, mat in zip(coords, held)]


def _weighed(
    sys: SystemDescriptor, coords: np.ndarray, total: float, mat: np.ndarray, tol: float
) -> StateVector:
    """The weight check and kind flag every state constructor ends with."""
    if total > 1.0 + tol:
        raise ValueError(f"state weight {total} exceeds 1")
    kind = DETERMINISTIC if abs(total - 1.0) <= tol else SUBNORMALIZED
    return _holding(StateVector(sys, _lock(coords), kind), mat)


def state_from_matrix(sys: SystemDescriptor, mat: np.ndarray, *, tol: float = DEFAULT_TOL) -> StateVector:
    return state_from_coords(sys, matrix_to_coords(sys, mat, tol=tol), tol=tol)


def state_from_vector(sys: SystemDescriptor, vec: np.ndarray, *, tol: float = DEFAULT_TOL) -> StateVector:
    """Pure state from a (possibly subnormalized) Hilbert-space vector; vv^dag needs no eigenvalue test."""
    vec = np.asarray(vec)
    return _state_rep(sys, np.outer(vec, vec.conj()), tol)


def effect_from_coords(sys: SystemDescriptor, coords: np.ndarray, *, tol: float = DEFAULT_TOL) -> EffectVector:
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (sys.effect_dim,):
        raise ValueError(f"expected {sys.effect_dim} coordinates for {sys}, got {coords.shape}")
    _require_finite(coords, "effect coordinates")
    mat = coords_to_matrix(sys, coords)
    if _min_eig(mat) < -tol:
        raise ValueError("effect matrix is not positive semidefinite")
    if _min_eig(np.eye(sys.total_dim) - mat) < -tol:
        raise ValueError("effect matrix exceeds the identity")
    kind = DETERMINISTIC if _near(mat, np.eye(sys.total_dim), tol) else GENERAL
    return _holding(EffectVector(sys, _lock(coords), kind), mat)


def effect_from_matrix(sys: SystemDescriptor, mat: np.ndarray, *, tol: float = DEFAULT_TOL) -> EffectVector:
    return effect_from_coords(sys, matrix_to_coords(sys, mat, tol=tol), tol=tol)


@lru_cache(maxsize=None)
def deterministic_effect(sys: SystemDescriptor) -> EffectVector:
    """The unique deterministic effect (causal backends have exactly one), built once per system."""
    coords = matrix_to_coords(sys, np.eye(sys.total_dim))
    return _holding(EffectVector(sys, _lock(coords), DETERMINISTIC), coords_to_matrix(sys, coords))


def pair(e: EffectVector, s: StateVector) -> float:
    """Probability of the effect on the state (a closed-diagram scalar)."""
    if e.system != s.system:
        raise ValueError(f"effect on {e.system} cannot meet state on {s.system}")
    return float(np.dot(e.coords, s.coords))


def tensor_states(s: StateVector, t: StateVector, *, tol: float = DEFAULT_TOL) -> StateVector:
    return _state_rep(tensor_systems(s.system, t.system), np.kron(s.matrix, t.matrix), tol)


def tensor_effects(e: EffectVector, f: EffectVector, *, tol: float = DEFAULT_TOL) -> EffectVector:
    return effect_from_matrix(tensor_systems(e.system, f.system), np.kron(e.matrix, f.matrix), tol=tol)


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ProcessRep:
    """A physical transformation with a representation that lifts to composites.

    Quantum-family processes hold their Kraus operators as one read-only
    complex array of shape (k, d_out, d_in), so every operation on them is
    one broadcast numpy call; classical ones hold a substochastic matrix.
    For the real backend every Kraus operator must be entrywise real or
    entrywise purely imaginary: that class is closed under lifting and
    contains both counterexample processes, though it is documented as a
    sufficient class rather than a characterization.  Kraus lists read off
    a positive matrix all come from ``kraus_from_psd``: ``compose`` keeps at
    most d_in*d_out operators read off its ``choi`` matrix, so the ``kraus[N]``
    in a composite's repr is that count.
    """

    input: SystemDescriptor
    output: SystemDescriptor
    kraus: np.ndarray | None
    stoch: np.ndarray | None
    deterministic: bool
    reversible: bool

    @property
    def backend(self) -> str:
        return self.input.backend

    def __repr__(self) -> str:
        rep = "stoch" if self.stoch is not None else f"kraus[{len(self.kraus)}]"
        return f"ProcessRep({self.input} -> {self.output}, {rep})"


def kraus_process(
    input: SystemDescriptor, output: SystemDescriptor, kraus: Iterable[np.ndarray], *, tol: float = DEFAULT_TOL
) -> ProcessRep:
    if input.backend != output.backend:
        raise ValueError("process input and output must share a backend")
    din = input.total_dim
    ops = _kraus_stack(kraus, (output.total_dim, din))
    if input.backend == CLASSICAL:
        raise ValueError("classical processes use stochastic matrices, not Kraus lists")
    if not len(ops):
        raise ValueError("a Kraus list needs at least one operator")
    if input.backend == REAL and not np.all(
        (np.abs(ops.imag).max(axis=(1, 2)) <= tol) | (np.abs(ops.real).max(axis=(1, 2)) <= tol)
    ):
        raise ValueError("real-backend Kraus operators must be entrywise real or entrywise purely imaginary")
    gram = _gram(ops)
    if _min_eig(np.eye(din) - gram) < -tol:
        raise ValueError("Kraus list is not physical: sum K^dag K exceeds the identity")
    return _kraus_rep(input, output, ops, tol, gram)


def _kraus_stack(kraus: Iterable[np.ndarray], shape: tuple[int, int]) -> np.ndarray:
    """The operators as one new (k, d_out, d_in) complex array, each checked for shape and finiteness.

    One ``np.array`` when the shapes agree; otherwise (a ragged list, a wrong
    shape) the operators are checked one at a time, so the error names the
    first operator at fault, as when every operator was checked on its own.
    """
    if not isinstance(kraus, np.ndarray):
        kraus = list(kraus)
    try:
        ops = np.array(kraus, dtype=complex)
    except ValueError:  # ragged
        ops = None
    if ops is None or ops.shape[1:] != shape:
        for k in kraus:
            k = np.asarray(k, dtype=complex)
            if k.shape != shape:
                raise ValueError(f"Kraus operator has shape {k.shape}, expected {shape}")
            _require_finite(k, "Kraus operator")
        ops = np.empty((0, *shape), dtype=complex)  # only an empty list passes that loop
    _require_finite(ops, "Kraus operator")
    return ops


def _gram(ops: np.ndarray) -> np.ndarray:
    stacked = ops.reshape(-1, ops.shape[-1])  # sum_k K_k^dag K_k as one product
    return stacked.conj().T @ stacked


def _kraus_rep(
    input: SystemDescriptor, output: SystemDescriptor, ops: np.ndarray, tol: float, gram=None
) -> ProcessRep:
    """The process of a Kraus stack known to be physical: only the flags are computed.

    ``kraus_process`` validates and then calls it; ``compose`` and
    ``tensor_processes`` call it directly, since composites of completely
    positive maps are completely positive (Choi, LAA 10, 285 (1975)).  The
    stack is new to this call, so it is locked in place, not copied.
    """
    ops = np.ascontiguousarray(ops, dtype=complex)
    ops.flags.writeable = False
    eye = np.eye(input.total_dim)
    det = _near(_gram(ops) if gram is None else gram, eye, tol)
    square = input.total_dim == output.total_dim
    rev = det and len(ops) == 1 and square and _near(ops[0] @ ops[0].conj().T, eye, tol)
    return ProcessRep(input, output, ops, None, det, rev)


def stochastic_process(
    input: SystemDescriptor, output: SystemDescriptor, matrix: np.ndarray, *, tol: float = DEFAULT_TOL
) -> ProcessRep:
    if input.backend != CLASSICAL or output.backend != CLASSICAL:
        raise ValueError("stochastic matrices represent classical processes only")
    mat = np.asarray(matrix, dtype=float)
    shape = (output.total_dim, input.total_dim)
    if mat.shape != shape:
        raise ValueError(f"stochastic matrix has shape {mat.shape}, expected {shape}")
    _require_finite(mat, "stochastic matrix")
    if mat.min() < -tol:
        raise ValueError("stochastic matrix has a negative entry")
    if mat.sum(axis=0).max() > 1.0 + tol:
        raise ValueError("stochastic matrix has a column summing above 1")
    return _stoch_rep(input, output, mat, tol)


def _stoch_rep(input: SystemDescriptor, output: SystemDescriptor, mat: np.ndarray, tol: float) -> ProcessRep:
    """The classical counterpart of ``_kraus_rep``: flags only, for a matrix known to be substochastic."""
    det = _near(mat.sum(axis=0), 1.0, tol)
    rev = det and mat.shape[0] == mat.shape[1] and _near(mat @ mat.T, np.eye(len(mat)), tol)
    return ProcessRep(input, output, None, _lock(mat), det, rev)


def choi(ops: np.ndarray) -> np.ndarray:
    """sum_k vec(K_k) vec(K_k)^dag on out (x) in: the lifted action on sum_i |i>|i>."""
    vecs = ops.reshape(len(ops), -1).T  # one column per operator
    return vecs @ vecs.conj().T


def kraus_from_psd(
    mat: np.ndarray, shape: tuple[int, int], *, cutoff: float, floor: float = -np.inf
) -> np.ndarray:
    """sqrt(lambda) u reshaped to ``shape`` per eigenpair of ``mat`` with lambda > ``cutoff``.

    One ``eigh`` (Choi, LAA 10, 285 (1975)); the operators come back stacked,
    one zero operator when no pair survives, and a ``ValueError`` when an
    eigenvalue falls below ``floor``.
    """
    vals, us = np.linalg.eigh(mat)
    if vals.min() < floor:
        raise ValueError(f"Choi matrix is not positive semidefinite: min eig {vals.min():.3e}")
    kept = vals > cutoff
    if not kept.any():
        return np.zeros((1, *shape))
    return (np.sqrt(vals[kept]) * us[:, kept]).T.reshape(-1, *shape)


def identity_process(sys: SystemDescriptor) -> ProcessRep:
    if sys.backend == CLASSICAL:
        return stochastic_process(sys, sys, np.eye(sys.total_dim))
    return kraus_process(sys, sys, [np.eye(sys.total_dim)])


def preparation_process(state: StateVector, *, tol: float = DEFAULT_TOL) -> ProcessRep:
    """The state as a process from the trivial system (columns of sqrt eigenpairs)."""
    triv = trivial(state.system.backend)
    if state.system.backend == CLASSICAL:
        return stochastic_process(triv, state.system, state.coords.reshape(-1, 1))
    cols = kraus_from_psd(state.matrix, (state.system.total_dim, 1), cutoff=tol)
    return kraus_process(triv, state.system, cols)


def effect_process(effect: EffectVector, *, tol: float = DEFAULT_TOL) -> ProcessRep:
    """The effect as a process to the trivial system (rows of sqrt eigenpairs)."""
    triv = trivial(effect.system.backend)
    if effect.system.backend == CLASSICAL:
        return stochastic_process(effect.system, triv, effect.coords.reshape(1, -1))
    rows = kraus_from_psd(effect.matrix, (1, effect.system.total_dim), cutoff=tol)
    return kraus_process(effect.system, triv, rows.conj())


def trivial_state(backend: str) -> StateVector:
    return state_from_coords(trivial(backend), np.ones(1))


def apply(p: ProcessRep, s: StateVector, *, tol: float = DEFAULT_TOL) -> StateVector:
    if p.input != s.system:
        raise ValueError(f"process expects input {p.input}, state lives on {s.system}")
    return apply_to_factors(p, s, 0, tol=tol)


def compose(after: ProcessRep, before: ProcessRep, *, tol: float = DEFAULT_TOL) -> ProcessRep:
    """Sequential composition: ``compose(after, before)`` runs ``before`` first.

    Kraus lists come back in minimal form: a product list longer than
    d_in*d_out is replaced by ``kraus_from_psd`` of its ``choi`` matrix,
    keeping every eigenpair with lambda > 0, so deep chains keep at most
    d_in*d_out operators.  Shorter lists are kept as formed.
    """
    if before.output != after.input:
        raise ValueError(
            f"cannot compose: first process outputs {before.output}, second expects {after.input}"
        )
    if before.stoch is not None:
        return _stoch_rep(before.input, after.output, after.stoch @ before.stoch, tol)
    din, dout = before.input.total_dim, after.output.total_dim
    ops = (after.kraus[:, None] @ before.kraus[None]).reshape(-1, dout, din)  # k2 @ k1, k2 outer
    if len(ops) > din * dout:
        mat = choi(ops)
        if before.backend == REAL:  # real, so eigh's eigenvectors carry no phases
            mat = mat.real
        ops = kraus_from_psd(mat, (dout, din), cutoff=0.0)
    return _kraus_rep(before.input, after.output, ops, tol)


def tensor_processes(p: ProcessRep, q: ProcessRep, *, tol: float = DEFAULT_TOL) -> ProcessRep:
    if p.backend != q.backend:
        raise ValueError("cannot compose processes of mixed backends in parallel")
    inp = tensor_systems(p.input, q.input)
    out = tensor_systems(p.output, q.output)
    if p.stoch is not None:
        return _stoch_rep(inp, out, np.kron(p.stoch, q.stoch), tol)
    ops = np.kron(p.kraus[:, None], q.kraus[None])  # every (a, b) pair, a outer
    return _kraus_rep(inp, out, ops.reshape(-1, out.total_dim, inp.total_dim), tol)


def lift(p: ProcessRep, anc: SystemDescriptor, *, tol: float = DEFAULT_TOL) -> ProcessRep:
    """Lift ``p: A -> B`` to ``A (x) C -> B (x) C`` acting locally on the left block."""
    if p.backend != anc.backend:
        raise ValueError("ancilla backend must match the process backend")
    return tensor_processes(p, identity_process(anc), tol=tol)


def scale_process(p_scalar: float, proc: ProcessRep, *, tol: float = DEFAULT_TOL) -> ProcessRep:
    """Multiply a process by a probability (coarse-graining / randomization weight)."""
    if not -tol <= p_scalar <= 1.0 + tol:
        raise ValueError(f"scale factor must be a probability, got {p_scalar}")
    p_scalar = max(p_scalar, 0.0)  # within tol below 0, as check_prob_vector allows
    if proc.stoch is not None:
        return stochastic_process(proc.input, proc.output, p_scalar * proc.stoch, tol=tol)
    root = np.sqrt(p_scalar)
    return kraus_process(proc.input, proc.output, root * proc.kraus, tol=tol)


def add_processes(procs: Sequence[ProcessRep], *, tol: float = DEFAULT_TOL) -> ProcessRep:
    """Coarse-grained sum of same-type processes (Kraus lists concatenate)."""
    first = procs[0]
    if any(p.input != first.input or p.output != first.output for p in procs):
        raise ValueError("can only sum processes of a common type")
    if first.stoch is not None:
        return stochastic_process(first.input, first.output, sum(p.stoch for p in procs), tol=tol)
    return kraus_process(first.input, first.output, np.concatenate([p.kraus for p in procs]), tol=tol)


def apply_to_factors(
    p: ProcessRep, s: StateVector, start: int, *, tol: float = DEFAULT_TOL
) -> StateVector:
    """Apply ``p`` to the contiguous factor block of ``s`` beginning at ``start``.

    The one-state case of ``_act`` (``apply`` is its whole-system case).  A
    Kraus image is a state by complete positivity, so ``_state_rep`` builds
    it without an eigenvalue test; a stochastic image is built from its
    coordinates and tested.
    """
    sys = s.system
    k = p.input.n_factors
    if p.backend != sys.backend or sys.dims[start : start + k] != p.input.dims:
        raise ValueError(
            f"factors {start}..{start + k - 1} of {sys} do not match process input {p.input}"
        )
    left = prod(sys.dims[:start])
    out_sys = SystemDescriptor(sys.backend, sys.dims[:start] + p.output.dims + sys.dims[start + k :])
    if p.stoch is not None:
        return state_from_coords(out_sys, _act(p, s.coords[None, :, None], left)[0, :, 0], tol=tol)
    return _state_rep(out_sys, _act(p, s.matrix[None], left)[0], tol)


def _act(p: ProcessRep, arr: np.ndarray, left: int) -> np.ndarray:
    """The one process action: ``p`` on one factor block of every state in a stack.

    ``arr`` is m matrices (m, n, n), or m classical coordinate columns
    (m, n, 1); ``left`` is the dimension of the factors before the block.
    All operators act at once by ``_on_rows``, never as I (x) K (x) I, and
    the k terms K rho K^dag are summed.  A state's image is bit for bit the
    one a stack of one gives.  Classical columns remain while a classical
    process is a substochastic matrix, which acts on the diagonal of a state,
    not on its matrix; Kraus stacks would act on the matrix.
    """
    if p.stoch is not None:
        return _on_rows(p.stoch, arr, left)
    return _sandwich(p.kraus[:, None], arr, left)  # an operator axis ahead of the state axis


def _sandwich(ops: np.ndarray, arr: np.ndarray, left: int) -> np.ndarray:
    """sum_k K rho K^dag over the leading operator axis of ``ops`` (k, ..., d_out, d_in).

    The axes between broadcast against the stack ``arr``: one process on
    many states, or (m, ...) operator stacks on one state, each acting once.
    """
    half = _on_rows(ops, arr, left).conj().swapaxes(-1, -2)  # (K rho)^dag per K and state
    return _on_rows(ops, half, left).sum(axis=0).conj().swapaxes(-1, -2)


def _on_rows(op: np.ndarray, mat: np.ndarray, left: int) -> np.ndarray:
    """(I_left (x) op (x) I_right) @ mat by a reshape (Wood, Biamonte & Cory, QIC 15, 759 (2015)).

    ``op`` (..., d_out, d_in) and ``mat`` (..., n, m) broadcast over their
    leading axes: a stack of operators acts on one matrix once per operator,
    or on a matching stack one matrix per operator.
    """
    rows = mat.reshape(*mat.shape[:-2], left, op.shape[-1], -1)
    out = op[..., None, :, :] @ rows
    return out.reshape(*out.shape[:-3], -1, mat.shape[-1])


def _images(procs: Sequence[ProcessRep], states: Sequence[StateVector]) -> list[np.ndarray]:
    """Coordinate rows (m, state_dim) of each process's images of m states on one system.

    The processes share one type and act on the first factors.  The states
    are stacked once, each process acts once on the stack (``_act``), and
    each image stack is projected and checked once (``_checked_images``).
    """
    sys, first = states[0].system, procs[0]
    out_sys = SystemDescriptor(sys.backend, first.output.dims + sys.dims[first.input.n_factors :])
    if sys.backend == CLASSICAL:
        stack = np.stack([s.coords for s in states])[..., None]
    else:
        stack = np.stack([s.matrix for s in states])
    return [_checked_images(out_sys, _act(q, stack, 1)) for q in procs]


def _checked_images(sys: SystemDescriptor, arr: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Coordinate rows (m, state_dim) of a stack of images on ``sys``.

    The checks ``apply_to_factors`` runs on each image at ``tol``, with the
    same messages, on the whole stack: residue (Kraus images) or sign
    (classical columns, whose least entry is the least eigenvalue of their
    diagonal matrix), finite, weight.
    """
    if sys.backend == CLASSICAL:
        coords = arr[..., 0]
        _require_finite(coords, "state coordinates")
        if coords.min() < -tol:
            raise ValueError(f"state matrix has negative eigenvalue {coords.min():.3e}")
    else:
        coords = _projection(sys, arr, tol)
        _require_finite(coords, "state coordinates")
    totals = coords[:, : sys.total_dim].sum(axis=1)
    over = totals[totals > 1.0 + tol]
    if over.size:
        raise ValueError(f"state weight {over[0]} exceeds 1")
    return coords


# ---------------------------------------------------------------------------
# Marginals and contractions
# ---------------------------------------------------------------------------

def _permuted(mat: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """``mat`` with its factors in the order ``perm``, on rows and columns alike."""
    axes = list(perm) + [len(dims) + i for i in perm]
    return mat.reshape(*dims, *dims).transpose(axes).reshape(mat.shape)


def _reduce(
    s: StateVector, effect: EffectVector, keep: Sequence[int], on: Sequence[int], tol: float
) -> StateVector:
    """The state left on the ``keep`` factors, in that order, once ``effect`` meets the ``on`` factors.

    The one factor reduction: permute once to (keep, on), then contract
    Tr_on[(I (x) effect) mat] once.  That contraction is completely
    positive, so ``_state_rep`` builds the result.
    """
    sys = s.system
    out_sys = subsystem(sys, keep)
    dk = out_sys.total_dim
    m4 = _permuted(s.matrix, sys.dims, list(keep) + list(on)).reshape(dk, effect.system.total_dim, dk, -1)
    return _state_rep(out_sys, np.einsum("xy,aybx->ab", effect.matrix, m4), tol)


def permute_factors(s: StateVector, perm: Sequence[int], *, tol: float = DEFAULT_TOL) -> StateVector:
    """The factors of ``s`` in the order ``perm``: the marginal that keeps every factor."""
    if sorted(perm) != list(range(s.system.n_factors)):
        raise ValueError(f"{perm} is not a permutation of {s.system.n_factors} factors")
    return marginal(s, perm, tol=tol)


def contract(
    s: StateVector, effect: EffectVector, on: Sequence[int], *, tol: float = DEFAULT_TOL
) -> StateVector:
    """Apply an effect to the selected factors, returning the residual state.

    The effect's system must equal the composite of ``s``'s factors at the
    given indices, in that order.  The result is subnormalized in general.
    """
    sys = s.system
    on = list(on)
    selected = subsystem(sys, on)
    if effect.system != selected:
        raise ValueError(f"effect lives on {effect.system}, selected factors form {selected}")
    return _reduce(s, effect, [i for i in range(sys.n_factors) if i not in on], on, tol)


def marginal(s: StateVector, keep: int | Sequence[int], *, tol: float = DEFAULT_TOL) -> StateVector:
    """Discard the unselected factors with the unique deterministic effect (Causality).

    The kept factors come back in the order given.  By definition of an
    extension, the marginal of any extension of ``rho`` equals ``rho``.
    """
    keep = [keep] if isinstance(keep, Integral) else list(keep)
    on = [i for i in range(s.system.n_factors) if i not in keep]
    return _reduce(s, deterministic_effect(subsystem(s.system, on)), keep, on, tol)


# ---------------------------------------------------------------------------
# Tests (outcome-labelled families of processes)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Test:
    """A list of transformations of a common type, labelled by outcomes.

    Coarse-graining over all branches must yield a deterministic process;
    this is validated at construction.
    """

    branches: tuple[tuple[Hashable, ProcessRep], ...]
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.branches:
            raise ValueError("a test needs at least one branch")
        labels = [lab for lab, _ in self.branches]
        if len(set(labels)) != len(labels):
            raise ValueError("test outcome labels must be distinct")
        procs = [p for _, p in self.branches]
        first = procs[0]
        if any(p.input != first.input or p.output != first.output for p in procs):
            raise ValueError("all branches of a test must share input and output")
        if not self._validated:
            total = add_processes(procs)
            if not total.deterministic:
                raise ValueError("coarse-graining over all branches must be deterministic")

    @property
    def input(self) -> SystemDescriptor:
        return self.branches[0][1].input

    @property
    def output(self) -> SystemDescriptor:
        return self.branches[0][1].output

    def outcomes(self) -> tuple[Hashable, ...]:
        return tuple(lab for lab, _ in self.branches)

    def branch(self, label: Hashable) -> ProcessRep:
        for lab, p in self.branches:
            if lab == label:
                return p
        raise KeyError(label)


def preparation_test(
    states: Sequence[StateVector], labels: Sequence[Hashable] | None = None
) -> Test:
    """A source: an outcome-labelled family of subnormalized preparations."""
    if labels is None:
        labels = list(range(len(states)))
    if len(labels) != len(states):
        raise ValueError(f"got {len(states)} states but {len(labels)} labels")
    branches = tuple((lab, preparation_process(s)) for lab, s in zip(labels, states))
    return Test(branches)


def source_states(source: Test) -> list[tuple[Hashable, StateVector]]:
    """The heralded states of a preparation test."""
    if not source.input.is_trivial:
        raise ValueError("not a preparation test: input system is not trivial")
    unit = trivial_state(source.input.backend)
    return [(lab, apply(p, unit)) for lab, p in source.branches]


def coarse_grain(test: Test, partition: Sequence[Sequence[Hashable]]) -> Test:
    """Join outcomes according to a disjoint cover of the outcome set."""
    seen: set[Hashable] = set()
    for block in partition:
        for lab in block:
            if lab in seen:
                raise ValueError(f"invalid partition: outcome {lab!r} appears twice")
            seen.add(lab)
    if seen != set(test.outcomes()):
        raise ValueError("invalid partition: blocks must cover the outcome set exactly")
    branches = []
    for block in partition:
        summed = add_processes([test.branch(lab) for lab in block])
        label = block[0] if len(block) == 1 else tuple(block)
        branches.append((label, summed))
    return Test(tuple(branches), _validated=True)


def randomize(tests: Sequence[Test], probs: Sequence[float], *, tol: float = DEFAULT_TOL) -> Test:
    """Randomized test: branch ``x`` of test ``i`` becomes ``p_i * branch`` at ``(i, x)``."""
    if len(tests) != len(probs):
        raise ValueError(f"got {len(tests)} tests but {len(probs)} probabilities")
    check_prob_vector(probs, tol=tol)
    first = tests[0]
    if any(t.input != first.input or t.output != first.output for t in tests):
        raise ValueError("randomized tests must share a type")
    branches = []
    for i, (t, p) in enumerate(zip(tests, probs)):
        for lab, proc in t.branches:
            branches.append(((i, lab), scale_process(p, proc, tol=tol)))
    return Test(tuple(branches), _validated=True)


def check_prob_vector(probs: Sequence[float], *, tol: float = DEFAULT_TOL) -> None:
    arr = np.asarray(probs, dtype=float)
    _require_finite(arr, "probabilities")
    if arr.min(initial=0.0) < -tol:
        raise ValueError("probabilities must be nonnegative")
    if abs(arr.sum() - 1.0) > tol:
        raise ValueError(f"probabilities must sum to 1, got {arr.sum()}")


def mixture(
    states: Sequence[StateVector], probs: Sequence[float], *, tol: float = DEFAULT_TOL
) -> StateVector:
    """The coarse-graining of the randomized preparation: sum p_i state_i."""
    if len(states) != len(probs):
        raise ValueError(f"got {len(states)} states but {len(probs)} probabilities")
    check_prob_vector(probs, tol=tol)
    first = states[0]
    if any(s.system != first.system for s in states):
        raise ValueError("mixture requires states of a common system")
    coords = sum(p * s.coords for p, s in zip(probs, states))
    return state_from_coords(first.system, coords, tol=tol)
