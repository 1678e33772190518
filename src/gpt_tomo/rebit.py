"""The real-vector-space counterexample to standard process tomography.

Two channels on a rebit (a two-level real-amplitude system), built from the
Pauli matrices as ``(M + Y M Y)/2`` and ``(X M X + Z M Z)/2``, send every
single-rebit state to the maximally mixed state, yet act orthogonally on a
maximally entangled pair of rebits.  The two lifted outputs are the classic
pair of two-rebit states that are perfectly distinguishable globally and
completely indistinguishable by local measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import backends as bk
from .core import (
    REAL,
    DEFAULT_TOL,
    ProcessRep,
    StateVector,
    _images,
    _matrices,
    apply_to_factors,
    kraus_process,
    pair,
    state_from_matrix,
    system,
    tensor_effects,
    tensor_systems,
)
from .reports import CheckReport
from .tomography import lifting_rank

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}

REBIT = system(REAL, 2)
TWO_REBITS = tensor_systems(REBIT, REBIT)


@lru_cache(maxsize=None)
def rebit_processes() -> tuple[ProcessRep, ProcessRep]:
    """The two deterministic rebit channels with Kraus {I, Y}/sqrt2 and {X, Z}/sqrt2, built once."""
    s = 1.0 / np.sqrt(2.0)
    p = kraus_process(REBIT, REBIT, [s * PAULI["I"], s * PAULI["Y"]])
    p2 = kraus_process(REBIT, REBIT, [s * PAULI["X"], s * PAULI["Z"]])
    return p, p2


def wootters_pair() -> tuple[StateVector, StateVector]:
    """The orthogonal two-rebit mixtures 1/4 (II -+ YY) with identical local statistics."""
    yy = np.kron(PAULI["Y"], PAULI["Y"]).real
    rho1 = state_from_matrix(TWO_REBITS, 0.25 * (np.eye(4) - yy))
    rho2 = state_from_matrix(TWO_REBITS, 0.25 * (np.eye(4) + yy))
    return rho1, rho2


def pauli_components(mat: np.ndarray) -> np.ndarray:
    """4x4 table of components over the normalized two-qubit Pauli basis.

    Entry (i, j) is Tr[(P_i (x) P_j) M] / 2 for P in (I, X, Y, Z).  Real
    two-rebit states must have zero weight on products with an odd number of
    Y factors (those are not real-symmetric); this is asserted.
    """
    labels = ("I", "X", "Y", "Z")
    table = np.empty((4, 4))
    for k, pp in enumerate(_pauli_products()):
        table.flat[k] = np.real(np.trace(pp @ mat)) / 2.0
    for i, a in enumerate(labels):
        for j, b in enumerate(labels):
            if (a == "Y") != (b == "Y") and abs(table[i, j]) > 1e-9:
                raise AssertionError(f"real state has a forbidden {a}(x){b} component")
    return table


@lru_cache(maxsize=None)
def _pauli_products() -> np.ndarray:
    """P_i (x) P_j for P in (I, X, Y, Z), stacked in row-major (i, j) order, read-only."""
    paulis = [PAULI[k] for k in ("I", "X", "Y", "Z")]
    prods = np.stack([np.kron(a, b) for a in paulis for b in paulis])
    prods.flags.writeable = False
    return prods


@lru_cache(maxsize=None)
def _product_effects() -> tuple:
    """The 9 local product effects e_a (x) e_b over the rebit's spanning effects."""
    local = bk.spanning_effects(REBIT)
    return tuple(tensor_effects(ea, eb) for ea in local for eb in local)


@dataclass(frozen=True)
class CounterexampleReport:
    """Numbers witnessing the failure of standard tomography in the real backend."""

    max_local_deviation: float
    output1: np.ndarray = field(repr=False)
    output2: np.ndarray = field(repr=False)
    orthogonality_gap: float
    trace_distance: float
    local_stats_max_gap: float
    faithful_rank: int
    tolerance: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "max_local_deviation": self.max_local_deviation,
            "output1_coords": [float(x) for x in self.output1],
            "output2_coords": [float(x) for x in self.output2],
            "orthogonality_gap": self.orthogonality_gap,
            "trace_distance": self.trace_distance,
            "local_stats_max_gap": self.local_stats_max_gap,
            "faithful_rank": self.faithful_rank,
            "tolerance": self.tolerance,
            "seed": self.seed,
        }


def trace_distance(a: StateVector, b: StateVector) -> float:
    return 0.5 * float(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)).sum())


def counterexample_report(
    tol: float = DEFAULT_TOL, *, seed: int = 0, n_random: int = 100
) -> CounterexampleReport:
    """Reproduce the counterexample end to end and collect the key numbers."""
    p, p2 = rebit_processes()
    mix = np.eye(2) / 2.0

    dev = 0.0
    probes = bk.spanning_states(REBIT)
    rng = np.random.default_rng(seed)
    probes += [bk.random_state(REBIT, rng) for _ in range(n_random)]
    for coords in _images((p, p2), probes):  # each channel once, on the stack of probes
        dev = max(dev, max(float(np.linalg.norm(out - mix)) for out in _matrices(REBIT, coords)))

    bell = bk.maximally_entangled_state(REBIT)
    out1 = apply_to_factors(p, bell, 0)
    out2 = apply_to_factors(p2, bell, 0)
    pauli_components(out1.matrix)  # asserts no odd-Y leakage
    pauli_components(out2.matrix)

    gap = float(np.linalg.norm(out1.matrix @ out2.matrix))
    tdist = trace_distance(out1, out2)

    local_gap = 0.0
    for prod_effect in _product_effects():
        local_gap = max(local_gap, abs(pair(prod_effect, out1) - pair(prod_effect, out2)))

    rank = lifting_rank(bell, REBIT, REBIT)

    return CounterexampleReport(
        max_local_deviation=dev,
        output1=out1.coords,
        output2=out2.coords,
        orthogonality_gap=gap,
        trace_distance=tdist,
        local_stats_max_gap=local_gap,
        faithful_rank=rank,
        tolerance=tol,
        seed=seed,
    )


def counterexample_check(tol: float = DEFAULT_TOL, *, seed: int = 0) -> CheckReport:
    """The counterexample as a report: every number must hit its theory value."""
    rep = counterexample_report(tol, seed=seed)
    passed = (
        rep.max_local_deviation <= 1e-12
        and rep.orthogonality_gap <= 1e-12
        and abs(rep.trace_distance - 1.0) <= 1e-9
        and rep.local_stats_max_gap <= 1e-12
        and rep.faithful_rank == 10
    )
    return CheckReport("rebit-counterexample", passed, tol, seed, rep.to_dict())
