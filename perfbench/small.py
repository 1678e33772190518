"""Workload ``small-checks``: library calls at d = 2, 3 on all three backends.

This is the library and property-test user: many cheap calls, so per-call
overhead dominates (eigenvalue checks at construction, small-n conversions
from cache, the bisection in ``contains``).  It is the only workload that
runs the equality hierarchy and ``tomography.contains``, and it shows a
change that speeds up large n at the expense of small-n calls.

States and channels are drawn from the seed before timing starts; which
checks run, and how many, is fixed.  Every expected verdict follows from
how the inputs were built (the same channel in another Kraus form, a
full-Schmidt-rank pure state, ...) and is confirmed with plain numpy at
generation time; ``contains`` is compared against the closed form
p = 1 / lambda_max(rho^-1/2 sigma rho^-1/2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from circuits import gaussian, random_channel

BACKENDS = ("classical", "quantum", "real")
DIMS = (2, 3)
SAMPLE_TOL = 1e-8


@dataclass
class Check:
    name: str
    call: Callable[[], Any]
    expect: Callable[[Any], str]  # empty when the result is right


def _is(expected) -> Callable[[Any], str]:
    return lambda got: "" if got is expected else f"got {got!r}, expected {expected!r}"


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _density(rng, n: int, real: bool, rank: int | None = None) -> np.ndarray:
    g = gaussian(rng, (n, rank or n), real)
    w = g @ g.conj().T
    return w / np.trace(w).real


def _choi(ops: list[np.ndarray]) -> np.ndarray:
    vecs = [k.reshape(-1) for k in ops]
    return sum(np.outer(v, v.conj()) for v in vecs)


def _mix(rng, ops: list[np.ndarray], real: bool) -> list[np.ndarray]:
    """The same channel in another Kraus form: K'_i = sum_j U_ij K_j."""
    q, _ = np.linalg.qr(gaussian(rng, (len(ops), len(ops)), real))
    return [sum(q[i, j] * ops[j] for j in range(len(ops))) for i in range(len(ops))]


def _contains_reference(rho: np.ndarray, sigma: np.ndarray, classical: bool) -> float:
    if classical:
        return min(1.0, float(np.min(rho / sigma)))
    vals, vecs = np.linalg.eigh(rho)
    inv_sqrt = vecs @ np.diag(vals**-0.5) @ vecs.conj().T
    return min(1.0, 1.0 / float(np.linalg.eigvalsh(inv_sqrt @ sigma @ inv_sqrt).max()))


def _backend_checks(rng, backend: str, d: int) -> list[Check]:
    import gpt_tomo as gt

    real = backend == "real"
    classical = backend == "classical"
    a = gt.system(backend, d)
    aa = gt.tensor_systems(a, a)
    tag = f"{backend}{d}"
    checks: list[Check] = []

    # processes: one channel, the same channel in another form, a different one
    if classical:
        m1 = rng.dirichlet(np.ones(d), size=d).T
        m2 = rng.dirichlet(np.ones(d), size=d).T
        p, p_same, p_diff = (gt.stochastic_process(a, a, m) for m in (m1, m1.copy(), m2))

        def act(which, rho):
            return which @ rho

        maps = (m1, m2)
    else:
        k1, k2 = random_channel(rng, d, real), random_channel(rng, d, real)
        k_same = _mix(rng, k1, real)
        if np.abs(_choi(k1) - _choi(k_same)).max() > 1e-12:
            raise RuntimeError("Kraus re-representation changed the channel")
        p, p_same, p_diff = (gt.kraus_process(a, a, k) for k in (k1, k_same, k2))

        def act(ops, rho):
            return sum(k @ rho @ k.conj().T for k in ops)

        maps = (k1, k2)

    # states: a full-rank reference and a source containing it
    if classical:
        rho_v = rng.dirichlet(np.ones(d))
        sigma_v = rng.dirichlet(np.ones(d))
        rho = gt.state_from_coords(a, rho_v)
        sigma = gt.state_from_coords(a, sigma_v)
        deficient_v = rng.dirichlet(np.ones(d))
        deficient_v[0] = 0.0
        deficient = gt.state_from_coords(a, deficient_v / deficient_v.sum())
        others = [gt.state_from_coords(a, rng.dirichlet(np.ones(d))) for _ in range(2)]
    else:
        rho_v, sigma_v = _density(rng, d, real), _density(rng, d, real)
        rho = gt.state_from_matrix(a, rho_v)
        sigma = gt.state_from_matrix(a, sigma_v)
        deficient = gt.state_from_matrix(a, _density(rng, d, real, rank=d - 1))
        others = [gt.state_from_matrix(a, _density(rng, d, real)) for _ in range(2)]
    if np.abs(act(maps[0], rho_v) - act(maps[1], rho_v)).max() < 1e-3:
        raise RuntimeError("the two random channels nearly agree on the reference state")
    states = [rho] + others
    source = gt.randomize([gt.preparation_test([s]) for s in states], [0.5, 0.25, 0.25])

    # equality hierarchy: same channel -> equal at every level, different -> at none
    for other, expected in ((p_same, True), (p_diff, False)):
        label = "same" if expected else "diff"
        checks += [
            Check(f"{tag}-on-source-{label}", lambda o=other: gt.equal_on_source(p, o, source), _is(expected)),
            Check(f"{tag}-upon-input-{label}", lambda o=other: gt.equal_upon_input(p, o, rho), _is(expected)),
            Check(f"{tag}-on-extensions-{label}", lambda o=other: gt.equal_on_extensions(p, o, rho), _is(expected)),
            Check(f"{tag}-processes-{label}", lambda o=other: gt.equal_processes(p, o), _is(expected)),
        ]

    # containment
    p_ref = _contains_reference(rho_v, sigma_v, classical)

    def contains_ok(got, s=sigma, r=rho, p_expected=p_ref) -> str:
        if got is None:
            return f"got None, expected p = {p_expected:.12g}"
        p_got, tau = got
        if abs(p_got - p_expected) > SAMPLE_TOL:
            return f"p = {p_got:.12g}, expected {p_expected:.12g}"
        dev = np.abs(p_got * s.coords + (1 - p_got) * tau.coords - r.coords).max()
        return "" if dev <= SAMPLE_TOL else f"rho != p sigma + (1-p) tau by {dev:.3e}"

    checks += [
        Check(f"{tag}-contains", lambda: gt.contains(rho, sigma), contains_ok),
        Check(f"{tag}-contains-self", lambda: gt.contains(rho, rho), lambda got: contains_ok(got, rho, rho, 1.0)),
        Check(f"{tag}-contains-outside-support", lambda: gt.contains(deficient, sigma), _is(None)),
    ]

    # tomographic ordering and dynamical faithfulness
    if classical:
        joint = rng.dirichlet(np.ones(d * d)).reshape(d, d)
        faithful = gt.state_from_coords(aa, joint.reshape(-1))
        schmidt = np.linalg.svd(joint, compute_uv=False)
    else:
        vec = gaussian(rng, d * d, real)
        vec = vec / np.linalg.norm(vec)
        faithful = gt.state_from_vector(aa, vec)
        schmidt = np.linalg.svd(vec.reshape(d, d), compute_uv=False)
    if schmidt.min() < 1e-3 * schmidt.max():
        raise RuntimeError("the faithful candidate is close to losing rank")
    product = gt.tensor_states(rho, sigma)
    checks += [
        Check(f"{tag}-geq-faithful-product", lambda: gt.tomographically_geq(faithful, product, a, a), _is(True)),
        Check(f"{tag}-geq-product-faithful", lambda: gt.tomographically_geq(product, faithful, a, a), _is(False)),
        Check(f"{tag}-faithful", lambda: gt.is_dynamically_faithful(faithful, a, a), _is(True)),
        Check(f"{tag}-faithful-product", lambda: gt.is_dynamically_faithful(product, a, a), _is(False)),
    ]

    # preparational faithfulness: witnesses exist on every backend; LT fails only for real
    b = gt.system(backend, 5 - d)
    seed = int(rng.integers(2**31))

    def prep_ok(rep) -> str:
        problems = []
        if rep.passed is not True:
            problems.append("did not pass")
        if rep.details.get("local_tomography_pass") is not (not real):
            problems.append(f"local_tomography_pass = {rep.details.get('local_tomography_pass')}")
        if real and d == 2 and rep.details.get("standard_tomography_fails") is not True:
            problems.append("standard tomography should fail for the rebit")
        return "; ".join(problems)

    checks.append(
        Check(f"{tag}-prep-faithful", lambda: gt.is_doubly_preparationally_faithful(a, b, seed=seed, samples=2), prep_ok)
    )
    return checks


def _rebit_checks() -> list[Check]:
    import gpt_tomo as gt

    a = gt.system("real", 2)
    p1, p2 = gt.rebit_processes()
    states = gt.spanning_states(a)
    source = gt.randomize([gt.preparation_test([s]) for s in states], [1.0 / len(states)] * len(states))
    mix = gt.complete_state(a)
    # agree on every single-rebit input, differ on half of an entangled pair
    return [
        Check("rebit-pair-on-source", lambda: gt.equal_on_source(p1, p2, source), _is(True)),
        Check("rebit-pair-upon-input", lambda: gt.equal_upon_input(p1, p2, mix), _is(True)),
        Check("rebit-pair-on-extensions", lambda: gt.equal_on_extensions(p1, p2, mix), _is(False)),
        Check("rebit-pair-processes", lambda: gt.equal_processes(p1, p2), _is(False)),
    ]


def _report_checks(rng) -> list[Check]:
    import gpt_tomo as gt

    def report_ok(rep) -> str:
        problems = []
        if rep.max_local_deviation > 1e-12:
            problems.append(f"local deviation {rep.max_local_deviation:.3e}")
        if rep.orthogonality_gap > 1e-12:
            problems.append(f"orthogonality gap {rep.orthogonality_gap:.3e}")
        if abs(rep.trace_distance - 1.0) > 1e-9:
            problems.append(f"trace distance {rep.trace_distance}")
        if rep.local_stats_max_gap > 1e-12:
            problems.append(f"local statistics gap {rep.local_stats_max_gap:.3e}")
        if rep.faithful_rank != 10:
            problems.append(f"faithful rank {rep.faithful_rank}")
        return "; ".join(problems)

    seeds = [int(s) for s in rng.integers(2**31, size=2)]
    return [
        Check(f"counterexample-{i}", lambda s=s: gt.counterexample_report(seed=s, n_random=20), report_ok)
        for i, s in enumerate(seeds)
    ]


def generate(seed: int) -> list[Check]:
    """One cycle of checks, every input drawn from the seed now."""
    rng = np.random.default_rng(seed)
    checks = []
    for backend in BACKENDS:
        for d in DIMS:
            checks += _backend_checks(rng, backend, d)
    return checks + _rebit_checks() + _report_checks(rng)


def warm_up() -> None:
    """Fill the basis and process-basis caches for every system the checks touch."""
    import gpt_tomo as gt

    for backend in BACKENDS:
        for d in DIMS:
            a = gt.system(backend, d)
            gt.process_space_basis(a, a)
        if backend != "classical":
            for n in range(1, 10):
                gt.complete_state(gt.system(backend, n))


def run_check(check: Check):
    try:
        return check.call()
    except Exception as exc:  # a crash is a failed check, never a harness crash
        return exc


def verify(check: Check, result) -> str:
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    return check.expect(result)
