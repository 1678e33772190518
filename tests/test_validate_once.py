"""Images of completely positive maps are not re-validated, and nothing downstream can tell.

``compose`` and ``tensor_processes`` build their Kraus lists from validated
operands and hand them to ``core._kraus_rep``, which only computes the
flags.  Routing them back through the full ``kraus_process`` must leave
every result and every composite Kraus list bit-identical on the golden
corpus and the deep-circuit benchmark programs.

Likewise the images of validated states under ``apply_to_factors``, the
factor reductions and ``tensor_states``, and the matrices vv^dag and
gg^dag/tr, are built by ``core._state_rep``, which skips only the
eigenvalue test.  Routing it back through ``state_from_matrix`` must leave
every state and every verdict bit-identical; so must routing each matrix of
a stack through it, for the stacked states (``core._state_reps``, the face
family) and the stacked images (``core._checked_images``, the equality rule
and the preparational-faithfulness witnesses).  The equality rule acts on
one stack of test states (``core._images``), which must match the per-state
action bit for bit.  The public constructors keep the eigenvalue test, and
its boundary sits at ``tol``.
"""

import sys
from math import prod
from pathlib import Path

import numpy as np
import pytest

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import dsl
from gpt_tomo import rebit as rb
from gpt_tomo import tomography as tm
from gpt_tomo import witnesses as wt
from gpt_tomo.core import CLASSICAL, QUANTUM, REAL, system

from conftest import perfbench_module

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def _evaluate_recording(texts):
    """Each program's result (or diagnostic) and every process compose/tensor_processes returned."""
    made, results = [], []

    def recording(fn):
        def wrapped(*args, **kwargs):
            made.append(fn(*args, **kwargs))
            return made[-1]

        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dsl, "compose", recording(c.compose))
        mp.setattr(dsl, "tensor_processes", recording(c.tensor_processes))
        for text in texts:
            try:
                results.append(dsl.run_program(text))
            except dsl.DslError as exc:
                results.append(str(exc))
    return made, results


def _canon(x):
    """A value with every state, array and report reduced to comparable bytes."""
    if isinstance(x, c.StateVector):
        held = None if x._matrix is None else (x._matrix.dtype.str, x._matrix.tobytes())
        return ("state", x.system, x.kind, x.coords.tobytes(), held)
    if isinstance(x, c.EffectVector):
        return ("effect", x.system, x.kind, x.coords.tobytes())
    if isinstance(x, c.ProcessRep):
        rep = x.kraus if x.stoch is None else x.stoch
        return ("process", x.input, x.output, x.deterministic, x.reversible, rep.shape, rep.tobytes())
    if isinstance(x, np.ndarray):
        return ("array", x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, dsl.EvalResult):
        return ("result", x.kind, _canon(x.payload))
    if hasattr(x, "to_dict"):
        return ("report", type(x).__name__, repr(x.to_dict()))
    if isinstance(x, (tuple, list)):
        return tuple(_canon(y) for y in x)
    if isinstance(x, Exception):
        return ("error", type(x).__name__, str(x))
    return x


def test_full_validation_of_composites_changes_nothing(monkeypatch):
    texts = [prog.text for prog in perfbench_module("circuits").generate(1)]  # seed 1, corpus included
    fast_made, fast_results = _evaluate_recording(texts)

    constructor, routed = c._kraus_rep, []

    def validating(inp, out, ops, tol, *rest):
        if sys._getframe(1).f_code in (c.compose.__code__, c.tensor_processes.__code__):
            routed.append(len(ops))
            return c.kraus_process(inp, out, ops, tol=tol)
        return constructor(inp, out, ops, tol, *rest)

    monkeypatch.setattr(c, "_kraus_rep", validating)
    full_made, full_results = _evaluate_recording(texts)

    assert len(routed) == sum(p.kraus is not None for p in full_made) > 300
    assert [_canon(p) for p in fast_made] == [_canon(q) for q in full_made]
    assert len(fast_results) == len(full_results) == len(texts)
    assert [_canon(r) for r in fast_results] == [_canon(r) for r in full_results]


# ---------------------------------------------------------------------------
# states: _state_rep against full validation
# ---------------------------------------------------------------------------

def _clear_caches():
    """Empty the per-system families, so each run builds its states afresh."""
    for mod in (c, bk, tm, wt, rb):
        for val in vars(mod).values():
            if callable(getattr(val, "cache_clear", None)):
                val.cache_clear()


def _workload():
    """(name, problem, result) for the small-checks seed-1 cycle, the golden corpus and both report builders.

    ``problem`` is the benchmark's own verdict on a small check's result and
    empty everywhere else.
    """
    small = perfbench_module("small")
    out = []
    for check in small.generate(1):
        result = small.run_check(check)
        out.append((check.name, small.verify(check, result), result))
    for path in sorted(CIRCUITS.glob("*.opt")):
        try:
            out.append((path.name, "", dsl.run_program(path.read_text(), str(path))))
        except dsl.DslError as exc:  # malformed.opt
            out.append((path.name, "", exc))
    for backend in (CLASSICAL, QUANTUM, REAL):
        a, b = system(backend, 2), system(backend, 3)
        out.append((backend, "", wt.is_doubly_preparationally_faithful(a, b, seed=5, samples=2)))
    out.append(("counterexample", "", rb.counterexample_report(seed=3)))
    return out


def _fully_validated(sys_, mat, tol):
    return c.state_from_matrix(sys_, mat, tol=tol)


def _fully_validated_stack(sys_, mats, tol):
    return [_fully_validated(sys_, mat, tol) for mat in mats]


def _fully_validated_images(sys_, arr, tol=c.DEFAULT_TOL):
    """``_checked_images`` with each image built by a public constructor (coordinate columns on classical)."""
    if sys_.backend == CLASSICAL:
        return np.stack([c.state_from_coords(sys_, col[:, 0], tol=tol).coords for col in arr])
    return np.stack([_fully_validated(sys_, mat, tol).coords for mat in arr])


def _record_states(monkeypatch, single, stacked, images):
    """Run the workload with ``_state_rep``, ``_state_reps`` and ``_checked_images`` replaced.

    Returns every state the first two returned, every coordinate stack the
    third returned, and the results.
    """
    made, rows = [], []

    def recording(sys_, mat, tol):
        made.append(single(sys_, mat, tol))
        return made[-1]

    def recording_stack(sys_, mats, tol):
        made.extend(stacked(sys_, mats, tol))
        return made[len(made) - len(mats) :]

    def recording_images(*args):
        rows.append(images(*args))
        return rows[-1]

    with monkeypatch.context() as mp:
        for mod in (c, bk):
            mp.setattr(mod, "_state_rep", recording)
        for mod in (c, tm):
            mp.setattr(mod, "_state_reps", recording_stack)
        for mod in (c, wt):
            mp.setattr(mod, "_checked_images", recording_images)
        _clear_caches()
        results = _workload()
    _clear_caches()
    return made, rows, results


def test_full_validation_of_images_changes_nothing(monkeypatch):
    fast_made, fast_rows, fast_results = _record_states(
        monkeypatch, c._state_rep, c._state_reps, c._checked_images
    )
    full_made, full_rows, full_results = _record_states(
        monkeypatch, _fully_validated, _fully_validated_stack, _fully_validated_images
    )
    assert len(fast_made) == len(full_made) > 250
    assert {s.system.backend for s in fast_made} == {CLASSICAL, QUANTUM, REAL}
    assert all(s._matrix is not None for s in fast_made)
    assert [_canon(s) for s in fast_made] == [_canon(s) for s in full_made]
    assert sum(len(r) for r in fast_rows) == sum(len(r) for r in full_rows) > 250
    assert [_canon(r) for r in fast_rows] == [_canon(r) for r in full_rows]
    assert len(fast_results) == len(full_results) > 100
    assert [_canon(r) for r in fast_results] == [_canon(r) for r in full_results]
    assert [problem for _, problem, _ in fast_results] == [""] * len(fast_results)


# ---------------------------------------------------------------------------
# the stacked action and projection against their one-state loops
# ---------------------------------------------------------------------------

HOST = (2, 3, 2)


def _block_process(rng, backend, start):
    a = system(backend, HOST[start])
    return [bk.random_process(a, system(backend, d), rng) for d in (1, 2, 3)]


def _stack(states):
    if states[0].system.backend == CLASSICAL:
        return np.stack([s.coords for s in states])[..., None]
    return np.stack([s.matrix for s in states])


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
@pytest.mark.parametrize("start", [0, 1, 2], ids=["left", "middle", "right"])
def test_stacked_action_matches_apply_to_factors_state_by_state(monkeypatch, backend, start):
    rng = np.random.default_rng(21 + start)
    host = c.SystemDescriptor(backend, HOST)
    states = [bk.random_state(host, rng) for _ in range(5)]
    stack = _stack(states)
    left = prod(HOST[:start])
    seen = []
    state_rep = c._state_rep

    def capture(sys_, mat, tol):
        seen.append(mat)
        return state_rep(sys_, mat, tol)

    monkeypatch.setattr(c, "_state_rep", capture)
    for p in _block_process(rng, backend, start):
        images = c._act(p, stack, left)
        assert images.shape[0] == len(states)
        outs = [c.apply_to_factors(p, s, start) for s in states]
        if backend == CLASSICAL:
            assert np.array_equal(images[..., 0], [o.coords for o in outs])
            continue
        assert np.array_equal(images, seen[-len(states):])
        coords = c._projection(outs[0].system, images, c.DEFAULT_TOL)
        assert np.array_equal(coords, [o.coords for o in outs])
        assert np.array_equal(c._matrices(outs[0].system, coords), [o.matrix for o in outs])


@pytest.mark.parametrize("backend", [CLASSICAL, QUANTUM, REAL])
def test_images_match_apply_to_factors_on_every_equality_family(backend):
    rng = np.random.default_rng(31)
    a = system(backend, 3)
    p, p2 = (bk.random_process(a, system(backend, 2), rng) for _ in range(2))
    rho = bk.random_state(a, rng)
    preps = [c.preparation_test([bk.random_state(a, rng)]) for _ in range(3)]
    families = [
        [s for _, s in c.source_states(c.randomize(preps, [0.5, 0.25, 0.25]))],
        tm.face_spanning_states(rho),
        [tm.canonical_extension(rho)],
        [tm.find_faithful_state(a)],
    ]
    for states in families:
        out, out2 = c._images((p, p2), states)
        assert np.array_equal(out, [c.apply_to_factors(p, s, 0).coords for s in states])
        assert np.array_equal(out2, [c.apply_to_factors(p2, s, 0).coords for s in states])


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_stacked_projection_matches_matrix_to_coords(backend, n):
    rng = np.random.default_rng(n)
    sys_ = system(backend, n)
    mats = rng.normal(size=(7, n, n))
    if backend == QUANTUM:
        mats = mats + 1j * rng.normal(size=(7, n, n))
    mats = mats + mats.conj().swapaxes(-1, -2)
    assert np.array_equal(c._projection(sys_, mats, c.DEFAULT_TOL), [c.matrix_to_coords(sys_, m) for m in mats])
    with pytest.raises(ValueError, match="expected a"):
        c.matrix_to_coords(sys_, mats[:1])
    if n == 1:
        return
    skew = mats.copy()
    skew[4, 0, -1] += 1e-6  # residue 5e-7 on the fifth matrix only
    with pytest.raises(ValueError, match="residue 5.000e-07 exceeds 1.0e-09"):
        c._projection(sys_, skew, c.DEFAULT_TOL)


def test_stacked_images_keep_the_weight_and_finite_checks(rebit):
    over = c.state_from_coords(rebit, [0.5, 0.5 + 0.9e-9, 0.0])
    heavy = c.kraus_process(rebit, rebit, [np.sqrt(1 + 0.9e-9) * np.eye(2)])  # within tol of a channel
    with pytest.raises(ValueError, match="state weight .* exceeds 1"):
        c._images((heavy,), [bk.complete_state(rebit), over])
    with pytest.raises(ValueError, match="state weight .* exceeds 1"):
        c.apply_to_factors(heavy, over, 0)
    with pytest.raises(ValueError, match="state coordinates must be finite"):
        c._checked_images(rebit, np.full((2, 2, 2), np.nan))
    bit = system(CLASSICAL, 2)
    with pytest.raises(ValueError, match="state matrix has negative eigenvalue"):
        c._checked_images(bit, np.array([[[0.5], [0.5]], [[1.1], [-0.1]]]))


# ---------------------------------------------------------------------------
# what skips the eigenvalue test, and what keeps it
# ---------------------------------------------------------------------------

def _count_eigvalsh(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(np.shape(args[0]))
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_images_of_completely_positive_maps_run_no_eigvalsh(monkeypatch, backend):
    rng = np.random.default_rng(41)
    a, ab = system(backend, 2), system(backend, 2, 3)
    s, t = bk.random_state(a, rng), bk.random_state(system(backend, 3), rng)
    joint = c.tensor_states(s, t)
    p = bk.random_process(a, system(backend, 3), rng)
    effect = bk.spanning_effects(system(backend, 3))[2]
    vec = rng.normal(size=6)
    c.deterministic_effect(a), c.deterministic_effect(system(backend, 3))  # cached before counting
    calls = _count_eigvalsh(monkeypatch)
    c.apply_to_factors(p, joint, 0)
    c.apply(p, s)
    c.contract(joint, effect, [1])
    c.marginal(joint, 1)
    c.marginal(joint, [1, 0])
    c.permute_factors(joint, [1, 0])
    c.tensor_states(s, t)
    c.state_from_vector(ab, vec / np.linalg.norm(vec))
    bk.random_state(ab, rng)
    bk.random_rank_deficient_state(ab, rng)
    tm.face_spanning_states(s)
    assert calls == []
    c.state_from_matrix(a, s.matrix)
    assert calls == [(2, 2)]


def test_equality_rule_applies_no_state_by_state(monkeypatch):
    rng = np.random.default_rng(42)
    families = []
    for backend in (CLASSICAL, QUANTUM, REAL):
        a = system(backend, 2)
        p, p2 = bk.random_process(a, a, rng), bk.random_process(a, a, rng)
        rho = bk.random_state(a, rng)
        for states in (
            bk.spanning_states(a),
            tm.face_spanning_states(rho),
            [tm.canonical_extension(rho)],
            [tm.find_faithful_state(a)],
        ):
            families.append((p, p2, states))
    calls = []
    apply_to_factors = c.apply_to_factors

    def counting(*args, **kwargs):
        calls.append(args)
        return apply_to_factors(*args, **kwargs)

    for mod in (c, tm, rb):
        if hasattr(mod, "apply_to_factors"):
            monkeypatch.setattr(mod, "apply_to_factors", counting)
    eig = _count_eigvalsh(monkeypatch)
    verdicts = [tm._agree(p, p2, states, 1e-9) for p, p2, states in families]
    assert calls == [] and eig == []
    assert verdicts == [False] * len(families)
    assert all(tm._agree(p, p, states, 0.0) for p, _, states in families)


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_state_constructors_keep_the_eigenvalue_test_at_tol(backend, tol):
    rng = np.random.default_rng(51)
    sys_ = system(backend, 3)
    g = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if backend == QUANTUM else 0)
    u, _ = np.linalg.qr(g)
    for factor in (0.999, 1.001):
        low = -factor * tol
        mat = (u * [0.4, 0.6 - low, low]) @ u.conj().T  # trace 1, least eigenvalue low
        mat = (mat + mat.conj().T) / 2
        coords = c.matrix_to_coords(sys_, mat)
        if factor < 1:
            state = c.state_from_matrix(sys_, mat, tol=tol)
            assert state.kind == c.DETERMINISTIC
            assert np.array_equal(c.state_from_coords(sys_, coords, tol=tol).coords, state.coords)
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                c.state_from_matrix(sys_, mat, tol=tol)
            with pytest.raises(ValueError, match="negative eigenvalue"):
                c.state_from_coords(sys_, coords, tol=tol)


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
@pytest.mark.parametrize("tol", [1e-9, 1e-6])
def test_effect_constructor_keeps_both_eigenvalue_tests_at_tol(backend, tol):
    rng = np.random.default_rng(52)
    sys_ = system(backend, 3)
    g = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if backend == QUANTUM else 0)
    u, _ = np.linalg.qr(g)

    def effect(eigs):
        mat = (u * eigs) @ u.conj().T
        return (mat + mat.conj().T) / 2

    for factor in (0.999, 1.001):
        low, high = effect([-factor * tol, 0.3, 0.7]), effect([0.3, 0.7, 1 + factor * tol])
        if factor < 1:
            assert c.effect_from_matrix(sys_, low, tol=tol).kind == c.GENERAL
            assert c.effect_from_matrix(sys_, high, tol=tol).kind == c.GENERAL
        else:
            with pytest.raises(ValueError, match="not positive semidefinite"):
                c.effect_from_matrix(sys_, low, tol=tol)
            with pytest.raises(ValueError, match="exceeds the identity"):
                c.effect_from_matrix(sys_, high, tol=tol)


@pytest.mark.parametrize("backend", [QUANTUM, REAL])
def test_state_rep_keeps_the_weight_check(backend):
    sys_ = system(backend, 2)
    vec = np.array([1.0, 1.0]) * np.sqrt((1 + 2e-9) / 2)
    with pytest.raises(ValueError, match="state weight .* exceeds 1"):
        c.state_from_vector(sys_, vec)
    assert c.state_from_vector(sys_, vec, tol=1e-8).kind == c.DETERMINISTIC
    assert c.state_from_vector(sys_, 0.5 * vec).kind == c.SUBNORMALIZED
    with pytest.raises(ValueError, match="state weight .* exceeds 1"):
        c.tensor_states(c.state_from_vector(sys_, vec, tol=1e-8), c.state_from_vector(sys_, vec, tol=1e-8))
    with pytest.raises(ValueError, match="state coordinates must be finite"):
        c.state_from_vector(sys_, [np.nan, 0.0])
