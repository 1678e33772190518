"""Composites are not re-validated, and nothing downstream can tell.

``compose`` and ``tensor_processes`` build their Kraus lists from validated
operands and hand them to ``core._kraus_rep``, which only computes the
flags.  Routing them back through the full ``kraus_process`` must leave
every result and every composite Kraus list bit-identical on the golden
corpus and the deep-circuit benchmark programs.
"""

import sys

import numpy as np
import pytest

from gpt_tomo import core as c
from gpt_tomo import dsl

from conftest import perfbench_module


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


def _same_process(p, q) -> bool:
    if (p.input, p.output, p.deterministic, p.reversible) != (q.input, q.output, q.deterministic, q.reversible):
        return False
    if p.stoch is not None:
        return q.stoch is not None and np.array_equal(p.stoch, q.stoch)
    return len(p.kraus) == len(q.kraus) and all(np.array_equal(a, b) for a, b in zip(p.kraus, q.kraus))


def _same_result(r, s) -> bool:
    if isinstance(r, str) or isinstance(s, str):
        return r == s
    if r.kind != s.kind:
        return False
    if r.kind == "scalar":
        return r.payload == s.payload
    if r.kind == "process":
        return _same_process(r.payload, s.payload)
    return (r.payload.kind == s.payload.kind) and np.array_equal(r.payload.coords, s.payload.coords)


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
    assert len(fast_made) == len(full_made)
    assert all(_same_process(p, q) for p, q in zip(fast_made, full_made))
    assert len(fast_results) == len(full_results) == len(texts)
    assert all(_same_result(r, s) for r, s in zip(fast_results, full_results))
