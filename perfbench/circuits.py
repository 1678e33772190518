"""Workload ``deep-circuit``: ``dsl.run_program`` on generated ``.opt`` texts and the golden corpus.

Programs chain two-Kraus channels sequentially on qubit, rebit and qutrit
wires.  The Kraus count of a sequential composition is the product of its
parts, so it doubles with every step and the time goes to ``core.compose``
and ``core.validate``; matrices stay at n <= 9, so large-n coordinate
conversion plays no part.  Some chains act on two wires through ``||`` and
``id[...]`` lifts.

The plan (shapes, depths, how many of each) is fixed; the seed draws only
the channels and states, so every seed costs the same.  Shallow programs
set ``check_p50_s``; the deep ones (depth 10 to 13, the ten slowest
programs) set ``checks_per_s`` and ``check_tail_s``.  A change that adds a
cost to every composition step shows on both.  A cycle takes about a
second, so a run repeats every program a dozen times or more.

Each result is checked against a plain-numpy density-matrix evaluation
computed before timing starts.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from common import ROOT

WIRES = {"qubit": ("quantum", 2), "rebit": ("real", 2), "qutrit": ("quantum", 3)}
TOL = 1e-9

# (style, wire, depth, close, copies per cycle)
PLAN = (
    # shallow: they set check_p50_s
    ("chain", "qubit", 2, "state", 4),
    ("chain", "rebit", 2, "scalar", 4),
    ("chain", "qutrit", 2, "state", 4),
    ("chain", "qubit", 3, "scalar", 4),
    ("chain", "rebit", 3, "state", 4),
    ("chain", "qutrit", 3, "scalar", 4),
    ("lift", "qubit", 2, "state", 3),
    ("lift", "rebit", 2, "scalar", 3),
    ("lift", "qutrit", 2, "state", 2),
    ("chain", "qubit", 4, "state", 2),
    ("chain", "rebit", 5, "scalar", 2),
    ("chain", "qutrit", 5, "state", 2),
    ("lift", "qubit", 4, "scalar", 2),
    ("lift", "rebit", 4, "state", 2),
    # middle
    ("chain", "qubit", 7, "scalar", 2),
    ("chain", "rebit", 8, "state", 2),
    ("chain", "qutrit", 7, "state", 2),
    ("lift", "qubit", 7, "state", 1),
    ("lift", "rebit", 7, "scalar", 1),
    ("lift", "qutrit", 6, "state", 1),
    # deep: thousands of Kraus operators; they set checks_per_s and check_tail_s
    ("chain", "qubit", 10, "state", 2),
    ("chain", "qutrit", 9, "state", 1),
    ("chain", "rebit", 10, "scalar", 1),
    ("chain", "qutrit", 10, "scalar", 1),
    ("chain", "qubit", 11, "scalar", 2),
    ("chain", "rebit", 11, "state", 1),
    ("chain", "qubit", 12, "state", 1),
    ("chain", "qubit", 13, "state", 1),
)


@dataclass
class Program:
    name: str
    text: str
    kind: str  # "state" | "scalar" | "error"
    expected: object  # coordinate vector, probability, or None


# ---------------------------------------------------------------------------
# Generation and the plain-numpy reference
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return repr(float(x))


def _entry(z: complex, real: bool) -> str:
    return _num(z.real) if real else f"[{_num(z.real)}, {_num(z.imag)}]"


def _matrix(m: np.ndarray, real: bool) -> str:
    return "[" + ", ".join("[" + ", ".join(_entry(z, real) for z in row) + "]" for row in m) + "]"


def _kraus(ops: list[np.ndarray], real: bool) -> str:
    return "kraus[" + ", ".join(_matrix(k, real) for k in ops) + "]"


def gaussian(rng: np.random.Generator, shape, real: bool) -> np.ndarray:
    g = rng.normal(size=shape)
    return g if real else g + 1j * rng.normal(size=shape)


def random_channel(rng: np.random.Generator, n: int, real: bool) -> list[np.ndarray]:
    """Two Kraus operators sliced from a random isometry C^n -> C^n (x) C^2."""
    q, r = np.linalg.qr(gaussian(rng, (2 * n, n), real))
    q = q * np.sign(np.diag(r).real)
    ops = [q[:n], q[n:]]
    return [k.real if real else k for k in ops]


def random_columns(rng: np.random.Generator, n: int, real: bool) -> list[np.ndarray]:
    """Two n x 1 columns whose outer products sum to a density matrix."""
    c = gaussian(rng, (n, 2), real)
    c = c / np.linalg.norm(c)
    return [c[:, [0]], c[:, [1]]]


def random_effect_rows(rng: np.random.Generator, n: int, real: bool) -> list[np.ndarray]:
    """Two 1 x n rows whose Gram matrix is 0.81 times a rank-2 projector."""
    q, _ = np.linalg.qr(gaussian(rng, (n, 2), real))
    return [0.9 * q[:, [0]].conj().T, 0.9 * q[:, [1]].conj().T]


def _channel_act(ops: list[np.ndarray], rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in ops)


def coords_of(rho: np.ndarray, real: bool) -> np.ndarray:
    """Coordinates in the package's orthonormal basis, read off in closed form.

    Hermitian: [diag, sqrt2 Re(upper), -sqrt2 Im(upper)]; symmetric: [diag, sqrt2 upper].
    """
    iu = np.triu_indices(rho.shape[0], 1)
    parts = [rho.diagonal().real, np.sqrt(2.0) * rho[iu].real]
    if not real:
        parts.append(-np.sqrt(2.0) * rho[iu].imag)
    return np.concatenate(parts)


def make_program(rng: np.random.Generator, style: str, wire: str, depth: int, close: str, name: str) -> Program:
    backend, d = WIRES[wire]
    real = backend == "real"
    lines = [f"# generated: {style} on {wire} wires, depth {depth}, closed as a {close}"]
    if style == "chain":
        lines.append(f"system A {backend} {d};")
        wires, n = "A", d
    else:
        lines += [f"system A {backend} {d};", f"system B {backend} {d};"]
        wires, n = "A, B", d * d
    cols = random_columns(rng, n, real)
    lines.append(f"state rho on {wires} = {_kraus(cols, real)};")
    rho = sum(c @ c.conj().T for c in cols)
    eye = np.eye(d)
    steps = []
    for i in range(depth):
        ops = random_channel(rng, d, real)
        if style == "chain":
            lines.append(f"proc c{i} on A -> A = {_kraus(ops, real)};")
            steps.append(f"c{i}")
            rho = _channel_act(ops, rho)
        elif i % 3 == 0:
            lines.append(f"proc c{i} on A -> A = {_kraus(ops, real)};")
            steps.append(f"(c{i} || id[B])")
            rho = _channel_act([np.kron(k, eye) for k in ops], rho)
        elif i % 3 == 1:
            lines.append(f"proc c{i} on B -> B = {_kraus(ops, real)};")
            steps.append(f"(id[A] || c{i})")
            rho = _channel_act([np.kron(eye, k) for k in ops], rho)
        else:
            ops2 = random_channel(rng, d, real)
            lines.append(f"proc c{i} on A -> A = {_kraus(ops, real)};")
            lines.append(f"proc e{i} on B -> B = {_kraus(ops2, real)};")
            steps.append(f"(c{i} || e{i})")
            rho = _channel_act([np.kron(a, b) for a in ops for b in ops2], rho)
    # the DSL applies right to left: the last step is written first
    expr = " . ".join(reversed(steps)) + " . rho"
    if close == "scalar":
        rows = random_effect_rows(rng, n, real)
        lines.append(f"effect e on {wires} = {_kraus(rows, real)};")
        expr = "e . " + expr
        expected = float(np.trace(sum(r.conj().T @ r for r in rows) @ rho).real)
    else:
        expected = coords_of(rho, real)
    lines.append(f"run {expr}")
    return Program(name, "\n".join(lines) + "\n", close, expected)


_STATED = re.compile(r"(?<![\w./])(\d+(?:\.\d+)?)(?:/(\d+))?(?!\w|\.\d)")


def corpus() -> list[Program]:
    """The golden ``.opt`` files with the value each one's comment states.

    The stated value is the last number in the leading comment ("certainty"
    reads as 1).  A file without a stated value must be rejected with
    ``DslError``.
    """
    programs = []
    for path in sorted((ROOT / "circuits").glob("*.opt")):
        text = path.read_text(encoding="utf-8")
        comment = " ".join(line[1:] for line in text.splitlines() if line.startswith("#"))
        found = _STATED.findall(comment)
        if found:
            num, den = found[-1]
            programs.append(Program(path.name, text, "scalar", float(num) / (float(den) if den else 1.0)))
        elif "certainty" in comment:
            programs.append(Program(path.name, text, "scalar", 1.0))
        else:
            programs.append(Program(path.name, text, "error", None))
    return programs


def generate(seed: int) -> list[Program]:
    """One cycle of checks: the plan's programs, then the corpus."""
    rng = np.random.default_rng(seed)
    programs = []
    for style, wire, depth, close, copies in PLAN:
        for c in range(copies):
            name = f"{style}-{wire}-d{depth}-{close}-{c}"
            programs.append(make_program(rng, style, wire, depth, close, name))
    return programs + corpus()


def warm_up() -> None:
    """Fill the caches the checks use: one depth-1 program per shape, then the corpus."""
    from gpt_tomo import dsl

    rng = np.random.default_rng(0)
    shapes = sorted({(style, wire, close) for style, wire, _, close, _ in PLAN})
    for style, wire, close in shapes:
        dsl.run_program(make_program(rng, style, wire, 1, close, "warm-up").text)
    for prog in corpus():
        try:
            dsl.run_program(prog.text, prog.name)
        except dsl.DslError:
            pass


# ---------------------------------------------------------------------------
# Running and checking
# ---------------------------------------------------------------------------

def run_check(prog: Program):
    """Evaluate one program; returns the result or the exception it raised."""
    from gpt_tomo import dsl

    try:
        return dsl.run_program(prog.text, prog.name)
    except Exception as exc:  # a crash is a failed check, never a harness crash
        return exc


def verify(prog: Program, result) -> str:
    """Empty when the result matches the reference, else what is wrong."""
    from gpt_tomo import dsl

    if prog.kind == "error":
        return "" if isinstance(result, dsl.DslError) else f"expected DslError, got {result!r}"
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    if result.kind != prog.kind:
        return f"result kind {result.kind}, expected {prog.kind}"
    if prog.kind == "scalar":
        dev = abs(float(result.payload) - prog.expected)
    else:
        got = np.asarray(result.payload.coords, dtype=float)
        if got.shape != prog.expected.shape:
            return f"coordinate shape {got.shape}, expected {prog.expected.shape}"
        dev = float(np.abs(got - prog.expected).max())
    return "" if dev <= TOL else f"deviates by {dev:.3e} (tolerance {TOL:g})"
