"""A small textual language for wiring diagrams over the three backends.

Programs declare systems, states, effects and processes, then run one
expression.  Closed diagrams evaluate to a probability.

Grammar::

    program  := decl* "run" expr
    decl     := "system" ID backend INT ";"
              | "state" ID "on" syslist "=" literal ";"
              | "effect" ID "on" syslist "=" literal ";"
              | "proc" ID "on" syslist "->" syslist "=" literal ";"
    backend  := "classical" | "quantum" | "real"
    syslist  := ID ("," ID)*
    literal  := "maxmix" | "bell" | "bell_effect" | "unit"
              | "kraus" "[" matrix ("," matrix)* "]"
              | "stoch" "[" matrix "]"
    matrix   := "[" row ("," row)* "]"
    row      := "[" entry ("," entry)* "]"
    entry    := number | "[" number "," number "]"      # [re, im]
    expr     := par ("." par)*                          # sequential
    par      := atom ("||" atom)*                       # parallel
    atom     := "(" expr ")" | "id" "[" ID "]" | ID

``f . g`` runs ``g`` first (right-to-left application); ``||`` binds tighter
than ``.``.  Diagnostics are positioned as ``file:line:col: message`` and
parsing never panics on malformed input.  Tokens are plain ``(kind, text,
offset)`` tuples; line and column are worked out only for a diagnostic or an
AST position.
The conventional file extension is ``.opt``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import backends as bk
from .core import (
    BACKENDS,
    CLASSICAL,
    DEFAULT_TOL,
    EffectVector,
    ProcessRep,
    StateVector,
    SystemDescriptor,
    apply,
    compose,
    deterministic_effect,
    effect_from_coords,
    effect_from_matrix,
    effect_process,
    identity_process,
    kraus_process,
    preparation_process,
    stochastic_process,
    tensor_processes,
    tensor_systems,
    trivial,
    trivial_state,
)
from .reports import CheckReport

KEYWORDS = {"system", "state", "effect", "proc", "on", "run", "id"}
BACKEND_NAMES = set(BACKENDS)
BUILTINS = {"maxmix", "bell", "bell_effect", "unit"}


class DslError(Exception):
    """Positioned diagnostic for parse, type or evaluation failures."""

    def __init__(self, message: str, line: int, col: int, filename: str = "<string>"):
        self.message = message
        self.line = line
        self.col = col
        self.filename = filename
        super().__init__(f"{filename}:{line}:{col}: {message}")


# ---------------------------------------------------------------------------
# Tokens
# ---------------------------------------------------------------------------

# Every match swallows the whitespace and comments before its token; "bad"
# and "eof" make a match exist at every offset, so finditer skips nothing.
_TOKEN_RE = re.compile(
    r"""
    (?:\s|\#[^\n]*)*
    (?: (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<arrow>->)
      | (?P<par>\|\|)
      | (?P<sym>[;,.=()\[\]])
      | (?P<eof>\Z)
      | (?P<bad>.) )
    """,
    re.VERBOSE | re.DOTALL,
)


Token = tuple[str, str, int]  # kind, text, offset


def _newlines(text: str) -> list[int]:
    return [m.start() for m in re.finditer("\n", text)]


def _line_col(newlines: list[int], offset: int) -> Pos:
    """1-based line and column of a text offset, by bisection over its ``_newlines``."""
    k = bisect_left(newlines, offset)
    return k + 1, offset - (newlines[k - 1] if k else -1)


def tokenize(text: str, filename: str = "<string>") -> list[Token]:
    """One ``finditer`` pass; the list ends with an ``eof`` token."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        offset = m.start(kind)
        if kind == "bad":
            line, col = _line_col(_newlines(text), offset)
            raise DslError(f"unexpected character {m[kind]!r}", line, col, filename)
        tokens.append((kind, m[kind], offset))
        if kind == "eof":
            break
    return tokens


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Pos = tuple[int, int]


@dataclass(frozen=True)
class SystemDecl:
    name: str
    backend: str
    dim: int
    pos: Pos = field(compare=False)


@dataclass(frozen=True)
class BuiltinLit:
    name: str


@dataclass(frozen=True)
class KrausLit:
    matrices: tuple[tuple[tuple[complex, ...], ...], ...]


@dataclass(frozen=True)
class StochLit:
    matrix: tuple[tuple[float, ...], ...]


Literal = BuiltinLit | KrausLit | StochLit


@dataclass(frozen=True)
class ValueDecl:
    """State, effect or process declaration; states have no inputs, effects no outputs."""

    role: str  # "state" | "effect" | "proc"
    name: str
    in_systems: tuple[str, ...]
    out_systems: tuple[str, ...]
    literal: Literal
    pos: Pos = field(compare=False)


@dataclass(frozen=True)
class Atom:
    name: str
    pos: Pos = field(compare=False)


@dataclass(frozen=True)
class Ident:
    system: str
    pos: Pos = field(compare=False)


@dataclass(frozen=True)
class Seq:
    left: "Expr"
    right: "Expr"
    pos: Pos = field(compare=False)


@dataclass(frozen=True)
class Par:
    left: "Expr"
    right: "Expr"
    pos: Pos = field(compare=False)


Expr = Atom | Ident | Seq | Par


@dataclass(frozen=True)
class CircuitAST:
    systems: tuple[SystemDecl, ...]
    values: tuple[ValueDecl, ...]
    run: Expr


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str, filename: str):
        self.tokens = tokenize(text, filename)
        self.newlines = _newlines(text)
        self.filename = filename
        self.i = 0

    def pos(self, tok: Token) -> Pos:
        return _line_col(self.newlines, tok[2])

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: Token | None = None) -> DslError:
        return DslError(message, *self.pos(tok or self.peek()), self.filename)

    def expect(self, kind: str, text: str | None = None) -> str:
        """The text of the next token, which must be of ``kind`` (and be ``text``, if given)."""
        tok = self.peek()
        got_kind, got_text, _ = tok
        if got_kind != kind or (text is not None and got_text != text):
            want = text if text is not None else kind
            raise self.error(f"expected {want!r}, found {got_text or 'end of input'!r}", tok)
        self.i += 1
        return got_text

    def comma_separated(self, item: Callable[[], Any]) -> list:
        items = [item()]
        while self.peek()[1] == ",":
            self.i += 1
            items.append(item())
        return items

    def expect_ident(self, role: str = "identifier") -> str:
        tok = self.peek()
        kind, text, _ = tok
        if kind != "ident" or text in KEYWORDS:
            raise self.error(f"expected {role}, found {text or 'end of input'!r}", tok)
        self.i += 1
        return text

    # --- declarations ---

    def parse_program(self) -> CircuitAST:
        systems: list[SystemDecl] = []
        values: list[ValueDecl] = []
        declared: set[str] = set()
        while True:
            kind, text, _ = self.peek()
            if kind == "ident" and text == "run":
                break
            if kind == "eof":
                raise self.error("expected a declaration or 'run'")
            if kind != "ident" or text not in ("system", "state", "effect", "proc"):
                raise self.error(f"expected 'system', 'state', 'effect', 'proc' or 'run', found {text!r}")
            decl = self.parse_decl(text)
            name = decl.name
            if name in declared:
                raise DslError(f"duplicate declaration of {name!r}", *decl.pos, self.filename)
            declared.add(name)
            if isinstance(decl, SystemDecl):
                systems.append(decl)
            else:
                values.append(decl)
        self.expect("ident", "run")
        expr = self.parse_expr()
        self.expect("eof")
        return CircuitAST(tuple(systems), tuple(values), expr)

    def parse_decl(self, head: str) -> SystemDecl | ValueDecl:
        start = self.next()  # the keyword
        name = self.expect_ident(f"{head} name")
        if head == "system":
            backend_tok = self.peek()
            backend = self.expect_ident("backend name")
            if backend not in BACKEND_NAMES:
                raise self.error(
                    f"unknown backend {backend!r} (expected classical, quantum or real)", backend_tok
                )
            dim_tok = self.peek()
            dim = self.expect("number")
            try:
                d = int(dim)
            except ValueError:
                raise self.error(f"system dimension must be an integer, found {dim!r}", dim_tok)
            if d < 1:
                raise self.error("system dimension must be positive", dim_tok)
            self.expect("sym", ";")
            return SystemDecl(name, backend, d, self.pos(start))
        self.expect("ident", "on")
        ins, outs = self.parse_syslist(), ()
        if head == "proc":
            self.expect("arrow")
            outs = self.parse_syslist()
        elif head == "state":
            ins, outs = (), ins
        self.expect("sym", "=")
        lit = self.parse_literal()
        self.expect("sym", ";")
        return ValueDecl(head, name, ins, outs, lit, self.pos(start))

    def parse_syslist(self) -> tuple[str, ...]:
        return tuple(self.comma_separated(lambda: self.expect_ident("system name")))

    def parse_literal(self) -> Literal:
        kind, text, _ = self.peek()
        if kind != "ident":
            raise self.error(f"expected a literal, found {text!r}")
        if text in BUILTINS:
            self.next()
            return BuiltinLit(text)
        if text == "kraus":
            self.next()
            self.expect("sym", "[")
            mats = self.comma_separated(lambda: self.parse_matrix(complex_ok=True))
            self.expect("sym", "]")
            return KrausLit(tuple(mats))
        if text == "stoch":
            self.next()
            self.expect("sym", "[")
            mat = self.parse_matrix(complex_ok=False)
            self.expect("sym", "]")
            return StochLit(tuple(tuple(float(x.real) for x in row) for row in mat))
        raise self.error(f"unknown literal {text!r}")

    def parse_matrix(self, complex_ok: bool) -> tuple[tuple[complex, ...], ...]:
        self.expect("sym", "[")
        rows = self.comma_separated(lambda: self.parse_row(complex_ok))
        self.expect("sym", "]")
        if len({len(r) for r in rows}) != 1:
            raise self.error("matrix rows have unequal lengths")
        return tuple(rows)

    def parse_row(self, complex_ok: bool) -> tuple[complex, ...]:
        """Plain and ``[re, im]`` entries are read in a local loop; anything else goes to ``parse_entry``."""
        self.expect("sym", "[")
        toks, i, entries = self.tokens, self.i, []
        while True:
            kind, text, _ = toks[i]
            if kind == "number":
                entries.append(complex(float(text)))
                i += 1
            elif (  # short-circuits before it could look past the eof token
                complex_ok and text == "[" and toks[i + 1][0] == "number" and toks[i + 2][1] == ","
                and toks[i + 3][0] == "number" and toks[i + 4][1] == "]"
            ):
                entries.append(complex(float(toks[i + 1][1]), float(toks[i + 3][1])))
                i += 5
            else:
                self.i = i
                entries.append(self.parse_entry(complex_ok))
                i = self.i
            if toks[i][1] != ",":
                break
            i += 1
        self.i = i
        self.expect("sym", "]")
        return tuple(entries)

    def parse_entry(self, complex_ok: bool) -> complex:
        """An entry that ``parse_row`` could not read as a number or a well-formed pair."""
        kind, text, _ = self.peek()
        if kind == "sym" and text == "[":
            if not complex_ok:
                raise self.error("stochastic entries must be plain numbers")
            self.next()
            re_text = self.expect("number")
            self.expect("sym", ",")
            im_text = self.expect("number")
            self.expect("sym", "]")
            return complex(float(re_text), float(im_text))
        raise self.error(f"expected a number, found {text!r}")

    # --- expressions ---

    def parse_expr(self) -> Expr:
        node = self.parse_par()
        while self.peek()[:2] == ("sym", "."):
            op = self.next()
            right = self.parse_par()
            node = Seq(node, right, self.pos(op))
        return node

    def parse_par(self) -> Expr:
        node = self.parse_atom()
        while self.peek()[0] == "par":
            op = self.next()
            right = self.parse_atom()
            node = Par(node, right, self.pos(op))
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        kind, text, _ = tok
        if kind == "sym" and text == "(":
            self.next()
            inner = self.parse_expr()
            self.expect("sym", ")")
            return inner
        if kind == "ident" and text == "id":
            self.next()
            self.expect("sym", "[")
            name = self.expect_ident("system name")
            self.expect("sym", "]")
            return Ident(name, self.pos(tok))
        if kind == "ident" and text not in KEYWORDS:
            self.next()
            return Atom(text, self.pos(tok))
        raise self.error(f"expected an expression, found {text or 'end of input'!r}")


def parse(text: str, filename: str = "<string>") -> CircuitAST:
    """Parse a program, raising a positioned ``DslError`` on malformed input."""
    return _Parser(text, filename).parse_program()


# ---------------------------------------------------------------------------
# Pretty printer (parse . print round-trips the AST)
# ---------------------------------------------------------------------------

def _print_entry(z: complex) -> str:
    if z.imag == 0.0:
        return _print_num(z.real)
    return f"[{_print_num(z.real)}, {_print_num(z.imag)}]"


def _print_num(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def _print_literal(lit: Literal) -> str:
    if isinstance(lit, BuiltinLit):
        return lit.name
    if isinstance(lit, StochLit):
        rows = ", ".join("[" + ", ".join(_print_num(x) for x in row) + "]" for row in lit.matrix)
        return f"stoch[[{rows}]]"
    mats = ", ".join(
        "[" + ", ".join("[" + ", ".join(_print_entry(z) for z in row) + "]" for row in m) + "]"
        for m in lit.matrices
    )
    return f"kraus[{mats}]"


def _print_expr(expr: Expr, parent: str = "") -> str:
    if isinstance(expr, Atom):
        return expr.name
    if isinstance(expr, Ident):
        return f"id[{expr.system}]"
    if isinstance(expr, Seq):
        text = f"{_print_expr(expr.left, 'seq')} . {_print_expr(expr.right, 'seq-right')}"
        return f"({text})" if parent in ("par", "seq-right") else text
    text = f"{_print_expr(expr.left, 'par')} || {_print_expr(expr.right, 'par-right')}"
    return f"({text})" if parent == "par-right" else text


def pretty(ast: CircuitAST) -> str:
    lines = []
    for s in ast.systems:
        lines.append(f"system {s.name} {s.backend} {s.dim};")
    for v in ast.values:  # states have no inputs, effects no outputs, processes both
        wires = " -> ".join(", ".join(w) for w in (v.in_systems, v.out_systems) if w)
        lines.append(f"{v.role} {v.name} on {wires} = {_print_literal(v.literal)};")
    lines.append(f"run {_print_expr(ast.run)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Typechecker
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TypedExpr:
    node: Expr
    ins: tuple[str, ...]
    outs: tuple[str, ...]
    children: tuple["TypedExpr", ...]


@dataclass(frozen=True)
class TypedProgram:
    ast: CircuitAST
    systems: dict[str, SystemDescriptor]
    values: dict[str, ValueDecl]
    run: TypedExpr
    filename: str


def typecheck(ast: CircuitAST, filename: str = "<string>") -> TypedProgram:
    """Resolve wire labels and compute system lists bottom-up."""
    systems: dict[str, SystemDescriptor] = {}
    for s in ast.systems:
        systems[s.name] = SystemDescriptor(s.backend, (s.dim,))
    values: dict[str, ValueDecl] = {}
    for v in ast.values:
        for label in v.in_systems + v.out_systems:
            if label not in systems:
                raise DslError(f"unknown system {label!r}", *v.pos, filename)
        backs = {systems[n].backend for n in v.in_systems + v.out_systems}
        if len(backs) > 1:
            raise DslError(f"declaration {v.name!r} mixes backends {sorted(backs)}", *v.pos, filename)
        values[v.name] = v

    def check(expr: Expr) -> TypedExpr:
        if isinstance(expr, Atom):
            if expr.name not in values:
                raise DslError(f"unknown identifier {expr.name!r}", *expr.pos, filename)
            v = values[expr.name]
            return TypedExpr(expr, v.in_systems, v.out_systems, ())
        if isinstance(expr, Ident):
            if expr.system not in systems:
                raise DslError(f"unknown system {expr.system!r}", *expr.pos, filename)
            return TypedExpr(expr, (expr.system,), (expr.system,), ())
        left = check(expr.left)
        right = check(expr.right)
        if isinstance(expr, Seq):
            if right.outs != left.ins:
                raise DslError(
                    f"cannot sequence: right side outputs [{', '.join(right.outs)}] "
                    f"but left side expects [{', '.join(left.ins)}]",
                    *expr.pos,
                    filename,
                )
            return TypedExpr(expr, right.ins, left.outs, (left, right))
        wires = left.ins + left.outs + right.ins + right.outs
        backs = {systems[n].backend for n in wires}
        if len(backs) > 1:
            raise DslError(
                f"cannot compose mixed backends {sorted(backs)} in parallel", *expr.pos, filename
            )
        return TypedExpr(expr, left.ins + right.ins, left.outs + right.outs, (left, right))

    return TypedProgram(ast, systems, values, check(ast.run), filename)


# ---------------------------------------------------------------------------
# Evaluator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalResult:
    kind: str  # "scalar" | "state" | "effect" | "process"
    payload: float | StateVector | EffectVector | ProcessRep


def _composite(prog: TypedProgram, names: tuple[str, ...], backend_hint: str | None) -> SystemDescriptor:
    if not names:
        return trivial(backend_hint or CLASSICAL)
    sys = prog.systems[names[0]]
    for n in names[1:]:
        sys = tensor_systems(sys, prog.systems[n])
    return sys


def _build_builtin(
    prog: TypedProgram, v: ValueDecl, tol: float
) -> ProcessRep:
    name = v.literal.name
    wires = v.in_systems or v.out_systems
    sys = _composite(prog, wires, None)
    if name == "maxmix":
        if v.role != "state":
            raise DslError("'maxmix' is a state literal", *v.pos, prog.filename)
        return preparation_process(bk.complete_state(sys), tol=tol)
    if name == "unit":
        if v.role != "effect":
            raise DslError("'unit' is an effect literal", *v.pos, prog.filename)
        return effect_process(deterministic_effect(sys), tol=tol)
    if name in ("bell", "bell_effect"):
        if len(wires) != 2 or prog.systems[wires[0]].dims != prog.systems[wires[1]].dims:
            raise DslError(
                f"'{name}' needs two systems of equal dimension", *v.pos, prog.filename
            )
        local = prog.systems[wires[0]]
        if name == "bell":
            if v.role != "state":
                raise DslError("'bell' is a state literal", *v.pos, prog.filename)
            return preparation_process(bk.maximally_entangled_state(local), tol=tol)
        if v.role != "effect":
            raise DslError("'bell_effect' is an effect literal", *v.pos, prog.filename)
        return effect_process(bk.maximally_entangled_effect(local), tol=tol)
    raise DslError(f"unknown builtin {name!r}", *v.pos, prog.filename)


def _build_value(prog: TypedProgram, v: ValueDecl, tol: float) -> ProcessRep:
    if isinstance(v.literal, BuiltinLit):
        return _build_builtin(prog, v, tol)
    inp = _composite(prog, v.in_systems, _backend_of(prog, v))
    out = _composite(prog, v.out_systems, _backend_of(prog, v))
    try:
        if isinstance(v.literal, StochLit):
            return stochastic_process(inp, out, np.array(v.literal.matrix, dtype=float), tol=tol)
        return kraus_process(inp, out, v.literal.matrices, tol=tol)  # one array unless ragged
    except ValueError as exc:
        raise DslError(str(exc), *v.pos, prog.filename) from exc


def _backend_of(prog: TypedProgram, v: ValueDecl) -> str:
    wires = v.in_systems + v.out_systems
    return prog.systems[wires[0]].backend if wires else CLASSICAL


def evaluate(prog: TypedProgram, tol: float = DEFAULT_TOL) -> EvalResult:
    """Contract the run expression; a closed diagram yields a probability."""
    cache: dict[str, ProcessRep] = {}

    def run(t: TypedExpr) -> ProcessRep:
        node = t.node
        if isinstance(node, Atom):
            if node.name not in cache:
                cache[node.name] = _build_value(prog, prog.values[node.name], tol)
            return cache[node.name]
        if isinstance(node, Ident):
            return identity_process(prog.systems[node.system])
        left, right = (run(ch) for ch in t.children)
        try:
            if isinstance(node, Seq):
                return compose(left, right, tol=tol)
            return tensor_processes(left, right, tol=tol)
        except ValueError as exc:
            raise DslError(str(exc), *node.pos, prog.filename) from exc

    proc = run(prog.run)
    if proc.input.is_trivial and proc.output.is_trivial:
        if proc.stoch is not None:
            scalar = float(proc.stoch[0, 0])
        else:
            scalar = float((np.abs(proc.kraus[:, 0, 0]) ** 2).sum())
        if scalar < -tol or scalar > 1.0 + max(tol, 1e-9):
            raise DslError(
                f"closed diagram evaluated outside [0, 1]: {scalar}",
                *prog.run.node.pos,
                prog.filename,
            )
        return EvalResult("scalar", scalar)
    if proc.input.is_trivial:
        return EvalResult("state", apply(proc, trivial_state(proc.backend), tol=tol))
    if proc.output.is_trivial:
        if proc.stoch is not None:
            eff = effect_from_coords(proc.input, proc.stoch[0], tol=tol)
        else:
            ops = proc.kraus
            eff = effect_from_matrix(proc.input, (ops.conj().transpose(0, 2, 1) @ ops).sum(axis=0), tol=tol)
        return EvalResult("effect", eff)
    return EvalResult("process", proc)


def run_program(text: str, filename: str = "<string>", tol: float = DEFAULT_TOL) -> EvalResult:
    """Parse, typecheck and evaluate in one shot."""
    return evaluate(typecheck(parse(text, filename), filename), tol=tol)


def run_file(path: str, tol: float = DEFAULT_TOL) -> EvalResult:
    with open(path, "r", encoding="utf-8") as fh:
        return run_program(fh.read(), filename=path, tol=tol)


def run_check(path: str, *, tol: float = DEFAULT_TOL, seed: int = 0) -> CheckReport:
    """Evaluate a circuit file into a passing ``run`` report carrying its value."""
    result = run_file(path, tol=tol)
    if result.kind == "scalar":
        value: Any = result.payload
    elif result.kind in ("state", "effect"):
        value = [float(x) for x in result.payload.coords]
    else:
        value = repr(result.payload)
    return CheckReport("run", True, tol, seed, {"file": path, "kind": result.kind, "value": value})
