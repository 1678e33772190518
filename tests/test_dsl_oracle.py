"""The one-pass tokenizer and parser against their slow twins.

``slow_tokenize`` and ``_SlowParser`` are the earlier implementation: one
regex match per lexeme, whitespace included, eager line/column tracking and
one ``parse_entry`` call per matrix entry.  On every input both must build
the same AST with the same positions, or raise the same ``DslError``
(message, line and column); no other exception may escape either.  The
twin refuses parentheses nested more than 100 deep, as ``dsl.parse`` does.
"""

import re
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpt_tomo.dsl import (
    BACKEND_NAMES,
    BUILTINS,
    KEYWORDS,
    Atom,
    BuiltinLit,
    CircuitAST,
    DslError,
    Expr,
    Ident,
    KrausLit,
    Literal,
    Par,
    Seq,
    StochLit,
    SystemDecl,
    ValueDecl,
    _parse,
    parse,
    tokenize,
)

from conftest import perfbench_module

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


# ---------------------------------------------------------------------------
# the slow twins
# ---------------------------------------------------------------------------

_SLOW_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<arrow>->)
  | (?P<par>\|\|)
  | (?P<sym>[;,.=()\[\]])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class SlowToken:
    kind: str
    text: str
    line: int
    col: int


def slow_tokenize(text: str, filename: str = "<string>") -> list[SlowToken]:
    tokens: list[SlowToken] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _SLOW_TOKEN_RE.match(text, pos)
        if m is None:
            raise DslError(f"unexpected character {text[pos]!r}", line, col, filename)
        kind = m.lastgroup
        span = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(SlowToken(kind, span, line, col))
        newlines = span.count("\n")
        if newlines:
            line += newlines
            col = len(span) - span.rfind("\n")
        else:
            col += len(span)
        pos = m.end()
    tokens.append(SlowToken("eof", "", line, col))
    return tokens


SLOW_MAX_NESTING = 100


class _SlowParser:
    def __init__(self, tokens: list[SlowToken], filename: str):
        self.tokens = tokens
        self.filename = filename
        self.i = 0
        self.nesting = 0

    def peek(self) -> SlowToken:
        return self.tokens[self.i]

    def next(self) -> SlowToken:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, message: str, tok: SlowToken | None = None) -> DslError:
        tok = tok or self.peek()
        return DslError(message, tok.line, tok.col, self.filename)

    def expect(self, kind: str, text: str | None = None) -> SlowToken:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text if text is not None else kind
            shown = tok.text if tok.text else "end of input"
            raise self.error(f"expected {want!r}, found {shown!r}", tok)
        return self.next()

    def expect_ident(self, role: str = "identifier") -> SlowToken:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            shown = tok.text if tok.text else "end of input"
            raise self.error(f"expected {role}, found {shown!r}", tok)
        return self.next()

    # --- declarations ---

    def parse_program(self) -> CircuitAST:
        systems: list[SystemDecl] = []
        values: list[ValueDecl] = []
        declared: set[str] = set()
        while True:
            tok = self.peek()
            if tok.kind == "ident" and tok.text == "run":
                break
            if tok.kind == "eof":
                raise self.error("expected a declaration or 'run'", tok)
            if tok.kind != "ident" or tok.text not in ("system", "state", "effect", "proc"):
                raise self.error(
                    f"expected 'system', 'state', 'effect', 'proc' or 'run', found {tok.text!r}",
                    tok,
                )
            decl = self.parse_decl(tok.text)
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
            backend = self.expect_ident("backend name")
            if backend.text not in BACKEND_NAMES:
                raise self.error(
                    f"unknown backend {backend.text!r} (expected classical, quantum or real)",
                    backend,
                )
            dim = self.expect("number")
            try:
                d = int(dim.text)
            except ValueError:
                raise self.error(f"system dimension must be an integer, found {dim.text!r}", dim)
            if d < 1:
                raise self.error("system dimension must be positive", dim)
            self.expect("sym", ";")
            return SystemDecl(name.text, backend.text, d, (start.line, start.col))
        self.expect("ident", "on")
        first = self.parse_syslist()
        if head == "proc":
            self.expect("arrow")
            second = self.parse_syslist()
            ins, outs = first, second
        elif head == "state":
            ins, outs = (), first
        else:
            ins, outs = first, ()
        self.expect("sym", "=")
        lit = self.parse_literal()
        self.expect("sym", ";")
        return ValueDecl(head, name.text, ins, outs, lit, (start.line, start.col))

    def parse_syslist(self) -> tuple[str, ...]:
        names = [self.expect_ident("system name").text]
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            names.append(self.expect_ident("system name").text)
        return tuple(names)

    def parse_literal(self) -> Literal:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error(f"expected a literal, found {tok.text!r}", tok)
        if tok.text in BUILTINS:
            self.next()
            return BuiltinLit(tok.text)
        if tok.text == "kraus":
            self.next()
            self.expect("sym", "[")
            mats = [self.parse_matrix(complex_ok=True)]
            while self.peek().text == ",":
                self.next()
                mats.append(self.parse_matrix(complex_ok=True))
            self.expect("sym", "]")
            return KrausLit(tuple(mats))
        if tok.text == "stoch":
            self.next()
            self.expect("sym", "[")
            mat = self.parse_matrix(complex_ok=False)
            self.expect("sym", "]")
            return StochLit(tuple(tuple(float(x.real) for x in row) for row in mat))
        raise self.error(f"unknown literal {tok.text!r}", tok)

    def parse_matrix(self, complex_ok: bool) -> tuple[tuple[complex, ...], ...]:
        self.expect("sym", "[")
        rows = [self.parse_row(complex_ok)]
        while self.peek().text == ",":
            self.next()
            rows.append(self.parse_row(complex_ok))
        self.expect("sym", "]")
        if len({len(r) for r in rows}) != 1:
            raise self.error("matrix rows have unequal lengths")
        return tuple(rows)

    def parse_row(self, complex_ok: bool) -> tuple[complex, ...]:
        self.expect("sym", "[")
        entries = [self.parse_entry(complex_ok)]
        while self.peek().text == ",":
            self.next()
            entries.append(self.parse_entry(complex_ok))
        self.expect("sym", "]")
        return tuple(entries)

    def parse_entry(self, complex_ok: bool) -> complex:
        tok = self.peek()
        if tok.kind == "number":
            self.next()
            return complex(float(tok.text))
        if tok.kind == "sym" and tok.text == "[":
            if not complex_ok:
                raise self.error("stochastic entries must be plain numbers", tok)
            self.next()
            re_tok = self.expect("number")
            self.expect("sym", ",")
            im_tok = self.expect("number")
            self.expect("sym", "]")
            return complex(float(re_tok.text), float(im_tok.text))
        raise self.error(f"expected a number, found {tok.text!r}", tok)

    # --- expressions ---

    def parse_expr(self) -> Expr:
        node = self.parse_par()
        while self.peek().kind == "sym" and self.peek().text == ".":
            op = self.next()
            right = self.parse_par()
            node = Seq(node, right, (op.line, op.col))
        return node

    def parse_par(self) -> Expr:
        node = self.parse_atom()
        while self.peek().kind == "par":
            op = self.next()
            right = self.parse_atom()
            node = Par(node, right, (op.line, op.col))
        return node

    def parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "(":
            if self.nesting == SLOW_MAX_NESTING:
                raise self.error(f"parentheses nested more than {SLOW_MAX_NESTING} deep", tok)
            self.nesting += 1
            self.next()
            inner = self.parse_expr()
            self.expect("sym", ")")
            self.nesting -= 1
            return inner
        if tok.kind == "ident" and tok.text == "id":
            self.next()
            self.expect("sym", "[")
            name = self.expect_ident("system name")
            self.expect("sym", "]")
            return Ident(name.text, (tok.line, tok.col))
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.next()
            return Atom(tok.text, (tok.line, tok.col))
        shown = tok.text if tok.text else "end of input"
        raise self.error(f"expected an expression, found {shown!r}", tok)


def slow_parse(text: str, filename: str = "<string>") -> CircuitAST:
    return _SlowParser(slow_tokenize(text, filename), filename).parse_program()


# ---------------------------------------------------------------------------
# differential checks
# ---------------------------------------------------------------------------

def outcome(parser, text: str):
    """The AST's repr (positions included), or the diagnostic; any other exception propagates."""
    try:
        return "ast", repr(parser(text, "f.opt"))
    except DslError as exc:
        return "error", exc.message, exc.line, exc.col, exc.filename


def assert_twins_agree(text: str) -> None:
    assert outcome(parse, text) == outcome(slow_parse, text), text


CORPUS = sorted(CIRCUITS.glob("*.opt"))

# complex entries, a stochastic literal, comments and every expression form
MIXED = """# a program with every literal form
system A quantum 2; system B quantum 2;
system C classical 2;
state s on A, B = kraus[[[0.5], [[0, -0.5]], [0.5e0], [-5E-1]]];  # column
proc U on A -> A = kraus[[[[0.6, 0.8], 0], [0, [-0.6, 0.8]]]];
proc F on C -> C = stoch[[[0, 1], [1, 0]]];
effect e on A, B = bell_effect;
run e . (U || id[B]) . s
"""


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_corpus_and_every_prefix(path):
    text = path.read_text(encoding="utf-8")
    for end in range(len(text) + 1):
        assert_twins_agree(text[:end])


def test_every_prefix_of_a_mixed_program():
    for end in range(len(MIXED) + 1):
        assert_twins_agree(MIXED[:end])


@pytest.mark.parametrize(
    "tail",
    ["[[[1", "[[[1,", "[[[1, 2", "[[[1, 2]", "[[[[1", "[[[[1,", "[[[[1, 2", "[[[[1, 2]", "[[[[1, 2],", "[[[[1 2]]]]"],
)
def test_entry_look_ahead_stops_at_end_of_input(tail):
    # parse_row's look-ahead over "[re, im]" must meet the eof token, never run off the list
    assert_twins_agree("system A quantum 2; proc P on A -> A = kraus" + tail)


def test_stochastic_entries_stay_plain():
    # a well-formed "[re, im]" pair is still refused inside stoch[...]
    text = "system C classical 2; proc F on C -> C = stoch[[[0, [1, 0]], [1, 0]]]; run F"
    assert outcome(parse, text)[:2] == ("error", "stochastic entries must be plain numbers")
    assert_twins_agree(text)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_programs(seed):
    for prog in perfbench_module("circuits").generate(seed):
        assert_twins_agree(prog.text)


ALPHABET = "AB01 \n\t-.,;=()[]|>#eE_xq@"


@pytest.mark.parametrize("seed", range(5))
def test_mutated_generated_programs(seed):
    # one deleted, repeated or replaced character at a seeded place in a long literal program
    import numpy as np

    rng = np.random.default_rng(seed)
    texts = [p.text for p in perfbench_module("circuits").generate(seed)[:8]]
    for _ in range(60):
        text = texts[rng.integers(len(texts))]
        at = int(rng.integers(len(text)))
        new = ALPHABET[rng.integers(len(ALPHABET))]
        edit = (text[at:at + 1] * 2, "", new)[rng.integers(3)]
        assert_twins_agree(text[:at] + edit + text[at + 1:])


FRAGMENTS = [
    "system", "state", "effect", "proc", "on", "run", "id", "kraus", "stoch", "maxmix", "bell",
    "bell_effect", "unit", "quantum", "real", "classical", "A", "B", "x1", "0", "2", "-1.5",
    "1e3", "2.5E-1", "-", ">", "->", "|", "||", ".", ",", ";", "=", "(", ")", "[", "]",
    " ", "\n", "\t", "# note\n", "#", "@", "é",
]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.one_of(
        st.lists(st.sampled_from(FRAGMENTS), max_size=40).map("".join),
        st.lists(st.sampled_from(FRAGMENTS), max_size=40).map(" ".join),
        st.text(alphabet=ALPHABET, max_size=60),
    )
)
def test_fuzz_over_the_dsl_alphabet(text):
    assert_twins_agree(text)


# ---------------------------------------------------------------------------
# the bulk path: a regular kraus literal read as one token
# ---------------------------------------------------------------------------

def bulk_parse(text: str, filename: str = "<string>") -> CircuitAST:
    """The bulk path alone, with no fallback to fine tokens."""
    return _parse(text, filename, bulk=True)


def in_program(literal: str) -> str:
    backend = "classical" if literal.startswith("stoch") else "quantum"
    return f"system A {backend} 2;\nproc U on A -> A = {literal};\nrun U\n"


REGULAR = [
    "kraus[[[1, 0], [0, 1]]]",
    "kraus[[[1, 0]], [[0, 1]]]",
    "kraus[[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]",
    "kraus[\n\t[[1,\t0],\n [0, 1]]\n]",
    "kraus  \n [[[[0.6,\t0.8]\n, [0, 0]], [[0, 0],[-0.6, 0.8]]]]",
    "kraus[[[-0, 1e999], [1E-400, 0]]]",
    "kraus[[[[-0, -0], [1e999, 1E-400]], [[0, -1e999], [-1E-400, 007]]]]",
    "kraus[[[0.5], [-5E-1]], [[2.5e0], [-0.0]]]",
]


@pytest.mark.parametrize("literal", REGULAR)
def test_regular_literals_are_read_whole(literal):
    text = in_program(literal)
    assert [tok[0] for tok in tokenize(text)].count("kraus") == 1
    assert outcome(bulk_parse, text) == outcome(slow_parse, text)
    assert_twins_agree(text)


IRREGULAR = [
    # a comment inside
    "kraus[[[1, 0], # first row\n [0, 1]]]",
    "kraus[[[1, 0], [0, 1]] # one\n]",
    # plain and pair entries mixed
    "kraus[[[1, [0, 1]], [0, 1]]]",
    "kraus[[[[1, 0], 0], [0, [1, 0]]]]",
    "kraus[[[1, 0]], [[[0, 1], [1, 0]]]]",
    # unequal rows, in one matrix or across matrices
    "kraus[[[1, 0], [0]]]",
    "kraus[[[1, 0], [0]], [[1]]]",
    "kraus[[[1]], [[1, 0]]]",
    "kraus[[[1, 0]], [[1], [0]]]",
    "kraus[[[[1, 0], [0, 0]], [[1, 0]]]]",
    # texts that float() accepts and the token grammar refuses
    "kraus[[[+1]]]", "kraus[[[.5]]]", "kraus[[[1.]]]", "kraus[[[1e]]]", "kraus[[[1e+]]]",
    "kraus[[[[+1, 0]]]]", "kraus[[[[0, .5]]]]", "kraus[[[[1., 0]]]]", "kraus[[[[1e, 0]]]]", "kraus[[[[0, 1e+]]]]",
    "kraus[[[1.e5]]]", "kraus[[[-.5]]]", "kraus[[[1 2]]]", "kraus[[[1-2]]]", "kraus[[[--1]]]", "kraus[[[1e5e3]]]",
    # empty, short or overlong nesting
    "kraus[]", "kraus[[]]", "kraus[[[]]]", "kraus[[[1,]]]", "kraus[[[,1]]]", "kraus[[[1],]]",
    "kraus[[[[1]]]]", "kraus[[[[1, 2, 3]]]]", "kraus[[[[[1, 0]]]]]", "kraus[[[1]]]]", "kraus[[[1]]",
    "kraus[[1]]", "kraus[1]", "kraus[[[1]] [[1]]]",
    # characters outside the bulk alphabet
    "kraus[[[١]]]", "kraus[[[1,  0]]]", "kraus[[[1, x]]]",
    # stochastic literals take the token path
    "stoch[[[0, 1], [1, 0]]]", "stoch[[[0, [1, 0]], [1, 0]]]", "stoch[[[1e999, -0], [1E-400, 1]]]",
    "stoch[[[+1, 0], [0, 1]]]", "stoch[[[1, 0], [0]]]",
]


@pytest.mark.parametrize("literal", IRREGULAR)
def test_irregular_literals_take_the_token_path(literal):
    assert_twins_agree(in_program(literal))


MISPLACED = [
    "system A quantum 2; run kraus[[[1]]]",
    "system A quantum kraus[[[1]]];",
    "system kraus[[[1]]] quantum 2;",
    "kraus[[[1]]]",
    "system A quantum 2; state kraus[[[1]]] on A = maxmix; run kraus",
    "system A quantum 2; proc U on A -> kraus[[[1]]] = kraus[[[1]]]; run U",
    "system A quantum 2; proc U on kraus[[[1]]] -> A = kraus[[[1]]]; run U",
    "system A quantum 2; state s on A = kraus[[[1]]] kraus[[[1]]]; run s",
    "system A quantum 2; proc U on A -> A = kraus[[[1]]]; run U . kraus[[[1]]]",
    "system A quantum 2; proc U on A -> A = kraus[[[1]]]; run U || (kraus[[[1]]])",
    "system A quantum 2; run id[kraus[[[1]]]]",
    "system A quantum 2; proc U on A -> A = kraus[[[1]]]",
    "system A quantum 2; proc U on A -> A = kraus [[[1]]]\n]; run U",
    "system A quantum 2; proc U on A -> A = krausx[[[1]]]; run U",
    "system A quantum 2; proc U on A -> A = xkraus[[[1]]]; run U",
    "system A quantum 2; proc U on A -> A = 1kraus[[[1]]]; run U",
]


@pytest.mark.parametrize("text", MISPLACED)
def test_a_kraus_literal_where_no_literal_may_stand(text):
    assert_twins_agree(text)


def test_a_large_literal_missing_one_bracket():
    rows = ", ".join("[" + ", ".join(["0.125"] * 60) + "]" for _ in range(60))
    text = in_program(f"kraus[[{rows}], [{rows}]]")
    assert_twins_agree(text)
    assert_twins_agree(text.replace("]", "", 1))


@pytest.mark.parametrize("depth", [SLOW_MAX_NESTING, SLOW_MAX_NESTING + 1])
def test_nesting_at_the_limit(depth):
    assert_twins_agree("system A quantum 2; run " + "(" * depth + "id[A]" + ")" * depth)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_literals_are_read_whole(seed):
    for prog in perfbench_module("circuits").generate(seed):
        if prog.name.startswith(("chain", "lift")):
            assert outcome(bulk_parse, prog.text) == outcome(slow_parse, prog.text)


NUMBER_TEXTS = ["0", "-0", "1", "-1.5", "0.125", "2.5E-1", "-3e+2", "1e999", "1E-400", "007"]
BAD_TEXTS = ["+1", ".5", "1.", "1e", "1e+", "1 2", "", "x", "[1, 2]", "[1]", "1,", "# c\n1"]
SPACES = ["", " ", "  ", "\n", "\t", " \n\t"]


@st.composite
def near_regular_literals(draw):
    """A regular kraus literal, or one with one entry, row or bracket changed; and whether it is regular."""
    k, rows, cols = (draw(st.integers(1, 3)) for _ in range(3))
    pair = draw(st.booleans())
    number = st.sampled_from(NUMBER_TEXTS)
    space = st.sampled_from(SPACES)

    def entry():
        return f"[{draw(number)}{draw(space)},{draw(space)}{draw(number)}]" if pair else draw(number)

    mats = [[[entry() for _ in range(cols)] for _ in range(rows)] for _ in range(k)]
    edit = draw(st.sampled_from(["none", "entry", "kind", "drop entry", "add entry", "drop row", "bracket", "comment"]))
    m, r = draw(st.integers(0, k - 1)), draw(st.integers(0, rows - 1))
    row = mats[m][r]
    at = draw(st.integers(0, len(row) - 1))
    if edit == "entry":
        row[at] = draw(st.sampled_from(BAD_TEXTS) | st.text(alphabet="-+.0123456789eE ", min_size=1, max_size=6))
    elif edit == "kind":
        row[at] = draw(number) if pair else f"[{draw(number)}, {draw(number)}]"
    elif edit == "drop entry":
        del row[at]
    elif edit == "add entry":
        row.insert(at, entry())
    elif edit == "drop row":
        del mats[m][r]
    elif edit == "comment":
        row[at] = "# note\n" + row[at]

    def joined(items):
        return "[" + f"{draw(space)},{draw(space)}".join(items) + "]"

    text = "kraus" + draw(space) + joined([joined([joined(row) for row in mat]) for mat in mats])
    if edit == "bracket":
        brackets = [i for i, ch in enumerate(text) if ch in "[]"]
        i = brackets[draw(st.integers(0, len(brackets) - 1))]
        text = text[:i] + text[i] * draw(st.sampled_from([0, 2])) + text[i + 1:]  # dropped or doubled
    return text, edit == "none"


@settings(max_examples=400, deadline=None, derandomize=True)
@given(near_regular_literals())
def test_fuzz_near_regular_literals(case):
    literal, regular = case
    text = in_program(literal)
    assert_twins_agree(text)
    if regular:
        assert outcome(bulk_parse, text) == outcome(slow_parse, text)
