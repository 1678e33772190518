"""Parser, typechecker and evaluator for the circuit language."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpt_tomo import backends as bk
from gpt_tomo import core as c
from gpt_tomo import dsl
from gpt_tomo.core import QUANTUM, system

from conftest import PHI_PLUS, proj

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_program():
    ast = dsl.parse(
        "system A quantum 2; state s on A = maxmix; effect u on A = unit; run u . s"
    )
    assert len(ast.systems) == 1
    assert len(ast.values) == 2
    assert isinstance(ast.run, dsl.Seq)


def test_parse_par_and_id():
    text = """
    system A quantum 2;
    system R quantum 2;
    state phi on A, R = bell;
    proc P on A -> A = kraus[[[1, 0], [0, 1]]];
    run (P || id[R]) . phi
    """
    ast = dsl.parse(text)
    assert isinstance(ast.run, dsl.Seq)
    assert isinstance(ast.run.left, dsl.Par)
    assert isinstance(ast.run.left.right, dsl.Ident)


def test_parse_malformed_run_positions():
    with pytest.raises(dsl.DslError) as err:
        dsl.parse("run . ;", filename="bad.opt")
    assert err.value.filename == "bad.opt"
    assert (err.value.line, err.value.col) == (1, 5)
    assert "bad.opt:1:5" in str(err.value)


def test_parse_duplicate_declaration():
    with pytest.raises(dsl.DslError, match="duplicate declaration"):
        dsl.parse("system A quantum 2; system A quantum 2; run id[A]")


def test_parse_is_total_on_garbage():
    for text in ("", "run", "system ;", "state s on = maxmix; run s", "@", "run (a"):
        with pytest.raises(dsl.DslError):
            dsl.parse(text)


def test_unknown_identifier_is_positioned():
    with pytest.raises(dsl.DslError, match="unknown identifier 'ghost'"):
        dsl.run_program("system A quantum 2; run ghost")


# ---------------------------------------------------------------------------
# typechecking
# ---------------------------------------------------------------------------

def test_seq_types_compose():
    text = """
    system A quantum 2;
    system B quantum 3;
    system C quantum 2;
    proc f on A -> B = kraus[[[1, 0], [0, 1], [0, 0]]];
    proc g on B -> C = kraus[[[1, 0, 0], [0, 1, 0]]];
    run g . f
    """
    prog = dsl.typecheck(dsl.parse(text))
    assert prog.run.ins == ("A",)
    assert prog.run.outs == ("C",)


def test_seq_mismatch_reports_both_lists():
    text = """
    system A quantum 2;
    system B quantum 3;
    state s on A = maxmix;
    effect u on B = unit;
    run u . s
    """
    with pytest.raises(dsl.DslError, match=r"outputs \[A\].*expects \[B\]"):
        dsl.run_program(text)


def test_par_concatenates_types():
    text = """
    system A quantum 2;
    system B quantum 2;
    proc f on A -> A = kraus[[[1, 0], [0, 1]]];
    run f || id[B]
    """
    prog = dsl.typecheck(dsl.parse(text))
    assert prog.run.ins == ("A", "B")
    assert prog.run.outs == ("A", "B")


def test_par_rejects_mixed_backends():
    text = """
    system A quantum 2;
    system B classical 2;
    run id[A] || id[B]
    """
    with pytest.raises(dsl.DslError, match="mixed backends"):
        dsl.run_program(text)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_closed_unit_on_maxmix():
    r = dsl.run_program("system A quantum 2; state s on A = maxmix; effect u on A = unit; run u . s")
    assert r.kind == "scalar"
    assert r.payload == pytest.approx(1.0, abs=1e-12)


def test_teleportation_diagram_scalar():
    text = (CIRCUITS / "teleport_qubit.opt").read_text()
    r = dsl.run_program(text)
    # oracle: the bent wire contributes 1/4 and the unit effect closes a
    # normalized state, so the scalar is 1/4 * 1
    assert r.payload == pytest.approx(0.25, abs=1e-12)


def test_rebit_discrimination_scalars_differ():
    r1 = dsl.run_file(str(CIRCUITS / "rebit_discriminate_iy.opt"))
    r2 = dsl.run_file(str(CIRCUITS / "rebit_discriminate_xz.opt"))
    # oracle: overlaps of the Bell projector with 1/4 (II -+ YY)
    yy = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]]).real
    s1 = float(np.trace(proj(PHI_PLUS) @ (0.25 * (np.eye(4) - yy))).real)
    s2 = float(np.trace(proj(PHI_PLUS) @ (0.25 * (np.eye(4) + yy))).real)
    assert r1.payload == pytest.approx(s1, abs=1e-9)
    assert r2.payload == pytest.approx(s2, abs=1e-9)
    assert abs(r1.payload - r2.payload) == pytest.approx(0.5, abs=1e-9)


def test_open_diagram_state_result():
    r = dsl.run_program("system A quantum 2; state s on A = maxmix; run s")
    assert r.kind == "state"
    assert np.abs(r.payload.matrix - np.eye(2) / 2).max() < 1e-12


def test_open_diagram_effect_result():
    r = dsl.run_program("system A quantum 2; effect u on A = unit; run u")
    assert r.kind == "effect"
    assert r.payload.kind == "deterministic"


def test_open_diagram_process_result():
    r = dsl.run_program(
        "system A classical 2; proc flip on A -> A = stoch[[[0, 1], [1, 0]]]; run flip"
    )
    assert r.kind == "process"
    assert r.payload.reversible


def test_stoch_shape_mismatch_is_rejected():
    text = (
        "system A classical 2;\nstate s on A = stoch[[[0.3], [0.7]]];\n"
        "proc f on A -> A = stoch[[[1, 0, 0, 1]]];\nrun f . s"
    )
    with pytest.raises(dsl.DslError, match=r"stochastic matrix has shape \(1, 4\)") as err:
        dsl.run_program(text)
    assert err.value.line == 3


def test_kraus_shape_mismatch_is_positioned():
    text = "system A quantum 2;\nproc f on A -> A = kraus[[[1, 0, 0], [0, 1, 0]]];\nrun f"
    with pytest.raises(dsl.DslError) as err:
        dsl.run_program(text)
    assert err.value.line == 2


def test_unphysical_literal_rejected():
    text = "system A quantum 2; proc f on A -> A = kraus[[[2, 0], [0, 2]]]; run f"
    with pytest.raises(dsl.DslError, match="not physical"):
        dsl.run_program(text)


def test_non_finite_literal_is_positioned():
    # 1e999 parses as inf; the literal is rejected where it is declared
    text = (
        "system q quantum 2;\nstate s on q = kraus[[[1], [0]]];\neffect e on q = kraus[[[1, 0]]];\n"
        "proc p on q -> q = kraus[[[1e999, 0], [0, 1]]];\nrun e . p . s"
    )
    with pytest.raises(dsl.DslError, match="must be finite") as err:
        dsl.run_program(text)
    assert err.value.line == 4


def _closed_weights(state_weight: float, effect_weight: float) -> dict:
    """A state kraus[[[c], [0]]] and an effect kraus[[[c', 0]]] with c^2, c'^2 the given weights."""
    s, e = float(np.sqrt(state_weight)), float(np.sqrt(effect_weight))
    head = f"system q quantum 2;\nstate s on q = kraus[[[{s!r}], [0]]];\n"
    head += f"effect e on q = kraus[[[{e!r}, 0]]];\n"
    return {run: head + f"run {run}" for run in ("s", "e", "e . s")}


def test_closed_scalar_above_one_by_twice_tol_is_rejected():
    # each literal is within tol of physical; the closed diagram is (1 + 0.9e-9)^2 = 1 + 1.8e-9
    texts = _closed_weights(1 + 0.9e-9, 1 + 0.9e-9)
    assert dsl.run_program(texts["s"]).kind == "state"
    assert dsl.run_program(texts["e"]).kind == "effect"
    with pytest.raises(dsl.DslError, match=r"closed diagram evaluated outside \[0, 1\]: 1\.000000001") as err:
        dsl.run_program(texts["e . s"])
    assert (err.value.line, err.value.col) == (4, 7)


def test_closed_scalar_above_one_within_tol_is_accepted():
    # (1 + 0.9e-9)(1 + 0.05e-9) = 1 + 0.95e-9 is inside the bound 1 + tol
    r = dsl.run_program(_closed_weights(1 + 0.9e-9, 1 + 0.05e-9)["e . s"])
    assert r.kind == "scalar" and 1 + 0.9e-9 < r.payload <= 1 + 1e-9


def test_complex_entries_parse():
    text = """
    system A quantum 2;
    state zero on A = kraus[[[1], [0]]];
    proc ry on A -> A = kraus[[[0, [0, -1]], [[0, 1], 0]]];
    effect one on A = kraus[[[0, 1]]];
    run one . (ry . zero)
    """
    r = dsl.run_program(text)
    assert r.payload == pytest.approx(1.0, abs=1e-12)


def _literal(ops):
    """A ``kraus[...]`` literal with every entry written as ``[re, im]``."""
    def entry(z):
        return f"[{float(z.real)!r}, {float(z.imag)!r}]"
    return "kraus[" + ", ".join(
        "[" + ", ".join("[" + ", ".join(entry(z) for z in row) + "]" for row in k) + "]"
        for k in ops
    ) + "]"


def test_deep_chain_keeps_minimal_kraus_lists(monkeypatch):
    # a depth-12 qubit chain: the product lists would reach 2^13 = 8192 operators
    rng = np.random.default_rng(12)
    ket = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    ket /= np.linalg.norm(ket)
    cols = [ket[:, [0]], ket[:, [1]]]
    rho = sum(col @ col.conj().T for col in cols)
    lines = ["system A quantum 2;", f"state rho on A = {_literal(cols)};"]
    for i in range(12):
        q = np.linalg.qr(rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))[0]
        ops = [q[:2], q[2:]]
        lines.append(f"proc c{i} on A -> A = {_literal(ops)};")
        rho = sum(k @ rho @ k.conj().T for k in ops)
    lines.append("run " + " . ".join(f"c{i}" for i in reversed(range(12))) + " . rho")

    largest = [0]
    kraus_rep = c._kraus_rep

    def counting(inp, out, kraus, *rest):
        kraus = list(kraus)
        if sys._getframe(1).f_code is c.compose.__code__:
            largest[0] = max(largest[0], len(kraus))
        return kraus_rep(inp, out, kraus, *rest)

    monkeypatch.setattr(c, "_kraus_rep", counting)
    result = dsl.run_program("\n".join(lines))
    assert 0 < largest[0] <= 4
    assert result.kind == "state"
    assert np.abs(result.payload.matrix - rho).max() < 1e-9


# ---------------------------------------------------------------------------
# long chains and deep nesting
# ---------------------------------------------------------------------------

def _rotation_chain(steps: int, angle: float) -> str:
    """<0| R^steps |0> as a closed diagram, R the real rotation by ``angle``."""
    co, si = float(np.cos(angle)), float(np.sin(angle))
    return "\n".join([
        "system A quantum 2;",
        "state zero on A = kraus[[[1], [0]]];",
        f"proc R on A -> A = kraus[[[{co!r}, {-si!r}], [{si!r}, {co!r}]]];",
        "effect e on A = kraus[[[1, 0]]];",
        "run e . " + " . ".join(["R"] * steps) + " . zero",
    ]) + "\n"


def test_a_2000_step_chain_runs_to_the_numpy_value(tmp_path, capsys):
    from gpt_tomo import cli

    angle = 0.1
    co, si = np.cos(angle), np.sin(angle)
    ket = np.linalg.matrix_power(np.array([[co, -si], [si, co]]), 2000) @ np.array([1.0, 0.0])
    expected = abs(ket[0]) ** 2
    path = tmp_path / "chain.opt"
    path.write_text(_rotation_chain(2000, angle))
    assert dsl.run_file(str(path)).payload == pytest.approx(expected, abs=1e-9)
    assert cli.main(["run", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["details"]["value"] == pytest.approx(expected, abs=1e-9)


def test_a_type_error_deep_in_a_long_chain_is_positioned():
    text = _rotation_chain(1500, 0.1).replace("R . R", "R . Q", 1)
    with pytest.raises(dsl.DslError) as err:
        dsl.run_program(text)
    assert err.value.message == "unknown identifier 'Q'"
    assert (err.value.line, err.value.col) == (5, 13)


def _nested(depth: int) -> str:
    return "system A quantum 2;\nproc U on A -> A = kraus[[[1, 0], [0, 1]]];\nrun " + "(" * depth + "U" + ")" * depth + "\n"


def test_nesting_up_to_the_limit_parses():
    assert dsl.parse(_nested(dsl.MAX_NESTING)).run == dsl.Atom("U", (3, 5 + dsl.MAX_NESTING))


def test_1000_nested_parentheses_exit_1_with_a_positioned_diagnostic(tmp_path, capsys):
    from gpt_tomo import cli

    path = tmp_path / "parens.opt"
    path.write_text(_nested(1000))
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    col = 5 + dsl.MAX_NESTING  # the first "(" past the limit
    assert err == f"{path}:3:{col}: parentheses nested more than {dsl.MAX_NESTING} deep\n"
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# golden corpus
# ---------------------------------------------------------------------------

GOLDEN = {
    "teleport_qubit.opt": 0.25,
    "teleport_qutrit.opt": 1.0 / 9.0,
    "teleport_rebit.opt": 0.25,
    "teleport_classical2.opt": 0.5,
    "teleport_classical3.opt": 1.0 / 3.0,
    "rebit_discriminate_iy.opt": 0.5,
    "rebit_discriminate_xz.opt": 0.0,
    "closed_maxmix.opt": 1.0,
    "classical_bitflip.opt": 0.7,
    "hadamard_measure.opt": 0.5,
}


@pytest.mark.parametrize("name,expected", sorted(GOLDEN.items()))
def test_golden_corpus(name, expected):
    result = dsl.run_file(str(CIRCUITS / name))
    assert result.kind == "scalar"
    assert result.payload == pytest.approx(expected, abs=1e-9)


def test_malformed_corpus_file():
    with pytest.raises(dsl.DslError) as err:
        dsl.run_file(str(CIRCUITS / "malformed.opt"))
    assert err.value.line == 2 and err.value.col == 5


# ---------------------------------------------------------------------------
# printing and structural properties
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_pretty_print_round_trips(name):
    ast = dsl.parse((CIRCUITS / name).read_text())
    assert dsl.parse(dsl.pretty(ast)) == ast


def test_pretty_print_preserves_grouping():
    text = "system A quantum 2; run (id[A] . id[A]) || id[A]"
    ast = dsl.parse(text)
    assert dsl.parse(dsl.pretty(ast)) == ast


@settings(max_examples=15, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_interchange_law(seed):
    # (f . g) || (h . k) == (f || h) . (g || k) on random well-typed diagrams
    rng = np.random.default_rng(seed)
    qubit = system(QUANTUM, 2)
    f, g, h, k = (bk.random_process(qubit, qubit, rng) for _ in range(4))
    lhs = c.tensor_processes(c.compose(f, g), c.compose(h, k))
    rhs = c.compose(c.tensor_processes(f, h), c.tensor_processes(g, k))
    assert np.abs(bk.process_coords(lhs) - bk.process_coords(rhs)).max() < 1e-12


@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**31 - 1))
def test_closed_diagrams_give_probabilities(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 4))
    text = f"""
    system A quantum {d};
    system R quantum {d};
    state phi on A, R = bell;
    effect win on A, R = bell_effect;
    run win . phi
    """
    r = dsl.run_program(text)
    assert -1e-9 <= r.payload <= 1.0 + 1e-9
