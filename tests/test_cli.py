"""Command-line interface: subcommands, exit codes, JSON schema, determinism."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from gpt_tomo import cli, witnesses

CIRCUITS = Path(__file__).resolve().parent.parent / "circuits"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_local_tomo_real_fails_with_dimensions(capsys):
    code, out, _ = run_cli(capsys, ["check", "local-tomo", "--backend", "real", "--dims", "2", "2", "--json"])
    assert code == 1
    payload = json.loads(out)
    assert set(payload) == {"check", "pass", "tolerance", "seed", "details"}
    assert payload["pass"] is False
    assert payload["details"]["dim_composite"] == 10
    assert payload["details"]["dim_product"] == 9


def test_local_tomo_quantum_passes(capsys):
    code, out, _ = run_cli(capsys, ["check", "local-tomo", "--backend", "quantum", "--dims", "3", "3", "--json"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_check_faithful(capsys):
    code, out, _ = run_cli(capsys, ["check", "faithful", "--backend", "real", "--din", "2", "--dout", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["process_span_dim"] == 10
    assert payload["details"]["lifting_rank"] == 10


def test_demo_rebit(capsys):
    code, out, _ = run_cli(capsys, ["demo", "rebit", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["details"]["trace_distance"] == pytest.approx(1.0, abs=1e-9)
    assert payload["details"]["faithful_rank"] == 10


@pytest.mark.parametrize(
    "backend,d,p",
    [("quantum", 2, 0.25), ("quantum", 3, 1 / 9), ("classical", 2, 0.5), ("real", 2, 0.25)],
)
def test_verify_teleport(capsys, backend, d, p):
    code, out, _ = run_cli(capsys, ["verify", "teleport", "--backend", backend, "--d", str(d), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["p"] == pytest.approx(p, abs=1e-11)


def test_verify_universal_extension(capsys):
    code, out, _ = run_cli(
        capsys,
        ["verify", "universal-extension", "--backend", "quantum", "--d", "2", "--samples", "4", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["teleportation_max_residual"] < 1e-9
    assert payload["details"]["purification_max_residual"] < 1e-9


def test_verify_purification(capsys):
    code, out, _ = run_cli(capsys, ["verify", "purification", "--backend", "real", "--d", "2", "--json"])
    assert code == 0
    assert json.loads(out)["details"]["purification_rank"] == 1


def test_verify_purification_classical_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["verify", "purification", "--backend", "classical", "--d", "2"])
    assert code == 2
    assert "no purification" in err


def test_run_circuit_file(capsys):
    code, out, _ = run_cli(capsys, ["run", str(CIRCUITS / "teleport_qubit.opt"), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["details"]["kind"] == "scalar"
    assert payload["details"]["value"] == pytest.approx(0.25, abs=1e-9)


def test_run_malformed_circuit_exits_one(capsys):
    code, out, err = run_cli(capsys, ["run", str(CIRCUITS / "malformed.opt")])
    assert code == 1
    assert "malformed.opt:2:5" in err


def test_run_non_finite_literal_exits_one(capsys, tmp_path):
    path = tmp_path / "inf.opt"
    path.write_text(
        "system q quantum 2;\nstate s on q = kraus[[[1], [0]]];\neffect e on q = kraus[[[1, 0]]];\n"
        "proc p on q -> q = kraus[[[1e999, 0], [0, 1]]];\nrun e . p . s\n"
    )
    code, out, err = run_cli(capsys, ["run", str(path)])
    assert code == 1
    assert "PASS" not in out
    assert "inf.opt:4:" in err and "must be finite" in err


def test_run_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(capsys, ["run", "nope.opt"])
    assert code == 2


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


def test_unknown_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "rebit", "--frobnicate"])
    assert exc.value.code == 2


def test_json_output_is_deterministic(capsys):
    argv = ["verify", "universal-extension", "--backend", "quantum", "--d", "2",
            "--samples", "3", "--seed", "9", "--json"]
    _, out1, _ = run_cli(capsys, argv)
    _, out2, _ = run_cli(capsys, argv)
    assert out1 == out2


def test_env_var_overrides_default_tolerance(capsys, monkeypatch):
    monkeypatch.setenv("GPT_TOMO_TOL", "1e-6")
    _, out, _ = run_cli(capsys, ["demo", "rebit", "--json"])
    assert json.loads(out)["tolerance"] == 1e-6
    # an explicit flag wins over the environment
    _, out, _ = run_cli(capsys, ["demo", "rebit", "--tol", "1e-8", "--json"])
    assert json.loads(out)["tolerance"] == 1e-8


def test_invalid_env_var_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("GPT_TOMO_TOL", "banana")
    with pytest.raises(SystemExit) as exc:
        cli.main(["demo", "rebit"])
    assert exc.value.code == 2


def test_human_output_has_status_line(capsys):
    code, out, _ = run_cli(capsys, ["check", "local-tomo", "--backend", "real", "--dims", "2", "2"])
    assert code == 1
    assert out.startswith("[FAIL] local-tomography")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gpt_tomo.cli", "check", "local-tomo", "--backend",
         "classical", "--dims", "2", "3", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["pass"] is True


@pytest.mark.parametrize(
    "argv,env_tol",
    [
        (["verify", "teleport", "--backend", "quantum", "--d", "0"], None),
        (["verify", "purification", "--backend", "real", "--d", "-2"], None),
        (["check", "local-tomo", "--backend", "quantum", "--dims", "0", "2"], None),
        (["check", "faithful", "--backend", "quantum", "--din", "0", "--dout", "2"], None),
        (["check", "faithful", "--backend", "quantum", "--din", "2", "--dout", "0"], None),
        (["verify", "universal-extension", "--backend", "quantum", "--d", "2", "--samples", "0"], None),
        (["verify", "universal-extension", "--backend", "quantum", "--d", "2", "--samples", "-3"], None),
        (["check", "local-tomo", "--backend", "quantum", "--dims", "2", "2", "--tol", "nan"], None),
        (["check", "local-tomo", "--backend", "quantum", "--dims", "2", "2", "--tol", "-1"], None),
        (["verify", "teleport", "--backend", "quantum", "--d", "2", "--tol", "-1"], None),
        (["verify", "teleport", "--backend", "quantum", "--d", "2", "--tol", "0"], None),
        (["verify", "teleport", "--backend", "quantum", "--d", "2", "--tol", "inf"], None),
        (["verify", "purification", "--backend", "quantum", "--d", "2", "--seed", "-1"], None),
        (["demo", "rebit"], "nan"),
        (["demo", "rebit"], "-1"),
        (["demo", "rebit"], "inf"),
    ],
    ids=lambda v: "flag" if v is None else "_".join(v) if isinstance(v, list) else f"GPT_TOMO_TOL={v}",
)
def test_invalid_numeric_input_is_usage_error(capsys, monkeypatch, argv, env_tol):
    if env_tol is not None:
        monkeypatch.setenv("GPT_TOMO_TOL", env_tol)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--json"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("d", [2, 3])
def test_verify_teleport_maps_each_spanning_state_once(capsys, monkeypatch, d):
    calls = []
    original = witnesses.teleport_map

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(witnesses, "teleport_map", counting)
    code, _, _ = run_cli(capsys, ["verify", "teleport", "--backend", "quantum", "--d", str(d), "--json"])
    assert code == 0
    assert len(calls) == d**2
