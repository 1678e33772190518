"""The CLI acceptance matrix against JSON reports recorded before the CLI became
a dispatch table over library reports (``cli_golden.json``).

Each recorded case is one CLI invocation with its exit status and parsed
``--json`` report (null when nothing was printed).  Round-off-level residuals
are held to the bound their check's pass rule applies at the default
tolerance; every other field must match exactly.  All cases run in one child
interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CASES = json.loads((Path(__file__).resolve().parent / "cli_golden.json").read_text())

RESIDUAL_BOUNDS = {
    "max_residual": 1e-9,
    "teleportation_max_residual": 1e-9,
    "purification_max_residual": 1e-9,
    "marginal_max_deviation": 1e-9,
    "connection_max_deviation": 1e-9,
    "max_local_deviation": 1e-12,
    "orthogonality_gap": 1e-12,
    "local_stats_max_gap": 1e-12,
}

CHILD = """
import contextlib, io, json, sys
from gpt_tomo import cli
results = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue()])
json.dump(results, sys.stdout)
"""


def _split(report):
    """The report without its residual fields, and those fields."""
    details = dict(report["details"])
    residuals = {key: details.pop(key) for key in RESIDUAL_BOUNDS if key in details}
    return {**report, "details": details}, residuals


@pytest.fixture(scope="module")
def results():
    env = dict(os.environ)
    env.pop("GPT_TOMO_TOL", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps([case["argv"] for case in CASES]),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


@pytest.mark.parametrize("index", range(len(CASES)), ids=["_".join(c["argv"][:-1]) for c in CASES])
def test_cli_matches_golden(results, index):
    case = CASES[index]
    code, stdout = results[index]
    assert code == case["exit"]
    if case["report"] is None:
        assert stdout == ""
        return
    report, residuals = _split(json.loads(stdout))
    expected, expected_residuals = _split(case["report"])
    assert report == expected
    assert residuals.keys() == expected_residuals.keys()
    for key, value in residuals.items():
        assert 0.0 <= value <= RESIDUAL_BOUNDS[key], key
