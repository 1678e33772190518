"""Mutation gate: every listed mutant of the library must make the tier-1 suite fail.

Usage (from the repository root)::

    python scripts/mutation_gate.py

Each mutant replaces one exact snippet of one file under ``src/``.  The
suite's inputs (``src/``, ``tests/``, ``perfbench/``, ``circuits/``,
``scripts/`` and ``pyproject.toml``) are copied to a temporary directory,
the snippet is replaced there, and the suite runs with ``-x``.  The
unmutated copy runs first and must pass.  A mutant that leaves the suite
passing survives.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when
the unmutated suite fails or a snippet is not found exactly once (the list
has gone stale).  Each mutant costs at most one suite run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "circuits", "scripts", "pyproject.toml")

# (name, file, old, new): each ``old`` occurs exactly once in its file
MUTANTS: tuple[tuple[str, str, str, str], ...] = (
    (
        "state_from_coords: eigenvalue test dropped",
        "src/gpt_tomo/core.py",
        "    if low < -tol:\n",
        "    if False:\n",
    ),
    (
        "_state_rep: weight check dropped",
        "src/gpt_tomo/core.py",
        "    return _weighed(sys, coords, float(np.trace(held).real), held, tol)\n",
        "    return _weighed(sys, coords, min(float(np.trace(held).real), 1.0), held, tol)\n",
    ),
    (
        "_projection: residue check dropped",
        "src/gpt_tomo/core.py",
        "    if residue > tol:\n",
        "    if False:\n",
    ),
    (
        "_agree: only the first test state compared",
        "src/gpt_tomo/tomography.py",
        "    return _near(out, out2, tol)\n",
        "    return _near(out[:1], out2[:1], tol)\n",
    ),
    (
        "_agree: decided at 10 tol",
        "src/gpt_tomo/tomography.py",
        "    return _near(out, out2, tol)\n",
        "    return _near(out, out2, 10 * tol)\n",
    ),
    (
        "counterexample_check: local deviation bound 1e-3",
        "src/gpt_tomo/rebit.py",
        "rep.max_local_deviation <= 1e-12",
        "rep.max_local_deviation <= 1e-3",
    ),
    (
        "counterexample_check: orthogonality bound 1e-3",
        "src/gpt_tomo/rebit.py",
        "rep.orthogonality_gap <= 1e-12",
        "rep.orthogonality_gap <= 1e-3",
    ),
    (
        "counterexample_check: trace distance bound 1e-3",
        "src/gpt_tomo/rebit.py",
        "abs(rep.trace_distance - 1.0) <= 1e-9",
        "abs(rep.trace_distance - 1.0) <= 1e-3",
    ),
    (
        "counterexample_check: local statistics bound 1e-3",
        "src/gpt_tomo/rebit.py",
        "rep.local_stats_max_gap <= 1e-12",
        "rep.local_stats_max_gap <= 1e-3",
    ),
    (
        "_projection: classical projection keeps off-diagonals",
        "src/gpt_tomo/core.py",
        "    if sys.backend == CLASSICAL:\n        herm = _matrices(",
        "    if False:\n        herm = _matrices(",
    ),
    (
        "is_locally_tomographic: product-effect span rank not compared",
        "src/gpt_tomo/tomography.py",
        "    passed = dim_composite == dim_product and rank == dim_composite\n",
        "    passed = dim_composite == dim_product\n",
    ),
    (
        "purification_check: marginal bound 1e-3",
        "src/gpt_tomo/witnesses.py",
        "        marginal_dev <= max(tol, 1e-12)\n",
        "        marginal_dev <= 1e-3\n",
    ),
    (
        "faithful_state_check: rank span - 1 accepted",
        "src/gpt_tomo/tomography.py",
        '"dynamically-faithful", rank == span,',
        '"dynamically-faithful", rank >= span - 1,',
    ),
    (
        "_prep_residuals: only the first target compared",
        "src/gpt_tomo/witnesses.py",
        "    return np.abs(coords - p[:, None] * np.stack([t.coords for t in targets])).max(axis=1)\n",
        "    return np.abs(coords[:1] - p[:1, None] * np.stack([t.coords for t in targets])[:1]).max(axis=1)\n",
    ),
    (
        "is_doubly_preparationally_faithful: residuals judged at 10 sqrt(tol)",
        "src/gpt_tomo/witnesses.py",
        "(residuals <= sqrt(tol)).all()",
        "(residuals <= 10 * sqrt(tol)).all()",
    ),
    (
        "face_spanning_states: only the first face state kept",
        "src/gpt_tomo/tomography.py",
        "    return _state_reps(sys, emb, DEFAULT_TOL)\n",
        "    return _state_reps(sys, emb[:1], DEFAULT_TOL)\n",
    ),
)


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _suite_passes(copy: Path) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    return subprocess.run(cmd, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode == 0


def _stale() -> list[str]:
    """Mutants whose snippet does not occur exactly once."""
    stale = []
    for name, path, old, _ in MUTANTS:
        count = (ROOT / path).read_text().count(old)
        if count != 1:
            stale.append(f"{name}: {count} matches in {path}")
    return stale


def main() -> int:
    stale = _stale()
    if stale:
        print("stale mutant list:\n  " + "\n  ".join(stale))
        return 2
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutation-gate-") as tmp:
        base = Path(tmp) / "base"
        _copy(base)
        start = time.perf_counter()
        if not _suite_passes(base):
            print("the unmutated suite fails; no mutant can be judged")
            return 2
        print(f"unmutated suite passes ({time.perf_counter() - start:.1f} s)", flush=True)
        for i, (name, path, old, new) in enumerate(MUTANTS):
            copy = Path(tmp) / f"m{i}"
            shutil.copytree(base, copy)
            target = copy / path
            target.write_text(target.read_text().replace(old, new))
            start = time.perf_counter()
            killed = not _suite_passes(copy)
            print(f"{'killed  ' if killed else 'SURVIVED'} {name} ({time.perf_counter() - start:.1f} s)", flush=True)
            if not killed:
                survivors.append(name)
            shutil.rmtree(copy)
    print(f"{len(MUTANTS) - len(survivors)} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
