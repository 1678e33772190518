"""Command-line front end: a dispatch table over the library's check reports.

Subcommands::

    check local-tomo --backend B --dims d1 d2
    check faithful --backend B --din d --dout d
    demo rebit
    verify teleport --backend B --d d
    verify universal-extension --backend B --d d --samples n
    verify purification --backend B --d d
    run FILE.opt

Each subcommand is one library call that builds its witness, checks it and
returns a ``CheckReport``; this module only parses flags and prints that
report.  Global flags ``--tol``, ``--seed`` and ``--json`` may follow any
subcommand.  Human-readable output is the default; ``--json`` prints one
report object with the stable top-level keys {check, pass, tolerance, seed,
details}.  Numbers are printed with 12 significant digits and identical seed
and flags produce byte-identical JSON.  The environment variable
``GPT_TOMO_TOL`` overrides the default tolerance; ``--tol`` overrides both.
Exit status: 0 on pass, 1 on fail, 2 on usage errors: unknown flags,
dimensions or sample counts below 1, negative seeds, and tolerances that are
not finite and positive.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Callable

import numpy as np

from . import dsl
from . import tomography as tomo
from . import witnesses as wit
from .core import BACKENDS, DEFAULT_TOL
from .rebit import counterexample_check
from .reports import CheckReport, UsageError


def _above(convert: Callable[[str], float], bound: float) -> Callable[[str], float]:
    """An argparse type: ``convert`` the flag and require a finite value above ``bound``."""

    def parse(raw: str) -> float:
        try:
            value = convert(raw)
        except ValueError:
            value = math.nan
        if not bound < value < math.inf:
            raise argparse.ArgumentTypeError(
                f"expected a finite {convert.__name__} above {bound}, got {raw!r}"
            )
        return value

    return parse


_tolerance, _positive_int, _seed = _above(float, 0), _above(int, 0), _above(int, -1)


def _default_tol() -> float:
    raw = os.environ.get("GPT_TOMO_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return _tolerance(raw)
    except argparse.ArgumentTypeError:
        print(f"gpt-tomo: invalid GPT_TOMO_TOL value {raw!r}", file=sys.stderr)
        raise SystemExit(2)


def _round12(value: Any) -> Any:
    """Round every float to 12 significant digits for stable serialization."""
    if isinstance(value, dict):
        return {k: _round12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round12(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, np.integer):
        return int(value)
    return value


def _emit(report: CheckReport, as_json: bool) -> int:
    payload = _round12(report.to_dict())
    if as_json:
        print(json.dumps(payload, sort_keys=True, allow_nan=False))
    else:
        status = "PASS" if report.passed else "FAIL"
        print(f"[{status}] {report.check} (tolerance {report.tolerance:.12g})")
        for key, val in payload["details"].items():
            print(f"  {key}: {val}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# Argument parsing: each subcommand's ``check`` maps its flags to one library call
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=_tolerance, default=None, help="numerical tolerance")
    common.add_argument("--seed", type=_seed, default=0, help="seed for randomized checks")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    on_backend = argparse.ArgumentParser(add_help=False, parents=[common])
    on_backend.add_argument("--backend", required=True, choices=BACKENDS)

    parser = argparse.ArgumentParser(
        prog="gpt-tomo",
        description="verification toolkit for process tomography in general theories",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="structural checks")
    check_sub = check.add_subparsers(dest="subcommand", required=True)
    lt = check_sub.add_parser("local-tomo", parents=[on_backend], help="local tomography dimension law")
    lt.add_argument("--dims", required=True, type=_positive_int, nargs=2, metavar=("D1", "D2"))
    lt.set_defaults(
        check=lambda a: tomo.local_tomography_check(a.backend, *a.dims, tol=a.tol, seed=a.seed)
    )
    cf = check_sub.add_parser("faithful", parents=[on_backend], help="dynamically faithful state rank")
    cf.add_argument("--din", required=True, type=_positive_int)
    cf.add_argument("--dout", required=True, type=_positive_int)
    cf.set_defaults(
        check=lambda a: tomo.faithful_state_check(a.backend, a.din, a.dout, tol=a.tol, seed=a.seed)
    )

    demo = sub.add_parser("demo", help="illustrative reproductions")
    demo_sub = demo.add_subparsers(dest="subcommand", required=True)
    dr = demo_sub.add_parser("rebit", parents=[common], help="real-backend counterexample")
    dr.set_defaults(check=lambda a: counterexample_check(a.tol, seed=a.seed))

    verify = sub.add_parser("verify", help="constructive witnesses")
    verify_sub = verify.add_subparsers(dest="subcommand", required=True)
    vt = verify_sub.add_parser("teleport", parents=[on_backend], help="conclusive teleportation identity")
    vt.add_argument("--d", required=True, type=_positive_int)
    vt.set_defaults(check=lambda a: wit.teleportation_check(a.backend, a.d, tol=a.tol, seed=a.seed))
    vu = verify_sub.add_parser(
        "universal-extension", parents=[on_backend], help="universal extension witnesses"
    )
    vu.add_argument("--d", required=True, type=_positive_int)
    vu.add_argument("--samples", type=_positive_int, default=10)
    vu.set_defaults(
        check=lambda a: wit.universal_extension_check(
            a.backend, a.d, samples=a.samples, tol=a.tol, seed=a.seed
        )
    )
    vp = verify_sub.add_parser("purification", parents=[on_backend], help="purification symmetry")
    vp.add_argument("--d", required=True, type=_positive_int)
    vp.set_defaults(check=lambda a: wit.purification_check(a.backend, a.d, tol=a.tol, seed=a.seed))

    runp = sub.add_parser("run", parents=[common], help="evaluate a circuit file")
    runp.add_argument("file", metavar="FILE.opt")
    runp.set_defaults(check=lambda a: dsl.run_check(a.file, tol=a.tol, seed=a.seed))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.tol is None:
        args.tol = _default_tol()
    try:
        return _emit(args.check(args), args.json)
    except (UsageError, OSError) as exc:
        print(f"gpt-tomo: {exc}", file=sys.stderr)
        return 2
    except dsl.DslError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (ValueError, AssertionError) as exc:
        print(f"gpt-tomo: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
