"""Spans around the public functions of each ``gpt_tomo`` module.

The package imports names with ``from .core import ...``, so a function is
patched under every name that binds it in any loaded ``gpt_tomo`` module and
in the package namespace.  Spans are kept in memory as
``[name, start, end, parent]`` and written out when the run ends; per-layer
numbers are aggregated from them (self time = duration minus the durations
of child spans).  Nothing under ``src/`` is modified.
"""

from __future__ import annotations

import fnmatch
import functools
import importlib
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

# span name, defining module, wrapped public functions (glob patterns allowed)
SPANS: tuple[tuple[str, str, tuple[str, ...]], ...] = (
    ("core.coords", "core", ("matrix_to_coords", "coords_to_matrix")),
    ("core.basis", "core", ("hermitian_basis", "symmetric_basis")),
    ("core.validate", "core", ("state_from_coords", "effect_from_coords", "kraus_process", "stochastic_process")),
    ("core.apply", "core", ("apply", "apply_to_factors", "contract", "marginal", "permute_factors", "lift")),
    ("core.compose", "core", ("compose", "tensor_processes", "add_processes", "scale_process", "tensor_states", "tensor_effects")),
    ("backends.choi", "backends", ("process_coords",)),
    ("backends.rank", "backends", ("matrix_rank",)),
    ("backends.basis", "backends", ("process_space_basis",)),
    ("backends.purify", "backends", ("purify",)),
    ("backends.families", "backends", ("spanning_*", "complete_state", "maximally_entangled_*", "random_*")),
    ("tomography.lifting", "tomography", ("lifting_matrix",)),
    ("tomography.equality", "tomography", ("equal_on_source", "equal_upon_input", "equal_on_extensions", "equal_processes")),
    ("tomography.contains", "tomography", ("contains",)),
    ("tomography.faithful", "tomography", ("is_dynamically_faithful", "tomographically_geq", "is_locally_tomographic", "find_faithful_state")),
    ("witnesses.teleport", "witnesses", ("teleportation_witness", "verify_teleportation", "teleport_map", "chi_state")),
    ("witnesses.extension", "witnesses", ("extension_from_teleportation", "verify_universal_extension")),
    ("witnesses.purification", "witnesses", ("channel_from_purification", "connect_purifications")),
    ("witnesses.prep", "witnesses", ("preparationally_faithful_witness", "is_doubly_preparationally_faithful")),
    ("rebit.report", "rebit", ("counterexample_report",)),
    ("dsl.parse", "dsl", ("parse", "typecheck")),
    ("dsl.evaluate", "dsl", ("evaluate",)),
    ("cli.main", "cli", ("main",)),
)
MODULES = ("core", "backends", "tomography", "witnesses", "rebit", "dsl", "cli")

# counters: name -> (unit, how two runs combine)
COUNTERS = {
    "core.coords.n_max": ("n", max),
    "core.coords.basis_mb": ("MB", sum),
    "core.basis.misses": ("count", sum),
    "core.kraus.ops_max": ("count", max),
    "core.kraus.ops_total": ("count", sum),
    "backends.rank.rows_max": ("count", max),
}


def _dense_basis_mb(sys_desc) -> float:
    """Bytes of the dense (n^2, n, n) basis tensor a conversion at this n reads.

    Computed from n, not measured; zero when ``core`` has no dense basis.
    """
    core = sys.modules["gpt_tomo.core"]
    if not hasattr(core, "hermitian_basis"):
        return 0.0
    n = sys_desc.total_dim
    if sys_desc.backend == "quantum":
        return n * n * n * n * 16 / 1e6
    if sys_desc.backend == "real":
        return n * (n + 1) // 2 * n * n * 8 / 1e6
    return 0.0


class Tracer:
    """Installs span wrappers; ``summary()`` aggregates what they recorded."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.errors: Counter = Counter()
        self.counters = {name: 0 for name in COUNTERS}
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._last_exc: BaseException | None = None
        self._cache_misses0 = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import gpt_tomo.cli  # noqa: F401  (loads every module that binds names)

        self.missing = []
        self._cache_misses0 = self._cache_misses()
        modules = [m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == "gpt_tomo"]
        observers = {
            "matrix_to_coords": self._observe_coords,
            "coords_to_matrix": self._observe_coords,
            "kraus_process": self._observe_kraus,
            "matrix_rank": self._observe_rank,
        }
        for span, modname, patterns in SPANS:
            mod = importlib.import_module(f"gpt_tomo.{modname}")
            for fname, fn in self._resolve(mod, patterns):
                wrapper = self._wrap(span, modname, fn, observers.get(fname))
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._patched.append((m, attr, val))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, val in reversed(self._patched):
            setattr(m, attr, val)
        self._patched.clear()
        self.counters["core.basis.misses"] += self._cache_misses() - self._cache_misses0

    def _resolve(self, mod, patterns):
        found = []
        for pattern in patterns:
            if "*" in pattern:
                names = [
                    n
                    for n, v in vars(mod).items()
                    if fnmatch.fnmatchcase(n, pattern)
                    and callable(v)
                    and not isinstance(v, type)
                    and getattr(v, "__module__", None) == mod.__name__
                ]
            else:
                names = [pattern] if callable(getattr(mod, pattern, None)) else []
            if not names:
                self.missing.append(f"{mod.__name__}.{pattern}")
            found += [(n, getattr(mod, n)) for n in sorted(names)]
        return found

    @staticmethod
    def _cache_misses() -> int:
        core = sys.modules["gpt_tomo.core"]
        total = 0
        for name in ("hermitian_basis", "symmetric_basis"):
            info = getattr(getattr(core, name, None), "cache_info", None)
            if info is not None:
                total += info().misses
        return total

    def _wrap(self, span: str, module: str, fn, observe):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([span, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_exc:  # count each error once, where it surfaced first
                    self._last_exc = exc
                    self.errors[module] += 1
                raise
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    # -- counters ----------------------------------------------------------

    def _observe_coords(self, args, kwargs, result) -> None:
        sys_desc = args[0] if args else kwargs["sys"]
        c = self.counters
        c["core.coords.n_max"] = max(c["core.coords.n_max"], sys_desc.total_dim)
        c["core.coords.basis_mb"] += _dense_basis_mb(sys_desc)

    def _observe_kraus(self, args, kwargs, result) -> None:
        ops = len(result.kraus)
        c = self.counters
        c["core.kraus.ops_max"] = max(c["core.kraus.ops_max"], ops)
        c["core.kraus.ops_total"] += ops

    def _observe_rank(self, args, kwargs, result) -> None:
        mat = args[0] if args else kwargs["mat"]
        rows = mat.shape[0] if getattr(mat, "ndim", 0) else 0
        c = self.counters
        c["backends.rank.rows_max"] = max(c["backends.rank.rows_max"], rows)

    # -- output ------------------------------------------------------------

    def summary(self) -> dict:
        """Calls and self time per span, errors per module, counters, top-level time."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        child: list[float] = [0.0] * len(self.spans)
        top = 0.0
        for _, start, end, parent in self.spans:
            dur = end - start
            if parent >= 0:
                child[parent] += dur
            else:
                top += dur
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += (end - start) - child[i]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "errors": dict(self.errors),
            "counters": dict(self.counters),
            "top_s": top,
            "missing": list(self.missing),
        }

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent]) + "\n")


def merge(summaries: list[dict]) -> dict:
    """Combine the summaries of several traced checks or processes."""
    out = {"calls": Counter(), "self_s": Counter(), "errors": Counter(), "counters": {}, "top_s": 0.0, "missing": []}
    for s in summaries:
        out["calls"].update(s["calls"])
        out["self_s"].update(s["self_s"])
        out["errors"].update(s["errors"])
        out["top_s"] += s["top_s"]
        for name, value in s["counters"].items():
            combine = COUNTERS[name][1]
            out["counters"][name] = combine([out["counters"].get(name, 0), value])
        for m in s["missing"]:
            if m not in out["missing"]:
                out["missing"].append(m)
    return out


def per_layer_metrics(
    summary: dict,
    cycles: int,
    startup: dict,
    check_wall: float,
    plain_walls: list[float],
    traced_walls: list[float],
) -> dict:
    """Per-layer metrics for the JSON line, per traced cycle of checks.

    Coverage is the share of the traced checks' wall time inside top-level
    spans.  Overhead compares the fastest traced cycle with the fastest
    untraced one, run alternately on the same checks.
    """
    overhead = min(traced_walls) - min(plain_walls)
    metrics = {}
    for span, _, _ in SPANS:
        metrics[f"{span}.calls"] = (summary["calls"].get(span, 0) / cycles, "count")
        metrics[f"{span}.self_s"] = (summary["self_s"].get(span, 0.0) / cycles, "s")
    for m in MODULES:
        metrics[f"{m}.errors"] = (summary["errors"].get(m, 0) / cycles, "count")
    for name, (unit, combine) in COUNTERS.items():
        value = summary["counters"].get(name, 0)
        metrics[name] = (value / cycles if combine is sum else value, unit)
    metrics["startup.import_s.scipy"] = (startup["scipy"], "s")
    metrics["startup.import_s.gpt_tomo"] = (startup["gpt_tomo"], "s")
    metrics["trace.coverage"] = (summary["top_s"] / check_wall, "ratio")
    metrics["trace.unattributed_s"] = ((check_wall - summary["top_s"]) / cycles, "s")
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_frac"] = (overhead / min(plain_walls), "ratio")
    return {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}


EXPECTED_LARGEST = {
    "dim-ladder": ("core.coords",),
    "deep-circuit": ("core.compose", "core.validate"),
}


def report_lines(metrics: dict, summary: dict, workload: str, check_wall: float) -> list[str]:
    """Coverage, overhead and the profile check, in words."""
    self_s = {span: metrics[f"{span}.self_s"]["value"] for span, _, _ in SPANS}
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    lines = [
        f"trace.coverage = {metrics['trace.coverage']['value']:.4f} of {check_wall:.3f} s check wall time per cycle"
        f" covered by top-level spans; unattributed {metrics['trace.unattributed_s']['value']:.4f} s",
        f"trace.overhead_s = {metrics['trace.overhead_s']['value']:.4f} s per cycle"
        f" ({100 * metrics['trace.overhead_frac']['value']:.1f}% over the untraced cycle)",
        "largest self time: " + ", ".join(f"{s} {v:.4f} s" for s, v in ranked[:5]),
    ]
    expected = EXPECTED_LARGEST.get(workload)
    if expected:
        combined = sum(self_s[s] for s in expected)
        others = max(v for s, v in self_s.items() if s not in expected)
        verdict = "matches" if combined >= others else f"DISAGREES (largest is {ranked[0][0]})"
        lines.append(f"profile: expected {' + '.join(expected)} to lead -> {verdict}")
    if summary["missing"]:
        lines.append("not measurable (function not found): " + ", ".join(summary["missing"]))
    lines.append("core.coords.basis_mb is computed from n (dense basis size per conversion), not measured")
    lines += [f"{name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    return lines


def import_times(python: str, root: Path, repeats: int = 3) -> dict:
    """Median import times from ``python -X importtime -c 'import gpt_tomo.cli'``.

    Each is the cumulative time of the outermost imports of that package
    (for ``gpt_tomo``, numpy and scipy included; for ``scipy``, what its own
    import pulls in beyond what was loaded before).
    """
    import statistics
    import subprocess

    scipy_s, total_s = [], []
    for _ in range(repeats):
        proc = subprocess.run(
            [python, "-X", "importtime", "-c", "import gpt_tomo.cli"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-500:]}")
        rows = []
        for line in proc.stderr.splitlines():
            parts = line[len("import time:") :].split("|")
            if not line.startswith("import time:") or len(parts) != 3 or not parts[0].strip().isdigit():
                continue
            raw = parts[2].rstrip()
            rows.append((int(parts[0]), int(parts[1]), raw.strip(), len(raw) - len(raw.lstrip())))
        # rows come children-first; walking them backwards meets each parent first
        scipy_us, total_us, stack = 0, 0, []
        for _, cum, name, indent in reversed(rows):
            while stack and stack[-1][0] >= indent:
                stack.pop()
            root_pkg = name.split(".")[0]
            if root_pkg in ("scipy", "gpt_tomo") and all(n.split(".")[0] != root_pkg for _, n in stack):
                if root_pkg == "scipy":
                    scipy_us += cum
                else:
                    total_us += cum
            stack.append((indent, name))
        scipy_s.append(scipy_us / 1e6)
        total_s.append(total_us / 1e6)
    return {"scipy": statistics.median(scipy_s), "gpt_tomo": statistics.median(total_s)}
