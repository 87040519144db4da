"""Spans and counters recorded around blocksmith's public entry points.

The program is not changed: ``Tracer.install`` replaces each traced function
in every blocksmith module that binds it by name (``from .gram import solve``
makes a second binding in ``casebook`` and ``cli``), and ``uninstall`` puts
the originals back. Spans are kept in memory and written out by the runner
when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Callable


def _count_solve(args, result) -> dict:
    problem = args[0]
    out = {"gram.solutions": len(result)}
    if not problem.pinned:
        out["gram.free_solutions"] = len(result)
    return out


# (defining module, function, span name, counter hook)
# A counter hook maps (args, result) to counter increments; it runs outside
# the span so it does not inflate the layer's time.
TRACED: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli", "dispatch", "cli.dispatch", None),
    ("casebook", "run_dimension", "casebook.run",
     lambda a, r: {"casebook.regressions": len(r.regressions)}),
    ("cartan", "enumerate_cartan", "cartan.enumerate",
     lambda a, r: {"cartan.candidates": len(r)}),
    ("cartan", "filter_block_feasible", "cartan.screen", None),
    ("intmat", "canonical_perm_form", "intmat.canonical", None),
    ("gram", "solve", "gram.solve", _count_solve),
    ("gram", "verify_solution", "gram.verify", None),
    ("gram", "solve_orthogonal_column", "gram.column",
     lambda a, r: {"gram.columns": len(r)}),
    ("_kernel", "search_rows", "kernel.search",
     lambda a, r: {"kernel.raw_sequences": len(r)}),
    ("contrib", "contribution_matrix", "contrib.matrix", None),
    ("brauer", "classify_defect1", "brauer.classify",
     lambda a, r: {"brauer.matches": len(r)}),
    ("brauer", "enumerate_trees", "brauer.trees",
     lambda a, r: {"brauer.trees": len(r)}),
)


class Tracer:
    def __init__(self) -> None:
        # (name, start, end, parent index or -1, job id)
        self.spans: list[tuple | None] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.job: str = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str, hook):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if hook is not None:
                for key, value in hook(args, result).items():
                    counters[key] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of each traced function in loaded blocksmith modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = [
            getattr(importlib.import_module(f"blocksmith.{mod_name}"), attr)
            for mod_name, attr, _, _ in TRACED
        ]
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "blocksmith" or key.startswith("blocksmith."))
        ]
        for original, (_, _, name, hook) in zip(originals, TRACED):
            wrapper = self._wrap(original, name, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def bindings(self) -> list[str]:
        """Module attributes currently wrapped, as 'module.attr' strings."""
        return sorted(f"{mod.__name__}.{key}" for mod, key, _ in self._patched)

    def write(self, path) -> None:
        """One JSON array per line: name, start, end, parent index, job id."""
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")) + "\n")


def layer_times(spans) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Inclusive time, self time and call count per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for i, (name, start, end, _, _) in enumerate(spans):
        total[name] += end - start
        self_time[name] += end - start - child[i]
        calls[name] += 1
    return total, self_time, calls


def per_layer_metrics(tracer: Tracer, passes: int, traced_wall: float,
                      untraced_wall: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass (totals divided by passes)."""
    total, self_time, calls = layer_times(tracer.spans)
    c = tracer.counters

    def per_pass(x):
        return x / passes

    raw = c["kernel.raw_sequences"]
    ratio = c["gram.free_solutions"] / raw if raw else 0.0
    return {
        "kernel.search_s": (per_pass(total["kernel.search"]), "s"),
        "kernel.raw_sequences": (per_pass(raw), "count"),
        "gram.canonical_ratio": (ratio, "ratio"),
        "gram.solve_s": (per_pass(total["gram.solve"]), "s"),
        "gram.solve_self_s": (per_pass(self_time["gram.solve"]), "s"),
        "gram.verify_s": (per_pass(total["gram.verify"]), "s"),
        "gram.verify_calls": (per_pass(calls["gram.verify"]), "count"),
        "gram.solve_calls": (per_pass(calls["gram.solve"]), "count"),
        "gram.solutions": (per_pass(c["gram.solutions"]), "count"),
        "gram.column_s": (per_pass(total["gram.column"]), "s"),
        "gram.columns": (per_pass(c["gram.columns"]), "count"),
        "intmat.canonical_s": (per_pass(total["intmat.canonical"]), "s"),
        "intmat.canonical_calls": (per_pass(calls["intmat.canonical"]), "count"),
        "cartan.enumerate_self_s": (per_pass(self_time["cartan.enumerate"]), "s"),
        "cartan.screen_s": (per_pass(total["cartan.screen"]), "s"),
        "cartan.candidates": (per_pass(c["cartan.candidates"]), "count"),
        "brauer.classify_self_s": (per_pass(self_time["brauer.classify"]), "s"),
        "brauer.trees_s": (per_pass(total["brauer.trees"]), "s"),
        "brauer.trees": (per_pass(c["brauer.trees"]), "count"),
        "brauer.matches": (per_pass(c["brauer.matches"]), "count"),
        "contrib.matrix_s": (per_pass(total["contrib.matrix"]), "s"),
        "contrib.calls": (per_pass(calls["contrib.matrix"]), "count"),
        "casebook.run_self_s": (per_pass(self_time["casebook.run"]), "s"),
        "casebook.regressions": (per_pass(c["casebook.regressions"]), "count"),
        "cli.dispatch_self_s": (per_pass(self_time["cli.dispatch"]), "s"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    }
