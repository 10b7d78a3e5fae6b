"""Per-layer spans recorded from outside the program.

The tracer replaces the public functions of each layer with wrappers that
record one span per call: name, parent span, start and end.  Spans are
kept in flat in-memory arrays and written out only when the run ends.
Module-level functions are patched at every binding a loaded ``plinth``
module holds (``roberts.subduct`` as well as ``sagbi.subduct``); methods
are patched on their class.

``Monomial`` methods stay unwrapped: they run tens of millions of times
per workload, a wrapper would dominate their cost, and their time lands
in the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

# (metric prefix, module, class or None, attribute)
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("polyring.mul", "plinth.polyring", "Polynomial", "__mul__"),
    ("polyring.sub", "plinth.polyring", "Polynomial", "__sub__"),
    ("polyring.add", "plinth.polyring", "Polynomial", "__add__"),
    ("polyring.scale", "plinth.polyring", "Polynomial", "scale"),
    ("polyring.evaluate", "plinth.polyring", "Polynomial", "evaluate"),
    ("polyring.substitute", "plinth.polyring", "Polynomial", "substitute"),
    ("polyring.monomial_basis", "plinth.polyring", "WeightSystem", "monomial_basis"),
    ("linalg.nullspace", "plinth.linalg", None, "nullspace"),
    ("linalg.solve", "plinth.linalg", None, "solve"),
    ("linalg.rref", "plinth.linalg", None, "rref"),
    ("linalg.rank", "plinth.linalg", None, "rank"),
    ("derivation.apply", "plinth.derivation", "Derivation", "apply"),
    ("derivation.kernel_on_monomials", "plinth.derivation", "Derivation", "kernel_on_monomials"),
    ("derivation.graded_kernel", "plinth.derivation", "Derivation", "graded_kernel"),
    ("derivation.flow_images", "plinth.derivation", "Derivation", "flow_images"),
    ("derivation.flow_point", "plinth.derivation", "Derivation", "flow_point"),
    ("sagbi.factorization", "plinth.sagbi", "GeneratorSet", "factorization"),
    ("sagbi.product", "plinth.sagbi", "GeneratorSet", "product"),
    ("sagbi.monomial_algebra_member", "plinth.sagbi", None, "monomial_algebra_member"),
    ("sagbi.subduct", "plinth.sagbi", None, "subduct"),
    ("sagbi.x_ideal_membership", "plinth.sagbi", None, "x_ideal_membership"),
    ("sagbi.tete_a_tetes", "plinth.sagbi", None, "tete_a_tetes"),
    ("sagbi.tete_a_tete_difference", "plinth.sagbi", None, "tete_a_tete_difference"),
    ("sagbi.verify_sagbi", "plinth.sagbi", None, "verify_sagbi"),
    ("roberts.beta", "plinth.roberts", "RobertsAction", "beta"),
    ("roberts.graded_invariants", "plinth.roberts", "RobertsAction", "graded_invariants"),
    ("roberts.graded_invariants_z_capped", "plinth.roberts", "RobertsAction", "graded_invariants_z_capped"),
    ("roberts.sagbi_family_checks", "plinth.roberts", "RobertsAction", "sagbi_family_checks"),
    ("roberts.an_lemma_checks", "plinth.roberts", "RobertsAction", "an_lemma_checks"),
    ("roberts.radical_structure_check", "plinth.roberts", "RobertsAction", "radical_structure_check"),
    ("sl2.build_raising_derivation", "plinth.sl2", None, "build_raising_derivation"),
    ("sl2.invariants_up_to_degree", "plinth.sl2", None, "invariants_up_to_degree"),
    ("sl2.component_membership", "plinth.sl2", None, "component_membership"),
    ("separating.separates", "plinth.separating", None, "separates"),
    ("separating.solve_group_element", "plinth.separating", None, "solve_group_element"),
)

LAYERS = ("polyring", "linalg", "derivation", "sagbi", "roberts", "sl2", "separating")

# counters kept next to the spans, with their units
COUNTERS: dict[str, str] = {
    "polyring.mul.terms_out": "count",
    "polyring.monomial_basis.monomials": "count",
    "linalg.nullspace.cells": "count",
    "linalg.nullspace.max_cols": "count",
    "linalg.solve.cells": "count",
    "derivation.kernel_on_monomials.cols": "count",
    "sagbi.factorization.miss_ratio": "ratio",
    "sagbi.factorization.none_ratio": "ratio",
    "sagbi.subduct.steps": "count",
    "sagbi.x_ideal_membership.steps": "count",
    "sagbi.subduct.p50_ms": "ms",
    "sagbi.subduct.p99_ms": "ms",
    "sagbi.tete_a_tetes.pairs": "count",
    "sagbi.pairs_nonzero_ratio": "ratio",
    "roberts.beta.constructed": "count",
    "separating.solve_group_element.none_ratio": "ratio",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units: dict[str, str] = {}
    for prefix, *_ in TARGETS:
        units[f"{prefix}.calls"] = "count"
        units[f"{prefix}.self_s"] = "s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTERS)
    return units


class Tracer:
    """Span recorder for one run; install() before set-up, uninstall() after."""

    def __init__(self) -> None:
        self.prefixes = [prefix for prefix, *_ in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        self.factorization_queries: dict[Any, set] = defaultdict(set)
        self.betas_asked: set[tuple[Any, int, int]] = set()
        self._restore: list[tuple[Any, str, Any]] = []

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        for module in sorted({t[1] for t in TARGETS}):
            importlib.import_module(module)
        plinth_modules = [
            mod for name, mod in sorted(sys.modules.items())
            if name == "plinth" or name.startswith("plinth.")
        ]
        for nid, (prefix, module, cls, attr) in enumerate(TARGETS):
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            traced = self._wrap(original, nid, self._after(prefix))
            if cls is not None:
                self._patch(owner, attr, traced)
                continue
            for mod in plinth_modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn: Callable, nid: int, after: Callable | None) -> Callable:
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(traced)

    def _after(self, prefix: str) -> Callable | None:
        """Counter update run after each call; arguments are positional."""
        counts = self.counts

        if prefix == "polyring.mul":
            def after(args, result):
                counts["polyring.mul.terms_out"] += len(result)
        elif prefix == "polyring.monomial_basis":
            def after(args, result):
                counts["polyring.monomial_basis.monomials"] += len(result)
        elif prefix == "linalg.nullspace":
            def after(args, result):
                rows, ncols = args[0], args[1]
                counts["linalg.nullspace.cells"] += len(rows) * ncols
                counts["linalg.nullspace.max_cols"] = max(
                    counts["linalg.nullspace.max_cols"], ncols
                )
        elif prefix == "linalg.solve":
            def after(args, result):
                rows = args[0]
                counts["linalg.solve.cells"] += len(rows) * (len(rows[0]) if rows else 0)
        elif prefix == "derivation.kernel_on_monomials":
            def after(args, result):
                counts["derivation.kernel_on_monomials.cols"] += len(args[1])
        elif prefix == "sagbi.factorization":
            queries = self.factorization_queries

            def after(args, result):
                queries[args[0]].add(args[1])
                if result is None:
                    counts["sagbi.factorization.none"] += 1
        elif prefix in ("sagbi.subduct", "sagbi.x_ideal_membership"):
            key = f"{prefix}.steps"

            def after(args, result):
                counts[key] += len(result.steps)
        elif prefix == "sagbi.tete_a_tetes":
            def after(args, result):
                counts["sagbi.tete_a_tetes.pairs"] += len(result)
        elif prefix == "sagbi.tete_a_tete_difference":
            def after(args, result):
                if not result.is_zero():
                    counts["sagbi.tete_a_tete_difference.nonzero"] += 1
        elif prefix == "roberts.beta":
            asked = self.betas_asked

            def after(args, result):
                asked.add((args[0], args[1], args[2]))
        elif prefix == "separating.solve_group_element":
            def after(args, result):
                if result is None:
                    counts["separating.solve_group_element.none"] += 1
        else:
            after = None
        return after

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Calls and self time per wrapped function, layer totals, counters."""
        n = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += duration[i]
        calls = [0] * len(TARGETS)
        self_s = [0.0] * len(TARGETS)
        subduct_nid = self.prefixes.index("sagbi.subduct")
        subduct_ms = []
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            self_s[nid] += duration[i] - covered[i]
            if nid == subduct_nid:
                subduct_ms.append(duration[i] * 1000.0)
        out: dict[str, float] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for nid, prefix in enumerate(self.prefixes):
            out[f"{prefix}.calls"] = calls[nid]
            out[f"{prefix}.self_s"] = self_s[nid]
            layer_self[prefix.split(".")[0]] += self_s[nid]
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
        c = self.counts
        for name in COUNTERS:
            out[name] = c.get(name, 0)
        distinct = sum(len(s) for s in self.factorization_queries.values())
        out["sagbi.factorization.miss_ratio"] = _ratio(distinct, out["sagbi.factorization.calls"])
        out["sagbi.factorization.none_ratio"] = _ratio(
            c.get("sagbi.factorization.none", 0), out["sagbi.factorization.calls"]
        )
        out["sagbi.pairs_nonzero_ratio"] = _ratio(
            c.get("sagbi.tete_a_tete_difference.nonzero", 0),
            out["sagbi.tete_a_tete_difference.calls"],
        )
        out["separating.solve_group_element.none_ratio"] = _ratio(
            c.get("separating.solve_group_element.none", 0),
            out["separating.solve_group_element.calls"],
        )
        out["sagbi.subduct.p50_ms"] = _nearest_rank(subduct_ms, 0.50)
        out["sagbi.subduct.p99_ms"] = _nearest_rank(subduct_ms, 0.99)
        out["roberts.beta.constructed"] = len(self.betas_asked)
        return out

    def write_spans(self, path: Path) -> None:
        """One line per span: name, parent span index, start and end in s."""
        base = self.span_start[0] if len(self.span_start) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            out.write("index\tname\tparent\tstart_s\tend_s\n")
            for i in range(len(self.span_name)):
                out.write(
                    f"{i}\t{self.prefixes[self.span_name[i]]}\t{self.span_parent[i]}\t"
                    f"{self.span_start[i] - base:.9f}\t{self.span_end[i] - base:.9f}\n"
                )


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]
