"""Span tracing around the calls into hesspave's layers, from outside the program.

`Tracer.install()` replaces chosen functions with wrappers that record a span
per call: a stack of open spans gives each span its parent, and a span's self
time is its duration minus the time its child spans cover.  Spans are folded
into per-name totals as they close, so memory stays flat however many calls a
pass makes.  The wrappers are put into every hesspave module that bound the
function by name at import (`from .paving import enumerate_cells` in cli,
verify and oracle), and `Tracer.uninstall()` puts the originals back.

`iter_fillings` is a generator that `enumerate_cells`, `dimension_histogram`,
`zero_dim_cells` and `maximal_cells_are_standard` consume lazily, so its span
covers only the `next()` calls on it, never the consumer's work in between.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

# Traced functions per module.  Each module is one layer, and a span is named
# "<module>.<function>"; `Tableau.__init__` is traced as "combinatorics.Tableau".
TRACED = {
    "cli": ["main"],
    "paving": ["enumerate_cells", "poincare", "r0_tableau", "zero_dim_cells",
               "inversion_profile", "maximal_cells_are_standard",
               "hessenberg_inversions", "springer_inversions"],
    "combinatorics": ["tableau_of", "permutation_of_tableau", "base_filling", "is_h_strict",
                      "is_row_strict", "standardize", "inversions", "factorize",
                      "format_tableau"],
    "exactla": ["generic_flag", "bk_generator", "verify_flag_membership",
                "difference_residual", "bruhat_canonical_form", "factor_unipotent",
                "nilpotent_matrix", "hess_zero_coordinates", "generic_coordinates"],
    "oracle": ["_m_vectors", "variety_point_counts", "variety_point_count",
               "dw_equals_cell", "zeros_structure_check", "conjugation_invariance"],
    "verify": ["run_verification"],
}
VERIFY_SPAN = "verify.run_verification"


class _Stat:
    __slots__ = ("calls", "total", "self")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.counts: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[list] = []  # [name, start, child seconds]
        self._active: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._active[name] += 1
        self._stack.append([name, perf_counter(), 0.0])

    def _exit(self) -> float:
        end = perf_counter()
        name, start, child = self._stack.pop()
        self._active[name] -= 1
        dur = end - start
        st = self.stats[name]
        st.calls += 1
        st.total += dur
        st.self += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        return dur

    def under_verify(self) -> bool:
        return self._active[VERIFY_SPAN] > 0

    def parent(self) -> str | None:
        return self._stack[-1][0] if self._stack else None

    def _wrap(self, name: str, func, on_return=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit()
            if on_return is not None:
                on_return(args, result)
            return result

        traced.__wrapped__ = func
        return traced

    def _wrap_iter_fillings(self, func):
        tracer = self

        class TimedWalk:
            __slots__ = ("gen",)

            def __init__(self, gen):
                self.gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                in_cells = tracer.parent() == "paving.enumerate_cells"
                tracer._enter("paving.iter_fillings")
                try:
                    item = next(self.gen)
                finally:
                    dur = tracer._exit()
                    if in_cells:
                        tracer.counts["paving.walk_in_cells_s"] += dur
                tracer.counts["paving.fillings"] += 1
                return item

        def traced(*args, **kwargs):
            if tracer.under_verify():
                tracer.counts["verify.walks"] += 1
            return TimedWalk(func(*args, **kwargs))

        traced.__wrapped__ = func
        return traced

    # -- counters taken from call arguments and results -----------------------

    def _count_cells(self, args, result):
        if self.under_verify():
            self.counts["verify.cell_tables"] += 1

    def _count_flag(self, args, result):
        if self.parent() == VERIFY_SPAN:
            self.counts["exactla.flags_for_cells"] += 1
        self.counts["domains.poly_terms"] += sum(len(e.terms) for col in result.columns for e in col)

    def _count_batch(self, args, result):
        n = args[0].n
        points = result.shape[0]  # q^l(w): one row per matrix of U^w(F_q)
        batch = points * n * n * 8  # one (N, n, n) int64 array
        self.counts["oracle.points"] += points
        self.counts["oracle.batch_bytes"] += batch
        self.counts["oracle.batch_bytes_max"] = max(self.counts["oracle.batch_bytes_max"], batch)

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        mods = {m: importlib.import_module(f"hesspave.{m}") for m in TRACED}
        hooks = {
            "paving.enumerate_cells": self._count_cells,
            "exactla.generic_flag": self._count_flag,
            "oracle._m_vectors": self._count_batch,
        }
        replacements = {}
        for module, names in TRACED.items():
            for fname in names:
                orig = getattr(mods[module], fname)
                span = f"{module}.{fname}"
                replacements[id(orig)] = (orig, self._wrap(span, orig, hooks.get(span)))
        walk = mods["paving"].iter_fillings
        replacements[id(walk)] = (walk, self._wrap_iter_fillings(walk))
        namespaces = list(mods.values()) + [sys.modules["hesspave"]]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in replacements and replacements[id(value)][0] is value:
                    self._saved.append((ns, attr, value))
                    setattr(ns, attr, replacements[id(value)][1])
        tableau = mods["combinatorics"].Tableau
        init = tableau.__init__
        self._saved.append((tableau, "__init__", init))
        tableau.__init__ = self._wrap("combinatorics.Tableau", init)

    def uninstall(self) -> None:
        for ns, attr, value in reversed(self._saved):
            setattr(ns, attr, value)
        self._saved.clear()
