"""Span tracer that times evolvesurf's layers from outside the package.

``Tracer.install`` rebinds each traced function at every place the package
holds a reference to it.  Names are imported by value (``timestepper`` holds
its own ``factorize`` and ``assemble_L``, ``diagnostics`` its own
``solve_direct``, ``assemble_L`` and ``metric_fields``, and so on), so the
tracer scans every loaded ``evolvesurf`` module for the original function
object instead of patching only the defining module.  Nothing under ``src/``
is edited.

Two return values are wrapped as well: the factor object ``factorize``
returns, whose ``solve`` becomes the ``operator.lu_solve`` span, and the
forcing callable ``manufactured_forcing`` returns, whose calls become the
``diagnostics.forcing_eval`` span.

Spans are kept in memory as ``[name, start, end, parent]`` records; a
layer's self time is its span's duration minus the durations of its direct
child spans.
"""

from __future__ import annotations

import resource
import sys
import time
from contextlib import contextmanager

# (module, function) pairs traced as spans named "<module>.<function>"
TARGETS = (
    ("config", "parse_config"),
    ("geometry", "metric_fields"),
    ("operator", "assemble_L"),
    ("operator", "assemble_B_parts"),
    ("operator", "factorize"),
    ("coefficients", "smallness_report"),
    ("coefficients", "m_quantities"),
    ("coefficients", "estimate_C_sharp"),
    ("coefficients", "estimate_C_A"),
    ("timestepper", "solve_direct"),
    ("timestepper", "solve_picard"),
    ("timestepper", "z_norm"),
    ("diagnostics", "energy_report"),
    ("diagnostics", "decay_report"),
    ("diagnostics", "regularity_report"),
    ("diagnostics", "manufactured_forcing"),
    ("cli", "write_outputs"),
)

# Binding sites outside the defining module that the tracer must reach.
EXPECTED_SITES = (
    "evolvesurf.timestepper.assemble_L",
    "evolvesurf.timestepper.factorize",
    "evolvesurf.diagnostics.solve_direct",
    "evolvesurf.diagnostics.assemble_L",
    "evolvesurf.diagnostics.metric_fields",
    "evolvesurf.coefficients.factorize",
    "evolvesurf.coefficients.assemble_B_parts",
)


def _maxrss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class _TracedFactor:
    """Factor object whose ``solve`` is a traced span; other attributes delegate."""

    def __init__(self, factor, solve):
        self._factor = factor
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._factor, name)


class Tracer:
    def __init__(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counters = {}
        self.sites = []        # "module.attribute" names that were rebound
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, name, fn, on_return=None):
        def traced(*args, **kwargs):
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            return result if on_return is None else on_return(result)

        traced.__wrapped__ = fn
        return traced

    def count(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- return-value wrappers -------------------------------------------

    def _on_factor(self, factor):
        self.count("operator.factorize.nnz", int(factor.nnz))
        return _TracedFactor(factor, self.wrap("operator.lu_solve", factor.solve))

    def _on_forcing(self, forcing):
        return self.wrap("diagnostics.forcing_eval", forcing)

    def _rss_growth(self, name, fn):
        inner = self.wrap(name, fn)

        def traced(*args, **kwargs):
            before = _maxrss_mib()
            try:
                return inner(*args, **kwargs)
            finally:
                self.count(name + ".rss_mib", _maxrss_mib() - before)

        traced.__wrapped__ = fn
        return traced

    # -- installation ----------------------------------------------------

    def install(self, package="evolvesurf"):
        """Rebind every traced function at every binding site in the package.

        Targets the installed package does not define are skipped, so their
        metrics read zero.  Returns the list of rebound "module.attribute"
        sites.
        """
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == package or name.startswith(package + "."))]
        special = {"operator.factorize": self._on_factor,
                   "diagnostics.manufactured_forcing": self._on_forcing}
        for mod_name, fn_name in TARGETS:
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            name = f"{mod_name}.{fn_name}"
            if name == "timestepper.solve_picard":
                wrapper = self._rss_growth(name, original)
            else:
                wrapper = self.wrap(name, original, special.get(name))
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        setattr(mod, attr, wrapper)
                        self.sites.append(f"{mod.__name__}.{attr}")
        return self.sites

    # -- aggregation -----------------------------------------------------

    def layer_stats(self):
        """{span name: [calls, total seconds, self seconds]} over all spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for k, (name, t0, t1, _) in enumerate(self.spans):
            st = out.setdefault(name, [0, 0.0, 0.0])
            st[0] += 1
            st[1] += t1 - t0
            st[2] += t1 - t0 - child[k]
        return out
