"""Per-layer tracing of symqm, installed from outside the program.

:meth:`Tracer.install` replaces each public layer function by a wrapper
that records a span (name, start, end, parent) in memory.  A function is
replaced in every ``symqm`` module that binds it, so calls that went
through ``from .module import name`` are traced too; methods are replaced
on their class.  The hot per-evaluation calls (``ObservableFunction`` and
``ComplexFunction.__call__``) are only counted, not spanned.

A span's self time is its duration minus the durations of its direct
child spans; calls are single-threaded and nest, so children never
overlap.  :meth:`Tracer.layer_figures` sums self times and calls per name.
"""

from __future__ import annotations

import contextlib
import os
import sys
import time
from collections import Counter

# (module, attribute) of each spanned layer function.  The figure name is
# the module's short name and the function's name, e.g. "pauli.to_matrix".
SPANNED = (
    ("symqm.scenario", "load_scenario"),
    ("symqm.pauli", "PauliSumExpr.to_matrix"),
    ("symqm.operators", "spectral_decompose"),
    ("symqm.sampling", "random_unit_state"),
    ("symqm.brackets", "complex_bracket"),
    ("symqm.brackets", "poisson_bracket"),
    ("symqm.brackets", "bracket_commutator_report"),
    ("symqm.quantum_function", "from_operator"),
    ("symqm.quantum_function", "verify_axioms"),
    ("symqm.quantum_function", "verify_reconstruction"),
    ("symqm.quantum_function", "qfe_residual"),
    ("symqm.dynamics", "integrate"),
    ("symqm.dynamics", "phase_evolution_residual"),
    ("symqm.dynamics", "trajectory_diagnostics"),
    ("symqm.reports", "write_trajectory_csv"),
    ("symqm.reports", "write_report"),
)

# (module, attribute, counter name) of each counted hot call.
COUNTED = (
    ("symqm.brackets", "ObservableFunction.__call__", "brackets.observable_evals"),
    ("symqm.brackets", "ComplexFunction.__call__", "brackets.complex_function_evals"),
)

def _figure_name(module: str, attribute: str) -> str:
    return f"{module.split('.')[-1]}.{attribute.split('.')[-1]}"


def _resolve(module: str, attribute: str):
    """Return (owner, name, function) for ``module.attribute``."""
    owner = sys.modules[module]
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    def __init__(self):
        # Each span is [name, start, end, parent index or -1].
        self.spans: list = []
        self._open: list = []
        self.counts: Counter = Counter()

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._open[-1] if self._open else -1])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def _spanned(self, name: str, func, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = func(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper

    def _counted(self, name: str, func):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return func(*args, **kwargs)
        return wrapper

    def _add_solver_iterations(self, trajectory) -> None:
        self.counts["dynamics.solver_iterations"] += int(trajectory.solver_iterations.sum())

    def _add_bytes_written(self, path) -> None:
        self.counts["reports.bytes_written"] += os.path.getsize(path)

    def install(self) -> None:
        """Wrap every layer function wherever a symqm module binds it."""
        after = {
            "dynamics.integrate": self._add_solver_iterations,
            "reports.write_report": self._add_bytes_written,
            "reports.write_trajectory_csv": self._add_bytes_written,
        }
        replacements = {}
        for module, attribute in SPANNED:
            owner, name, func = _resolve(module, attribute)
            figure = _figure_name(module, attribute)
            wrapper = self._spanned(figure, func, after.get(figure))
            setattr(owner, name, wrapper)
            # The wrapper keeps func alive, so its id cannot be reused.
            replacements[id(func)] = wrapper
        for module, attribute, counter in COUNTED:
            owner, name, func = _resolve(module, attribute)
            setattr(owner, name, self._counted(counter, func))
        for module_name, module in list(sys.modules.items()):
            if module_name != "symqm" and not module_name.startswith("symqm."):
                continue
            for key, value in list(vars(module).items()):
                if id(value) in replacements:
                    setattr(module, key, replacements[id(value)])

    def layer_figures(self) -> dict:
        """Self seconds and calls per spanned name, plus the counters.

        ``cli.<command>.s`` is the whole span of that command's ``main``
        call; ``cli.self.s`` is the part of all command spans that no
        layer span covers (argument parsing, ``_exact_states``, report
        assembly).
        """
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        figures = Counter(self.counts)
        for (name, start, end, _), children in zip(self.spans, child_s):
            if name.startswith("cli."):
                figures[f"{name}.s"] += end - start
                name = "cli.self"
            else:
                figures[f"{name}.calls"] += 1
            figures[f"{name}.s"] += end - start - children
        return dict(figures)
