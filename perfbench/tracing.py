"""Spans and counts at radonflow's layer boundaries, for the traced run.

The tracer rebinds the names that ``radonflow.cli`` and the inner modules
call (for example ``complexes.check_circuit_axioms`` or
``macphersonian.circuits_of_points``) to wrappers that record a span, and
restores them afterwards.  No file of the package changes.  A span holds
its name, start, end, parent span and op id; spans stay in memory until
the run ends.  Hot tiny functions (``weak_map_leq``, ``project_to_gamma``)
are counted, not spanned.
"""

from __future__ import annotations

import csv
import time
from collections import Counter, defaultdict
from pathlib import Path

import radonflow.cli as cli
import radonflow.complexes as complexes
import radonflow.flow as flow
import radonflow.macphersonian as macphersonian

ROOT_SPAN = "cli"


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # recording ------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as one op, under a root span."""
        self.op = op_id
        idx = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def spanned(self, name: str, fn, after=None):
        """fn wrapped in a span; after(counts, result, args) records counts."""

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self.counts, result, args)
            return result

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # installation ---------------------------------------------------------

    def _rebind(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(current); classmethods stay classmethods."""
        raw = vars(owner)[attr]
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, staticmethod(make(getattr(owner, attr))))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        s = self.spanned

        def complex_counts(counts, rc, _args):
            counts["complexes.vertices"] += len(rc.graph.vertices)
            counts["complexes.edges"] += len(rc.graph.edges)
            counts["complexes.cells"] += len(rc.facets)

        def circuit_counts(counts, m, _args):
            counts["core.circuits_of_points.calls"] += 1
            counts["core.circuits"] += len(m.circuits)

        def step_counts(counts, result, _args):
            counts["flow.steps"] += len(result[1].samples) - 1

        def element_counts(counts, elements, _args):
            counts["macphersonian.elements"] += len(elements)

        def simplex_counts(counts, oc, _args):
            counts["macphersonian.simplices"] += sum(oc.counts())

        def boundary_cells(counts, _betti, args):
            # entries of the dense boundary matrices gf2_betti builds (computed, not measured)
            dims = args[0].counts()
            counts["macphersonian.boundary_cells"] += sum(
                a * b for a, b in zip(dims, dims[1:])
            )

        rebinds = [
            (cli, "circuits_of_points", lambda f: s("core.circuits_of_points", f, circuit_counts)),
            (macphersonian, "circuits_of_points", lambda f: s("core.circuits_of_points", f, circuit_counts)),
            (complexes, "check_circuit_axioms", lambda f: s("core.check_circuit_axioms", f)),
            (cli, "geometric_radon_complex", lambda f: s("complexes.geometric_radon_complex", f, complex_counts)),
            (cli, "combinatorial_circuit_graph", lambda f: s("complexes.combinatorial_circuit_graph", f)),
            (cli, "validate_sphere", lambda f: s("complexes.validate_sphere", f)),
            (cli, "graphs_equal", lambda f: s("complexes.graphs_equal", f)),
            (complexes, "project_to_gamma", lambda f: self.counted("ambient.project_to_gamma.calls", f)),
            (flow.EmbeddedSphere, "perturbed", lambda f: s("flow.perturbed", f)),
            (cli, "integrate", lambda f: s("flow.integrate", f, step_counts)),
            (cli, "recover_configuration", lambda f: s("flow.recover_configuration", f)),
            (cli, "curvature_decay_stats", lambda f: s("flow.curvature_decay_stats", f)),
            (cli, "enumerate_acyclic_oms", lambda f: s("macphersonian.enumerate_acyclic_oms", f, element_counts)),
            # the m42 cell report enumerates (4,2) again internally
            (macphersonian, "enumerate_acyclic_oms", lambda f: s("macphersonian.enumerate_acyclic_oms", f)),
            (macphersonian.MatroidPoset, "from_elements", lambda f: s("macphersonian.from_elements", f)),
            (macphersonian, "weak_map_leq", lambda f: self.counted("macphersonian.weak_map_leq.calls", f)),
            (macphersonian.MatroidPoset, "hasse_pairs", lambda f: s("macphersonian.hasse_pairs", f)),
            (cli, "order_complex", lambda f: s("macphersonian.order_complex", f, simplex_counts)),
            (cli, "gf2_betti", lambda f: s("macphersonian.gf2_betti", f, boundary_cells)),
            (cli, "cell_structure_m42", lambda f: s("macphersonian.cell_structure_m42", f)),
        ]
        for owner, attr, make in rebinds:
            self._rebind(owner, attr, make)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    # reduction ------------------------------------------------------------

    def times_ms(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time in ms per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for name, start, end, parent, _op in self.spans:
            total[name] += (end - start) * 1e3
            if parent is not None:
                child[parent] += (end - start) * 1e3
        own: dict[str, float] = defaultdict(float)
        for idx, (name, start, end, _parent, _op) in enumerate(self.spans):
            own[name] += (end - start) * 1e3 - child[idx]
        return dict(total), dict(own)

    def write(self, path: Path) -> None:
        """Write every span as a CSV row: name, start, end, parent, op."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["name", "start_s", "end_s", "parent", "op"])
            out.writerows(self.spans)
