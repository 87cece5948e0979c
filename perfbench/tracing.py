"""In-memory spans around the package's public functions.

Each traced function is replaced, for the duration of a ``with Tracer():``
block, at the module attribute its caller looks it up through: ``flow.step``
for ``flow.run``'s loop, ``flow.solve_kkt`` for the flow step,
``saddle_solver.solve_kkt`` for Newton (which imports it at call time), the
``SystemMatrices`` methods for the extended-precision forms, and so on.  The
package itself is not modified; leaving the block restores every attribute.

A span is ``(name, start, end, parent, cell, ok)`` with ``parent`` the index
of the enclosing span (-1 at top level) and ``ok`` false when the call
raised.  Self time is a span's duration minus the durations of its direct
children, which in a single thread never overlap.
"""

from __future__ import annotations

import functools
import json
import time
from typing import Dict, List, Tuple

from elastica_fem import (analysis, assembly, flow, mesh, saddle_solver,
                          stationary)

Span = Tuple[str, float, float, int, str, bool]

# (owner, attribute, span name).  Class attributes keep their descriptor
# kind (classmethod or plain function).
TARGETS = [
    (mesh.Mesh1D, "uniform", "mesh.uniform"),
    (assembly, "assemble_matrices", "assembly.assemble_matrices"),
    (assembly.SystemMatrices, "apply_bending", "assembly.forms"),
    (assembly.SystemMatrices, "quad_bending", "assembly.forms"),
    (assembly.SystemMatrices, "quad_mass", "assembly.forms"),
    (assembly.SystemMatrices, "quad_gradient", "assembly.forms"),
    (flow, "assemble_constraint", "assembly.assemble_constraint"),
    (flow, "solve_kkt", "saddle_solver.solve_kkt"),
    (saddle_solver, "solve_kkt", "saddle_solver.solve_kkt"),
    (flow, "run", "flow.run"),
    (flow, "step", "flow.step"),
    (flow, "init_state", "flow.init_state"),
    (flow, "unit_speed_violation", "splines.unit_speed_violation"),
    (flow, "interp_j3", "splines.interp"),
    (flow, "interp_j2", "splines.interp"),
    (stationary, "interp_hermite", "splines.interp"),
    (analysis, "interp_hermite", "splines.interp"),
    (stationary, "make_interpolant_pair", "stationary.interpolant_pair"),
    (stationary.DiscreteNorms, "build", "stationary.norms_build"),
    (stationary, "residual", "stationary.residual"),
    (stationary, "jacobian", "stationary.jacobian"),
    (stationary, "newton_solve", "stationary.newton_solve"),
    (stationary, "residual_dual_norm", "stationary.dual_norm"),
    (stationary, "coercivity_estimate", "stationary.coercivity"),
    (stationary, "infsup_estimate", "stationary.infsup"),
    (analysis, "h2_error", "analysis.h2_error"),
    (analysis, "quadrature_error", "analysis.quadrature_error"),
]

CELL_SPAN = "harness.cell"


class Tracer:
    """Records spans while active; ``cell`` tags every span it records."""

    def __init__(self):
        self.spans: List[Span] = []
        self.cell = ""
        self._stack: List[int] = []
        self._saved: List[tuple] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.cell, ok)
        return traced

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span of the given name."""
        return self._wrap(fn, name)(*args, **kwargs)

    def __enter__(self):
        for owner, attr, name in TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name))
            else:
                wrapped = self._wrap(raw, name)
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)
        return False


def write_spans(path, passes: List[List[Span]]) -> None:
    """One JSON object per span; ``id`` and ``parent`` index within a pass."""
    with open(path, "w") as fh:
        for k, spans in enumerate(passes):
            for i, (name, start, end, parent, cell, ok) in enumerate(spans):
                fh.write(json.dumps({"pass": k, "id": i, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "cell": cell,
                                     "ok": ok}) + "\n")


def self_times(spans: List[Span]) -> List[float]:
    """Per-span duration minus the time covered by its direct children."""
    own = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def caller_of(spans: List[Span], i: int, callers: Dict[str, str]) -> str:
    """Label of the nearest ancestor whose name is a key of ``callers``."""
    parent = spans[i][3]
    while parent >= 0:
        label = callers.get(spans[parent][0])
        if label is not None:
            return label
        parent = spans[parent][3]
    return ""
