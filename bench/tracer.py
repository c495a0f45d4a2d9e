"""In-memory spans recorded from outside the program.

The tracer replaces public clfqp functions with wrappers in every module
that imports them, so calls made through any module land in a span. Spans
nest through an explicit stack, which makes a span's self time (its
duration minus the time covered by its direct children) exact. Nothing
under ``src/`` is changed; ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import gzip
import time
from collections import defaultdict

from clfqp import controllers, experiments, kinematics, linalg, multibody, qp, robots, sim

# span name -> modules whose attribute of that name is replaced
PATCHES = {
    "multibody.chain_pose": (multibody, kinematics),
    "multibody.chain_motion": (multibody, kinematics),
    "multibody.bias_terms": (multibody, sim, controllers),
    "multibody.solve_inertia": (multibody, controllers),
    "kinematics.task_state": (kinematics, sim, controllers),
    "linalg.pinv": (linalg, kinematics, controllers),
    "qp.QpProblem": (qp, controllers),
    "qp.solve_qp": (qp, controllers),
    "sim.step": (sim,),
    "sim.run": (sim, experiments),
    "robots.builtin_registry": (robots, experiments),
}


class Tracer:
    """Span recorder. Each span is (name, parent index, start, end) with
    times from time.perf_counter; the parent index is -1 at the top."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.qp_iterations: list[int] = []
        self.qp_warm_hits = 0
        self.qp_infeasible = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, parent, t0, t1)

        return traced

    def _wrap_solve_qp(self, fn):
        traced = self.wrap("qp.solve_qp", fn)

        def solve(prob, warm_start=None, max_iter=None):
            sol = traced(prob, warm_start=warm_start, max_iter=max_iter)
            self.qp_iterations.append(sol.iterations)
            if warm_start is not None and sol.active_set == tuple(warm_start):
                self.qp_warm_hits += 1
            if sol.status is qp.QpStatus.INFEASIBLE:
                self.qp_infeasible += 1
            return sol

        return solve

    def install(self):
        for name, modules in PATCHES.items():
            attr = name.split(".")[1]
            original = getattr(modules[0], attr)
            for mod in modules:
                if getattr(mod, attr) is not original:
                    raise RuntimeError(f"{mod.__name__}.{attr} is not {name}")
            wrapper = (self._wrap_solve_qp(original) if name == "qp.solve_qp"
                       else self.wrap(name, original))
            for mod in modules:
                self._saved.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def aggregate(self) -> dict:
        """name -> [calls, total seconds, self seconds]."""
        child_time = [0.0] * len(self.spans)
        for name, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        agg = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, _, t0, t1), children in zip(self.spans, child_time):
            entry = agg[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - children
        return agg

    def write(self, path):
        """Write every span as gzip CSV: index, parent, name, start and end
        in microseconds from the first span."""
        origin = self.spans[0][2] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,parent,name,start_us,end_us\n")
            for i, (name, parent, t0, t1) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{(t0 - origin) * 1e6:.3f},"
                         f"{(t1 - origin) * 1e6:.3f}\n")
