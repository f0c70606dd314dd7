"""Spans around the library's public entry points, for the traced run.

Nothing here is imported by the library: :func:`install` replaces the
entry points by timing wrappers from outside, in the process of one traced
workload run.  Spans (name, start, end, parent) stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import time

# span names; each yields a "<name>_s" self time and a "<name>_calls" count
LAYERS = (
    "mesh.refine",
    "hho.space", "hho.companion",
    "solver.problem", "solver.minimize", "solver.energy", "solver.gradient",
    "solver.hessian", "solver.linsolve", "solver.stress",
    "densities.w", "densities.dw", "densities.d2w",
    "adaptivity.prolong", "adaptivity.estimate", "adaptivity.mark",
    "diagnostics.error_norms", "diagnostics.leb", "diagnostics.dual_bound",
    "cli.write",
    # opened by the workload itself; their self time is the part of the
    # run that no other span covers
    "adaptivity.run_ahho", "cli.build_reports",
)


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.spans = []         # [name id, start, end, parent index]
        self._stack = []
        self.counts = {"mesh.triangles": 0, "marked": 0, "markable": 0,
                       "cli.bytes_written": 0}
        self.newton_iters = []

    def wrap(self, name, fn, after=None):
        """``fn`` recorded as a span ``name``; ``after(args, result)``
        collects counts outside the span."""
        nid = self._ids[name]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [nid, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                after(args, result)
            return result
        return traced

    def layer_metrics(self):
        """Self time and calls per span name, plus the solver ratios."""
        minimize = self._ids["solver.minimize"]
        dur = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        in_newton = [False] * len(self.spans)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:     # parents precede their children
                child[parent] += dur[i]
                in_newton[i] = (in_newton[parent]
                                or self.spans[parent][0] == minimize)
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        newton_calls = [0] * len(self.names)
        for i, (nid, _, _, _) in enumerate(self.spans):
            self_s[nid] += dur[i] - child[i]
            calls[nid] += 1
            newton_calls[nid] += in_newton[i]
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}_s"] = self_s[nid]
            out[f"{name}_calls"] = calls[nid]
        iters = sum(self.newton_iters)
        ids = self._ids
        out["solver.newton_iters"] = iters
        out["solver.newton_iters_max"] = max(self.newton_iters, default=0)
        # energy evaluations per Newton step, line-search trials included
        out["solver.evals_per_iter"] = (newton_calls[ids["solver.energy"]]
                                        / max(iters, 1))
        # linear solves beyond one per Hessian: rejected regularizations
        out["solver.linsolve_retries"] = (
            newton_calls[ids["solver.linsolve"]]
            - newton_calls[ids["solver.hessian"]])
        out["cli.bytes_written"] = self.counts["cli.bytes_written"]
        return out

    def work_done(self):
        """Triangles made by refinement and the marked share: part of the
        answer, recorded with the run but not graded as a metric."""
        return {"mesh.triangles": self.counts["mesh.triangles"],
                "adaptivity.marked_fraction":
                    self.counts["marked"] / max(self.counts["markable"], 1)}

    def dump(self, path):
        with open(path, "w", encoding="ascii") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)

    # -- wrapping the library -----------------------------------------------

    def install(self, bench):
        """Wrap the public entry points of each layer, and the density
        fields of ``bench``."""
        import scipy.sparse.linalg as spla
        import ahho.adaptivity as adaptivity
        import ahho.cli as cli
        from ahho.hho import HhoSpace
        from ahho.mesh import Triangulation
        from ahho.solver import DiscreteProblem

        def refined(args, mesh):
            self.counts["mesh.triangles"] += mesh.num_triangles

        def marked(args, result):
            self.counts["marked"] += len(result)
            self.counts["markable"] += len(args[0])

        def solved(args, sol):
            self.newton_iters.append(int(sol.iterations))

        def written(args, result):
            self.counts["cli.bytes_written"] += os.path.getsize(args[1])

        for meth in ("refine_nvb", "refine_uniform"):
            setattr(Triangulation, meth, self.wrap(
                "mesh.refine", getattr(Triangulation, meth), refined))
        HhoSpace.__init__ = self.wrap("hho.space", HhoSpace.__init__)
        HhoSpace.companion = self.wrap("hho.companion", HhoSpace.companion)
        for attr, name in (("__init__", "solver.problem"),
                           ("energy", "solver.energy"),
                           ("energy_gradient", "solver.gradient"),
                           ("energy_hessian", "solver.hessian"),
                           ("discrete_stress", "solver.stress")):
            setattr(DiscreteProblem, attr,
                    self.wrap(name, getattr(DiscreteProblem, attr)))
        spla.spsolve = self.wrap("solver.linsolve", spla.spsolve)
        adaptivity.minimize = self.wrap("solver.minimize",
                                        adaptivity.minimize, solved)
        adaptivity.prolong = self.wrap("adaptivity.prolong",
                                       adaptivity.prolong)
        adaptivity.estimate = self.wrap("adaptivity.estimate",
                                        adaptivity.estimate)
        adaptivity.mark_doerfler = self.wrap("adaptivity.mark",
                                             adaptivity.mark_doerfler, marked)
        density = bench.density
        for field in ("w", "dw", "d2w"):
            fn = getattr(density, field)
            if fn is not None:
                setattr(density, field, self.wrap(f"densities.{field}", fn))
        cli.error_norms = self.wrap("diagnostics.error_norms",
                                    cli.error_norms)
        cli.lower_energy_bound = self.wrap("diagnostics.leb",
                                           cli.lower_energy_bound)
        cli.dual_bound = self.wrap("diagnostics.dual_bound", cli.dual_bound)
        cli.write_csv = self.wrap("cli.write", cli.write_csv, written)
        cli.write_mesh = self.wrap("cli.write", cli.write_mesh, written)
