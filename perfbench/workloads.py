"""Workload definitions, seeded input meshes and output checks.

Each workload is one adaptive run of the library.  Sizes are chosen so
that one run, including the fresh interpreter that hosts it, takes a few
seconds; a benchmark run repeats it in a closed loop and reports medians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CSV_COLUMNS = ("level", "ndof", "ntriangles", "energy", "estimator", "stab",
               "err_energy", "err_grad_Lp", "err_stress_Lpprime",
               "err_vol_L2", "leb", "rhs", "seconds")

# Seed-0 per-level energies must repeat to this relative tolerance: tight
# enough that a change of the discrete answer shows, loose enough for a
# reordered floating-point summation.
ENERGY_RTOL = 1e-10


@dataclass(frozen=True)
class Workload:
    name: str
    benchmark: str
    k: int
    variant: str
    max_ndof: dict           # size name -> max_ndof
    # repetitions a run summarises: what a 60 s run fits with room for a
    # 1.3x slower program or host; later ones are recorded, not reported
    reps: int
    theta: float = 0.5


WORKLOADS = {w.name: w for w in (
    # The command users run: operator construction, prolongation and the
    # diagnostics dominate; Newton needs 4 iterations per level.
    Workload("plap-k1-cli", "p-laplace-lshape", 1, "rt",
             {"full": 3000, "tiny": 300}, 10),
    # Degenerate density: many Newton steps, line-search trials and
    # linear solves; the only workload with the L2 term.
    Workload("twowell-k0", "two-well-rect", 0, "rt",
             {"full": 2500, "tiny": 300}, 8),
)}


def seeded_mesh(mesh, seed, label_rule):
    """The initial mesh for ``seed``.

    Seed 0 returns ``mesh`` unchanged.  Any other seed renumbers vertices
    and triangles and rotates each triangle's local vertex order, keeping
    every triangle's refinement edge: the domain, the boundary labels and
    all newest-vertex bisections stay the same, while element order and
    the tie-breaks of the bulk marking change.
    """
    if seed == 0:
        return mesh
    import numpy as np
    from ahho.mesh import Triangulation

    rng = np.random.default_rng(seed)
    nv, nt = mesh.num_vertices, mesh.num_triangles
    vorder = rng.permutation(nv)             # new vertex j = old vorder[j]
    vnew = np.empty(nv, dtype=np.int64)
    vnew[vorder] = np.arange(nv)
    torder = rng.permutation(nt)
    tri = vnew[mesh.triangles[torder]]
    ref = mesh.ref_edge[torder]
    # a cyclic rotation keeps the orientation; local edge e is opposite
    # local vertex e, so the refinement edge index rotates with it
    shift = rng.integers(0, 3, nt)
    tri = np.take_along_axis(tri, (np.arange(3) + shift[:, None]) % 3,
                             axis=1)
    ref = (ref - shift) % 3
    return Triangulation(mesh.vertices[vorder], tri, ref, label_rule)


def level_row(rec):
    """The answer recorded next to the time, one dict per level."""
    return {"level": int(rec.level), "ndof": int(rec.ndof),
            "ntriangles": int(rec.ntriangles), "energy": float(rec.energy),
            "estimator": float(rec.estimator),
            "iterations": int(rec.solution.iterations),
            "converged": bool(rec.converged)}


def check_levels(levels, energy_err, expected, seed):
    """Compare one run's answer with the recorded one; returns the list
    of failed checks (empty when the run is correct)."""
    errors = []
    if not levels:
        return ["no level computed"]
    bad = [r["level"] for r in levels if not r["converged"]]
    if bad:
        errors.append(f"levels {bad} did not converge")
    bound = expected["energy_err_bound"]
    if not math.isfinite(energy_err) or energy_err > bound:
        errors.append(f"energy_err {energy_err!r} exceeds the recorded bound "
                      f"{bound!r}")
    if seed == 0:
        ndofs = [r["ndof"] for r in levels]
        tris = [r["ntriangles"] for r in levels]
        if ndofs != expected["ndof"]:
            errors.append(f"ndof sequence {ndofs} != recorded "
                          f"{expected['ndof']}")
        elif tris != expected["ntriangles"]:
            errors.append(f"triangle counts {tris} != recorded "
                          f"{expected['ntriangles']}")
        else:
            for r, e in zip(levels, expected["energy"]):
                if abs(r["energy"] - e) > ENERGY_RTOL * abs(e):
                    errors.append(f"level {r['level']} energy "
                                  f"{r['energy']!r} != recorded {e!r}")
    return errors


def check_csv(path, levels):
    """``convergence.csv``: the fixed column order, one row per level,
    and the level, ndof and energy of each computed level."""
    with open(path, encoding="ascii") as fh:
        rows = [line.rstrip("\n").split(",") for line in fh]
    if not rows or tuple(rows[0]) != CSV_COLUMNS:
        return [f"convergence.csv header {rows[:1]} != {list(CSV_COLUMNS)}"]
    body = rows[1:]
    if len(body) != len(levels):
        return [f"convergence.csv has {len(body)} rows for "
                f"{len(levels)} levels"]
    errors = []
    for row, r in zip(body, levels):
        if len(row) != len(CSV_COLUMNS) or int(row[0]) != r["level"] \
                or int(row[1]) != r["ndof"] \
                or float(row[3]) != r["energy"]:
            errors.append(f"convergence.csv row {row[:4]} does not match "
                          f"level {r['level']}")
    return errors
