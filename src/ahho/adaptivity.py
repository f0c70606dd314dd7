"""Refinement indicators, Doerfler marking, prolongation, and the
adaptive solve-estimate-mark-refine driver."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hho import RT, STABILIZED, dof_counts, lp_integral
from .mesh import _signed_area
from .solver import minimize

STANDARD = "standard"
FHM_VARIANT = "fhm"


@dataclass
class EstimatorParams:
    eps: float
    theta: float = 0.5
    kind: str = STANDARD        # standard | fhm

    def validate(self, k, p, variant):
        if self.kind not in (STANDARD, FHM_VARIANT):
            raise ValueError(f"unknown estimator kind {self.kind!r}; expected "
                             f"{STANDARD!r} or {FHM_VARIANT!r}")
        if not (0 < self.theta < 1):
            raise ValueError("bulk parameter requires 0 < theta < 1")
        limit = k + 1.0
        if variant == STABILIZED:
            limit = min(k + 1.0, (k + 1.0) / (p - 1.0))
        if self.eps == 0.0:
            warnings.warn("eps = 0 is outside the convergent range; "
                          "accepted for experiments only")
        elif not (0 < self.eps <= limit + 1e-12):
            raise ValueError(
                f"indicator exponent requires 0 < eps <= {limit}")


@dataclass
class ElementEstimate:
    """Per-triangle indicator with its term breakdown (all >= 0)."""
    total: np.ndarray
    volume_residual: np.ndarray
    stress_projection: np.ndarray
    f_oscillation: np.ndarray
    g_oscillation: np.ndarray
    dirichlet_trace: np.ndarray
    interior_jumps: np.ndarray
    side_traces: np.ndarray
    lower_order: np.ndarray


def estimate(problem, u, stress_defect, params):
    """Per-element refinement indicator and its total.

    Implements the residual functional with |T|-power weights
    (eps*p - p)/2, eps*p'/2, p'/2, 1/2 and (eps*p + 1 - p)/2 on the
    volume residual, stress projection defect, data oscillations, and
    side terms, plus |T| times the projection defect of the lower-order
    data (zero without an L2 term); the component-map variant replaces
    the Dirichlet terms by componentwise boundary residuals and drops the
    stress term.  ``stress_defect`` is what ``problem.discrete_stress(u)``
    returns next to sigma: per triangle int_T |sigma - DW(G u)|^p'.
    """
    space = problem.space
    mesh = space.mesh
    k = space.k
    p = problem.p
    pp = p / (p - 1.0)
    eps = params.eps
    if params.kind == FHM_VARIANT and space.m < 2:
        raise ValueError("componentwise indicator needs a vector problem")

    area = space.area
    R = space.potential_reconstruction(u)

    # rules exact for the p-th powers of the polynomial residuals
    pdeg = int(np.ceil(p)) * (k + 1)
    e_pts, e_w, _, phi_k_e = space.tables(pdeg)
    spts_e, w_e, chi_e = space.side_rule(pdeg)

    # volume residual |T|^((eps*p - p)/2) ||delta_K u||_p^p and trace term
    # ||delta_S u||_p^p over the sides of T, delta_K u = Pi_T^k R u - u_T
    # and delta_S u = Pi_F^k (R u)|_T - u_F (``HhoSpace.residuals``); the
    # polytopal variant drops both projections
    if space.variant == STABILIZED:
        vol_vals = (R.at_points(e_pts)
                    - np.einsum("tmi,tqi->tqm", u.cells, phi_k_e))
        trace_vals = (R.at_points(spts_e[space.sot])
                      - np.einsum("smn,qn->sqm", u.sides, chi_e)[space.sot])
    else:
        d_k, d_s = space.residuals(u.data[space.loc2glob], R.coeffs)
        vol_vals = np.einsum("tmi,tqi->tqm", d_k, phi_k_e)
        trace_vals = np.einsum("tjmi,qi->tjqm", d_s, chi_e)
    vol_term = area ** ((eps * p - p) / 2.0) * lp_integral(e_w, vol_vals, p)
    trace_term_sides = lp_integral(space.h_f[space.sot][..., None] * w_e,
                                   trace_vals, p)

    # stress projection defect |T|^(eps*p'/2) ||sigma - DW(G u)||_{p'}^{p'}
    stress_term = (np.zeros(mesh.num_triangles) if params.kind == FHM_VARIANT
                   else area ** (eps * pp / 2.0) * stress_defect)

    # data oscillations, integrated once by the problem; the Neumann
    # sides of T enter with weight |T|^(1/2)
    f_term = area ** (pp / 2.0) * problem.f_osc
    g_term = area ** 0.5 * problem.g_osc[space.sot].sum(axis=1)

    # interior jumps || [R u]_F ||_p^p, counted once per adjacent triangle
    tplus = mesh.adjacency[:, 0]
    interior = mesh.interior_sides()
    jump_per_side = np.zeros(mesh.num_sides)
    jump_per_side[interior] = lp_integral(
        space.h_f[interior][:, None] * w_e,
        R.at_points(spts_e[interior], tplus[interior])
        - R.at_points(spts_e[interior], mesh.adjacency[interior, 1]), p)
    jump_term_sides = jump_per_side[space.sot].sum(axis=1)

    # boundary-condition residuals || (R u)_comps - target ||_p^p on the
    # sides with ``label``; the target is u_D, or zero
    dir_per_side = np.zeros(mesh.num_sides)

    def boundary_residual(label, comps, dirichlet):
        sel = mesh.boundary_sides(label)
        if len(sel) == 0:
            return
        pts, w_ref, _ = space.side_rule(problem.data_degree, sel)
        diff = R.at_points(pts, tplus[sel])[..., comps]
        if dirichlet:
            diff = diff - problem.dirichlet_data_on(sel)
        dir_per_side[sel] = lp_integral(space.h_f[sel][:, None] * w_ref,
                                        diff, p)

    if params.kind == FHM_VARIANT:
        boundary_residual("gamma1", [0], False)
        boundary_residual("gamma2", [1], False)
        boundary_residual("gamma3", slice(None), True)
    else:
        boundary_residual("dirichlet", slice(None), True)
    dir_term_sides = dir_per_side[space.sot].sum(axis=1)

    side_weight = area ** ((eps * p + 1 - p) / 2.0)
    dirichlet_term = side_weight * dir_term_sides
    jump_term = side_weight * jump_term_sides
    trace_term = side_weight * trace_term_sides

    lower_term = area * problem.zeta_osc

    total = (vol_term + stress_term + f_term + g_term + dirichlet_term
             + jump_term + trace_term + lower_term)
    est = ElementEstimate(total, vol_term, stress_term, f_term, g_term,
                          dirichlet_term, jump_term, trace_term, lower_term)
    return est, float(total.sum())


def mark_doerfler(values, theta):
    """Minimal-cardinality set M with sum over M >= theta * total.

    Greedy on descending values is optimal for this objective.  The
    values are ordered snapped to a grid of 1e-12 times the largest, with
    ties broken by the lower triangle index, so that indicators equal in
    exact arithmetic (on symmetric meshes) are not ordered by their
    rounding errors; the exact values are summed for the threshold.
    """
    if not (0 < theta < 1):
        raise ValueError("requires 0 < theta < 1")
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("indicators must be finite")
    total = values.sum()
    if total <= 0.0:
        return np.empty(0, dtype=np.int64)
    snapped = np.round(values / (1e-12 * values.max()))
    order = np.lexsort((np.arange(len(values)), -snapped))
    csum = np.cumsum(values[order])
    count = int(np.searchsorted(csum, theta * total - 1e-14 * total) + 1)
    return np.sort(order[:count])


def prolong(fine_space, J):
    """Initial guess on the refined mesh: I_{l+1} J, where J = J_l u_l is
    the companion of the coarse solution (``minimize`` resets its
    Dirichlet dofs).  The fine mesh must be a refinement of J's mesh:
    every parent index in range, and every fine centroid in its parent
    (barycentric coordinates >= -1e-12)."""
    mesh = fine_space.mesh
    coarse = J.space
    parent = mesh.parent
    if parent.min() < 0 or parent.max() >= len(coarse.corners):
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    v = coarse.corners[parent]
    lam = np.stack([_signed_area(fine_space.centroid, v[:, (j + 1) % 3],
                                 v[:, (j + 2) % 3]) for j in range(3)])
    if np.any(lam < -1e-12 * coarse.area[parent]):
        raise ValueError("fine mesh is not a refinement of the coarse mesh")
    # J evaluated through each fine triangle's coarse ancestor
    return fine_space.project(
        lambda pts, tri: J.at_points(pts, parent[tri]), 2 * J.degree)


@dataclass
class LevelRecord:
    """Raw per-level output of the driver; diagnostics enrich it.
    ``companion`` is J_l u_l, which the prolongation to the next level
    and the dual bound read; None where neither does (the last level of
    a density without a convex conjugate)."""
    level: int
    ndof: int
    ntriangles: int
    energy: float
    estimator: float
    stab: Optional[float]
    solution: object
    problem: object
    sigma: object
    companion: object
    estimates: ElementEstimate
    seconds: float
    converged: bool


def run_ahho(family, k, params, max_ndof=20000, max_levels=30,
             mode="adaptive", settings=None, variant=RT):
    """Adaptive (or uniform) solve-estimate-mark-refine loop.

    ``family`` supplies the initial mesh and per-mesh discrete problems:
    it must implement ``initial_mesh()`` and ``make_problem(mesh, k,
    variant)`` returning a DiscreteProblem.  Returns a list of
    LevelRecord, one per computed level.

    Each level solves, estimates, and then decides the next mesh: a next
    level follows when this one converged, its estimator is nonzero,
    ``max_levels`` allows it, the marked set is nonempty and the refined
    mesh has at most ``max_ndof`` dofs.  J_l u_l is built when the dual
    bound (a density with a convex conjugate) or the next level's
    prolongation reads it, and the level's space is released
    (``HhoSpace.release_tables``) right after.  The Newton tables of
    every level's problem stay until the loop returns; a returned record
    builds them again on first use.  ``LevelRecord.seconds`` spans the
    level from its problem to its release.
    """
    if mode not in ("adaptive", "uniform"):
        raise ValueError(f"unknown mode {mode!r}")
    mesh = family.initial_mesh()
    records = []
    J = None            # the coarse level's companion
    for level in range(max_levels):
        t0 = time.perf_counter()
        problem = family.make_problem(mesh, k, variant)
        params.validate(k, problem.p, variant)
        space = problem.space
        initial = problem.initial_guess() if J is None else prolong(space, J)
        sol = minimize(problem, initial, settings)
        sigma, defect = problem.discrete_stress(sol.u)
        est, eta = estimate(problem, sol.u, defect, params)
        stab = None
        if variant == STABILIZED:
            stab = space.stabilization(sol.u, sol.u, problem.p)
        # the next mesh; None ends the loop after this level.  A zero
        # estimator means the data is resolved exactly.
        fine = None
        if sol.converged and eta > 1e-16 * (1.0 + abs(sol.energy)) \
                and level + 1 < max_levels:
            if mode == "uniform":
                fine = mesh.refine_uniform()
            else:
                marked = mark_doerfler(est.total, params.theta)
                if len(marked):
                    fine = mesh.refine_nvb(marked)
            if fine is not None \
                    and sum(dof_counts(fine, k, family.m)) > max_ndof:
                fine = None
        J = None
        if fine is not None or problem.density.conjugate is not None:
            J = space.companion(sol.u)
        space.release_tables()
        records.append(LevelRecord(
            level, space.ndof, mesh.num_triangles, sol.energy, eta, stab,
            sol, problem, sigma, J, est, time.perf_counter() - t0,
            sol.converged))
        if fine is None:
            break
        mesh = fine
    for rec in records:
        rec.problem.release_tables()
    return records
