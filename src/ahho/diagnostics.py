"""Error norms, certified energy bounds, extrapolation, rate fits, and
the conforming Courant P1 probe.  The probe constrains the vertices of
the benchmark's Dirichlet side mask; it is a ``solver.TermProblem``, so
``solver.minimize`` minimizes it like the hybrid problem."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .densities import UnsupportedConjugate, p_laplace
from .hho import STABILIZED, _as_components, _values_at
from .poly import _read_only, affine_rule, reference_segment_rule, \
    reference_triangle_rule
from .solver import TermProblem, eval_neumann

GRADED_LEVELS = 36  # dyadic levels of the graded corner rule


@dataclass
class ExactSolution:
    """Closures of the known minimizer; any field may be None.

    :meth:`fields` evaluates all three at one point set.  Here it calls
    the closures one by one; a minimizer whose fields share work
    overrides it (the p-Laplace L-shape computes its polar factors once
    per point set for u, grad u and sigma)."""
    u: Optional[Callable] = None
    grad_u: Optional[Callable] = None
    sigma: Optional[Callable] = None
    energy: Optional[float] = None

    def fields(self, points):
        """(u, grad u, sigma) at ``points`` (..., 2), each as its closure
        returns it, None for an absent field."""
        return tuple(None if fn is None else fn(points)
                     for fn in (self.u, self.grad_u, self.sigma))

    def check_consistency(self, density, points):
        """sigma must equal DW(grad u) where both closures exist."""
        if self.grad_u is None or self.sigma is None:
            return 0.0
        g = _as_matrix(self.grad_u(points), (len(points),), -1)
        s = _as_matrix(self.sigma(points), (len(points),), -1)
        return float(np.max(np.abs(density.dw(g) - s)))


def _as_matrix(values, shape, m):
    """Values (n, 2) or (n, m, 2) at n flat points -> shape + (m, 2);
    m = -1 takes the number of components from the values."""
    g = np.asarray(values, dtype=float)
    if g.ndim == 2:
        g = g[:, None, :]
    return g.reshape(shape + (m, 2))


@dataclass
class PointFields:
    """What the error norms and the lower energy bound read on one rule
    on the triangles ``tri``: the weights (n, nq), the P_k table ``phi``
    (n, nq, ncb) at the local coordinates ``loc`` (n, nq, 2), G u and
    W'(G u) (n, nq, m, 2), and the exact u (n, nq, m), grad u and sigma
    (n, nq, m, 2) from one ``exact.fields`` call.  Absent exact fields
    are None, and so are G u and W'(G u) without grad u."""
    tri: object
    w: np.ndarray
    loc: np.ndarray
    phi: np.ndarray
    Gu: Optional[np.ndarray]
    dW: Optional[np.ndarray]
    ue: Optional[np.ndarray]
    ge: Optional[np.ndarray]
    se: Optional[np.ndarray]


class ReportFields:
    """One level's report evaluation of ``u``: the gradient
    reconstruction ``g`` (None without an exact grad u) and
    :attr:`volume`, the :class:`PointFields` on the degree ``degree``
    volume rule on all triangles (``energy_degree + 4`` by default).
    :func:`build_reports <ahho.cli.build_reports>` makes one per level
    for :func:`error_norms` and :func:`lower_energy_bound`."""

    def __init__(self, problem, u, exact, degree=None):
        self.space = problem.space
        self.density = problem.density
        self.exact = exact
        self.degree = degree or (problem.energy_degree + 4)
        self.g = self.space.gradient_reconstruction(u) \
            if exact.grad_u is not None else None

    def on(self, tri, pts, w, loc, phi):
        """The :class:`PointFields` on ``HhoSpace.rule_tables`` on ``tri``."""
        space = self.space
        m = space.m
        shape = pts.shape[:-1]
        ue, ge, se = self.exact.fields(pts.reshape(-1, 2))
        Gu = None if self.g is None \
            else space.grad_values(loc, phi, self.g.coeffs[tri])
        return PointFields(
            tri, w, loc, phi, Gu,
            None if Gu is None else self.density.dw(Gu),
            None if ue is None
            else _as_components(ue, m).reshape(shape + (m,)),
            None if ge is None else _as_matrix(ge, shape, m),
            None if se is None else _as_matrix(se, shape, m))

    @functools.cached_property
    def volume(self):
        """Built on first read, so that a larger point set evaluated
        before it (the graded corner rule) is gone when it is made."""
        return self.on(slice(None), *self.space.tables(self.degree))


@functools.lru_cache(maxsize=None)
def _graded_reference_rule(degree):
    """Dyadically graded rule on the reference triangle (0,0), (1,0),
    (0,1), graded toward the origin: ``GRADED_LEVELS`` times, the three
    children away from the origin get the degree-``degree`` rule and the
    child at the origin is split again; the last one gets the rule too.
    Built once per degree, read-only."""
    tri = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    children = []
    for _ in range(GRADED_LEVELS):
        m01 = 0.5 * (tri[0] + tri[1])
        m02 = 0.5 * (tri[0] + tri[2])
        m12 = 0.5 * (tri[1] + tri[2])
        children += [(m01, tri[1], m12), (m02, m12, tri[2]), (m01, m12, m02)]
        tri = np.array([tri[0], m01, m02])
    pts, w = affine_rule(np.array(children + [tri]),       # (nc, 3, 2)
                         *reference_triangle_rule(degree))
    return _read_only(pts.reshape(-1, 2), w.reshape(-1))


def _graded_corner_rule(corners, v_loc, degree):
    """Quadrature on triangles (..., 3, 2) with an integrable point
    singularity at local vertex ``v_loc`` (...,): dyadic grading toward the
    corner restores the accuracy a fixed-degree rule loses there.  The
    graded rule is built once on the reference triangle and mapped
    affinely; points (..., nq, 2), weights (..., nq)."""
    order = (np.asarray(v_loc)[..., None] + np.arange(3)) % 3
    tri = np.take_along_axis(np.asarray(corners, dtype=float),
                             order[..., None], axis=-2)
    return affine_rule(tri, *_graded_reference_rule(degree))


def _singular_triangles(mesh, singular_point):
    """Triangles with a vertex at the singular point, with its local index."""
    v = mesh.vertices[mesh.triangles]                      # (nt, 3, 2)
    hit = np.hypot(v[..., 0] - singular_point[0],
                   v[..., 1] - singular_point[1]) < 1e-12
    t = np.nonzero(hit.any(axis=1))[0]
    return list(zip(t.tolist(), hit[t].argmax(axis=1).tolist()))


def error_norms(problem, u, exact, degree=None, singular_point=None,
                fields=None):
    """(gradient error, stress error, volume L2 error) against the exact
    solution; missing exact fields yield None entries.

    Elements touching ``singular_point`` are integrated with a dyadically
    graded corner rule; elsewhere the fixed elevated-degree rule applies.
    Both rules have the degree of ``fields``, the level's
    :class:`ReportFields` of ``u`` (made here with ``degree`` when not
    given), which also holds the volume rule's values.  On each point set
    the exact fields come from one ``exact.fields`` call, and one P_k
    table serves both G u and u_T.
    """
    if exact.u is None and exact.grad_u is None:
        return None, None, None
    space = problem.space
    p = problem.p
    pp = p / (p - 1.0)
    if fields is None:
        fields = ReportFields(problem, u, exact, degree)

    def integrals(f, rows=slice(None)):
        """int |grad u - G u|^p, int |sigma - DW(G u)|^p' and
        int |u - u_T|^2 over the rows ``rows`` of the point fields ``f``,
        each array taken at those rows only where it is read."""
        w = f.w[rows]
        grad_pp = stress_pp = vol_pp = None
        if f.Gu is not None:
            diff = f.ge[rows] - f.Gu[rows]
            mag = np.sqrt(np.einsum("tqmd,tqmd->tq", diff, diff))
            grad_pp = np.einsum("tq,tq->", w, mag ** p)
            if f.se is not None:
                diff = f.se[rows] - f.dW[rows]
                dmag = np.sqrt(np.einsum("tqmd,tqmd->tq", diff, diff))
                stress_pp = np.einsum("tq,tq->", w, dmag ** pp)
        if f.ue is not None:
            uT = np.einsum("tmi,tqi->tqm", u.cells[f.tri][rows], f.phi[rows])
            diff = f.ue[rows] - uT
            vol_pp = np.einsum("tq,tqm,tqm->", w, diff, diff)
        return grad_pp, stress_pp, vol_pp

    if singular_point is None:
        terms = integrals(fields.volume)
    else:
        tri, v_loc = np.array(_singular_triangles(space.mesh, singular_point),
                              dtype=np.int64).reshape(-1, 2).T
        # the graded rule, which has the most points of the level, before
        # the first read of the volume rule's fields: never both at once
        graded = integrals(fields.on(tri, *space.rule_tables(
            *_graded_corner_rule(space.corners[tri], v_loc, fields.degree),
            tri)))
        rest = np.delete(np.arange(space.mesh.num_triangles), tri)
        terms = [None if a is None else a + b for a, b in zip(
            integrals(fields.volume, rest), graded)]

    grad_pp, stress_pp, vol_pp = terms
    err_grad = float(grad_pp ** (1.0 / p)) if grad_pp is not None else None
    err_stress = float(stress_pp ** (1.0 / pp)) \
        if stress_pp is not None else None
    err_vol = float(np.sqrt(vol_pp)) if vol_pp is not None else None
    return err_grad, err_stress, err_vol


def data_oscillations(problem):
    """osc(f, T) and osc_N(g, F(Gamma_N)) with the h_T / h_F weights, and
    the oscillation of the lower-order datum, from the per-element
    integrals the problem computed with its load."""
    space = problem.space
    pp = problem.p / (problem.p - 1.0)
    osc_f = float(np.sum(space.h_t * problem.f_osc) ** (1.0 / pp))
    osc_g = float(np.sum(space.h_f * problem.g_osc) ** (1.0 / pp))
    osc_zeta = problem.l2_weight \
        * float(np.sqrt(np.sum(space.h_t ** 2 * problem.zeta_osc)))
    return osc_f, osc_g, osc_zeta


def lower_energy_bound(problem, u, sigma, exact, energy=None, fields=None):
    """LEB = E_l(u_l) + int (DW(G u) - sigma) : grad(u) dx
    - (oscillations) [- s(u; I u) in the stabilized variant].

    The integral reads W'(G u) and grad u on the volume rule of
    ``fields``, the level's :class:`ReportFields` of ``u`` (made here
    when not given), and evaluates sigma from its P_k table.  Returns (leb,
    leb_without_oscillation_term).  Requires grad u.
    """
    if exact.grad_u is None:
        raise ValueError("lower energy bound needs the exact gradient")
    space = problem.space
    E = problem.energy(u) if energy is None else energy
    vol = (fields or ReportFields(problem, u, exact)).volume
    sig = space.grad_values(vol.loc, vol.phi, sigma.coeffs[vol.tri])
    corr = float(np.einsum("tq,tqmd,tqmd->", vol.w, vol.dW - sig, vol.ge))
    base = E + corr
    if space.variant == STABILIZED:
        iu = space.interpolate(exact.u, degree=problem.energy_degree + 4) \
            if exact.u else None
        if iu is None:
            raise ValueError("stabilized LEB needs the exact solution")
        base -= space.stabilization(u, iu, problem.p)
    osc_f, osc_g, osc_z = data_oscillations(problem)
    return base - (osc_f + osc_g + osc_z), base


def dual_bound(problem, u, sigma, J, energy=None):
    """Guaranteed-bound right-hand side
    RHS = E_l(u_l) - E*(sigma) + osc(f) + ||G u - grad J u||_{L2}
    with the dual energy E*(sigma) = -int W*(sigma) dx, the companion
    J = J_l u_l, and E_l(u_l) given as ``energy`` or computed.

    The companion defect enters to the first power: that is what the
    comparison of E(J u) with E_l(u) produces and what reproduces the
    reported decay of RHS under uniform refinement.
    """
    if problem.density.conjugate is None:
        raise UnsupportedConjugate(
            f"density {problem.density.name!r} has no convex conjugate")
    space = problem.space
    E = problem.energy(u) if energy is None else energy
    # dual energy with the same quadrature policy as the primal density;
    # the reports read neither rule again, so their tables are not kept
    _, w, loc, phi = space.rule_tables(
        *space.volume_rule(problem.energy_degree))
    wstar = problem.density.conjugate(
        space.grad_values(loc, phi, sigma.coeffs))
    e_dual = -float(np.sum(w * wstar))
    # companion defect, exact quadrature
    pts, w, loc, phi = space.rule_tables(
        *space.volume_rule(2 * (space.k + 2)))
    Gu = space.grad_values(loc, phi,
                           space.gradient_reconstruction(u).coeffs)
    gJ = J.grad_at_points(pts)
    defect = float(np.sqrt(np.einsum("tq,tqmd,tqmd->", w, Gu - gJ,
                                     Gu - gJ)))
    osc_f, _, _ = data_oscillations(problem)
    return E - e_dual + osc_f + defect


def aitken_extrapolate(values):
    """Aitken Delta^2 limit of the last three values.

    Returns (limit, degenerate): on a vanishing second difference the
    last value is returned with the degenerate flag set.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 3:
        raise ValueError("need at least three values")
    x0, x1, x2 = values[-3], values[-2], values[-1]
    denom = (x2 - x1) - (x1 - x0)
    if abs(denom) < 1e-300 or not np.isfinite(denom) \
            or abs(denom) < 1e-14 * max(abs(x2 - x1), abs(x1 - x0), 1e-300):
        return float(x2), True
    return float(x2 - (x2 - x1) ** 2 / denom), False


def fit_rate(ndofs, values, window=None):
    """Least-squares slope of log(values) against log(ndofs).

    Returns (slope, residual); ``window`` restricts to the last levels.
    """
    ndofs = np.asarray(ndofs, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is not None:
        ndofs = ndofs[-window:]
        values = values[-window:]
    if len(ndofs) < 2:
        raise ValueError("need at least two points")
    if np.any(values <= 0) or np.any(ndofs <= 0):
        raise ValueError("rate fit needs positive data")
    x = np.log(ndofs)
    y = np.log(values)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.sqrt(res[0])) if len(res) else 0.0
    return float(coef[0]), resid


# -- Courant P1 probe ---------------------------------------------------------------

class CourantProblem(TermProblem):
    """Conforming P1 minimization of the same energy on the same mesh, as
    a ``solver.TermProblem`` over the vertex values without cell unknowns:
    the density on the piecewise constant gradient, and the lower-order
    term as |a|^2/2 on the values at the load's rule."""

    def __init__(self, mesh, density, side_mask, f=None, g=None,
                 u_dirichlet=None, l2_weight=0.0, l2_data=None):
        self.mesh = mesh
        self.density = density
        self.m = density.m
        self.f = f
        self.g = g
        self.u_dirichlet = u_dirichlet
        self.l2_weight = float(l2_weight)
        self.l2_data = l2_data
        self._setup(np.asarray(side_mask, dtype=bool))

    def _setup(self, side_mask):
        mesh = self.mesh
        m = self.m
        nv = mesh.num_vertices
        corners = mesh.corners()
        e1 = corners[:, 1] - corners[:, 0]
        e2 = corners[:, 2] - corners[:, 0]
        self.area = mesh.areas()
        det = 2.0 * self.area
        # gradients of the barycentric basis, (nt, 2, 3)
        grads = np.empty((mesh.num_triangles, 2, 3))
        grads[:, 0, 1] = e2[:, 1] / det
        grads[:, 1, 1] = -e2[:, 0] / det
        grads[:, 0, 2] = -e1[:, 1] / det
        grads[:, 1, 2] = e1[:, 0] / det
        grads[:, :, 0] = -grads[:, :, 1] - grads[:, :, 2]

        # a vertex is constrained in the components of every constrained
        # side it ends; ``at`` accumulates over repeated vertices
        mask = np.zeros((nv, m), dtype=bool)
        np.logical_or.at(mask, mesh.sides.reshape(-1),
                         np.repeat(side_mask, 2, axis=0))
        self.dirichlet_mask = mask
        self.dirichlet_idx = np.nonzero(mask.reshape(-1))[0]
        self.dirichlet_values = np.zeros(len(self.dirichlet_idx))
        if self.u_dirichlet is not None and mask.any():
            nodes = np.nonzero(mask.any(axis=1))[0]
            vals = _values_at(self.u_dirichlet, mesh.vertices[nodes], m)
            # constrained (vertex, component) pairs in dirichlet_idx order
            self.dirichlet_values = vals[mask[nodes]]
        self.free_mask = ~mask.reshape(-1)
        self.free_idx = np.nonzero(self.free_mask)[0]

        # dof of component c at local vertex j, (nt, m, 3)
        self.loc2glob = mesh.triangles[:, None, :] * m \
            + np.arange(m)[:, None]
        self.nc = 0
        self._terms = [(grads[:, None], self.area[:, None], self.density)]
        self.constant = 0.0

        # load vector
        degree = max(int(np.ceil(self.density.p)) + 2, 6)
        ref_pts, ref_w = reference_triangle_rule(degree)
        lam = np.stack([1 - ref_pts[:, 0] - ref_pts[:, 1],
                        ref_pts[:, 0], ref_pts[:, 1]], axis=1)
        pts, wq = affine_rule(corners, ref_pts, ref_w)
        moments = np.zeros(self.loc2glob.shape)
        if self.f is not None:
            fv = _values_at(self.f, pts, m)
            moments += np.einsum("tq,qj,tqm->tmj", wq, lam, fv)
        if self.l2_weight > 0.0:
            zeta = _values_at(self.l2_data, pts, m)
            moments += self.l2_weight * np.einsum("tq,qj,tqm->tmj", wq, lam,
                                                  zeta)
            self.constant = 0.5 * self.l2_weight * float(
                np.einsum("tq,tqm,tqm->", wq, zeta, zeta))
            T = np.broadcast_to(lam[:, None, :], (len(wq), len(lam), 1, 3))
            self._terms.append((T, self.l2_weight * wq, p_laplace(2.0)))
        self.load = np.bincount(self.loc2glob.reshape(-1),
                                moments.reshape(-1), minlength=nv * m)
        neumann = mesh.boundary_sides("neumann")
        if self.g is not None and len(neumann):
            t_ref, w_ref = reference_segment_rule(degree)
            spts = mesh.side_midpoints[neumann][:, None, :] \
                + t_ref[None, :, None] * mesh.side_vectors[neumann][:, None, :]
            gv = eval_neumann(self.g, spts, mesh.normals[neumann], m)
            # the hat functions of the side's ends a and b
            lam = np.stack([0.5 - t_ref, 0.5 + t_ref], axis=1)
            mom = np.einsum("q,qj,sqm->sjm", w_ref, lam, gv) \
                * mesh.side_lengths[neumann][:, None, None]
            dof = mesh.sides[neumann][:, :, None] * m + np.arange(m)
            self.load += np.bincount(dof.reshape(-1), mom.reshape(-1),
                                     minlength=nv * m)

    def initial_guess(self):
        """Zero, with the Dirichlet dofs at their values."""
        x = np.zeros(len(self.load))
        self.apply_dirichlet(x)
        return x
