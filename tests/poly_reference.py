"""Per-element reference implementations of the polynomial layer.

One triangle or side at a time, with physical-coordinate quadrature
rules: scaled monomial bases of P_k on a triangle and on a side, the
Raviart-Thomas basis RT_k, L2 projections, and the RT mass matrix.  The
library evaluates the same objects batched over the mesh (``ahho.hho``);
the tests check it against these, and against the gradient-space basis
as a zero-padded table, its divergence, and G built from the divergence
form of its defining identity.  Two energy oracles close the file:
the lower-order term 0.5*l2_weight*||zeta - v_T||^2 of the hybrid problem
in Gram form, and the conforming P1 probe's energy, gradient and Hessian
written out by hand.

Cell bases are scaled monomials centered at the centroid and scaled by
h_T = |T|^(1/2); side bases are scaled monomials in the normalized
arclength parameter t in [-1/2, 1/2].
"""

from __future__ import annotations

import numpy as np

from ahho.hho import RT, _batch_eval, _values_at
from ahho.poly import monomial_exponents, reference_segment_rule, \
    reference_triangle_rule
from ahho.solver import eval_neumann


class CellBasis:
    """Scaled monomial basis of P_k on a triangle."""

    def __init__(self, k, centroid, h):
        self.k = k
        self.centroid = np.asarray(centroid, dtype=float)
        self.h = float(h)
        self.exps = monomial_exponents(k)
        self.dim = len(self.exps)

    def _local(self, points):
        return (np.asarray(points, dtype=float) - self.centroid) / self.h

    def eval(self, points):
        """Basis values, shape (npts, dim)."""
        loc = self._local(points)
        a = self.exps[:, 0]
        b = self.exps[:, 1]
        return loc[..., 0:1] ** a * loc[..., 1:2] ** b

    def grad(self, points):
        """Basis gradients, shape (npts, dim, 2)."""
        loc = self._local(points)
        a = self.exps[:, 0]
        b = self.exps[:, 1]
        x = loc[..., 0:1]
        y = loc[..., 1:2]
        with np.errstate(invalid="ignore"):
            gx = np.where(a > 0, a * x ** np.maximum(a - 1, 0) * y ** b, 0.0)
            gy = np.where(b > 0, b * x ** a * y ** np.maximum(b - 1, 0), 0.0)
        return np.stack([gx, gy], axis=-1) / self.h

    def laplace(self, points):
        """Basis Laplacians, shape (npts, dim)."""
        loc = self._local(points)
        a = self.exps[:, 0]
        b = self.exps[:, 1]
        x = loc[..., 0:1]
        y = loc[..., 1:2]
        dxx = np.where(a > 1, a * (a - 1) * x ** np.maximum(a - 2, 0) * y ** b,
                       0.0)
        dyy = np.where(b > 1, b * (b - 1) * x ** a * y ** np.maximum(b - 2, 0),
                       0.0)
        return (dxx + dyy) / self.h ** 2


class SideBasis:
    """Scaled monomials in the arclength parameter of a side."""

    def __init__(self, k, a, b):
        self.k = k
        self.a = np.asarray(a, dtype=float)
        self.b = np.asarray(b, dtype=float)
        self.mid = 0.5 * (self.a + self.b)
        self.h = float(np.linalg.norm(self.b - self.a))
        self.tangent = (self.b - self.a) / self.h
        self.dim = k + 1

    def param(self, points):
        """Normalized arclength parameter in [-1/2, 1/2]."""
        return (np.asarray(points, dtype=float) - self.mid) @ self.tangent / self.h

    def eval(self, points):
        t = self.param(points)
        return t[..., None] ** np.arange(self.dim)


class RtBasis:
    """Raviart-Thomas basis RT_k(T) = P_k(T; R^2) + x Ptilde_k(T).

    The first 2*dim(P_k) fields are (phi_i, 0) and (0, phi_i); the last
    k+1 fields are (x - centroid)/h times the homogeneous degree-k scaled
    monomials.
    """

    def __init__(self, k, centroid, h):
        self.k = k
        self.cell = CellBasis(k, centroid, h)
        self.centroid = self.cell.centroid
        self.h = self.cell.h
        nk = self.cell.dim
        self.dim = 2 * nk + (k + 1)
        # exponents of the homogeneous degree-k part
        self.hom = np.array([(k - b, b) for b in range(k + 1)], dtype=np.int64)

    def _hom_eval(self, loc):
        a = self.hom[:, 0]
        b = self.hom[:, 1]
        return loc[..., 0:1] ** a * loc[..., 1:2] ** b

    def eval(self, points):
        """Field values, shape (npts, dim, 2)."""
        pts = np.asarray(points, dtype=float)
        phi = self.cell.eval(pts)
        npts = phi.shape[0]
        nk = self.cell.dim
        out = np.zeros((npts, self.dim, 2))
        out[:, :nk, 0] = phi
        out[:, nk:2 * nk, 1] = phi
        loc = (pts - self.centroid) / self.h
        q = self._hom_eval(loc)
        out[:, 2 * nk:, 0] = loc[:, 0:1] * q
        out[:, 2 * nk:, 1] = loc[:, 1:2] * q
        return out

    def div(self, points):
        """Divergences, shape (npts, dim)."""
        pts = np.asarray(points, dtype=float)
        gphi = self.cell.grad(pts)
        nk = self.cell.dim
        npts = gphi.shape[0]
        out = np.zeros((npts, self.dim))
        out[:, :nk] = gphi[:, :, 0]
        out[:, nk:2 * nk] = gphi[:, :, 1]
        loc = (pts - self.centroid) / self.h
        # div((x-c) q) = (2 + k) q for q homogeneous of degree k in (x-c)/h
        out[:, 2 * nk:] = (2 + self.k) * self._hom_eval(loc) / self.h
        return out

    def normal_trace(self, points, normal):
        """tau . n at points on a side, shape (npts, dim)."""
        vals = self.eval(points)
        return vals @ np.asarray(normal, dtype=float)


def padded_grad_basis(space, pts, tri=slice(None)):
    """The gradient-space basis of ``space`` at points (n, ..., 2) on the
    triangles ``tri`` (all by default), built field by field into a
    zero-padded (n, ..., ng, 2) table."""
    loc = space.local_coords(pts, tri)
    phi = _batch_eval(space.exps_k, loc)
    ncb = space.ncb
    out = np.zeros(phi.shape[:-1] + (space.ng, 2))
    out[..., :ncb, 0] = phi
    out[..., ncb:2 * ncb, 1] = phi
    if space.variant == RT:
        # the homogeneous degree-k monomials are the last k+1 of P_k
        q = phi[..., ncb - space.nsb:]
        out[..., 2 * ncb:, 0] = loc[..., 0:1] * q
        out[..., 2 * ncb:, 1] = loc[..., 1:2] * q
    return out


def grad_basis_div(space, pts):
    """Divergence of the gradient-space basis of ``space`` at points
    (nt, ..., 2), (nt, ..., ng), triangle by triangle: ``RtBasis.div``
    (RT), or the x and y derivatives of ``CellBasis`` (stabilized)."""
    k = space.k
    out = np.empty(pts.shape[:-1] + (space.ng,))
    for t in range(len(pts)):
        x = pts[t].reshape(-1, 2)
        if space.variant == RT:
            div = RtBasis(k, space.centroid[t], space.h_t[t]).div(x)
        else:
            g = CellBasis(k, space.centroid[t], space.h_t[t]).grad(x)
            div = np.concatenate((g[..., 0], g[..., 1]), axis=-1)
        out[t] = div.reshape(out.shape[1:])
    return out


def divergence_form_gradient_op(space):
    """G_op (nt, ng, nloc) from (G v, tau)_T = -(v_T, div tau)_T
    + sum_F (v_F, tau . nu_F)_F, with the Gram matrix of the padded
    basis table."""
    w = space.vol_w
    tau_vol = padded_grad_basis(space, space.vol_pts)
    gram = np.einsum("tq,tqid,tqjd->tij", w, tau_vol, tau_vol)
    div = grad_basis_div(space, space.vol_pts)
    rhs = np.zeros(gram.shape[:2] + (space.nloc,))
    rhs[:, :, :space.ncb] = -np.einsum("tq,tqi,tqj->tij", w, div,
                                       space.phi_k_vol)
    taun = np.einsum("tjqid,tjd->tjqi",
                     padded_grad_basis(space, space.side_pts_t), space.nu)
    wside = space.h_f[space.sot][:, :, None] * space.side_wref
    ncb, nsb = space.ncb, space.nsb
    for j in range(3):
        rhs[:, :, ncb + j * nsb:ncb + (j + 1) * nsb] = np.einsum(
            "tq,tqi,qn->tin", wside[:, j], taun[:, j], space.chi_ref)
    return np.linalg.solve(gram, rhs)


class QuadratureRule:
    """Points (physical coordinates) and weights with a stated exactness."""

    def __init__(self, points, weights, degree):
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)
        self.degree = degree

    def integrate(self, f):
        return self.weights @ f(self.points)


def triangle_quadrature(corners, d):
    """Quadrature on the physical triangle with given corner array (3, 2)."""
    ref_pts, ref_w = reference_triangle_rule(d)
    corners = np.asarray(corners, dtype=float)
    p0 = corners[0]
    jac = np.stack([corners[1] - p0, corners[2] - p0], axis=1)
    pts = ref_pts @ jac.T + p0
    return QuadratureRule(pts, ref_w * abs(np.linalg.det(jac)), d)


def side_quadrature(a, b, d):
    """Quadrature on the segment from a to b, exact to degree d."""
    t, w = reference_segment_rule(d)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    h = np.linalg.norm(b - a)
    pts = mid + np.outer(t, b - a)
    return QuadratureRule(pts, w * h, d)


# -- projections ---------------------------------------------------------------

def l2_project_cell(f, corners, k, degree):
    """Coefficients of the L2 projection of f onto P_k of the triangle.

    The Gram matrix is integrated exactly; f is sampled with a rule of the
    requested degree.  Orthogonality of the residual holds with respect to
    that rule.
    """
    corners = np.asarray(corners, dtype=float)
    centroid = corners.mean(axis=0)
    area = abs(_tri_area(corners))
    basis = CellBasis(k, centroid, np.sqrt(area))
    rule = triangle_quadrature(corners, max(degree, 2 * k))
    phi = basis.eval(rule.points)
    gram = phi.T @ (rule.weights[:, None] * phi)
    fvals = np.asarray(f(rule.points), dtype=float)
    rhs = phi.T @ (rule.weights * fvals)
    return np.linalg.solve(gram, rhs), basis


def l2_project_side(f, a, b, k, degree):
    """Coefficients of the L2 projection of f onto P_k of the side [a, b]."""
    basis = SideBasis(k, a, b)
    rule = side_quadrature(a, b, max(degree, 2 * k))
    chi = basis.eval(rule.points)
    gram = chi.T @ (rule.weights[:, None] * chi)
    fvals = np.asarray(f(rule.points), dtype=float)
    rhs = chi.T @ (rule.weights * fvals)
    return np.linalg.solve(gram, rhs), basis


def rt_mass_matrix(corners, k):
    """Exact Gram matrix of the RT_k basis on the triangle."""
    corners = np.asarray(corners, dtype=float)
    centroid = corners.mean(axis=0)
    area = abs(_tri_area(corners))
    basis = RtBasis(k, centroid, np.sqrt(area))
    rule = triangle_quadrature(corners, 2 * (k + 1))
    tau = basis.eval(rule.points)
    gram = np.einsum("q,qid,qjd->ij", rule.weights, tau, tau)
    return gram, basis


def rt_project(field, corners, k, degree):
    """RT_k coefficients of the L2 projection of a vector field.

    ``field(points) -> (npts, 2)``.  The Gram matrix is exact; the load is
    integrated with a rule of the requested degree.
    """
    gram, basis = rt_mass_matrix(corners, k)
    rule = triangle_quadrature(corners, max(degree, 2 * (k + 1)))
    tau = basis.eval(rule.points)
    g = np.asarray(field(rule.points), dtype=float)
    rhs = np.einsum("q,qid,qd->i", rule.weights, tau, g)
    return np.linalg.solve(gram, rhs), basis


def _tri_area(corners):
    return 0.5 * ((corners[1, 0] - corners[0, 0])
                  * (corners[2, 1] - corners[0, 1])
                  - (corners[1, 1] - corners[0, 1])
                  * (corners[2, 0] - corners[0, 0]))


# -- energy oracles ------------------------------------------------------------

class GramL2Term:
    """0.5*l2_weight*||zeta - v_T||^2 of a ``DiscreteProblem`` in Gram
    form: 0.5*l2_weight*(int zeta^2 - 2 zeta_mom . v_T + v_T . M v_T) with
    the P_k cell Gram M at the geometry rule and the moments of zeta at the
    data rule."""

    def __init__(self, prob):
        space = prob.space
        self.weight = prob.l2_weight
        self.ncell_dofs = prob.space.ncell_dofs
        self.gram = np.einsum("tq,tqi,tqj->tij", space.vol_w, space.phi_k_vol,
                              space.phi_k_vol)
        pts, w = space.volume_rule(prob.data_degree)
        phi = space.cell_eval(space.exps_k, pts)
        zv = _values_at(prob.l2_data, pts, prob.space.m)
        self.zeta_mom = space.project_cells(w, phi, zv)[0]
        self.zeta_sq = float(np.einsum("tq,tqm,tqm->", w, zv, zv))

    def energy(self, v):
        vM = np.einsum("tij,tmj->tmi", self.gram, v.cells)
        quad = np.einsum("tmi,tmi->", v.cells, vM)
        cross = np.einsum("tmi,tmi->", self.zeta_mom, v.cells)
        return 0.5 * self.weight * (self.zeta_sq - 2 * cross + quad)

    def gradient(self, v):
        """Over all dofs, zero on the skeleton."""
        vM = np.einsum("tij,tmj->tmi", self.gram, v.cells)
        grad = np.zeros(len(v.data))
        grad[:self.ncell_dofs] = (self.weight
                                  * (vM - self.zeta_mom)).reshape(-1)
        return grad

    def hessian(self):
        """Per triangle, the same for every component, (nt, ncb, ncb)."""
        return self.weight * self.gram


class CourantReference:
    """The conforming P1 probe's energy, gradient and local Hessians
    written out with the barycentric gradients: the density on the
    piecewise constant gradient, the load of f and g, and
    0.5*l2_weight*int |zeta - v|^2 at the load's rule."""

    def __init__(self, courant):
        mesh = courant.mesh
        m = self.m = courant.m
        self.triangles = mesh.triangles
        self.density = courant.density
        self.l2_weight = courant.l2_weight
        nv = mesh.num_vertices
        corners = mesh.corners()
        e1 = corners[:, 1] - corners[:, 0]
        e2 = corners[:, 2] - corners[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self.area = 0.5 * np.abs(det)
        grads = np.empty((mesh.num_triangles, 3, 2))
        grads[:, 1, 0] = e2[:, 1] / det
        grads[:, 1, 1] = -e2[:, 0] / det
        grads[:, 2, 0] = -e1[:, 1] / det
        grads[:, 2, 1] = e1[:, 0] / det
        grads[:, 0] = -grads[:, 1] - grads[:, 2]
        self.grad_lambda = grads
        # dof of each (triangle, local vertex, component)
        self.dof = mesh.triangles[:, :, None] * m + np.arange(m)

        degree = max(int(np.ceil(self.density.p)) + 2, 6)
        ref_pts, ref_w = reference_triangle_rule(degree)
        self.lam = np.stack([1 - ref_pts[:, 0] - ref_pts[:, 1],
                             ref_pts[:, 0], ref_pts[:, 1]], axis=1)
        pts = np.einsum("qj,tjd->tqd", self.lam, corners)
        self.vol_w = np.abs(det)[:, None] * ref_w[None, :]
        self.load = np.zeros(nv * m)
        if courant.f is not None:
            fv = _values_at(courant.f, pts, m)
            self.load += self._scatter(
                np.einsum("tq,qj,tqm->tjm", self.vol_w, self.lam, fv))
        neumann = mesh.boundary_sides("neumann")
        if courant.g is not None and len(neumann):
            t_ref, w_ref = reference_segment_rule(degree)
            a = mesh.vertices[mesh.sides[neumann, 0]]
            b = mesh.vertices[mesh.sides[neumann, 1]]
            spts = (0.5 * (a + b))[:, None, :] \
                + t_ref[None, :, None] * (b - a)[:, None, :]
            gv = eval_neumann(courant.g, spts, mesh.normals[neumann], m)
            h = np.linalg.norm(b - a, axis=1)
            mom_a = np.einsum("q,q,sqm->sm", w_ref, 0.5 - t_ref, gv)
            mom_b = np.einsum("q,q,sqm->sm", w_ref, 0.5 + t_ref, gv)
            dof = mesh.sides[neumann][:, :, None] * m + np.arange(m)
            self.load += np.bincount(
                dof.reshape(-1),
                (np.stack([mom_a, mom_b], axis=1) * h[:, None, None]
                 ).reshape(-1), minlength=nv * m)
        if self.l2_weight > 0.0:
            self.zeta = _values_at(courant.l2_data, pts, m)

    def _scatter(self, per_node):
        return np.bincount(self.dof.reshape(-1), per_node.reshape(-1),
                           minlength=self.load.size)

    def _gradients(self, x):
        vt = x.reshape(-1, self.m)[self.triangles]           # (nt, 3, m)
        return np.einsum("tjm,tjd->tmd", vt, self.grad_lambda)

    def _values(self, x):
        return np.einsum("qj,tjm->tqm", self.lam,
                         x.reshape(-1, self.m)[self.triangles])

    def energy(self, x):
        E = float(self.area @ self.density.w(self._gradients(x))) \
            - float(self.load @ x)
        if self.l2_weight > 0.0:
            diff = self.zeta - self._values(x)
            E += 0.5 * self.l2_weight * float(
                np.einsum("tq,tqm,tqm->", self.vol_w, diff, diff))
        return E

    def gradient(self, x):
        dW = self.density.dw(self._gradients(x))
        per_node = np.einsum("t,tmd,tjd->tjm", self.area, dW,
                             self.grad_lambda)
        if self.l2_weight > 0.0:
            per_node += self.l2_weight * np.einsum(
                "tq,qj,tqm->tjm", self.vol_w, self.lam,
                self._values(x) - self.zeta)
        return self._scatter(per_node) - self.load

    def hessian(self, x):
        """Local Hessians (nt, 3m, 3m) over the dofs ``dof`` (nt, 3, m)."""
        m = self.m
        d2 = self.density.d2w(self._gradients(x))
        H = np.einsum("t,tjd,tmdne,tke->tjmkn", self.area, self.grad_lambda,
                      d2, self.grad_lambda)
        if self.l2_weight > 0.0:
            mass = np.einsum("tq,qj,qk->tjk", self.vol_w, self.lam, self.lam)
            H += self.l2_weight * np.einsum("tjk,mn->tjmkn", mass, np.eye(m))
        return H.reshape(len(H), 3 * m, 3 * m)
