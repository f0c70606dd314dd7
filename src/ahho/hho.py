"""Hybrid high-order spaces and reconstruction operators.

A :class:`HhoSpace` couples polynomial unknowns on cells and on the mesh
skeleton.  It reads h_T, h_F and the side geometry off the mesh, maps
every volume rule and Lagrange lattice by :func:`ahho.poly.affine_rule`,
and holds the element-local operators (gradient and potential
reconstruction, the stabilization S_{K,S}): dense matrices, batched over
all triangles, acting on the local scalar dof vector ``data[loc2glob]``

    [cell basis coefficients | side 0 | side 1 | side 2].

Vector-valued problems (m > 1) reuse the same operators componentwise.
The gradient space (RT_k, or P_k(T; R^2) when stabilized; ``ng``
fields) has two kernels, :meth:`HhoSpace.grad_values` and its adjoint
:meth:`HhoSpace.grad_moments`, through which G and the discrete stress
are projected.  :meth:`HhoSpace.residuals` maps v to delta_K v =
Pi_K^k R v - v_K and delta_S v = Pi_S^k (R v)|_S - v_S: the RT estimator
reads them for u, and S_{K,S} v = (delta_K v)|_S - delta_S v is built
from them once; s_l and its derivatives read one table per p,
:meth:`HhoSpace.stab_data`.  :meth:`HhoSpace.project` is the L2
projection onto the space, and :func:`lp_integral` the per-element sum
of w |values|^p.  :meth:`HhoSpace.companion` builds the conforming J v
from the nodal averages of R v at the P_{k+1} Lagrange nodes, keyed by
their integer lattice weights (:func:`lagrange_node_ids`), plus side and
cell bubble corrections, interpolated at the P_{k+3} lattice.

Full-mesh callers read a volume rule with its local coordinates and P_k
table from :meth:`HhoSpace.tables`.  One level cache keeps these with
the P_{k+1}, energy and stabilization tables and the construction-only
operators (``R_op``, ``grad_gram``, the side-point tables ``side_pts_t``
and ``phi_k_side``, and the geometry rule ``vol_pts``, ``vol_w``,
``phi_k_vol``); :meth:`HhoSpace.release_tables` drops them all, and each
is built again, bit for bit, on its next read.  ``G_op``, ``S_op``,
``loc2glob`` and the geometry stay.
"""

from __future__ import annotations

import numpy as np

from .densities import p_laplace
from .poly import (affine_rule, cell_dim, monomial_exponents,
                   reference_segment_rule, reference_triangle_rule)

RT = "rt"
STABILIZED = "stabilized"


def _powers(x, n):
    """x**0, ..., x**n by running products, shape x.shape + (n + 1,)."""
    out = np.empty(x.shape + (n + 1,))
    out[..., 0] = 1.0
    for j in range(1, n + 1):
        np.multiply(out[..., j - 1], x, out=out[..., j])
    return out


def _power_tables(exps, loc):
    """Running-product tables of the x and y powers the exponents use."""
    n = int(exps.max(initial=0))
    return _powers(loc[..., 0], n), _powers(loc[..., 1], n)


def _batch_eval(exps, loc):
    """Scaled monomial values; loc (..., 2) -> (..., ndim)."""
    xp, yp = _power_tables(exps, loc)
    return xp[..., exps[:, 0]] * yp[..., exps[:, 1]]


def _batch_grad(exps, loc, h):
    """Scaled monomial gradients; loc (nt, ..., 2) -> (nt, ..., ndim, 2)."""
    a = exps[:, 0]
    b = exps[:, 1]
    xp, yp = _power_tables(exps, loc)
    g = np.empty(loc.shape[:-1] + (len(exps), 2))
    g[..., 0] = a * xp[..., np.maximum(a - 1, 0)] * yp[..., b]
    g[..., 1] = b * xp[..., a] * yp[..., np.maximum(b - 1, 0)]
    return g / h.reshape(h.shape + (1,) * (g.ndim - h.ndim))


def lattice_nodes(degree):
    """The integer barycentric lattice of the degree-``degree`` Lagrange
    nodes on the triangle, each row summing to ``degree``; (dim, 3)."""
    return np.array([(degree - i - j, j, i) for i in range(degree + 1)
                     for j in range(degree + 1 - i)], dtype=np.int64)


def lagrange_node_ids(triangles, lattice):
    """Global ids of the Lagrange nodes with integer lattice weights
    ``lattice`` (nn, 3) on the triangles (nt, 3), (nt, nn), numbered
    0, 1, ... .  A node is keyed by the sorted vertex_id (degree + 1) +
    weight over the vertices of positive weight, -1 for the others, which
    is the same on every triangle that holds the node."""
    base = int(lattice[0].sum()) + 1
    key = np.sort(np.where(lattice > 0, triangles[:, None] * base + lattice,
                           -1), axis=-1).reshape(-1, 3)
    order = np.lexsort(key.T)
    new = np.ones(len(key), dtype=bool)
    new[1:] = np.any(key[order[1:]] != key[order[:-1]], axis=1)
    ids = np.empty(len(key), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids.reshape(len(triangles), len(lattice))


def dof_counts(mesh, k, m):
    """Cell and side dof counts of the degree-k space with m components."""
    return (mesh.num_triangles * m * cell_dim(k),
            mesh.num_sides * m * (k + 1))


def stabilization_degree(k, p):
    """Degree of the side rule on which s_l integrates
    |S u|^(p-2) S u . S v for degree-k traces S u, S v."""
    return max(2 * (k + 1) + k, int(np.ceil(p)) * (k + 1))


class HhoVector:
    """Coefficient vector of a hybrid space, with cell and side views."""

    def __init__(self, space, data=None):
        self.space = space
        if data is None:
            data = np.zeros(space.ndof)
        data = np.asarray(data, dtype=float)
        if data.shape != (space.ndof,):
            raise ValueError("coefficient vector has wrong length")
        self.data = data

    @property
    def cells(self):
        """(nt, m, ncb) view."""
        s = self.space
        return self.data[:s.ncell_dofs].reshape(
            s.mesh.num_triangles, s.m, s.ncb)

    @property
    def sides(self):
        """(ns, m, nsb) view."""
        s = self.space
        return self.data[s.ncell_dofs:].reshape(
            s.mesh.num_sides, s.m, s.nsb)

    def copy(self):
        return HhoVector(self.space, self.data.copy())

    def __array__(self, dtype=None, copy=None):
        """``data`` itself unless a copy or another dtype is asked for, so
        that ``np.asarray(v)`` reads and writes it (NumPy 1.x passes no
        ``copy``, and its ``np.array`` rejects ``copy=None``)."""
        if copy:
            return np.array(self.data, dtype=dtype)
        return np.asarray(self.data, dtype=dtype)


class GradField:
    """Piecewise field in the local gradient space, coefficients (nt, m, ng)."""

    def __init__(self, space, coeffs):
        self.space = space
        self.coeffs = coeffs

    def at_points(self, pts, tri=slice(None)):
        """Values at points (n, ..., 2) on the triangles ``tri`` (all by
        default) -> (n, ..., m, 2)."""
        _, _, loc, phi = self.space.rule_tables(pts, tri=tri)
        return self.space.grad_values(loc, phi, self.coeffs[tri])

    def lp_norm(self, p, degree=None):
        _, w, loc, phi = self.space.tables(degree or 2 * (self.space.k + 1))
        vals = self.space.grad_values(loc, phi, self.coeffs)
        return lp_integral(w, vals, p).sum() ** (1.0 / p)


class PiecewisePoly:
    """Piecewise polynomial on the mesh, coefficients (nt, m, dim) in the
    per-element scaled monomial basis."""

    def __init__(self, space, degree, coeffs):
        self.space = space
        self.degree = degree
        self.coeffs = coeffs
        self.exps = monomial_exponents(degree)

    def at_points(self, pts, tri=slice(None)):
        """Values at points (n, ..., 2) on the triangles ``tri`` (all by
        default) -> (n, ..., m)."""
        phi = self.space.cell_eval(self.exps, pts, tri)
        return np.einsum("t...i,tmi->t...m", phi, self.coeffs[tri])

    def grad_at_points(self, pts):
        g = self.space.cell_grad(self.exps, pts)
        return np.einsum("t...id,tmi->t...md", g, self.coeffs)


class HhoSpace:
    """Hybrid high-order space P_k(T; R^m) x P_k(F; R^m), with its batched
    geometry, rules and local operators ``G_op``, ``R_op`` and (when
    stabilized) ``S_op`` on the local values ``data[loc2glob]``.

    Parameters
    ----------
    mesh : Triangulation
    k : polynomial degree >= 0
    m : number of components
    variant : "rt" (Raviart-Thomas gradients, no stabilization) or
        "stabilized" (broken P_k matrix gradients with stabilization)
    dirichlet_mask : (ns, m) bool array marking constrained side dofs
    """

    def __init__(self, mesh, k, m=1, variant=RT, dirichlet_mask=None):
        if k < 0:
            raise ValueError("k must be >= 0")
        if variant not in (RT, STABILIZED):
            raise ValueError(f"unknown variant {variant!r}")
        self.mesh = mesh
        self.k = k
        self.m = m
        self.variant = variant
        self.ncell_dofs, self.nside_dofs = dof_counts(mesh, k, m)
        self.ndof = self.ncell_dofs + self.nside_dofs
        if dirichlet_mask is None:
            dirichlet_mask = np.zeros((mesh.num_sides, m), dtype=bool)
        self.dirichlet_mask = np.asarray(dirichlet_mask, dtype=bool)
        if self.dirichlet_mask.shape != (mesh.num_sides, m):
            raise ValueError(f"Dirichlet mask of shape "
                             f"{self.dirichlet_mask.shape}; expected "
                             f"(num_sides, m) = {(mesh.num_sides, m)}")
        boundary = mesh.adjacency[:, 1] < 0
        if np.any(self.dirichlet_mask[~boundary]):
            raise ValueError("Dirichlet mask set on an interior side")

        # batched geometry of the triangles and sides
        nt = mesh.num_triangles
        self.corners = mesh.corners()
        self.area = mesh.areas()
        self.centroid = self.corners.mean(axis=1)
        self.h_t, self.h_f = mesh.mesh_size()
        self.s_mid = mesh.side_midpoints
        self.s_vec = mesh.side_vectors
        self.s_tang = self.s_vec / self.h_f[:, None]

        self.sot = mesh.side_of_triangle
        # +1 where the triangle is T_plus of the side (normal points outward)
        self.nu_sign = np.where(
            mesh.adjacency[self.sot, 0] == np.arange(nt)[:, None], 1.0, -1.0)
        self.nu = (mesh.normals[self.sot] * self.nu_sign[..., None])

        self.exps_k = monomial_exponents(k)
        self.exps_k1 = monomial_exponents(k + 1)
        self.exps_k3 = monomial_exponents(k + 3)
        self.ncb = cell_dim(k)
        self.nk1 = cell_dim(k + 1)
        self.nsb = k + 1
        self.nloc = self.ncb + 3 * self.nsb
        # the gradient space: RT_k, or P_k(T; R^2) when stabilized
        self.ng = (k + 1) * (k + 3) if variant == RT else 2 * self.ncb

        # the volume geometry rule is exact to degree 2k+3 (``vol_pts``,
        # ``vol_w`` and ``phi_k_vol`` read its kept table), the side
        # geometry rule to degree 2k+2
        self.vol_deg = 2 * k + 3
        self._tables = {}
        self.side_deg = 2 * k + 2
        self.side_pts, self.side_wref, self.chi_ref = self.side_rule(
            self.side_deg)
        self.side_w = self.h_f[:, None] * self.side_wref[None, :]

        self._build_local_maps()
        rhs = self._gradient_rhs()
        self.G_op = np.linalg.solve(self.grad_gram, rhs)   # (nt, ng, nloc)
        self._kept("R", lambda: self._potential_op(rhs))
        if variant == STABILIZED:
            # S_{K,S} v = (delta_K v)|_S - delta_S v from the residuals of
            # the local unit vectors; delta_K v is in P_k, so the side
            # projection of its trace is its trace in the side basis
            eye = np.broadcast_to(np.eye(self.nloc), (nt,) + (self.nloc,) * 2)
            d_k, d_s = self.residuals(eye, self.R_op.transpose(0, 2, 1))
            trace = np.einsum("tjqi,tli->tjql", self.phi_k_side, d_k)
            S = self.project_sides(self.side_wref, self.chi_ref, trace)[1]
            self.S_op = (S - d_s).transpose(0, 1, 3, 2)  # (nt, 3, nsb, nloc)

    # -- dof helpers -----------------------------------------------------------

    def zero_vector(self):
        return HhoVector(self)

    def side_dof_indices(self, side, comp):
        return self.side_dofs[side, comp]

    def dirichlet_dofs(self):
        """Indices of all constrained side dofs, side by side and component
        by component."""
        return self.side_dofs[self.dirichlet_mask].reshape(-1)

    # -- rules ---------------------------------------------------------------

    def volume_rule(self, degree, tri=slice(None)):
        """Rule exact to ``degree`` on the triangles ``tri`` (all by
        default): points (n, nq, 2), weights (n, nq)."""
        return affine_rule(self.corners[tri], *reference_triangle_rule(degree))

    def side_rule(self, degree, sides=slice(None)):
        """Gauss rule exact to ``degree`` on the given sides (all by
        default): points (ns, nq, 2), weights on the reference side
        [-1/2, 1/2] (h_F times them on the side), and the side basis at
        the points, (nq, k+1)."""
        t, w = reference_segment_rule(degree)
        pts = (self.s_mid[sides][:, None, :]
               + t[None, :, None] * self.s_vec[sides][:, None, :])
        return pts, w, t[:, None] ** np.arange(self.nsb)

    def local_coords(self, pts, tri=slice(None)):
        """(x - centroid)/h_T for point arrays (n, ..., 2) on the triangles
        ``tri`` (all by default)."""
        shape = (-1,) + (1,) * (pts.ndim - 2)
        c = self.centroid[tri]
        h = self.h_t[tri].reshape(shape)
        loc = np.empty(pts.shape)
        for d in range(2):
            loc[..., d] = (pts[..., d] - c[:, d].reshape(shape)) / h
        return loc

    def rule_tables(self, pts, w=None, tri=slice(None)):
        """The rule (pts, w) on the triangles ``tri`` (all by default) with
        its local coordinates and P_k table: (pts, w, loc, phi), not kept."""
        loc = self.local_coords(pts, tri)
        return pts, w, loc, _batch_eval(self.exps_k, loc)

    # -- the level cache ---------------------------------------------------------

    def _kept(self, key, build):
        """The level-cache entry ``key``: ``build()`` on the first read
        after the space is made or released, then kept."""
        if key not in self._tables:
            self._tables[key] = build()
        return self._tables[key]

    def release_tables(self):
        """Drop every kept table and construction-only operator; the next
        read builds it again, bit for bit."""
        self._tables.clear()

    def tables(self, degree):
        """:meth:`rule_tables` of the volume rule exact to ``degree`` on all
        triangles, kept until :meth:`release_tables`."""
        return self._kept(degree, lambda: self.rule_tables(
            *self.volume_rule(degree)))

    def _phi_k1_vol(self):
        """The P_{k+1} table at the geometry rule, kept like :meth:`tables`."""
        return self._kept("k1", lambda: self.cell_eval(self.exps_k1,
                                                       self.vol_pts))

    def _side_tables(self):
        """:meth:`rule_tables` of the side geometry rule seen from each
        triangle, points (nt, 3, nqs, 2), kept like :meth:`tables`."""
        return self._kept("side", lambda: self.rule_tables(
            self.side_pts[self.sot]))

    @property
    def vol_pts(self):
        """Points (nt, nq, 2) of the volume geometry rule."""
        return self.tables(self.vol_deg)[0]

    @property
    def vol_w(self):
        """Weights (nt, nq) of the volume geometry rule."""
        return self.tables(self.vol_deg)[1]

    @property
    def phi_k_vol(self):
        """The P_k table (nt, nq, ncb) at the volume geometry rule."""
        return self.tables(self.vol_deg)[3]

    @property
    def side_pts_t(self):
        """The side geometry rule's points seen from each triangle."""
        return self._side_tables()[0]

    @property
    def phi_k_side(self):
        """The P_k table (nt, 3, nqs, ncb) at :attr:`side_pts_t`."""
        return self._side_tables()[3]

    @property
    def grad_gram(self):
        """The gradient-space Gram matrix (nt, ng, ng) on the geometry
        rule, kept like :meth:`tables`."""
        def build():
            _, w, loc, phi = self.tables(self.vol_deg)
            ng = self.ng
            eye = np.broadcast_to(np.eye(ng), (len(loc), ng, ng))
            return self.grad_moments(
                loc, phi, w[..., None, None] * self.grad_values(loc, phi, eye))
        return self._kept("gram", build)

    @property
    def R_op(self):
        """The potential reconstruction (nt, nk1, nloc), kept like
        :meth:`tables`."""
        return self._kept("R", lambda: self._potential_op(
            self._gradient_rhs()))

    def cell_eval(self, exps, pts, tri=slice(None)):
        return _batch_eval(exps, self.local_coords(pts, tri))

    def cell_grad(self, exps, pts):
        return _batch_grad(exps, self.local_coords(pts), self.h_t)

    # -- RT / gradient-space basis --------------------------------------------

    def grad_values(self, loc, phi, c):
        """Fields of the local gradient space with coefficients c (n, m, ng)
        at points with local coordinates loc (n, ..., 2) and P_k table phi
        (n, ..., ncb), (n, ..., m, 2): the first 2 ncb fields are
        (phi_i, 0) and (0, phi_i), the k+1 RT fields are x q_j with q_j
        the homogeneous degree-k monomials, the last k+1 of P_k."""
        ncb = self.ncb
        n, m = c.shape[:2]
        npt = int(np.prod(loc.shape[1:-1]))
        phi = phi.reshape(n, npt, ncb)
        # [c_x | c_y] as (n, ncb, m * 2), so the product is (n, npt, m, 2)
        cxy = c[:, :, :2 * ncb].reshape(n, m, 2, ncb).transpose(0, 3, 1, 2)
        out = np.matmul(phi, cxy.reshape(n, ncb, 2 * m)).reshape(
            n, npt, m, 2)
        if self.variant == RT:
            s = np.matmul(phi[..., ncb - self.nsb:],
                          c[:, :, 2 * ncb:].transpose(0, 2, 1))
            xy = loc.reshape(n, npt, 2)
            out[..., 0] += xy[..., 0:1] * s
            out[..., 1] += xy[..., 1:2] * s
        return out.reshape(loc.shape[:-1] + (m, 2))

    def grad_moments(self, loc, phi, vals):
        """The adjoint of :meth:`grad_values`: sum over the points of
        tau_i . vals for the gradient-space fields tau_i, from values
        (n, ..., m, 2) with the weights folded in, at points with local
        coordinates loc and P_k table phi as there; (n, ng, m)."""
        ncb = self.ncb
        n, m = len(vals), vals.shape[-2]
        npt = int(np.prod(loc.shape[1:-1]))
        phi_t = phi.reshape(n, npt, ncb).transpose(0, 2, 1)
        vals = vals.reshape(n, npt, m, 2)
        out = np.empty((n, self.ng, m))
        # the x and y blocks: (n, ncb, m * 2) -> rows [x-block | y-block]
        xy = np.matmul(phi_t, vals.reshape(n, npt, 2 * m))
        out[:, :2 * ncb] = xy.reshape(n, ncb, m, 2).transpose(
            0, 3, 1, 2).reshape(n, 2 * ncb, m)
        if self.variant == RT:
            xy = loc.reshape(n, npt, 1, 2)
            s = xy[..., 0] * vals[..., 0] + xy[..., 1] * vals[..., 1]
            out[:, 2 * ncb:] = np.matmul(phi_t[:, ncb - self.nsb:], s)
        return out

    # -- local dof bookkeeping -------------------------------------------------

    def _build_local_maps(self):
        """``side_dofs`` (ns, m, nsb), the dof numbers laid out as in
        ``HhoVector.sides``, and ``loc2glob`` (nt, m, nloc): the cell's as
        in ``HhoVector.cells``, then its sides' in local order."""
        nt, m, ncb = self.mesh.num_triangles, self.m, self.ncb
        dofs = np.arange(self.ndof)
        self.side_dofs = dofs[self.ncell_dofs:].reshape(-1, m, self.nsb)
        sides = self.side_dofs[self.sot]
        self.loc2glob = np.empty((nt, m, self.nloc), dtype=np.int64)
        self.loc2glob[..., :ncb] = dofs[:self.ncell_dofs].reshape(nt, m, ncb)
        self.loc2glob[..., ncb:] = sides.swapaxes(1, 2).reshape(nt, m, -1)

    # -- L2 projections onto P_k -------------------------------------------------

    def project_cells(self, w, phi, vals):
        """L2 projection onto P_k(T) of values (nt, nq, m) at a volume rule
        with weights (nt, nq) and P_k basis values phi (nt, nq, ncb):
        the moments int vals phi_i and the coefficients, both (nt, m, ncb)
        like ``HhoVector.cells``."""
        mom = np.einsum("tq,tqi,tqm->tmi", w, phi, vals)
        gram = np.einsum("tq,tqi,tqj->tij", w, phi, phi)
        coeffs = np.linalg.solve(gram, mom.transpose(0, 2, 1))
        return mom, coeffs.transpose(0, 2, 1)

    def project_sides(self, w_ref, chi, vals):
        """L2 projection onto P_k(F) of values (..., nq, m) at a side rule
        with reference weights w_ref and side basis chi (``side_rule``):
        the reference moments int vals chi_i (h_F times them on the side)
        and the coefficients, both (..., m, k+1) like ``HhoVector.sides``."""
        mom = np.einsum("q,qi,...qm->...mi", w_ref, chi, vals)
        gram = np.einsum("q,qi,qj->ij", w_ref, chi, chi)
        return mom, np.linalg.solve(gram, mom[..., None])[..., 0]

    # -- gradient reconstruction ---------------------------------------------------

    def _gradient_rhs(self):
        """The right-hand side (nt, ng, nloc) of G, from
        (G v, tau)_T = (grad v_T, tau)_T + sum_F (v_F - v_T, tau . nu_F)_F,
        where v_F - v_T is -phi_l for a cell unknown l and chi_n on the
        unknown's own side; G solves it with :attr:`grad_gram`."""
        ncb, nsb = self.ncb, self.nsb
        _, w, loc, phi = self.tables(self.vol_deg)
        # traces of the cell basis at the side points of each triangle
        _, _, loc_side, phi_side = self._side_tables()
        trace = np.zeros(phi_side.shape[:-1] + (self.nloc,))
        trace[..., :ncb] = -phi_side
        for j in range(3):
            trace[:, j, :, ncb + j * nsb:ncb + (j + 1) * nsb] = self.chi_ref
        wside = self.h_f[self.sot][..., None, None] * self.side_wref[:, None]
        rhs = self.grad_moments(
            loc_side, phi_side,
            (wside * trace)[..., None] * self.nu[:, :, None, None])
        rhs[:, :, :ncb] += self.grad_moments(
            loc, phi, w[..., None, None] * _batch_grad(self.exps_k, loc,
                                                       self.h_t))
        return rhs

    # -- potential reconstruction --------------------------------------------------

    def _potential_op(self, rhs_g):
        """grad R v is the L2 projection of G v onto grad P_{k+1}, a
        subspace of the gradient space, and R v has the mean of v_K:
        [D^T M D, mean; mean^T, 0] R = [D^T rhs_g; int phi_k] with M the
        gradient-space Gram and rhs_g G's right-hand side.  D (nt, ng, nk1)
        takes P_{k+1} coefficients to the gradient-space coefficients of
        their gradients: d/dx of the monomial (a, b) is a/h_T times the P_k
        monomial (a-1, b) in the x-block, d/dy is b/h_T times (a, b-1) in
        the y-block, and the RT rows stay zero."""
        D = np.zeros((self.ng, self.nk1))
        for j, (a, b) in enumerate(self.exps_k1):
            row = (a + b) * (a + b - 1) // 2   # first monomial of degree a+b-1
            if a:
                D[row + b, j] = a
            if b:
                D[self.ncb + row + b - 1, j] = b
        D = D / self.h_t[:, None, None]
        Dt = D.transpose(0, 2, 1)
        nt, nk1 = D.shape[0], self.nk1
        mean = np.einsum("tq,tqi->ti", self.vol_w, self._phi_k1_vol())
        aug = np.zeros((nt, nk1 + 1, nk1 + 1))
        aug[:, :nk1, :nk1] = Dt @ self.grad_gram @ D
        aug[:, :nk1, nk1] = mean
        aug[:, nk1, :nk1] = mean
        rhs_aug = np.zeros((nt, nk1 + 1, self.nloc))
        rhs_aug[:, :nk1] = Dt @ rhs_g
        rhs_aug[:, nk1, :self.ncb] = mean[:, :self.ncb]
        return np.linalg.solve(aug, rhs_aug)[:, :nk1]

    # -- HHO residuals -------------------------------------------------------

    def residuals(self, v_loc, r):
        """The local residuals of values v_loc (nt, m, nloc) with the
        coefficients r (nt, m, nk1) of R v: per cell
        delta_K v = Pi_K^k R v - v_K, (nt, m, ncb), and per side
        delta_S v = Pi_S^k (R v)|_S - v_S, (nt, 3, m, nsb), with the
        projections on the geometry rules."""
        n, m = v_loc.shape[:2]
        rv = np.einsum("tqi,tmi->tqm", self._phi_k1_vol(), r)
        d_k = self.project_cells(self.vol_w, self.phi_k_vol, rv)[1] \
            - v_loc[..., :self.ncb]
        rv = np.einsum("tjqi,tmi->tjqm",
                       self.cell_eval(self.exps_k1, self.side_pts_t), r)
        v_s = v_loc[..., self.ncb:].reshape(n, m, 3, self.nsb)
        d_s = self.project_sides(self.side_wref, self.chi_ref, rv)[1] \
            - v_s.transpose(0, 2, 1, 3)
        return d_k, d_s

    # -- energy-rule data (degree depends on the density) ---------------------------

    def energy_data(self, degree):
        """The energy table "B" (nt, nq, 2, nloc), G of each local unit
        vector, with "pts" and "w" of ``tables(degree)``, kept like them."""
        def build():
            pts, w, loc, phi = self.tables(degree)
            B = self.grad_values(loc, phi, self.G_op.transpose(0, 2, 1))
            return {"pts": pts, "w": w,
                    "B": np.ascontiguousarray(B.transpose(0, 1, 3, 2))}
        return self._kept(("B", degree), build)

    def stab_data(self, p):
        """The table of s_l for the exponent ``p``, on the side rule of
        ``stabilization_degree`` (stabilized spaces only, kept like
        :meth:`tables`): "B" (nt, 3, nq, nloc), the responses of S_{K,S}
        at the side points, and "w" (nt, 3, nq), the weights
        h_S^(2-p) w_ref, the rule on the side (h_S w_ref) times h_S^(1-p)."""
        def build():
            _, w_ref, chi = self.side_rule(stabilization_degree(self.k, p))
            h = self.h_f[self.sot]
            return {"B": np.einsum("qn,tjnl->tjql", chi, self.S_op),
                    "w": h[..., None] ** (2.0 - p) * w_ref}
        return self._kept(("S", p), build)

    # -- projection and interpolation ----------------------------------------

    def project(self, values, degree):
        """The cell and side L2 projections onto P_k, at rules exact to
        ``degree``, of ``values(pts, tri)``: the values (n, ..., m) at
        points (n, ..., 2) in the triangles ``tri``, which are all
        triangles for the cell points and each side's T_plus for the side
        points."""
        pts, w, _, phi = self.tables(degree)
        spts, w_ref, chi = self.side_rule(degree)
        v = self.zero_vector()
        v.cells[:] = self.project_cells(
            w, phi, values(pts, np.arange(self.mesh.num_triangles)))[1]
        v.sides[:] = self.project_sides(
            w_ref, chi, values(spts, self.mesh.adjacency[:, 0]))[1]
        return v

    def interpolate(self, fn, degree=None):
        """I_l v, the projection of ``fn(points (..., 2)) -> (..., m)``
        (or (...,) when m == 1)."""
        return self.project(lambda pts, tri: _values_at(fn, pts, self.m),
                            max(degree or (2 * self.k + 8), 2 * self.k))

    # -- reconstructions -----------------------------------------------------------

    def gradient_reconstruction(self, v):
        loc = v.data[self.loc2glob]
        coeffs = np.einsum("til,tml->tmi", self.G_op, loc)
        return GradField(self, coeffs)

    def potential_reconstruction(self, v):
        loc = v.data[self.loc2glob]
        coeffs = np.einsum("til,tml->tmi", self.R_op, loc)
        return PiecewisePoly(self, self.k + 1, coeffs)

    def stabilization(self, u, v, p, return_parts=False):
        """s_l(u; v) = sum_K sum_S h_S^{1-p} int_S |S u|^(p-2) S u . S v,
        the p-Laplace DW(S u) . S v, with the parts per element (nt,) and
        per side (nt, 3) on request."""
        sd = self.stab_data(p)
        Su = np.einsum("tjql,tml->tjqm", sd["B"], u.data[self.loc2glob])
        Sv = Su if v is u else np.einsum("tjql,tml->tjqm", sd["B"],
                                         v.data[self.loc2glob])
        dW = p_laplace(p).dw(Su[..., None])[..., 0]
        per_side = np.einsum("tjq,tjqm,tjqm->tj", sd["w"], dW, Sv)
        per_elem = per_side.sum(axis=1)
        total = float(per_elem.sum())
        if return_parts:
            return total, per_elem, per_side
        return total

    def companion(self, v):
        """Conforming companion J v in P_{k+3}: globally continuous, it
        keeps all cell and side moments of degree <= k.  The nodal averages
        w of R v at the P_{k+1} Lagrange nodes, plus side bubbles
        lambda_a lambda_b q_F and a cell bubble lambda_1 lambda_2 lambda_3
        q_T that restore the side and then the cell moments, interpolated
        at the P_{k+3} lattice."""
        k, m = self.k, self.m
        mesh = self.mesh
        nt = mesh.num_triangles

        lat = lattice_nodes(k + 1)
        gid = lagrange_node_ids(mesh.triangles, lat).reshape(-1)
        nodes = affine_rule(self.corners, lat[:, 1:] / (k + 1))
        vand = self.cell_eval(self.exps_k1, nodes)           # (nt, nn1, nk1)
        r = np.einsum("tni,tmi->tnm", vand,
                      self.potential_reconstruction(v).coeffs).reshape(-1, m)
        avg = np.stack([np.bincount(gid, r[:, c]) for c in range(m)],
                       axis=-1) / np.bincount(gid)[:, None]
        w = PiecewisePoly(self, k + 1, np.linalg.solve(
            vand[:, None], avg[gid].reshape(nt, -1, m).transpose(
                0, 2, 1)[..., None])[..., 0])                # (nt, m, nk1)

        # side bubbles b_F q_F, b_F(t) = 1/4 - t^2, with Pi_F^k (w + b_F q_F)
        # = v_F on every side
        t, _ = reference_segment_rule(self.side_deg)
        gram = np.einsum("q,q,qi,qj->ij", self.side_wref, 0.25 - t ** 2,
                         self.chi_ref, self.chi_ref)
        resid = (np.einsum("smn,qn->sqm", v.sides, self.chi_ref)
                 - w.at_points(self.side_pts, mesh.adjacency[:, 0]))
        qF = np.linalg.solve(gram, np.einsum(                # (ns, nsb, m)
            "q,qi,sqm->sim", self.side_wref, self.chi_ref, resid))

        def side_bubbles(pts, lam):
            """The three side bubbles at points (nt, n, 2) with barycentric
            coordinates lam (n, 3); q_F is extended constant along the
            side's normal."""
            corr = np.zeros(pts.shape[:-1] + (m,))
            for j in range(3):
                s = self.sot[:, j]
                t_par = np.einsum("tnd,td->tn", pts - self.s_mid[s][:, None],
                                  self.s_tang[s]) / self.h_f[s][:, None]
                corr += (lam[:, (j + 1) % 3] * lam[:, (j + 2) % 3])[:, None] \
                    * np.einsum("tnl,tlm->tnm", _powers(t_par, k), qF[s])
            return corr

        # cell bubble b_T q_T with Pi_T^k (w + side bubbles + b_T q_T) = v_T;
        # the reference rule's (x, y) are lambda_1 and lambda_2
        ref = reference_triangle_rule(self.vol_deg)[0]
        lam = np.column_stack([1.0 - ref[:, 0] - ref[:, 1], ref])
        phi = self.phi_k_vol
        resid = (np.einsum("tmi,tqi->tqm", v.cells, phi)
                 - (np.einsum("tqi,tmi->tqm", self._phi_k1_vol(), w.coeffs)
                    + side_bubbles(self.vol_pts, lam)))
        qT = np.linalg.solve(                                # (nt, ncb, m)
            np.einsum("tq,q,tqi,tqj->tij", self.vol_w, lam.prod(axis=-1),
                      phi, phi),
            np.einsum("tq,tqi,tqm->tim", self.vol_w, phi, resid))

        # interpolation at the P_{k+3} lattice
        lam = lattice_nodes(k + 3) / (k + 3)
        nodes = affine_rule(self.corners, lam[:, 1:])
        vand = self.cell_eval(self.exps_k3, nodes)           # (nt, nn3, nk3)
        vals = w.at_points(nodes) + side_bubbles(nodes, lam) \
            + lam.prod(axis=-1)[:, None] \
            * np.einsum("tni,tim->tnm", vand[..., :self.ncb], qT)
        return PiecewisePoly(self, k + 3, np.linalg.solve(
            vand, vals).transpose(0, 2, 1))

    # -- seminorm ------------------------------------------------------------------

    def seminorm(self, v, p):
        """||v||_l^p = ||grad_pw v_T||_p^p + sum_T sum_F h_F^{1-p}
        ||v_T - v_F||_{L^p(F)}^p, returned as the p-th root."""
        gv = np.einsum("tqid,tmi->tqmd",
                       self.cell_grad(self.exps_k, self.vol_pts), v.cells)
        vT_side = np.einsum("tmi,tjqi->tjqm", v.cells, self.phi_k_side)
        vF = np.einsum("smn,qn->sqm", v.sides, self.chi_ref)[self.sot]
        # h_F^(1-p) times the rule on the side, h_F w_ref
        w_side = self.h_f[self.sot][..., None] ** (2.0 - p) * self.side_wref
        total = (lp_integral(self.vol_w, gv, p).sum()
                 + lp_integral(w_side, vT_side - vF, p).sum())
        return total ** (1.0 / p)


def lp_integral(w, vals, p):
    """Per element (the first axis) sum over the points of w |vals|^p,
    for weights w (n, ...) and values (n, ..., *value axes) with the
    Frobenius norm over the value axes; (n,)."""
    n, npt = len(w), int(np.prod(w.shape[1:]))
    vals = vals.reshape(n, npt, int(np.prod(vals.shape[w.ndim:])))
    mag = np.sqrt(np.einsum("nqi,nqi->nq", vals, vals))
    return np.einsum("nq,nq->n", w.reshape(n, npt), mag ** p)


def _as_components(vals, m):
    """Normalize function output to shape (npts, m)."""
    vals = np.asarray(vals, dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[-1] != m:
        raise ValueError(f"expected {m} components, got shape {vals.shape}")
    return vals


def _values_at(fn, pts, m):
    """``fn`` at points (..., 2) as values (..., m)."""
    return _as_components(fn(pts.reshape(-1, 2)), m).reshape(
        pts.shape[:-1] + (m,))
