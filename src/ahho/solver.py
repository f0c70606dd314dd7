"""Discrete energy assembly and minimization.

Every discrete energy is a :class:`TermProblem`, a list of terms
(T, w, W) read as sum_terms int w W(T x) - load . x + const; its
subclasses only build their terms, load, constant and constrained dofs.
The hybrid problem (:class:`DiscreteProblem`) holds the density applied
to the reconstructed gradient, the stabilization s(v; v)/p (stabilized
variant) as the p-Laplace density on S_{K,S} v, and the lower-order term
0.5*l2_weight*||zeta - v_T||^2 as the density |a|^2/2 on the cell
values, whose cross term sits in the load and whose int zeta^2 is the
constant; the conforming P1 probe (``diagnostics.CourantProblem``) the
same energy over the vertex values.  Constrained (Dirichlet) dofs are
eliminated: the optimizer acts on the free dofs only, so prescribed
values are met exactly.

The hybrid problem's terms hold its Newton tables (the energy table B,
the stabilization table and the L2 term's table), built on first use
and again, bit for bit, after :meth:`DiscreteProblem.release_tables`.

One optimizer, damped Newton with a regularization ladder and an Armijo
search (:func:`optimize`), minimizes every discrete energy through
:func:`minimize`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .densities import p_laplace
from .hho import STABILIZED, GradField, HhoVector, _as_components, \
    _values_at, lp_integral

# Armijo trials per line search, the sufficient-decrease constant and the
# step reduction of each trial, and consecutive stalled Newton steps
# before the optimizer stops
MAX_BACKTRACKS = 60
SUFFICIENT_DECREASE = 1e-4
BACKTRACK = 0.5
NEWTON_STALL_LIMIT = 5


@dataclass
class SolverSettings:
    """Newton stops converged once the l2 norm of the free gradient is at
    most ``grad_tol``; it stops early after ``NEWTON_STALL_LIMIT``
    consecutive steps that lower the energy by at most
    ``energy_tol * (1 + |E|)``, or after ``max_iter`` steps."""
    grad_tol: float = 1e-10
    energy_tol: float = 1e-15
    max_iter: int = 50000

    def validate(self):
        for name in ("grad_tol", "energy_tol"):
            # false for the NaN and Infinity that a config file may hold
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")


@dataclass
class DiscreteSolution:
    """``u`` has the type of the vector :func:`minimize` started from."""
    u: object
    energy: float
    iterations: int
    grad_norm: float
    converged: bool


class TermProblem:
    """Energy sum_terms int w W(T x) - load . x + constant of a global
    vector x (read through ``np.asarray``), with its gradient and Newton
    system over the free dofs, which :func:`minimize` minimizes.

    A term (T, w, W) contributes int w W(T x): T (nt, nq, d, nloc) holds
    the responses at nq points of the nloc local unknowns of each
    triangle, the same for each of the m components, w (nt, nq) the
    weights, and W is an EnergyDensity of (m, d) arguments.  ``loc2glob``
    (nt, m, nloc) numbers component c of local unknown l of triangle t in
    the global vector.  The first ``nc`` local unknowns of each component
    are cell unknowns, which couple only within their triangle, are free
    and are numbered first: Newton eliminates them triangle by triangle.
    A subclass sets these, ``load``, ``constant``, ``dirichlet_idx`` and
    ``dirichlet_values``, ``free_mask`` and ``free_idx``, and provides
    ``initial_guess``."""

    # released when minimize returns: the skeleton pattern of the Newton
    # systems, and the last point with its local values
    _hess_pattern = None
    _point = None

    def apply_dirichlet(self, v):
        np.asarray(v)[self.dirichlet_idx] = self.dirichlet_values

    def _local_values(self, v, count=None):
        """T v (nt, nq, m, d) for the first ``count`` energy terms (all by
        default).  While ``minimize`` runs, the values of all terms are
        kept for the last point, so the energy, the gradient and the
        Hessian at one point compute them once."""
        x = np.asarray(v)
        point = self._point
        if point and np.array_equal(point[0], x):
            return point[1]
        local = x[self.loc2glob]
        values = [np.einsum("tqdl,tml->tqmd", T, local)
                  for T, _, _ in self._terms[:count]]
        if point is not None and count is None:
            point[:] = (x.copy(), values)
        return values

    def energy(self, v):
        return (sum(float(np.sum(w * W.w(Tv))) for (_, w, W), Tv
                    in zip(self._terms, self._local_values(v)))
                - float(self.load @ np.asarray(v)) + self.constant)

    def energy_gradient(self, v, reduced=True):
        g_loc = sum(
            np.einsum("tqmd,tqdl->tml", w[..., None, None] * W.dw(Tv), T)
            for (T, w, W), Tv in zip(self._terms, self._local_values(v)))
        grad = np.bincount(self.loc2glob.reshape(-1), g_loc.reshape(-1),
                           minlength=len(self.load)) - self.load
        return grad[self.free_idx] if reduced else grad

    def energy_hessian(self, v):
        """The Newton system at ``v`` over the free dofs, as a
        :class:`CondensedHessian` of the per-triangle Hessians
        T^T (w D^2W(T v)) T."""
        nt, m, nloc = self.loc2glob.shape
        H = 0
        for (T, w, W), Tv in zip(self._terms, self._local_values(v)):
            nq, d = T.shape[1:3]
            A = (w[..., None, None] * W.d2w(Tv).reshape(nt, nq, d * m, d * m)
                 ).reshape(nt, nq, -1, d)
            # AT[t, q, (m, d, n), f] = sum_e D2W[m, d, n, e] T[e, f]
            AT = np.matmul(A, T).reshape(nt, nq, m, d, m * nloc).transpose(
                0, 2, 1, 3, 4)
            Tt = T.reshape(nt, 1, nq * d, nloc).transpose(0, 1, 3, 2)
            # H[t, m, l, (n, f)] = sum_{q, d} T[q, d, l] AT[q, m, d, (n, f)]
            H = H + np.matmul(Tt, AT.reshape(nt, m, nq * d, m * nloc)
                              ).reshape(nt, m * nloc, m * nloc)
        if m > 1:
            # the cell dofs of every component first, as in the numbering
            idx = np.arange(m * nloc).reshape(m, nloc)
            perm = np.concatenate((idx[:, :self.nc].reshape(-1),
                                   idx[:, self.nc:].reshape(-1)))
            H = H[:, perm[:, None], perm]
        return CondensedHessian(H, m * self.nc, self._skeleton_pattern())

    def _skeleton_pattern(self):
        """:func:`hessian_pattern` of the free dofs past the cell
        unknowns, built on first use."""
        if self._hess_pattern is None:
            nt, m, _ = self.loc2glob.shape
            ncell = nt * m * self.nc
            nfs = len(self.free_idx) - ncell
            pos = np.full(len(self.load), nfs, dtype=np.int32)
            pos[self.free_idx[ncell:]] = np.arange(nfs, dtype=np.int32)
            self._hess_pattern = hessian_pattern(
                pos[self.loc2glob[:, :, self.nc:]].reshape(nt, -1), nfs)
        return self._hess_pattern


class DiscreteProblem(TermProblem):
    """Energy E_l(v) = int W(G v) - int f.v_T - int_GammaN g.v_F
    (+ s(v;v)/p when stabilized, + 0.5*l2_weight*||zeta - v_T||^2 when
    l2_weight > 0) of the hybrid unknowns, held as the terms of a
    :class:`TermProblem` over ``space.loc2glob``; its cell unknowns
    are the P_k coefficients on each triangle.

    Parameters
    ----------
    space : HhoSpace (its dirichlet_mask defines the constrained dofs)
    density : EnergyDensity
    f : volume load closure, points (n, 2) -> (n,) or (n, m); or None
    g : Neumann flux closure on sides labeled "neumann"; or None
    u_dirichlet : boundary value closure for constrained side dofs; or None
    l2_weight, l2_data : weight and closure zeta of the lower-order term
    """

    def __init__(self, space, density, f=None, g=None, u_dirichlet=None,
                 l2_weight=0.0, l2_data=None):
        if density.m != space.m:
            raise ValueError("density component count does not match space")
        self.space = space
        self.density = density
        self.f = f
        self.g = g
        self.u_dirichlet = u_dirichlet
        self.l2_weight = float(l2_weight)
        self.l2_data = l2_data
        self.stabilized = space.variant == STABILIZED
        self.p = density.p
        self.loc2glob = space.loc2glob
        self.nc = space.ncb

        k = space.k
        self.energy_degree = max(density.quad_growth * (k + 1), 2 * (k + 1))
        self.data_degree = self.energy_degree + 4

        self._assemble_static()

    # -- static data -------------------------------------------------------------

    def _assemble_static(self):
        """Energy terms, load vector, constant, Dirichlet values and the
        data oscillations: each closure is evaluated once, at the data
        rule.  ``f_osc`` and ``zeta_osc`` hold per triangle
        int_T |f - Pi_k f|^p' and int_T |zeta - Pi_k zeta|^2, ``g_osc`` per
        side int_F |g - Pi_k g|^p' (zero off the Neumann sides), and
        ``dirichlet_data`` the values of u_dirichlet (zero without it) on
        the sides with a constrained component, ``dirichlet_sides``."""
        space = self.space
        mesh = space.mesh
        m = space.m
        pp = self.p / (self.p - 1.0)
        self.load = np.zeros(space.ndof)
        load = HhoVector(space, self.load)
        self.f_osc = np.zeros(mesh.num_triangles)
        self.zeta_osc = np.zeros(mesh.num_triangles)
        self.g_osc = np.zeros(mesh.num_sides)
        pts, w, _, phi = space.rule_tables(
            *space.volume_rule(self.data_degree))
        if self.f is not None:
            fv = _values_at(self.f, pts, m)
            mom, pif = space.project_cells(w, phi, fv)
            load.cells[:] = mom
            self.f_osc = lp_integral(
                w, fv - np.einsum("tqi,tmi->tqm", phi, pif), pp)

        neumann = mesh.boundary_sides("neumann")
        if self.g is not None and len(neumann):
            spts, w_ref, chi = space.side_rule(self.data_degree, neumann)
            gv = eval_neumann(self.g, spts, mesh.normals[neumann], m)
            mom, pig = space.project_sides(w_ref, chi, gv)
            h = space.h_f[neumann]
            load.sides[neumann] = mom * h[:, None, None]
            self.g_osc[neumann] = lp_integral(
                h[:, None] * w_ref, gv - np.einsum("qi,smi->sqm", chi, pig),
                pp)

        self.dirichlet_idx = space.dirichlet_dofs()
        self.dirichlet_values = np.zeros(len(self.dirichlet_idx))
        self.dirichlet_sides = np.nonzero(
            space.dirichlet_mask.any(axis=1))[0]
        self.dirichlet_data = None
        if len(self.dirichlet_idx):
            spts, w_ref, chi = space.side_rule(self.data_degree,
                                               self.dirichlet_sides)
            if self.u_dirichlet is None:    # the dofs are held at zero
                self.dirichlet_data = np.zeros(spts.shape[:-1] + (m,))
            else:
                self.dirichlet_data = _values_at(self.u_dirichlet, spts, m)
                _, coeffs = space.project_sides(w_ref, chi,
                                                self.dirichlet_data)
                # constrained (side, component) pairs in dirichlet_dofs order
                self.dirichlet_values = coeffs[
                    space.dirichlet_mask[self.dirichlet_sides]].reshape(-1)
        self.free_mask = np.ones(space.ndof, dtype=bool)
        self.free_mask[self.dirichlet_idx] = False
        self.free_idx = np.nonzero(self.free_mask)[0]

        # 0.5*l2_weight*||zeta - v_T||^2: l2_weight*int zeta phi_i in the
        # load, int zeta^2 in the constant, and |v_T|^2/2 an energy term
        self.constant = 0.0
        if self.l2_weight > 0.0:
            zv = _values_at(self.l2_data, pts, m)
            mom, piz = space.project_cells(w, phi, zv)
            load.cells[:] += self.l2_weight * mom
            self.constant = 0.5 * self.l2_weight * float(
                np.einsum("tq,tqm,tqm->", w, zv, zv))
            self.zeta_osc = lp_integral(
                w, zv - np.einsum("tqi,tmi->tqm", phi, piz), 2.0)

    # -- Newton tables ---------------------------------------------------------------

    @property
    def _ed(self):
        """``space.energy_data`` at the energy rule: "pts", "w" and B."""
        return self.space.energy_data(self.energy_degree)

    @functools.cached_property
    def _terms(self):
        """The energy terms (T, w, density), built on first use and again
        after :meth:`release_tables`: the density on
        G v, s(v; v)/p = sum h_S^(2-p) w_ref |S_{K,S} v|^p / p when
        stabilized, and |v_T|^2/2 at a rule exact for it when
        l2_weight > 0."""
        space = self.space
        terms = [(self._ed["B"], self._ed["w"], self.density)]
        if self.stabilized:
            sd = space.stab_data(self.p)
            nt, _, _, nloc = sd["B"].shape
            terms.append((sd["B"].reshape(nt, -1, 1, nloc),
                          sd["w"].reshape(nt, -1), p_laplace(self.p)))
        if self.l2_weight > 0.0:
            pts_k, w_k = space.volume_rule(2 * space.k)
            T = np.zeros(w_k.shape + (1, space.nloc))
            T[:, :, 0, :space.ncb] = space.cell_eval(space.exps_k, pts_k)
            terms.append((T, self.l2_weight * w_k, p_laplace(2.0)))
        return terms

    def release_tables(self):
        """Drop the Newton tables (the terms); the next energy, gradient,
        Hessian or stress builds them again, bit for bit."""
        self.__dict__.pop("_terms", None)

    def dirichlet_data_on(self, sides):
        """u_dirichlet at the data rule on constrained ``sides``,
        (len(sides), nq, m)."""
        if not np.isin(sides, self.dirichlet_sides).all():
            raise ValueError("Dirichlet data requested on a side without "
                             "a constrained component")
        return self.dirichlet_data[np.searchsorted(self.dirichlet_sides,
                                                   sides)]

    def initial_guess(self):
        """Cell and skeleton unknowns equal to one, Dirichlet dofs set to
        the projected boundary values."""
        v = self.space.zero_vector()
        v.cells[:, :, 0] = 1.0
        v.sides[:, :, 0] = 1.0
        self.apply_dirichlet(v)
        return v

    def _grad_values(self, v):
        """G v at the energy quadrature points, (nt, nq, m, 2); without a
        kept point, the other terms are not evaluated."""
        return self._local_values(v, 1)[0]

    # -- stress -----------------------------------------------------------------------

    def discrete_stress(self, u):
        """sigma, the projection of DW(G u) onto the local gradient space
        at the energy rule, and its defect per triangle (nt,)
        int_T |sigma - DW(G u)|^p' on that rule."""
        space = self.space
        _, w, loc, phi = space.tables(self.energy_degree)
        dW = self.density.dw(self._grad_values(u))
        coeffs = np.linalg.solve(space.grad_gram, space.grad_moments(
            loc, phi, w[..., None, None] * dW)).transpose(0, 2, 1)
        defect = lp_integral(w, space.grad_values(loc, phi, coeffs) - dW,
                             self.p / (self.p - 1.0))
        return GradField(space, coeffs), defect


def eval_neumann(g, side_points, side_normals, m):
    """Evaluate a Neumann closure g(points, normals) on per-side point
    arrays (ns, nq, 2) with unit normals (ns, 2); returns (ns, nq, m)."""
    ns, nq = side_points.shape[:2]
    normals = np.broadcast_to(side_normals[:, None, :],
                              side_points.shape).reshape(-1, 2)
    vals = _as_components(g(side_points.reshape(-1, 2), normals), m)
    return vals.reshape(ns, nq, m)


def hessian_pattern(loc, n):
    """CSC structure of the n x n system assembled from per-element blocks
    over the local dofs ``loc`` (ne, nl), int32 indices into the n
    unknowns with n at a constrained dof, with its columns laid out in
    SuperLU's COLAMD order: column j of the matrix is unknown c with
    ``order[c] = j``.  All int32: ``indptr``, sorted row ``indices``, the
    nonzero slot of every entry of the local blocks (nnz where a
    constrained dof drops it), the slot of every diagonal entry, ``loc``
    itself, and ``order``."""
    ne, nl = loc.shape
    rows = np.broadcast_to(loc[:, :, None], (ne, nl, nl)).reshape(-1)
    cols = np.broadcast_to(loc[:, None, :], (ne, nl, nl)).reshape(-1)
    kept = (rows < n) & (cols < n)
    key, kept_slot = np.unique(cols[kept].astype(np.int64) * n
                               + rows[kept], return_inverse=True)
    order = _colamd_order(key, n)
    # the same entries keyed by their column in that order
    col_of = order.astype(np.int64)
    key, rank = np.unique(col_of[key // n] * n + key % n,
                          return_inverse=True)
    slot = np.full(kept.shape, len(key), dtype=np.int32)
    slot[kept] = rank[kept_slot]
    indptr, indices = _csc_structure(key, n)
    diag = np.searchsorted(key, col_of * n + np.arange(n)).astype(np.int32)
    return indptr, indices, slot, diag, loc, order


def _csc_structure(key, n):
    """``indptr`` and row ``indices`` (int32) of the sorted entry keys
    column * n + row of an n x n matrix."""
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, (key % n).astype(np.int32)


def _colamd_order(key, n):
    """SuperLU's column order (``perm_c`` of ``splu``, COLAMD with the
    elimination-tree postorder) for the sorted entry keys of a
    structurally symmetric n x n pattern.  COLAMD reads the structure
    only, so the incomplete factorization ``spilu`` with ``drop_tol=1``
    and ``fill_factor=1`` returns the ``perm_c`` of ``splu`` in about two
    thirds of its time; the diagonally dominant values keep it from
    breaking down."""
    indptr, indices = _csc_structure(key, n)
    counts = np.diff(indptr)
    cols = np.repeat(np.arange(n), counts)
    data = np.where(indices == cols, counts[cols], -1.0)
    A = sp.csc_matrix((data, indices, indptr), shape=(n, n))
    return spla.spilu(A, drop_tol=1, fill_factor=1).perm_c.astype(np.int32)


class CondensedHessian:
    """Newton system over the free dofs, held as per-triangle Hessians
    ``H`` (nt, nc + ns, nc + ns) with the nc cell dofs of each triangle
    first.  A cell unknown couples only with the unknowns of its own
    triangle, so ``solve`` eliminates the cell blocks triangle by triangle
    and solves the Schur complement on the free skeleton dofs, assembled
    through ``pattern`` (:func:`hessian_pattern` of the skeleton dofs).
    With nc = 0 there is nothing to eliminate: the conforming P1 probe's
    :class:`TermProblem` has no cell unknowns, so its system is the
    per-triangle Hessians over the free vertex dofs.

    ``scale`` is the largest |diagonal entry| of the assembled system."""

    def __init__(self, H, nc, pattern):
        self.H = H
        self.nc = nc
        self.pattern = pattern
        _, _, _, diag, side_loc, _ = pattern
        nfs = len(diag)
        side_diag = np.bincount(
            side_loc.reshape(-1),
            np.diagonal(H[:, nc:, nc:], axis1=1, axis2=2).reshape(-1),
            minlength=nfs + 1)[:nfs]
        self.scale = max(
            np.abs(np.diagonal(H[:, :nc, :nc], axis1=1, axis2=2)).max(
                initial=0.0),
            np.abs(side_diag).max(initial=0.0))

    def _condense(self, rhs, shift):
        """Eliminate the cell unknowns of (H + shift I) x = rhs: the Schur
        complement (CSC), its right-hand side, and the local solutions
        X = (H_cc + shift I)^{-1} [H_cs | rhs_c]."""
        H, nc = self.H, self.nc
        indptr, indices, slot, diag, side_loc, _ = self.pattern
        nt = len(H)
        nfs = len(diag)
        nnz = len(indices)
        ncell = nt * nc
        Hcc = H[:, :nc, :nc] + shift * np.eye(nc)
        B = np.concatenate((H[:, :nc, nc:], rhs[:ncell].reshape(nt, nc, 1)),
                           axis=2)
        # LAPACK solves a 1x1 system by the reciprocal pivot, so this is
        # the same result without one LAPACK call per triangle
        X = B * (1.0 / Hcc) if nc == 1 else np.linalg.solve(Hcc, B)
        HX = np.matmul(H[:, nc:, :nc], X)              # (nt, ns, ns + 1)
        S_loc = H[:, nc:, nc:] - HX[:, :, :-1]
        data = np.bincount(slot, S_loc.reshape(-1), minlength=nnz + 1)[:nnz]
        data[diag] += shift
        S = sp.csc_matrix((data, indices, indptr), shape=(nfs, nfs))
        r = rhs[ncell:] - np.bincount(side_loc.reshape(-1),
                                      HX[:, :, -1].reshape(-1),
                                      minlength=nfs + 1)[:nfs]
        return S, r, X

    def solve(self, rhs, shift):
        """(H + shift I)^{-1} rhs, for rhs over the free dofs, ordered as
        ``TermProblem.free_idx``: the cell dofs, then the skeleton."""
        S, r, X = self._condense(rhs, shift)
        # the columns of S are already in SuperLU's order
        side_loc, order = self.pattern[-2:]
        y = spla.spsolve(S, r, permc_spec="NATURAL")[order]
        # skeleton increments per triangle, zero at constrained dofs
        y_loc = np.append(y, 0.0)[side_loc]
        x_c = X[:, :, -1] - np.matmul(X[:, :, :-1], y_loc[:, :, None])[..., 0]
        return np.concatenate((x_c.reshape(-1), y))


# -- optimizer ------------------------------------------------------------------------
#
# ``fun_grad(x, energy=True, gradient=True)`` returns the pair (energy,
# gradient), with None in place of a part not asked for.

def _armijo(fun_grad, x, E, d, gd):
    """Backtracking from the full step along ``d`` (slope ``gd``) until the
    Armijo condition holds.  The trials need the energy only; the gradient
    is taken at the accepted point.  Returns (x, E, g) there, or None."""
    step = 1.0
    for _ in range(MAX_BACKTRACKS):
        x_new = x + step * d
        E_new, _ = fun_grad(x_new, gradient=False)
        if np.isfinite(E_new) and \
                E_new <= E + SUFFICIENT_DECREASE * step * gd:
            return x_new, E_new, fun_grad(x_new, energy=False)[1]
        step *= BACKTRACK
    return None


def optimize(fun_grad, hess, x0, settings):
    """Validate ``settings`` and minimize from ``x0`` by damped Newton with
    a regularization ladder and Armijo search; ``hess(x)`` returns the
    Newton system, a :class:`CondensedHessian`.  Returns (x, energy,
    iterations, gradient norm, converged)."""
    settings.validate()
    x = x0.copy()
    E, g = fun_grad(x)
    n_iter = 0
    stalls = 0
    gnorm = np.linalg.norm(g)
    while n_iter < settings.max_iter:
        if gnorm <= settings.grad_tol:
            break
        H = hess(x)
        scale = max(H.scale, 1e-30)
        d = None
        for reg in (1e-14, 1e-10, 1e-6, 1e-2):
            try:
                cand = H.solve(-g, reg * scale)
            except (RuntimeError, np.linalg.LinAlgError):
                continue
            if np.all(np.isfinite(cand)) and g @ cand < 0:
                d = cand
                break
        if d is None:
            d = -g
        gd = g @ d
        noise = 100.0 * np.finfo(float).eps * (1.0 + abs(E))
        if abs(gd) <= noise:
            # the predicted decrease is below the float64 resolution of
            # the energy: accept steps on gradient contraction instead
            for step in (1.0, 0.5, 0.25):
                x_new = x + step * d
                E_new, g_new = fun_grad(x_new)
                if np.all(np.isfinite(g_new)) \
                        and np.linalg.norm(g_new) < gnorm:
                    break
            else:           # no trial contracts the gradient
                break
            x, E, g = x_new, E_new, g_new
            gnorm = np.linalg.norm(g)
            n_iter += 1
            continue
        accepted = _armijo(fun_grad, x, E, d, gd)
        if accepted is None:
            # fall back to a gradient step before giving up
            step = 1.0 / max(gnorm, 1.0)
            x_new = x - step * g
            E_new, g_new = fun_grad(x_new)
            if not np.isfinite(E_new) or E_new >= E:
                break
        else:
            x_new, E_new, g_new = accepted
        dE = E - E_new
        x, E, g = x_new, E_new, g_new
        gnorm = np.linalg.norm(g)
        n_iter += 1
        # the energy flattens quadratically before the gradient bottoms
        # out, so a stagnation exit needs several consecutive stalls
        if dE <= settings.energy_tol * (1.0 + abs(E)):
            stalls += 1
            if stalls >= NEWTON_STALL_LIMIT:
                break
        else:
            stalls = 0
    # a plain bool: gnorm <= grad_tol is a numpy.bool_, which json rejects
    return x, E, n_iter, gnorm, bool(gnorm <= settings.grad_tol)


def minimize(problem, initial=None, settings=None):
    """Minimize the energy of the :class:`TermProblem` ``problem`` over its
    free dofs, from a copy of ``initial`` (the problem's
    ``initial_guess()`` by default) with its Dirichlet dofs reset.  The
    solution's ``u`` is that vector, updated in place.

    Deterministic: identical inputs produce the identical iterate sequence.
    """
    settings = settings or SolverSettings()
    u = problem.initial_guess() if initial is None else initial.copy()
    problem.apply_dirichlet(u)
    full = np.asarray(u)
    free = problem.free_idx

    def fun_grad(xf, energy=True, gradient=True):
        full[free] = xf
        return (problem.energy(full) if energy else None,
                problem.energy_gradient(full) if gradient else None)

    def hess(xf):
        full[free] = xf
        return problem.energy_hessian(full)

    # the adaptive loop keeps every level's problem: the last point and
    # the skeleton pattern live only as long as the solve that uses them
    problem._point = []
    try:
        x, E, it, gnorm, conv = optimize(fun_grad, hess, full[free],
                                         settings)
    finally:
        problem._point = None
        problem._hess_pattern = None

    full[free] = x
    return DiscreteSolution(u, E, it, gnorm, conv)
