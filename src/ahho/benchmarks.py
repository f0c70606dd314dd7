"""Benchmark registry: domains, initial meshes, data closures, densities,
exact solutions, and reference energies."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import densities
from .adaptivity import FHM_VARIANT, STANDARD
from .diagnostics import CourantProblem, ExactSolution
from .hho import RT, HhoSpace
from .mesh import (DIRICHLET, GAMMA1, GAMMA2, GAMMA3, NEUMANN,
                   build_triangulation)
from .solver import DiscreteProblem


@dataclass
class BenchmarkProblem:
    """A benchmark: initial mesh factory, data closures, density, exact
    solution (optional), and the reference energy."""
    name: str
    density: object
    initial_mesh_factory: Callable
    label_rule: Callable
    dirichlet_labels: dict            # label -> tuple of constrained comps
    f: Optional[Callable] = None
    g: Optional[Callable] = None
    u_dirichlet: Optional[Callable] = None
    l2_weight: float = 0.0
    l2_data: Optional[Callable] = None
    exact: ExactSolution = field(default_factory=ExactSolution)
    reference_energy: Optional[float] = None
    indicator_kind: str = STANDARD
    singular_point: Optional[tuple] = None

    @property
    def m(self):
        return self.density.m

    def initial_mesh(self):
        return self.initial_mesh_factory(self.label_rule)

    def dirichlet_mask(self, mesh):
        """(ns, m) bool: the constrained components of every side."""
        mask = np.zeros((mesh.num_sides, self.m), dtype=bool)
        for label, comps in self.dirichlet_labels.items():
            mask[np.ix_(mesh.boundary_sides(label), comps)] = True
        return mask

    def make_problem(self, mesh, k, variant=RT):
        space = HhoSpace(mesh, k, m=self.m, variant=variant,
                         dirichlet_mask=self.dirichlet_mask(mesh))
        return DiscreteProblem(space, self.density, f=self.f, g=self.g,
                               u_dirichlet=self.u_dirichlet,
                               l2_weight=self.l2_weight,
                               l2_data=self.l2_data)

    def make_courant(self, mesh):
        return CourantProblem(mesh, self.density, self.dirichlet_mask(mesh),
                              f=self.f, g=self.g,
                              u_dirichlet=self.u_dirichlet,
                              l2_weight=self.l2_weight, l2_data=self.l2_data)


# -- initial meshes ---------------------------------------------------------------

def lshape_mesh(label_rule):
    """Six-triangle fan around the reentrant corner of
    (-1,1)^2 minus [0,1) x (-1,0]."""
    vertices = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0),
                (-1, -1), (0, -1)]
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6),
                 (0, 6, 7)]
    return build_triangulation(vertices, triangles, label_rule)


def rect_mesh(corner_hi, nx, ny):
    def factory(label_rule):
        xs = np.linspace(0.0, corner_hi[0], nx + 1)
        ys = np.linspace(0.0, corner_hi[1], ny + 1)
        return _grid(xs, ys, label_rule)
    return factory


def _grid(xs, ys, label_rule):
    nx, ny = len(xs) - 1, len(ys) - 1
    vid = lambda i, j: j * (nx + 1) + i
    vertices = [(x, y) for y in ys for x in xs]
    triangles = []
    for j in range(ny):
        for i in range(nx):
            a, b = vid(i, j), vid(i + 1, j)
            c, d = vid(i + 1, j + 1), vid(i, j + 1)
            triangles += [(a, b, c), (a, c, d)]
    return build_triangulation(vertices, triangles, label_rule)


def fhm_mesh(label_rule):
    """(-1,1) x (0,1) grid of eight squares split along diagonals; the
    origin is a mesh vertex."""
    xs = np.linspace(-1.0, 1.0, 5)
    ys = np.linspace(0.0, 1.0, 3)
    return _grid(xs, ys, label_rule)


# -- p-Laplace L-shape -------------------------------------------------------------

_ALPHA = 7.0 / 8.0


def _polar_lshape(p):
    r = np.hypot(p[..., 0], p[..., 1])
    phi = np.arctan2(p[..., 1], p[..., 0])
    phi = np.where(phi < 0, phi + 2 * np.pi, phi)
    return r, phi


def _plaplace_fields(p, u=True, grad=True, sigma=True):
    """u = r^a sin(a phi), grad u and sigma = |grad u|^2 grad u at points
    (..., 2), None where not asked for.  r, phi, cos phi, sin phi,
    sin(a phi) and cos(a phi) are computed once for all three; sin(a phi)
    serves u and the direction vector.  Both vector fields have the form
    scale r^power (sin(a phi) e_r + cos(a phi) e_phi), with r^power read
    as 1 at the origin, where they are singular."""
    r, phi = _polar_lshape(p)
    sa = np.sin(_ALPHA * phi)
    uv = np.where(r > 0, r ** _ALPHA, 0.0) * sa if u else None
    if not (grad or sigma):
        return uv, None, None
    rs = np.where(r > 0, r, 1.0)
    c, s = np.cos(phi), np.sin(phi)
    ca = np.cos(_ALPHA * phi)
    d0 = sa * c - ca * s
    d1 = sa * s + ca * c

    def field(scale, power):
        fac = scale * rs ** power
        out = np.empty(r.shape + (2,))
        out[..., 0] = fac * d0
        out[..., 1] = fac * d1
        return out

    return (uv, field(_ALPHA, _ALPHA - 1.0) if grad else None,
            field(_ALPHA ** 3, 3.0 * (_ALPHA - 1.0)) if sigma else None)


def plaplace_u(p):
    return _plaplace_fields(p, grad=False, sigma=False)[0]


def plaplace_grad(p):
    return _plaplace_fields(p, u=False, sigma=False)[1]


def plaplace_sigma(p):
    return _plaplace_fields(p, u=False, grad=False)[2]


class _PlaplaceExact(ExactSolution):
    """The L-shape minimizer: one call evaluates the polar factors once
    for u, grad u and sigma."""

    def fields(self, points):
        return _plaplace_fields(points, self.u is not None,
                                self.grad_u is not None,
                                self.sigma is not None)


def plaplace_f(p):
    r, phi = _polar_lshape(p)
    rs = np.where(r > 0, r, 1.0)
    return 343.0 / 2048.0 * rs ** (-11.0 / 8.0) * np.sin(_ALPHA * phi)


def plaplace_g(p, normals):
    return np.einsum("nd,nd->n", plaplace_sigma(p), normals)


def plaplace_labels(mid):
    x, y = mid
    on_leg_x = abs(y) < 1e-12 and x > 0
    on_leg_y = abs(x) < 1e-12 and y < 0
    return DIRICHLET if (on_leg_x or on_leg_y) else NEUMANN


def make_plaplace_lshape():
    return BenchmarkProblem(
        name="p-laplace-lshape",
        density=densities.p_laplace(4.0),
        initial_mesh_factory=lshape_mesh,
        label_rule=plaplace_labels,
        dirichlet_labels={DIRICHLET: (0,)},
        f=plaplace_f,
        g=plaplace_g,
        u_dirichlet=plaplace_u,
        exact=_PlaplaceExact(u=plaplace_u, grad_u=plaplace_grad,
                             sigma=plaplace_sigma,
                             energy=-1.4423089582447),
        reference_energy=-1.4423089582447,
        singular_point=(0.0, 0.0),
    )


# -- optimal design problem ---------------------------------------------------------

def make_odp_lshape(lam=0.0145, mu1=1.0, mu2=2.0):
    xi1 = np.sqrt(2.0 * lam * mu1 / mu2)
    xi2 = mu2 * xi1 / mu1
    par = densities.OdpParameters(mu1, mu2, xi1, xi2)
    return BenchmarkProblem(
        name="odp-lshape",
        density=densities.optimal_design(par),
        initial_mesh_factory=lshape_mesh,
        label_rule=lambda mid: DIRICHLET,
        dirichlet_labels={DIRICHLET: (0,)},
        f=lambda p: np.ones(len(p)),
        u_dirichlet=lambda p: np.zeros(len(p)),
        exact=ExactSolution(energy=-0.0745512),
        reference_energy=-0.0745512,
    )


# -- relaxed two-well ----------------------------------------------------------------

_S13 = np.sqrt(13.0)
_WELL = np.array([3.0, 2.0]) / _S13


def _rho(p):
    return (3.0 * (p[..., 0] - 1.0) + 2.0 * p[..., 1]) / _S13


def _signed_powers(r, *ns):
    """r ** n for each n, taken on |r| with the sign restored for odd n:
    numpy's ``power`` is 20 to 40 times slower on a negative base.  The
    values keep their bits for r >= 0 and move by at most 1 ulp for
    r < 0."""
    a = np.abs(r)
    return tuple(np.copysign(a ** n, r) if n % 2 else a ** n for n in ns)


def two_well_quad_datum(p):
    """Quadratic-term datum: the minimizer's branch on rho <= 0."""
    r3, r5 = _signed_powers(_rho(p), 3, 5)
    return -3.0 * r5 / 128.0 - r3 / 3.0


def two_well_u(p):
    r = _rho(p)
    r3, r5 = _signed_powers(r, 3, 5)
    return np.where(r <= 0, -3.0 * r5 / 128.0 - r3 / 3.0,
                    r3 / 24.0 + r)


def two_well_grad(p):
    r = _rho(p)
    r2 = r ** 2
    ds = np.where(r <= 0, -15.0 * np.abs(r) ** 4 / 128.0 - r2,
                  r2 / 8.0 + 1.0)          # |r| ** 4: see _signed_powers
    return ds[..., None] * _WELL


def two_well_sigma(p):
    r = _rho(p)
    c = r ** 2 / 8.0 + 1.0
    s = np.where(r <= 0, 0.0, 4.0 * c * (c ** 2 - 1.0))
    return s[..., None] * _WELL


def make_two_well_rect():
    return BenchmarkProblem(
        name="two-well-rect",
        density=densities.two_well(-_WELL, _WELL),
        initial_mesh_factory=rect_mesh((1.0, 1.5), 2, 3),
        label_rule=lambda mid: DIRICHLET,
        dirichlet_labels={DIRICHLET: (0,)},
        u_dirichlet=two_well_u,
        l2_weight=2.0,
        l2_data=two_well_quad_datum,
        exact=ExactSolution(u=two_well_u, grad_u=two_well_grad,
                            sigma=two_well_sigma, energy=0.1078147674),
        reference_energy=0.1078147674,
    )


# -- modified Foss-Hrusa-Mizel --------------------------------------------------------

def fhm_u(p):
    r = np.hypot(p[..., 0], p[..., 1])
    phi = np.arctan2(p[..., 1], p[..., 0])
    rs = np.sqrt(r)
    return np.stack([rs * np.cos(phi / 2.0), rs * np.sin(phi / 2.0)],
                    axis=-1)


def fhm_grad(p):
    r = np.hypot(p[..., 0], p[..., 1])
    phi = np.arctan2(p[..., 1], p[..., 0])
    rs = np.where(r > 0, r, 1.0)
    fac = 0.5 / np.sqrt(rs)
    c = np.cos(phi / 2.0)
    s = np.sin(phi / 2.0)
    out = np.empty(p.shape[:-1] + (2, 2))
    out[..., 0, 0] = fac * c
    out[..., 0, 1] = fac * s
    out[..., 1, 0] = -fac * s
    out[..., 1, 1] = fac * c
    return out


def fhm_labels(mid):
    x, y = mid
    if abs(y) < 1e-12:
        return GAMMA1 if x < 0 else GAMMA2
    return GAMMA3


def make_fhm_rect():
    return BenchmarkProblem(
        name="fhm-rect",
        density=densities.fhm(),
        initial_mesh_factory=fhm_mesh,
        label_rule=fhm_labels,
        dirichlet_labels={GAMMA1: (0,), GAMMA2: (1,), GAMMA3: (0, 1)},
        u_dirichlet=fhm_u,
        exact=ExactSolution(u=fhm_u, grad_u=fhm_grad, sigma=fhm_grad,
                            energy=0.88137023556),
        reference_energy=0.88137023556,
        indicator_kind=FHM_VARIANT,
        singular_point=(0.0, 0.0),
    )


# -- manufactured affine ---------------------------------------------------------------

_B_AFF = np.array([2.0, -1.0])


def affine_u(p):
    return 0.5 + p[..., 0] * _B_AFF[0] + p[..., 1] * _B_AFF[1]


def affine_labels(mid):
    return DIRICHLET if (mid[0] < 1e-12 or mid[1] < 1e-12) else NEUMANN


def make_manufactured_affine():
    return BenchmarkProblem(
        name="manufactured-affine",
        density=densities.p_laplace(2.0),
        initial_mesh_factory=rect_mesh((1.0, 1.0), 1, 1),
        label_rule=affine_labels,
        dirichlet_labels={DIRICHLET: (0,)},
        g=lambda p, nu: nu @ _B_AFF,
        u_dirichlet=affine_u,
        exact=ExactSolution(u=affine_u,
                            grad_u=lambda p: np.broadcast_to(
                                _B_AFF, p.shape[:-1] + (2,)).copy(),
                            sigma=lambda p: np.broadcast_to(
                                _B_AFF, p.shape[:-1] + (2,)).copy(),
                            energy=-1.0),
        reference_energy=-1.0,
    )


def register_benchmarks():
    """All named benchmarks (fresh instances)."""
    return {
        "p-laplace-lshape": make_plaplace_lshape,
        "odp-lshape": make_odp_lshape,
        "two-well-rect": make_two_well_rect,
        "fhm-rect": make_fhm_rect,
        "manufactured-affine": make_manufactured_affine,
    }


def get_benchmark(name):
    reg = register_benchmarks()
    if name not in reg:
        raise KeyError(f"unknown benchmark {name!r}; known: "
                       + ", ".join(sorted(reg)))
    return reg[name]()
