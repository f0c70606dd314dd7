"""Convex energy densities W with derivatives and convex conjugates.

All callables are vectorized over matrix arguments of shape (..., m, 2):
``w`` returns (...), ``dw`` returns (..., m, 2), ``d2w`` returns
(..., m, 2, m, 2).  ``conjugate`` is present only where the dual bound is
used (p-Laplacian and the optimal design density).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

# floor of |A| in the Hessians of the radial densities, which divide by it
_D2W_FLOOR = 1e-12


@dataclass
class EnergyDensity:
    name: str
    p: float
    m: int
    w: Callable
    dw: Callable
    d2w: Callable
    conjugate: Optional[Callable] = None
    # smallest integer q such that A -> W(A) is (piecewise) polynomial of
    # degree q; drives the quadrature exactness policy q*(k+1)
    quad_growth: int = 0
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.quad_growth == 0:
            self.quad_growth = int(np.ceil(self.p))


class UnsupportedConjugate(Exception):
    """Density has no implemented convex conjugate."""


def _norm(A):
    return np.sqrt(np.einsum("...md,...md->...", A, A))


def p_laplace(p):
    """W(a) = |a|^p / p with DW(a) = |a|^(p-2) a, for arguments of any
    trailing shape (m, d): the stabilized energy applies it to S_{K,S} v
    with d = 1."""
    if p <= 1:
        raise ValueError("p-Laplace requires p > 1")

    def w(A):
        return _norm(A) ** p / p

    def dw(A):
        r = _norm(A)
        if p >= 2:
            fac = r ** (p - 2)
        else:
            fac = np.zeros_like(r)
            nz = r > 0
            fac[nz] = r[nz] ** (p - 2)
        return fac[..., None, None] * A

    def d2w(A):
        r = np.maximum(_norm(A), _D2W_FLOOR)[..., None, None, None, None]
        m, d = A.shape[-2:]
        h = r ** (p - 2) * np.eye(m * d).reshape(m, d, m, d)
        if p != 2:
            h += (p - 2) * r ** (p - 4) \
                * np.einsum("...md,...ne->...mdne", A, A)
        return h

    def conj(S):
        q = p / (p - 1)
        return _norm(S) ** q / q

    return EnergyDensity("p-laplace", float(p), 1, w, dw, d2w, conj,
                         quad_growth=int(np.ceil(p)),
                         params={"p": float(p)})


@dataclass
class OdpParameters:
    mu1: float
    mu2: float
    xi1: float
    xi2: float

    def validate(self):
        if not (0 < self.xi1 < self.xi2):
            raise ValueError("requires 0 < xi1 < xi2")
        if not (0 < self.mu1 < self.mu2):
            raise ValueError("requires 0 < mu1 < mu2")
        if abs(self.xi1 * self.mu2 - self.xi2 * self.mu1) > 1e-12 * \
                self.xi2 * self.mu1:
            raise ValueError("requires xi1*mu2 == xi2*mu1 (C1 continuity)")


def optimal_design(params):
    """Two-phase optimal design density W(a) = psi(|a|) with the
    three-branch C1 function psi."""
    params.validate()
    mu1, mu2, xi1, xi2 = params.mu1, params.mu2, params.xi1, params.xi2
    # constant making the third branch continuous at xi2
    c3 = -xi1 * mu2 * (xi1 / 2 - xi2 / 2)

    def psi(xi):
        return np.where(
            xi <= xi1, mu2 * xi ** 2 / 2,
            np.where(xi <= xi2, xi1 * mu2 * (xi - xi1 / 2),
                     mu1 * xi ** 2 / 2 + c3))

    def dpsi(xi):
        return np.where(xi <= xi1, mu2 * xi,
                        np.where(xi <= xi2, xi1 * mu2, mu1 * xi))

    def ddpsi(xi):
        return np.where(xi <= xi1, mu2, np.where(xi <= xi2, 0.0, mu1))

    def w(A):
        return psi(_norm(A))

    def dw(A):
        r = _norm(A)
        fac = np.zeros_like(r)
        nz = r > 0
        fac[nz] = dpsi(r[nz]) / r[nz]
        return fac[..., None, None] * A

    def d2w(A):
        r = np.maximum(_norm(A), _D2W_FLOOR)
        a = A[..., 0, :] / r[..., None]
        eye = np.eye(2)
        radial = ddpsi(r)
        tangential = dpsi(r) / r
        h = np.zeros(A.shape[:-2] + (1, 2, 1, 2))
        aa = np.einsum("...d,...e->...de", a, a)
        h[..., 0, :, 0, :] = (tangential[..., None, None] * (eye - aa)
                              + radial[..., None, None] * aa)
        return h

    def conj(S):
        # piecewise Legendre transform of psi: the plateau of dpsi at
        # xi1*mu2 maps branches 1 and 3 onto |s| <= mu2*xi1 and beyond
        s = _norm(S)
        thresh = mu2 * xi1
        return np.where(s <= thresh, s ** 2 / (2 * mu2),
                        s ** 2 / (2 * mu1) - xi1 * mu2 * (xi2 - xi1) / 2)

    return EnergyDensity("optimal-design", 2.0, 1, w, dw, d2w, conj,
                         quad_growth=2,
                         params={"mu1": mu1, "mu2": mu2,
                                 "xi1": xi1, "xi2": xi2})


def two_well(F1, F2):
    """Convex envelope of |F - F1|^2 |F - F2|^2."""
    F1 = np.asarray(F1, dtype=float)
    F2 = np.asarray(F2, dtype=float)
    if np.allclose(F1, F2):
        raise ValueError("wells must be distinct")
    A = (F2 - F1) / 2
    B = (F1 + F2) / 2
    a2 = float(A @ A)

    A0, A1 = A
    B0, B1 = B

    def _components(M):
        """d = M - B in components, |d|^2 and d . A."""
        d0 = M[..., 0, 0] - B0
        d1 = M[..., 0, 1] - B1
        return d0, d1, d0 * d0 + d1 * d1, d0 * A0 + d1 * A1

    def w(M):
        _, _, d2, ad = _components(M)
        return np.maximum(0.0, d2 - a2) ** 2 + 4 * (a2 * d2 - ad ** 2)

    def dw(M):
        d0, d1, d2, ad = _components(M)
        t = 4 * np.maximum(0.0, d2 - a2)
        g = np.empty(M.shape)
        g[..., 0, 0] = t * d0 + 8 * (a2 * d0 - ad * A0)
        g[..., 0, 1] = t * d1 + 8 * (a2 * d1 - ad * A1)
        return g

    def d2w(M):
        d0, d1, d2, _ = _components(M)
        t = 4 * np.maximum(0.0, d2 - a2)
        # 8 d (x) d where |d| > |a|, zero elsewhere
        c = 8.0 * (d2 > a2)
        h = np.empty(M.shape[:-2] + (1, 2, 1, 2))
        h[..., 0, 0, 0, 0] = (t + c * (d0 * d0)) + 8 * (a2 - A0 * A0)
        h[..., 0, 1, 0, 1] = (t + c * (d1 * d1)) + 8 * (a2 - A1 * A1)
        h[..., 0, 0, 0, 1] = c * (d0 * d1) - 8 * (A0 * A1)
        h[..., 0, 1, 0, 0] = h[..., 0, 0, 0, 1]
        return h

    return EnergyDensity("two-well", 4.0, 1, w, dw, d2w, None,
                         quad_growth=4,
                         params={"F1": tuple(F1), "F2": tuple(F2)})


def fhm():
    """Modified Foss-Hrusa-Mizel density
    W(A) = (|A|^2 - 2 det A)^4 + |A|^2 / 2 on 2x2 matrices."""

    def _det(M):
        return (M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0])

    def _cof(M):
        c = np.empty_like(M)
        c[..., 0, 0] = M[..., 1, 1]
        c[..., 0, 1] = -M[..., 1, 0]
        c[..., 1, 0] = -M[..., 0, 1]
        c[..., 1, 1] = M[..., 0, 0]
        return c

    def w(M):
        n2 = np.einsum("...md,...md->...", M, M)
        return (n2 - 2 * _det(M)) ** 4 + n2 / 2

    def dw(M):
        n2 = np.einsum("...md,...md->...", M, M)
        hval = n2 - 2 * _det(M)
        dh = 2 * M - 2 * _cof(M)
        return 4 * hval[..., None, None] ** 3 * dh + M

    def d2w(M):
        n2 = np.einsum("...md,...md->...", M, M)
        hval = n2 - 2 * _det(M)
        dh = 2 * M - 2 * _cof(M)
        # d(cof M) is the constant linear map C with C[i,j,k,l]
        C = np.zeros((2, 2, 2, 2))
        C[0, 0, 1, 1] = 1.0
        C[0, 1, 1, 0] = -1.0
        C[1, 0, 0, 1] = -1.0
        C[1, 1, 0, 0] = 1.0
        eye4 = np.einsum("mn,de->mdne", np.eye(2), np.eye(2))
        d2h = 2 * eye4 - 2 * C
        h = (12 * hval[..., None, None, None, None] ** 2
             * np.einsum("...md,...ne->...mdne", dh, dh)
             + 4 * hval[..., None, None, None, None] ** 3 * d2h
             + eye4)
        return h

    return EnergyDensity("fhm", 2.0, 2, w, dw, d2w, None, quad_growth=8)
