"""Monomial exponents, the reference quadrature rules and their affine
image.

The reference triangle rules are exact for total degree d on
{x, y >= 0, x + y <= 1}, and :func:`affine_rule` maps them onto
triangles; the segment rules are Gauss-Legendre on [-1/2, 1/2].  The
per-element bases and projections that the tests compare the batched
code of ``ahho.hho`` against live in ``tests/poly_reference.py``.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy.special import roots_jacobi, roots_legendre


def cell_dim(k):
    return (k + 1) * (k + 2) // 2


def monomial_exponents(k):
    """Graded ordering (0,0),(1,0),(0,1),(2,0),(1,1),(0,2),..."""
    exps = []
    for total in range(k + 1):
        for b in range(total + 1):
            exps.append((total - b, b))
    return np.array(exps, dtype=np.int64)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


_REF_RULES = {
    0: _read_only(np.array([[1 / 3, 1 / 3]]), np.array([0.5])),
    1: _read_only(np.array([[1 / 3, 1 / 3]]), np.array([0.5])),
    2: _read_only(np.array([[2 / 3, 1 / 6], [1 / 6, 2 / 3],
                            [1 / 6, 1 / 6]]), np.full(3, 1 / 6)),
}


@functools.lru_cache(maxsize=None)
def _collapsed_rule(d):
    """Gauss-Jacobi x Gauss-Legendre rule on the reference triangle,
    exact for total degree <= d; built once per degree, read-only."""
    n = d // 2 + 1
    xs, ws = roots_jacobi(n, 1.0, 0.0)  # weight (1 - s) on [-1, 1]
    xt, wt = roots_legendre(n)
    s = 0.5 * (xs + 1.0)
    t = 0.5 * (xt + 1.0)
    ws = ws * 0.25  # map [-1,1] -> [0,1] and absorb the (1-s) jacobian scale
    wt = wt * 0.5
    S, T = np.meshgrid(s, t, indexing="ij")
    W = np.outer(ws, wt)
    x = S.ravel()
    y = (T * (1.0 - S)).ravel()
    return _read_only(np.stack([x, y], axis=1), W.ravel())


def reference_triangle_rule(d):
    """Rule on the reference triangle {x,y >= 0, x+y <= 1}."""
    if d in _REF_RULES:
        return _REF_RULES[d]
    return _collapsed_rule(d)


def affine_rule(corners, ref_pts, ref_w=None):
    """Reference points (nq, 2) on triangles (..., 3, 2) as x e1 + y e2 +
    p0, e_i = p_i - p0: (..., nq, 2), and given ``ref_w`` also the weights
    |det(e1, e2)| ref_w, (..., nq)."""
    p0 = corners[..., 0, :]
    e1 = corners[..., 1, :] - p0
    e2 = corners[..., 2, :] - p0
    # one component at a time: a trailing axis of length 2 is slow
    pts = np.empty(corners.shape[:-2] + (len(ref_pts), 2))
    for d in range(2):
        pts[..., d] = (ref_pts[:, 0] * e1[..., None, d]
                       + ref_pts[:, 1] * e2[..., None, d] + p0[..., None, d])
    if ref_w is None:
        return pts
    det = np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
    return pts, det[..., None] * ref_w


@functools.lru_cache(maxsize=None)
def reference_segment_rule(d):
    """Gauss-Legendre points and weights on [-1/2, 1/2]; built once per
    degree, read-only."""
    n = d // 2 + 1
    x, w = roots_legendre(n)
    return _read_only(0.5 * x, 0.5 * w)
