import math

import numpy as np

from ahho.poly import affine_rule, cell_dim, reference_triangle_rule
from poly_reference import (CellBasis, SideBasis, l2_project_cell,
                            l2_project_side, rt_mass_matrix, rt_project,
                            side_quadrature, triangle_quadrature)

REF = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def ref_monomial_integral(a, b):
    """Exact integral of x^a y^b over the reference triangle."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_centroid_rule_for_degree_one():
    rule = triangle_quadrature(REF, 1)
    assert len(rule.weights) == 1
    assert np.allclose(rule.points[0], [1 / 3, 1 / 3])
    assert abs(rule.weights[0] - 0.5) < 1e-15


def test_triangle_quadrature_exactness():
    for d in range(0, 13):
        rule = triangle_quadrature(REF, d)
        assert abs(rule.weights.sum() - 0.5) < 1e-14
        assert np.all(rule.points >= -1e-14)
        assert np.all(rule.points.sum(axis=1) <= 1 + 1e-14)
        for a in range(d + 1):
            for b in range(d + 1 - a):
                val = rule.weights @ (rule.points[:, 0] ** a
                                      * rule.points[:, 1] ** b)
                assert abs(val - ref_monomial_integral(a, b)) < 1e-13, (d, a, b)


def test_triangle_quadrature_physical_triangle():
    corners = np.array([[1.0, 2.0], [4.0, 2.5], [2.0, 5.0]])
    area = 0.5 * abs((corners[1, 0] - corners[0, 0])
                     * (corners[2, 1] - corners[0, 1])
                     - (corners[1, 1] - corners[0, 1])
                     * (corners[2, 0] - corners[0, 0]))
    rule = triangle_quadrature(corners, 4)
    assert abs(rule.weights.sum() - area) < 1e-12


def test_side_quadrature_midpoint_for_degree_one():
    rule = side_quadrature([0, 0], [1, 0], 1)
    assert len(rule.weights) == 1
    assert np.allclose(rule.points[0], [0.5, 0.0])
    assert abs(rule.weights[0] - 1.0) < 1e-15


def test_side_quadrature_exactness():
    for d in range(0, 10):
        rule = side_quadrature([0.0, 0.0], [1.0, 0.0], d)
        assert abs(rule.weights.sum() - 1.0) < 1e-14
        for a in range(d + 1):
            val = rule.weights @ rule.points[:, 0] ** a
            assert abs(val - 1.0 / (a + 1)) < 1e-14


def test_project_cell_constant():
    for k in range(4):
        coeff, basis = l2_project_cell(lambda p: np.full(len(p), 7.5),
                                       REF, k, 2 * k + 2)
        vals = basis.eval(np.array([[0.2, 0.3], [0.1, 0.1]])) @ coeff
        assert np.allclose(vals, 7.5, atol=1e-12)


def test_project_x_onto_p0_is_one_third():
    coeff, basis = l2_project_cell(lambda p: p[:, 0], REF, 0, 3)
    assert abs(coeff[0] - 1 / 3) < 1e-14


def test_project_cell_reproduces_polynomials():
    rng = np.random.default_rng(7)
    corners = np.array([[0.3, -0.2], [1.7, 0.4], [0.6, 1.9]])
    for k in range(4):
        cb = CellBasis(k, corners.mean(axis=0), 1.3)
        c = rng.standard_normal(cb.dim)
        coeff, basis = l2_project_cell(lambda p: cb.eval(p) @ c,
                                       corners, k, 2 * k + 2)
        pts = rng.random((20, 2))
        assert np.allclose(basis.eval(pts) @ coeff, cb.eval(pts) @ c,
                           atol=1e-12)


def test_project_cell_orthogonality_residual():
    corners = np.array([[0.0, 0.0], [2.0, 0.1], [0.4, 1.5]])
    f = lambda p: np.sin(p[:, 0]) * np.cos(2 * p[:, 1])
    k = 2
    degree = 2 * k + 6
    coeff, basis = l2_project_cell(f, corners, k, degree)
    rule = triangle_quadrature(corners, degree)
    phi = basis.eval(rule.points)
    resid = phi.T @ (rule.weights * (f(rule.points) - phi @ coeff))
    scale = max(1.0, np.linalg.norm(phi.T @ (rule.weights * f(rule.points))))
    assert np.max(np.abs(resid)) < 1e-10 * scale


def test_project_side_constant_and_linear():
    coeff, _ = l2_project_side(lambda p: np.full(len(p), 3.0),
                               [0, 0], [1, 0], 2, 6)
    assert np.allclose(coeff, [3.0, 0.0, 0.0], atol=1e-13)
    # f(t) = t on the unit segment onto P_0 -> mean 1/2
    coeff0, _ = l2_project_side(lambda p: p[:, 0], [0, 0], [1, 0], 0, 3)
    assert abs(coeff0[0] - 0.5) < 1e-14


def test_project_side_reproduces_polynomials():
    rng = np.random.default_rng(3)
    a, b = np.array([0.2, 0.7]), np.array([1.4, -0.5])
    for k in range(4):
        sb = SideBasis(k, a, b)
        c = rng.standard_normal(k + 1)
        coeff, basis = l2_project_side(lambda p: sb.eval(p) @ c, a, b, k,
                                       2 * k + 2)
        t = np.linspace(-0.5, 0.5, 7)
        pts = sb.mid + np.outer(t, b - a)
        assert np.allclose(basis.eval(pts) @ coeff, sb.eval(pts) @ c,
                           atol=1e-12)


def test_projection_idempotent():
    rng = np.random.default_rng(11)
    corners = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 1.1]])
    for k in range(3):
        f = lambda p: np.exp(p[:, 0] - p[:, 1])
        c1, basis = l2_project_cell(f, corners, k, 2 * k + 8)
        c2, _ = l2_project_cell(lambda p: basis.eval(p) @ c1, corners, k,
                                2 * k + 8)
        assert np.allclose(c1, c2, atol=1e-12)


def test_projection_l2_contraction():
    rng = np.random.default_rng(5)
    corners = np.array([[0.0, 0.0], [1.4, 0.1], [0.2, 1.2]])
    k = 1
    degree = 2 * (k + 2) + 2
    rule = triangle_quadrature(corners, degree)
    hi = CellBasis(k + 2, corners.mean(axis=0), 1.0)
    for _ in range(100):
        c = rng.standard_normal(hi.dim)
        f = lambda p: hi.eval(p) @ c
        coeff, basis = l2_project_cell(f, corners, k, degree)
        pf = basis.eval(rule.points) @ coeff
        norm_in = np.sqrt(rule.weights @ f(rule.points) ** 2)
        norm_out = np.sqrt(rule.weights @ pf ** 2)
        assert norm_out <= norm_in + 1e-12


# -- Raviart-Thomas --------------------------------------------------------------

def test_rt_dimension_and_div_onto_pk():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for k in range(3):
        gram, basis = rt_mass_matrix(corners, k)
        assert basis.dim == (k + 1) * (k + 3)
        assert gram.shape == (basis.dim, basis.dim)
        assert np.allclose(gram, gram.T)
        assert np.all(np.linalg.eigvalsh(gram) > 0)
        # div maps RT_k onto P_k: rank of divergence coefficients = dim P_k
        rule = triangle_quadrature(corners, 2 * k + 2)
        cb = CellBasis(k, corners.mean(axis=0), 1.0)
        dv = basis.div(rule.points)
        phi = cb.eval(rule.points)
        moments = np.einsum("q,qi,qj->ij", rule.weights, phi, dv)
        assert np.linalg.matrix_rank(moments, tol=1e-10) == cell_dim(k)


def test_rt_normal_trace_is_pk():
    corners = np.array([[0.0, 0.0], [1.0, 0.3], [0.2, 1.2]])
    k = 2
    _, basis = rt_mass_matrix(corners, k)
    a, b = corners[0], corners[1]
    normal = np.array([(b - a)[1], -(b - a)[0]])
    normal /= np.linalg.norm(normal)
    sb = SideBasis(k, a, b)
    rule = side_quadrature(a, b, 2 * (k + 1) + 2)
    traces = basis.normal_trace(rule.points, normal)
    chi = sb.eval(rule.points)
    gram = chi.T @ (rule.weights[:, None] * chi)
    for i in range(basis.dim):
        coeff = np.linalg.solve(gram, chi.T @ (rule.weights * traces[:, i]))
        resid = traces[:, i] - chi @ coeff
        assert np.max(np.abs(resid)) < 1e-10


def test_rt_project_reproduces_members():
    rng = np.random.default_rng(29)
    corners = np.array([[0.1, 0.0], [1.2, 0.4], [0.3, 1.5]])
    for k in range(3):
        _, basis = rt_mass_matrix(corners, k)
        c = rng.standard_normal(basis.dim)
        field = lambda p: np.einsum("qid,i->qd", basis.eval(p), c)
        coeff, _ = rt_project(field, corners, k, 2 * (k + 1))
        assert np.allclose(coeff, c, atol=1e-10)


def test_rt_project_constant_field():
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    coeff, basis = rt_project(lambda p: np.tile([2.0, -1.0], (len(p), 1)),
                              corners, 1, 6)
    pts = np.array([[0.3, 0.3], [0.1, 0.5], [0.25, 0.1]])
    vals = np.einsum("qid,i->qd", basis.eval(pts), coeff)
    assert np.allclose(vals, [2.0, -1.0], atol=1e-11)


def test_rt_project_matches_dense_oracle():
    """Generic P_{k+1} gradient field: compare against an independently
    assembled dense Gram solve with explicit loops."""
    corners = np.array([[0.0, 0.0], [1.3, 0.2], [0.4, 1.4]])
    k = 1

    def field(p):
        x, y = p[:, 0], p[:, 1]
        # gradient of x^2 y - y^2 + x y^2 (a P_3 potential, P_2 field)
        return np.stack([2 * x * y + y ** 2, x ** 2 - 2 * y + 2 * x * y],
                        axis=1)

    coeff, basis = rt_project(field, corners, k, 8)

    rule = triangle_quadrature(corners, 8)
    tau = basis.eval(rule.points)
    n = basis.dim
    gram = np.zeros((n, n))
    rhs = np.zeros(n)
    g = field(rule.points)
    for i in range(n):
        for j in range(n):
            gram[i, j] = np.sum(rule.weights
                                * np.sum(tau[:, i, :] * tau[:, j, :], axis=1))
        rhs[i] = np.sum(rule.weights * np.sum(tau[:, i, :] * g, axis=1))
    oracle = np.linalg.solve(gram, rhs)
    assert np.allclose(coeff, oracle, atol=1e-9)


def test_affine_rule_matches_per_triangle_quadrature():
    """``affine_rule`` on one triangle (3, 2), a stack (n, 3, 2) and a
    block (2, n, 3, 2): each triangle's points and weights are those of
    the per-triangle rule, and without weights it gives the points."""
    rng = np.random.default_rng(5)
    block = rng.uniform(-1.0, 1.0, (2, 4, 3, 2))
    for degree in (2, 7):
        ref_pts, ref_w = reference_triangle_rule(degree)
        nq = len(ref_w)
        for corners in (block[0, 0], block[1], block):
            pts, w = affine_rule(corners, ref_pts, ref_w)
            assert pts.shape == corners.shape[:-2] + (nq, 2)
            assert w.shape == corners.shape[:-2] + (nq,)
            assert np.array_equal(affine_rule(corners, ref_pts), pts)
            for c, x, wt in zip(corners.reshape(-1, 3, 2),
                                pts.reshape(-1, nq, 2), w.reshape(-1, nq)):
                rule = triangle_quadrature(c, degree)
                assert np.max(np.abs(x - rule.points)) <= 1e-14
                assert np.max(np.abs(wt - rule.weights)) <= 1e-14
