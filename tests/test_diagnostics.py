import numpy as np
import pytest

from ahho.benchmarks import get_benchmark, register_benchmarks
from ahho.densities import p_laplace
from ahho.diagnostics import (aitken_extrapolate, data_oscillations,
                              dual_bound, error_norms, ReportFields,
                              fit_rate, lower_energy_bound)
from ahho.hho import HhoSpace, _values_at
from ahho.mesh import DIRICHLET, NEUMANN, build_triangulation, refine_uniform
from ahho.solver import DiscreteProblem, SolverSettings, minimize
from poly_reference import padded_grad_basis


def solve_benchmark(name, k=0, nref=0, variant="rt"):
    bench = get_benchmark(name)
    mesh = bench.initial_mesh()
    for _ in range(nref):
        mesh = refine_uniform(mesh)
    problem = bench.make_problem(mesh, k, variant)
    sol = minimize(problem)
    sigma, _ = problem.discrete_stress(sol.u)
    return bench, problem, sol, sigma


def _matrix_values(fn, pts, m):
    """An (m, 2)-valued closure at points (..., 2) -> (..., m, 2)."""
    from ahho.diagnostics import _as_matrix
    return _as_matrix(fn(pts.reshape(-1, 2)), pts.shape[:-1], m)


# -- graded corner rule ----------------------------------------------------------------

def _graded_rule_per_triangle(corners, v_loc, degree, levels=36):
    """Oracle: the graded rule built child by child in physical
    coordinates."""
    from poly_reference import triangle_quadrature
    tri = np.asarray(corners, dtype=float)[[v_loc, (v_loc + 1) % 3,
                                            (v_loc + 2) % 3]]
    children = []
    for _ in range(levels):
        m01 = 0.5 * (tri[0] + tri[1])
        m02 = 0.5 * (tri[0] + tri[2])
        m12 = 0.5 * (tri[1] + tri[2])
        children += [(m01, tri[1], m12), (m02, m12, tri[2]), (m01, m12, m02)]
        tri = np.array([tri[0], m01, m02])
    rules = [triangle_quadrature(np.array(c), degree) for c in children + [tri]]
    return (np.vstack([r.points for r in rules]),
            np.concatenate([r.weights for r in rules]))


@pytest.mark.parametrize("degree", [4, 9])
def test_graded_corner_rule_matches_per_triangle_construction(degree):
    from ahho.diagnostics import _graded_corner_rule
    from poly_reference import triangle_quadrature
    corners = np.array([[0.2, -0.1], [1.7, 0.4], [0.5, 0.9]])   # skewed
    area = 0.5 * abs(np.linalg.det(np.stack([corners[1] - corners[0],
                                             corners[2] - corners[0]])))
    exact = triangle_quadrature(corners, degree)
    for v_loc in range(3):
        pts, w = _graded_corner_rule(corners, v_loc, degree)
        ref_pts, ref_w = _graded_rule_per_triangle(corners, v_loc, degree)
        assert pts.shape == ref_pts.shape and w.shape == ref_w.shape
        assert np.max(np.abs(pts - ref_pts)) <= 1e-14 * np.abs(corners).max()
        assert np.max(np.abs(w - ref_w)) <= 1e-14 * area
        # the corner it grades toward is the local vertex v_loc
        assert np.min(np.hypot(*(pts - corners[v_loc]).T)) < 1e-10
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                f = pts[:, 0] ** a * pts[:, 1] ** b
                want = exact.integrate(lambda p: p[:, 0] ** a * p[:, 1] ** b)
                assert abs(w @ f - want) <= 1e-13 * max(abs(want), area)


def test_graded_corner_rule_matches_broadcast_formula():
    """The per-component affine map of the graded rule gives the same bits
    as the map broadcast over the trailing axis of length 2."""
    from ahho.diagnostics import _graded_corner_rule, _graded_reference_rule
    rng = np.random.default_rng(2)
    corners = rng.uniform(-1.0, 1.0, (5, 3, 2))
    v_loc = np.array([0, 2, 1, 1, 0])
    for degree in (4, 9):
        pts, w = _graded_corner_rule(corners, v_loc, degree)
        order = (v_loc[:, None] + np.arange(3)) % 3
        tri = np.take_along_axis(corners, order[..., None], axis=-2)
        ref_pts, ref_w = _graded_reference_rule(degree, 36)
        e1 = tri[..., 1, :] - tri[..., 0, :]
        e2 = tri[..., 2, :] - tri[..., 0, :]
        want = (tri[..., None, 0, :] + ref_pts[:, 0:1] * e1[..., None, :]
                + ref_pts[:, 1:2] * e2[..., None, :])
        det = np.abs(e1[..., 0] * e2[..., 1] - e1[..., 1] * e2[..., 0])
        assert np.array_equal(pts, want)
        assert np.array_equal(w, det[..., None] * ref_w)


def test_singular_triangles_vectorized_matches_loop():
    from ahho.diagnostics import _singular_triangles
    mesh = get_benchmark("p-laplace-lshape").initial_mesh()
    for _ in range(3):
        mesh = refine_uniform(mesh)
    point = (0.0, 0.0)
    loop = []
    for t in range(mesh.num_triangles):
        for loc in range(3):
            v = mesh.vertices[mesh.triangles[t, loc]]
            if np.hypot(v[0] - point[0], v[1] - point[1]) < 1e-12:
                loop.append((t, loc))
                break
    assert len(loop) >= 6
    assert _singular_triangles(mesh, point) == loop


# -- error norms ------------------------------------------------------------------

def test_error_norms_vanish_on_manufactured():
    bench, problem, sol, sigma = solve_benchmark("manufactured-affine", k=1)
    eg, es, ev = error_norms(problem, sol.u, bench.exact)
    assert eg < 1e-10 and es < 1e-10 and ev < 1e-10
    assert abs(sol.energy - bench.reference_energy) < 1e-10


def test_error_norms_match_refined_quadrature_oracle():
    # p = 2: every norm integrand is squared, so doubling the quadrature
    # degree leaves the values unchanged to far below 1e-6 relative
    bench, problem, sol, sigma = solve_benchmark("fhm-rect", k=0, nref=2)
    base = error_norms(problem, sol.u, bench.exact,
                       singular_point=bench.singular_point)
    refined = error_norms(problem, sol.u, bench.exact,
                          degree=2 * (problem.energy_degree + 4),
                          singular_point=bench.singular_point)
    for a, b in zip(base, refined):
        assert abs(a - b) < 1e-6 * max(1.0, abs(b))


def test_error_norms_quadrature_stability_fractional_power():
    # p = 4: the L^{4/3} stress norm has a fractional-power integrand whose
    # quadrature saturates more slowly; the gradient and volume norms still
    # saturate to 1e-6 under the graded corner rule
    bench, problem, sol, sigma = solve_benchmark("p-laplace-lshape", k=0,
                                                 nref=2)
    base = error_norms(problem, sol.u, bench.exact,
                       singular_point=bench.singular_point)
    refined = error_norms(problem, sol.u, bench.exact,
                          degree=2 * (problem.energy_degree + 4),
                          singular_point=bench.singular_point)
    assert abs(base[0] - refined[0]) < 1e-6 * max(1.0, refined[0])
    assert abs(base[2] - refined[2]) < 1e-6 * max(1.0, refined[2])
    assert abs(base[1] - refined[1]) < 2e-4 * max(1.0, refined[1])


def _error_norms_overwrite_reference(problem, u, exact, singular_point):
    """Reference: the volume rule on every triangle from the full
    gradient-space basis table, then the graded-rule values written over
    those of the triangles at the singular point."""
    from ahho.diagnostics import _graded_corner_rule, _singular_triangles
    from ahho.hho import _values_at
    space = problem.space
    m, p = space.m, problem.p
    pp = p / (p - 1.0)
    degree = problem.energy_degree + 4
    g = space.gradient_reconstruction(u)

    def per_element(pts, w, tri):
        Gu = np.matmul(g.coeffs[tri][:, None],
                       padded_grad_basis(space, pts, tri))
        diff = _matrix_values(exact.grad_u, pts, m) - Gu
        grad = np.einsum("tq,tq->t", w, np.sqrt(np.einsum(
            "tqmd,tqmd->tq", diff, diff)) ** p)
        diff = _matrix_values(exact.sigma, pts, m) - problem.density.dw(Gu)
        stress = np.einsum("tq,tq->t", w, np.sqrt(np.einsum(
            "tqmd,tqmd->tq", diff, diff)) ** pp)
        uT = np.einsum("tmi,tqi->tqm", u.cells[tri],
                       space.cell_eval(space.exps_k, pts, tri))
        diff = _values_at(exact.u, pts, m) - uT
        return grad, stress, np.einsum("tq,tqm,tqm->t", w, diff, diff)

    terms = per_element(*space.volume_rule(degree), slice(None))
    tri, v_loc = np.array(_singular_triangles(space.mesh, singular_point),
                          dtype=np.int64).reshape(-1, 2).T
    gpts, gw = _graded_corner_rule(space.corners[tri], v_loc, degree)
    for term, graded in zip(terms, per_element(gpts, gw, tri)):
        term[tri] = graded
    return (terms[0].sum() ** (1.0 / p), terms[1].sum() ** (1.0 / pp),
            np.sqrt(terms[2].sum()))


@pytest.mark.parametrize("name,k,nref", [("p-laplace-lshape", 1, 0),
                                         ("p-laplace-lshape", 0, 2),
                                         ("fhm-rect", 0, 1)])
def test_error_norms_match_overwrite_reference(name, k, nref):
    """One rule per triangle (volume away from the singular point, graded
    at it) gives the norms of the volume-everywhere-then-overwrite
    evaluation; on the initial L-shape every triangle is singular."""
    from ahho.diagnostics import _singular_triangles
    bench, problem, sol, sigma = solve_benchmark(name, k=k, nref=nref)
    mesh = problem.space.mesh
    nsing = len(_singular_triangles(mesh, bench.singular_point))
    assert 0 < nsing <= mesh.num_triangles
    if name == "p-laplace-lshape" and nref == 0:
        assert nsing == mesh.num_triangles
    got = error_norms(problem, sol.u, bench.exact,
                      singular_point=bench.singular_point)
    want = _error_norms_overwrite_reference(problem, sol.u, bench.exact,
                                            bench.singular_point)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-13 * abs(b)


def test_error_norms_missing_fields():
    bench, problem, sol, sigma = solve_benchmark("odp-lshape", k=0)
    eg, es, ev = error_norms(problem, sol.u, bench.exact)
    assert eg is None and es is None and ev is None


def test_plaplace_closures_match_stacked_formulas():
    """grad u and sigma of the p-Laplace L-shape, written one component
    at a time, give the same bits as the stacked polar formulas, also at
    r = 0 and on both sides of the branch cut at phi = 0 = 2 pi."""
    from ahho.benchmarks import (_ALPHA, _polar_lshape, plaplace_g,
                                 plaplace_grad, plaplace_sigma)

    def stacked(p, scale, power):
        r, phi = _polar_lshape(p)
        rs = np.where(r > 0, r, 1.0)
        fac = scale * rs ** power
        er = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        ephi = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
        return fac[..., None] * (np.sin(_ALPHA * phi)[..., None] * er
                                 + np.cos(_ALPHA * phi)[..., None] * ephi)

    rng = np.random.default_rng(4)
    pts = np.concatenate([
        rng.uniform(-1.0, 1.0, (500, 2)),
        [[0.0, 0.0], [-0.0, 0.0], [0.5, 0.0], [0.5, -0.0], [0.5, 1e-300],
         [0.5, -1e-300], [0.5, -1e-17], [0.5, 1e-17], [1.0, -1e-9],
         [-0.3, 0.0], [0.0, -0.7], [0.0, 0.7]]])
    for fn, scale, power in ((plaplace_grad, _ALPHA, _ALPHA - 1.0),
                             (plaplace_sigma, _ALPHA ** 3,
                              3.0 * (_ALPHA - 1.0))):
        assert np.array_equal(fn(pts), stacked(pts, scale, power))
        assert np.array_equal(fn(pts.reshape(4, -1, 2)),
                              stacked(pts, scale, power).reshape(4, -1, 2))
    normals = rng.standard_normal(pts.shape)
    assert np.array_equal(
        plaplace_g(pts, normals),
        np.einsum("nd,nd->n", stacked(pts, _ALPHA ** 3,
                                      3.0 * (_ALPHA - 1.0)), normals))


def _plaplace_edge_points():
    """The points of test_plaplace_closures_match_stacked_formulas:
    random ones, r = 0, +-0.0, +-1e-300 and both sides of the branch cut
    at phi = 0 = 2 pi."""
    rng = np.random.default_rng(4)
    return np.concatenate([
        rng.uniform(-1.0, 1.0, (500, 2)),
        [[0.0, 0.0], [-0.0, 0.0], [0.5, 0.0], [0.5, -0.0], [0.5, 1e-300],
         [0.5, -1e-300], [0.5, -1e-17], [0.5, 1e-17], [1.0, -1e-9],
         [-0.3, 0.0], [0.0, -0.7], [0.0, 0.7]]])


def test_plaplace_joint_fields_match_closures():
    """The L-shape's one-call evaluator gives the bits of the three
    closures, flat and batched; u is r^a sin(a phi), 0 at the origin."""
    from ahho.benchmarks import (_ALPHA, _polar_lshape, plaplace_grad,
                                 plaplace_sigma, plaplace_u)
    exact = get_benchmark("p-laplace-lshape").exact
    flat = _plaplace_edge_points()
    for pts in (flat, flat.reshape(4, -1, 2)):
        u, g, s = exact.fields(pts)
        assert np.array_equal(u, plaplace_u(pts))
        assert np.array_equal(g, plaplace_grad(pts))
        assert np.array_equal(s, plaplace_sigma(pts))
        r, phi = _polar_lshape(pts)
        assert np.array_equal(u, np.where(r > 0, r ** _ALPHA, 0.0)
                              * np.sin(_ALPHA * phi))
    from dataclasses import replace
    u, g, s = replace(exact, grad_u=None).fields(flat)
    assert g is None
    assert np.array_equal(u, plaplace_u(flat))
    assert np.array_equal(s, plaplace_sigma(flat))


def _two_well_pow_forms(p):
    """u, grad u and the L2 datum of the two-well minimizer written with
    numpy's ``r ** n`` on the signed rho."""
    from ahho.benchmarks import _WELL, _rho
    r = _rho(p)
    left = -3.0 * r ** 5 / 128.0 - r ** 3 / 3.0
    u = np.where(r <= 0, left, r ** 3 / 24.0 + r)
    ds = np.where(r <= 0, -15.0 * r ** 4 / 128.0 - r ** 2,
                  r ** 2 / 8.0 + 1.0)
    return u, ds[..., None] * _WELL, left


def _two_well_points():
    """Points of the two-well rectangle (0, 1) x (0, 1.5): random ones,
    and dyadic ones with rho = 3 (x - 1) + 2 y = 0 exactly."""
    rng = np.random.default_rng(5)
    line = np.array([[1.0, 0.0], [0.75, 0.375], [0.5, 0.75], [0.0, 1.5]])
    return np.concatenate([rng.uniform(0.0, 1.0, (4000, 2)) * [1.0, 1.5],
                           line])


def test_two_well_signed_powers_match_pow():
    """The powers of |rho| with the sign restored are numpy's r ** n to
    1 ulp for rho < 0, and bit for bit for rho >= 0, -0.0 included."""
    from ahho.benchmarks import _signed_powers
    r = np.concatenate([-np.logspace(-300, 0, 500), [-0.0, 0.0],
                        np.logspace(-300, 0, 500),
                        np.random.default_rng(6).uniform(-1, 1, 2000)])
    pos = r >= 0
    for n, got in zip((3, 4, 5), _signed_powers(r, 3, 4, 5)):
        want = r ** n
        np.testing.assert_array_max_ulp(got, want, maxulp=1)
        assert got[pos].tobytes() == want[pos].tobytes()
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_two_well_closures_match_pow_forms():
    """The two-well closures keep the bits of the ``r ** n`` forms for
    rho >= 0.  For rho < 0 a power moves by at most 1 ulp, and the
    products and the sum after it by a few ulps more (3 at most on
    2M points)."""
    from ahho.benchmarks import (_rho, two_well_grad, two_well_quad_datum,
                                 two_well_u)
    pts = _two_well_points()
    r = _rho(pts)
    assert (r == 0).sum() == 4 and (r < 0).any() and (r > 0).any()
    pos = r >= 0
    for got, want in zip((two_well_u(pts), two_well_grad(pts),
                          two_well_quad_datum(pts)),
                         _two_well_pow_forms(pts)):
        assert got[pos].tobytes() == want[pos].tobytes()
        np.testing.assert_array_max_ulp(got[~pos], want[~pos], maxulp=4)


def test_two_well_closures_across_rho_zero():
    """u is continuous across rho = 0; grad u takes the one-sided limits
    of its branches there, 0 from rho < 0 and the well (3, 2)/sqrt(13)
    from rho > 0 (the minimizer has a kink on that line), so sigma is
    continuous."""
    from ahho.benchmarks import (_WELL, _rho, two_well_grad,
                                 two_well_sigma, two_well_u)
    h = np.array([1e-4, 1e-6, 1e-8])
    base = np.array([0.5, 0.75])            # rho = 0
    for side in (-1.0, 1.0):
        pts = base + side * h[:, None] * _WELL
        r = _rho(pts)
        assert np.all(np.sign(r) == side)
        assert np.all(np.abs(two_well_u(pts)) <= 1.01 * h)
        limit = _WELL if side > 0 else 0.0 * _WELL
        assert np.allclose(two_well_grad(pts), limit, rtol=0.0,
                           atol=2 * h.max() ** 2)
        assert np.all(np.abs(two_well_sigma(pts)) <= 4 * h[:, None] ** 2)
    assert two_well_u(base) == 0.0
    assert np.array_equal(two_well_grad(base[None]), [0.0 * _WELL])


def _error_norms_closure_reference(problem, u, exact, singular_point):
    """The norms with each exact field from its own closure call and the
    P_k table built once for G u and again for u_T."""
    from ahho.diagnostics import _graded_corner_rule, _singular_triangles
    space = problem.space
    m, p = space.m, problem.p
    pp = p / (p - 1.0)
    degree = problem.energy_degree + 4
    g = space.gradient_reconstruction(u)

    def integrals(tri, pts, w):
        Gu = g.at_points(pts, tri)
        diff = _matrix_values(exact.grad_u, pts, m) - Gu
        grad = np.einsum("tq,tq->", w, np.sqrt(np.einsum(
            "tqmd,tqmd->tq", diff, diff)) ** p)
        diff = _matrix_values(exact.sigma, pts, m) - problem.density.dw(Gu)
        stress = np.einsum("tq,tq->", w, np.sqrt(np.einsum(
            "tqmd,tqmd->tq", diff, diff)) ** pp)
        uT = np.einsum("tmi,tqi->tqm", u.cells[tri],
                       space.cell_eval(space.exps_k, pts, tri))
        diff = _values_at(exact.u, pts, m) - uT
        return grad, stress, np.einsum("tq,tqm,tqm->", w, diff, diff)

    if singular_point is None:
        terms = integrals(slice(None), *space.volume_rule(degree))
    else:
        tri, v_loc = np.array(_singular_triangles(space.mesh, singular_point),
                              dtype=np.int64).reshape(-1, 2).T
        rest = np.delete(np.arange(space.mesh.num_triangles), tri)
        terms = [a + b for a, b in zip(
            integrals(rest, *space.volume_rule(degree, rest)),
            integrals(tri, *_graded_corner_rule(space.corners[tri], v_loc,
                                                degree)))]
    return (float(terms[0] ** (1.0 / p)), float(terms[1] ** (1.0 / pp)),
            float(np.sqrt(terms[2])))


@pytest.mark.parametrize("name,k,nref", [("p-laplace-lshape", 1, 1),
                                         ("two-well-rect", 0, 1)])
def test_error_norms_joint_fields_exact(name, k, nref):
    """error_norms with the benchmark's exact solution gives exactly the
    norms of a plain ExactSolution built from the same closures, and of
    the evaluation with one closure call per field and two P_k tables."""
    from ahho.diagnostics import ExactSolution, _singular_triangles
    bench, problem, sol, _ = solve_benchmark(name, k=k, nref=nref)
    ex = bench.exact
    if bench.singular_point is not None:
        assert 0 < len(_singular_triangles(problem.space.mesh,
                                           bench.singular_point)) \
            < problem.space.mesh.num_triangles
    got = error_norms(problem, sol.u, ex, singular_point=bench.singular_point)
    plain = ExactSolution(u=ex.u, grad_u=ex.grad_u, sigma=ex.sigma)
    assert got == error_norms(problem, sol.u, plain,
                              singular_point=bench.singular_point)
    assert got == _error_norms_closure_reference(problem, sol.u, ex,
                                                 bench.singular_point)


def test_error_norms_polar_factors_once_per_point_set(monkeypatch):
    """The L-shape's polar factors are computed once on the volume rule
    and once on the graded corner rule."""
    import ahho.benchmarks as benchmarks
    bench, problem, sol, _ = solve_benchmark("p-laplace-lshape", k=1,
                                             nref=1)
    calls = []
    polar = benchmarks._polar_lshape
    monkeypatch.setattr(benchmarks, "_polar_lshape",
                        lambda p: calls.append(p.shape) or polar(p))
    error_norms(problem, sol.u, bench.exact,
                singular_point=bench.singular_point)
    assert len(calls) == 2
    calls.clear()
    error_norms(problem, sol.u, bench.exact)
    assert len(calls) == 1


def test_exact_solution_consistency():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.05, 0.45, size=(50, 2))
    for name in ("p-laplace-lshape", "two-well-rect", "fhm-rect",
                 "manufactured-affine"):
        bench = get_benchmark(name)
        err = bench.exact.check_consistency(bench.density, pts)
        assert err < 1e-10, name


# -- lower energy bound -----------------------------------------------------------

def test_leb_exact_on_manufactured():
    bench, problem, sol, sigma = solve_benchmark("manufactured-affine", k=1)
    leb, leb_no = lower_energy_bound(problem, sol.u, sigma, bench.exact)
    assert abs(leb - bench.reference_energy) < 1e-9
    assert abs(leb_no - bench.reference_energy) < 1e-9


def test_leb_below_exact_energy_plaplace():
    for nref in (0, 1, 2):
        bench, problem, sol, sigma = solve_benchmark("p-laplace-lshape",
                                                     k=0, nref=nref)
        leb, _ = lower_energy_bound(problem, sol.u, sigma, bench.exact,
                                    energy=sol.energy)
        assert leb <= bench.reference_energy + 1e-8


def test_leb_increases_under_uniform_refinement():
    lebs = []
    for nref in range(4):
        bench, problem, sol, sigma = solve_benchmark("p-laplace-lshape",
                                                     k=0, nref=nref)
        leb, _ = lower_energy_bound(problem, sol.u, sigma, bench.exact,
                                    energy=sol.energy)
        lebs.append(leb)
    assert all(b > a for a, b in zip(lebs, lebs[1:]))


def _leb_stacked_reference(problem, u, sigma, exact, energy):
    """The lower energy bound with G u and sigma from one evaluation of
    their stacked coefficients, and grad u from its own closure call."""
    from ahho.hho import GradField
    space = problem.space
    m = space.m
    pts, w = space.volume_rule(problem.energy_degree + 4)
    both = GradField(space, np.concatenate(
        (space.gradient_reconstruction(u).coeffs, sigma.coeffs), axis=1)
    ).at_points(pts)
    Gu, sig = both[..., :m, :], both[..., m:, :]
    base = energy + float(np.einsum(
        "tq,tqmd,tqmd->", w, problem.density.dw(Gu) - sig,
        _matrix_values(exact.grad_u, pts, m)))
    return base - sum(data_oscillations(problem)), base


def _leb_separate_reference(problem, u, sigma, exact, energy):
    """The lower energy bound with G u, sigma, W'(G u) and grad u each
    evaluated on its own at the volume rule."""
    space = problem.space
    pts, w = space.volume_rule(problem.energy_degree + 4)
    dW = problem.density.dw(space.gradient_reconstruction(u).at_points(pts))
    base = energy + float(np.einsum(
        "tq,tqmd,tqmd->", w, dW - sigma.at_points(pts),
        _matrix_values(exact.grad_u, pts, space.m)))
    return base - sum(data_oscillations(problem)), base


@pytest.mark.parametrize("name,k,nref", [("p-laplace-lshape", 1, 1),
                                         ("two-well-rect", 0, 1)])
def test_report_fields_shared_by_error_norms_and_leb(name, k, nref):
    """Given the level's ReportFields, the error norms are == the ones
    they compute alone (graded corner rule included), and the lower
    energy bound is == its own evaluation and to the one with every
    field evaluated separately, and matches the stacked G u / sigma
    evaluation to 1e-14 relative."""
    bench, problem, sol, sigma = solve_benchmark(name, k=k, nref=nref)
    ex, point = bench.exact, bench.singular_point
    fields = ReportFields(problem, sol.u, ex)
    assert error_norms(problem, sol.u, ex, singular_point=point,
                       fields=fields) \
        == error_norms(problem, sol.u, ex, singular_point=point)
    got = lower_energy_bound(problem, sol.u, sigma, ex, energy=sol.energy,
                             fields=fields)
    assert got == lower_energy_bound(problem, sol.u, sigma, ex,
                                     energy=sol.energy)
    assert got == _leb_separate_reference(problem, sol.u, sigma, ex,
                                          sol.energy)
    want = _leb_stacked_reference(problem, sol.u, sigma, ex, sol.energy)
    for a, b in zip(got, want):
        assert abs(a - b) <= 1e-14 * abs(b)


def test_leb_requires_exact_gradient():
    bench, problem, sol, sigma = solve_benchmark("odp-lshape", k=0)
    with pytest.raises(ValueError):
        lower_energy_bound(problem, sol.u, sigma, bench.exact)


# -- dual bound --------------------------------------------------------------------

def test_dual_bound_zero_for_compatible_quadratic():
    """Strong duality: affine solution with homogeneous values on the
    Dirichlet part makes every RHS contribution vanish."""
    mesh = build_triangulation(
        [(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)],
        lambda mid: DIRICHLET if mid[0] < 1e-12 else NEUMANN)
    mesh = refine_uniform(mesh)
    mask = np.zeros((mesh.num_sides, 1), dtype=bool)
    mask[mesh.boundary_sides(DIRICHLET)] = True
    space = HhoSpace(mesh, 1, dirichlet_mask=mask)
    B = np.array([2.0, 0.0])
    problem = DiscreteProblem(space, p_laplace(2.0),
                              g=lambda p, nu: nu @ B,
                              u_dirichlet=lambda p: p @ B)
    sol = minimize(problem)
    sigma, _ = problem.discrete_stress(sol.u)
    rhs = dual_bound(problem, sol.u, sigma, space.companion(sol.u))
    assert abs(rhs) < 1e-9


def test_dual_bound_nonnegative_odp():
    for nref in (0, 1, 2):
        bench, problem, sol, sigma = solve_benchmark("odp-lshape", k=0,
                                                     nref=nref)
        rhs = dual_bound(problem, sol.u, sigma,
                         problem.space.companion(sol.u))
        assert rhs >= -1e-10


def test_dual_bound_conjugate_matches_grid_oracle():
    bench, problem, sol, sigma = solve_benchmark("odp-lshape", k=0, nref=1)
    # dual energy piece against a brute-force grid maximization
    space = problem.space
    ed = problem._ed
    tau = padded_grad_basis(space, ed["pts"])
    sig = np.einsum("tqid,tmi->tqmd", tau, sigma.coeffs)
    mine = problem.density.conjugate(sig)
    par = problem.density.params
    xs = np.linspace(0.0, 30.0, 600001)
    c3 = -par["xi1"] * par["mu2"] * (par["xi1"] / 2 - par["xi2"] / 2)
    psi = np.where(xs <= par["xi1"], par["mu2"] * xs ** 2 / 2,
                   np.where(xs <= par["xi2"],
                            par["xi1"] * par["mu2"] * (xs - par["xi1"] / 2),
                            par["mu1"] * xs ** 2 / 2 + c3))
    smag = np.sqrt(np.einsum("tqmd,tqmd->tq", sig, sig))
    flat = smag.ravel()[::37][:40]
    weval = mine.ravel()[::37][:40]
    for s, w in zip(flat, weval):
        oracle = np.max(s * xs - psi)
        assert abs(w - oracle) < 1e-6


def test_dual_bound_unsupported_density():
    from ahho.densities import UnsupportedConjugate
    bench, problem, sol, sigma = solve_benchmark("two-well-rect", k=0)
    with pytest.raises(UnsupportedConjugate):
        dual_bound(problem, sol.u, sigma, problem.space.companion(sol.u))


# -- Aitken and rate fits -------------------------------------------------------------

def test_aitken_exact_on_geometric():
    a, c, q = -1.3, 0.7, 0.31
    seq = [a + c * q ** n for n in range(6)]
    limit, degenerate = aitken_extrapolate(seq)
    assert not degenerate
    assert abs(limit - a) < 1e-12


def test_aitken_degenerate_constant():
    limit, degenerate = aitken_extrapolate([2.0, 2.0, 2.0])
    assert degenerate and limit == 2.0


def test_aitken_requires_three():
    with pytest.raises(ValueError):
        aitken_extrapolate([1.0, 2.0])


def test_fit_rate_exact_powerlaw():
    nd = np.array([10, 40, 160, 640, 2560], dtype=float)
    q = nd ** (-0.75)
    slope, resid = fit_rate(nd, q)
    assert abs(slope + 0.75) < 1e-12
    assert resid < 1e-12


def test_fit_rate_with_noise():
    rng = np.random.default_rng(7)
    nd = np.array([10, 40, 160, 640, 2560, 10240], dtype=float)
    q = nd ** (-0.5) * (1.0 + 0.01 * rng.standard_normal(len(nd)))
    slope, _ = fit_rate(nd, q)
    assert abs(slope + 0.5) < 0.02


def test_fit_rate_window_and_validation():
    nd = [10, 100, 1000]
    with pytest.raises(ValueError):
        fit_rate(nd, [1.0, -1.0, 0.5])
    with pytest.raises(ValueError):
        fit_rate([10], [1.0])
    slope, _ = fit_rate(nd, [1.0, 0.1, 0.01], window=2)
    assert abs(slope + 1.0) < 1e-12


# -- data oscillations ---------------------------------------------------------------

def test_oscillations_vanish_for_resolved_data():
    bench, problem, sol, sigma = solve_benchmark("odp-lshape", k=0)
    osc_f, osc_g, osc_z = data_oscillations(problem)
    assert osc_f < 1e-13  # f is constant
    assert osc_g == 0.0
    assert osc_z == 0.0


def test_oscillations_decrease_under_refinement():
    vals = []
    for nref in (0, 1, 2):
        bench, problem, sol, sigma = solve_benchmark("p-laplace-lshape",
                                                     k=0, nref=nref)
        osc_f, osc_g, _ = data_oscillations(problem)
        vals.append(osc_f + osc_g)
    assert vals[0] > vals[1] > vals[2]


# -- Courant probe --------------------------------------------------------------------

def test_courant_exact_on_affine():
    bench = get_benchmark("manufactured-affine")
    mesh = refine_uniform(bench.initial_mesh())
    courant = bench.make_courant(mesh)
    sol = minimize(courant)
    assert sol.converged
    assert abs(sol.energy - bench.reference_energy) < 1e-10


def test_courant_p2_matches_direct_sparse_solve():
    bench = get_benchmark("manufactured-affine")
    mesh = refine_uniform(refine_uniform(bench.initial_mesh()))
    courant = bench.make_courant(mesh)
    x = minimize(courant).u
    # quadratic case: assemble the linear system by probing the gradient
    x0 = courant.initial_guess()
    g0 = courant.energy_gradient(x0, reduced=False)
    free = np.nonzero(courant.free_mask)[0]
    cols = []
    for j in free:
        e = x0.copy()
        e[j] += 1.0
        cols.append((courant.energy_gradient(e, reduced=False) - g0)[free])
    A = np.array(cols).T
    direct = np.linalg.solve(A, -g0[free])
    assert np.allclose(x[free], direct, atol=1e-8)


def test_courant_fhm_energy_above_reference():
    bench = get_benchmark("fhm-rect")
    mesh = refine_uniform(bench.initial_mesh())
    courant = bench.make_courant(mesh)
    sol = minimize(courant)
    assert sol.converged
    # conforming energies lie above the exact minimum
    assert sol.energy > bench.reference_energy


def _courant_dirichlet_loop(bench, mesh):
    """Reference: the side mask, the nodal mask and the nodal values,
    side by side and vertex by vertex from the benchmark's labels."""
    m = bench.m
    side = np.zeros((mesh.num_sides, m), dtype=bool)
    node = np.zeros((mesh.num_vertices, m), dtype=bool)
    for s in mesh.boundary_sides():
        for c in bench.dirichlet_labels.get(mesh.labels[s], ()):
            side[s, c] = True
            node[mesh.sides[s, 0], c] = True
            node[mesh.sides[s, 1], c] = True
    u_all = _values_at(bench.u_dirichlet, mesh.vertices, m)
    values = np.zeros((mesh.num_vertices, m))
    for vtx in range(mesh.num_vertices):
        for c in range(m):
            if node[vtx, c]:
                values[vtx, c] = u_all[vtx, c]
    return side, node, values


def test_courant_dirichlet_data_match_loop_reference():
    for name in sorted(register_benchmarks()):
        bench = get_benchmark(name)
        mesh = refine_uniform(bench.initial_mesh())
        side, node, values = _courant_dirichlet_loop(bench, mesh)
        courant = bench.make_courant(mesh)
        assert np.array_equal(bench.dirichlet_mask(mesh), side), name
        assert np.array_equal(courant.dirichlet_mask, node), name
        assert np.array_equal(courant.free_mask, ~node.reshape(-1)), name
        np.testing.assert_allclose(courant.initial_guess().reshape(-1, bench.m),
                                   values, rtol=1e-14, atol=0, err_msg=name)


def test_courant_rejects_invalid_settings():
    bench = get_benchmark("manufactured-affine")
    courant = bench.make_courant(bench.initial_mesh())
    with pytest.raises(ValueError, match="max_iter"):
        minimize(courant, settings=SolverSettings(max_iter=0))


def test_error_norms_symmetric_under_zero_perturbation():
    bench, problem, sol, sigma = solve_benchmark("manufactured-affine", k=1)
    base = error_norms(problem, sol.u, bench.exact)
    from ahho.diagnostics import ExactSolution
    perturbed = ExactSolution(
        u=lambda p: bench.exact.u(p) + 0.0,
        grad_u=lambda p: bench.exact.grad_u(p) + 0.0,
        sigma=lambda p: bench.exact.sigma(p) + 0.0,
        energy=bench.exact.energy)
    again = error_norms(problem, sol.u, perturbed)
    assert base == again


# -- per-element oracles for the data oscillations and error norms -----------------

def _cell_osc(fn, corners, k, degree, power):
    """int_T |fn - Pi_k fn|^power by the per-element projection."""
    from poly_reference import l2_project_cell, triangle_quadrature
    coef, basis = l2_project_cell(fn, corners, k, degree)
    rule = triangle_quadrature(corners, max(degree, 2 * k))
    resid = fn(rule.points) - basis.eval(rule.points) @ coef
    return rule.weights @ np.abs(resid) ** power


def _side_osc(fn, a, b, k, degree, power):
    """int_F |fn - Pi_k fn|^power by the per-side projection."""
    from poly_reference import l2_project_side, side_quadrature
    coef, basis = l2_project_side(fn, a, b, k, degree)
    rule = side_quadrature(a, b, max(degree, 2 * k))
    resid = fn(rule.points) - basis.eval(rule.points) @ coef
    return rule.weights @ np.abs(resid) ** power


def _close(a, b):
    return abs(a - b) <= 1e-10 * abs(b)


def test_f_and_g_oscillations_match_per_element_projection():
    """p-Laplace L-shape, k = 1 (non-polynomial f and g): the estimator's
    f and g terms and data_oscillations against per-element projections."""
    from ahho.adaptivity import EstimatorParams, estimate
    bench = get_benchmark("p-laplace-lshape")
    mesh = refine_uniform(bench.initial_mesh())
    k = 1
    problem = bench.make_problem(mesh, k)
    u = problem.initial_guess()
    _, defect = problem.discrete_stress(u)
    params = EstimatorParams(eps=0.02)
    est, _ = estimate(problem, u, defect, params)
    p = problem.p
    pp = p / (p - 1.0)
    deg = problem.data_degree
    area = mesh.areas()
    cell = [_cell_osc(bench.f, mesh.corners()[t], k, deg, pp)
            for t in range(mesh.num_triangles)]
    neumann = mesh.boundary_sides("neumann")
    side = {}
    for s in neumann:
        a, b = mesh.vertices[mesh.sides[s]]
        nu = mesh.normals[s]
        side[s] = _side_osc(lambda x: bench.g(x, np.broadcast_to(nu, x.shape)),
                            a, b, k, deg, pp)
    assert min(cell) > 0 and min(side.values()) > 0
    for t in (0, 5, 17):
        assert _close(est.f_oscillation[t], area[t] ** (pp / 2) * cell[t])
    with_neumann = [t for t in range(mesh.num_triangles)
                    if set(mesh.side_of_triangle[t]) & set(neumann)][:4]
    assert len(with_neumann) == 4
    for t in with_neumann:
        want = area[t] ** 0.5 * sum(side.get(s, 0.0)
                                    for s in mesh.side_of_triangle[t])
        assert _close(est.g_oscillation[t], want)
    h_f = np.linalg.norm(mesh.vertices[mesh.sides[:, 1]]
                         - mesh.vertices[mesh.sides[:, 0]], axis=1)
    osc_f, osc_g, osc_z = data_oscillations(problem)
    assert _close(osc_f, np.sum(np.sqrt(area) * cell) ** (1 / pp))
    assert _close(osc_g, sum(h_f[s] * v for s, v in side.items())
                  ** (1 / pp))
    assert osc_z == 0.0


def test_lower_order_oscillation_matches_per_element_projection():
    """Two-well, k = 0: the estimator's lower-order term and the zeta
    oscillation against per-element projections of zeta."""
    from ahho.adaptivity import EstimatorParams, estimate
    bench = get_benchmark("two-well-rect")
    mesh = refine_uniform(bench.initial_mesh())
    problem = bench.make_problem(mesh, 0)
    u = problem.initial_guess()
    _, defect = problem.discrete_stress(u)
    params = EstimatorParams(eps=0.01, kind=bench.indicator_kind)
    est, _ = estimate(problem, u, defect, params)
    area = mesh.areas()
    cell = [_cell_osc(bench.l2_data, mesh.corners()[t], 0,
                      problem.data_degree, 2.0)
            for t in range(mesh.num_triangles)]
    assert min(cell) > 0
    for t in (0, 7, 20):
        assert _close(est.lower_order[t], area[t] * cell[t])
    _, _, osc_z = data_oscillations(problem)
    assert _close(osc_z, bench.l2_weight * np.sqrt(np.sum(area * cell)))


def test_error_norms_match_per_triangle_graded_loop():
    """error_norms on a refined p-Laplace level against a loop over the
    triangles: the graded corner rule on those touching the singular
    point, the fixed-degree rule elsewhere."""
    from ahho.diagnostics import _graded_corner_rule
    from poly_reference import CellBasis, RtBasis, triangle_quadrature
    bench, problem, sol, _ = solve_benchmark("p-laplace-lshape", k=1,
                                             nref=1)
    space = problem.space
    mesh = space.mesh
    u = sol.u
    g = space.gradient_reconstruction(u)
    p = problem.p
    pp = p / (p - 1.0)
    degree = problem.energy_degree + 4
    exact = bench.exact
    sums = np.zeros(3)
    graded = 0
    for t in range(mesh.num_triangles):
        corners = mesh.corners()[t]
        at0 = np.nonzero(np.hypot(*corners.T) < 1e-12)[0]
        if len(at0):
            pts, w = _graded_corner_rule(corners, int(at0[0]), degree)
            graded += 1
        else:
            rule = triangle_quadrature(corners, degree)
            pts, w = rule.points, rule.weights
        centroid = corners.mean(axis=0)
        h = np.sqrt(mesh.areas()[t])
        Gu = RtBasis(1, centroid, h).eval(pts).transpose(0, 2, 1) \
            @ g.coeffs[t, 0]
        dW = problem.density.dw(Gu[:, None, :])[:, 0]
        uT = CellBasis(1, centroid, h).eval(pts) @ u.cells[t, 0]
        sums += [w @ np.linalg.norm(exact.grad_u(pts) - Gu, axis=1) ** p,
                 w @ np.linalg.norm(exact.sigma(pts) - dW, axis=1) ** pp,
                 w @ (exact.u(pts) - uT) ** 2]
    assert graded == 6
    want = (sums[0] ** (1 / p), sums[1] ** (1 / pp), np.sqrt(sums[2]))
    got = error_norms(problem, u, exact, singular_point=bench.singular_point)
    for a, b in zip(got, want):
        assert _close(a, b)
