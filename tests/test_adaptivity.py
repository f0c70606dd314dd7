import itertools

import numpy as np
import pytest

from ahho.adaptivity import (EstimatorParams, estimate, mark_doerfler,
                             prolong, run_ahho)
from ahho.densities import p_laplace
from ahho.hho import RT, STABILIZED, HhoSpace
from ahho.mesh import DIRICHLET, NEUMANN, build_triangulation, refine_uniform
from poly_reference import (CellBasis, SideBasis, padded_grad_basis,
                            side_quadrature, triangle_quadrature)
from ahho.solver import DiscreteProblem, minimize

B_AFFINE = np.array([1.5, 0.5])


def affine(p):
    return 0.25 + p[..., 0] * B_AFFINE[0] + p[..., 1] * B_AFFINE[1]


def mixed_rule(mid):
    if mid[0] < 1e-12 or mid[1] < 1e-12:
        return DIRICHLET
    return NEUMANN


class AffineFamily:
    """Manufactured affine benchmark on the unit square: the p-Laplace
    minimizer is ``affine`` for every p (f = 0, g = |b|^(p-2) b . n)."""

    m = 1

    def __init__(self, nref=0, p=2.0):
        self.nref = nref
        self.p = p

    def initial_mesh(self):
        mesh = build_triangulation([(0, 0), (1, 0), (1, 1), (0, 1)],
                                   [(0, 1, 2), (0, 2, 3)], mixed_rule)
        for _ in range(self.nref):
            mesh = refine_uniform(mesh)
        return mesh

    def make_problem(self, mesh, k, variant=RT):
        mask = np.zeros((mesh.num_sides, 1), dtype=bool)
        mask[mesh.boundary_sides(DIRICHLET)] = True
        space = HhoSpace(mesh, k, m=1, variant=variant, dirichlet_mask=mask)

        def g(pts, normals):
            return np.linalg.norm(B_AFFINE) ** (self.p - 2) \
                * (normals @ B_AFFINE)

        return DiscreteProblem(space, p_laplace(self.p), g=g,
                               u_dirichlet=affine)


def solve_level(family, k, variant=RT):
    mesh = family.initial_mesh()
    problem = family.make_problem(mesh, k, variant)
    sol = minimize(problem)
    return (problem, sol) + problem.discrete_stress(sol.u)


# -- estimator -------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1])
def test_estimator_vanishes_on_manufactured_affine(k):
    family = AffineFamily(nref=1)
    problem, sol, _, defect = solve_level(family, k)
    params = EstimatorParams(eps=(k + 1) / 100)
    est, eta = estimate(problem, sol.u, defect, params)
    assert eta < 1e-10
    for term in (est.volume_residual, est.stress_projection,
                 est.f_oscillation, est.g_oscillation, est.dirichlet_trace,
                 est.interior_jumps, est.side_traces):
        assert np.all(term < 1e-10)


def test_estimator_total_is_sum_and_nonnegative():
    # p != 2, so sigma differs from DW(G u) and the stress term counts
    family = AffineFamily(nref=1, p=4.0)
    problem, sol, _, _ = solve_level(family, 0)
    # perturb to make the estimator strictly positive
    rng = np.random.default_rng(5)
    u = sol.u.copy()
    u.data[problem.free_idx] += 0.05 * rng.standard_normal(
        len(problem.free_idx))
    params = EstimatorParams(eps=0.01)
    _, defect = problem.discrete_stress(u)
    est, eta = estimate(problem, u, defect, params)
    assert eta > 1e-6
    assert est.stress_projection.sum() > 1e-8
    assert np.all(est.total >= -1e-15)
    assert abs(eta - est.total.sum()) < 1e-12 * max(1.0, eta)
    recomposed = (est.volume_residual + est.stress_projection
                  + est.f_oscillation + est.g_oscillation
                  + est.dirichlet_trace + est.interior_jumps
                  + est.side_traces + est.lower_order)
    assert np.allclose(est.total, recomposed)


@pytest.mark.parametrize("variant, k", [(RT, 1), (RT, 2), (STABILIZED, 1)])
def test_estimator_terms_match_straight_quadrature(variant, k):
    """Recompute every term with single-element quadrature loops, exact
    for the even p = 4; sigma = DW(G u) fails there and p' = 4/3.  The
    volume and trace terms project R u onto P_k, except in the
    stabilized variant, which drops both projections."""
    family = AffineFamily(nref=1, p=4.0)
    problem, sol, _, _ = solve_level(family, k, variant)
    rng = np.random.default_rng(11)
    u = sol.u.copy()
    u.data += 0.1 * rng.standard_normal(problem.space.ndof)
    problem.apply_dirichlet(u)
    params = EstimatorParams(eps=0.25)
    sigma, defect = problem.discrete_stress(u)
    est, eta = estimate(problem, u, defect, params)

    space = problem.space
    mesh = space.mesh
    p = problem.p
    eps = params.eps
    R = space.potential_reconstruction(u)
    areas = mesh.areas()
    projected = variant == RT

    # volume residual on a few triangles
    for t in (0, 3, 5):
        corners = mesh.corners()[t]
        rule = triangle_quadrature(corners, int(p) * (k + 1))
        cb = CellBasis(k + 1, corners.mean(axis=0),
                       np.sqrt(areas[t]))
        rv = cb.eval(rule.points) @ R.coeffs[t, 0]
        cbk = CellBasis(k, corners.mean(axis=0), np.sqrt(areas[t]))
        phi = cbk.eval(rule.points)
        gram = phi.T @ (rule.weights[:, None] * phi)
        mom = phi.T @ (rule.weights * rv)
        pr = np.linalg.solve(gram, mom)
        diff = phi @ (pr - u.cells[t, 0]) if projected \
            else rv - phi @ u.cells[t, 0]
        oracle = areas[t] ** ((eps * p - p) / 2) \
            * rule.weights @ np.abs(diff) ** p
        assert abs(est.volume_residual[t] - oracle) < 1e-10 * max(1, oracle)

    # interior jump and trace terms on a few triangles
    for t in (1, 4):
        jump_o = 0.0
        trace_o = 0.0
        for j in range(3):
            s = mesh.side_of_triangle[t, j]
            a = mesh.vertices[mesh.sides[s, 0]]
            b = mesh.vertices[mesh.sides[s, 1]]
            srule = side_quadrature(a, b, int(p) * (k + 1))
            tp, tm = mesh.adjacency[s]
            rv_t = _poly_at(R, t, srule.points)
            if tm >= 0:
                other = tm if tp == t else tp
                rv_o = _poly_at(R, other, srule.points)
                sgn = 1.0 if tp == t else -1.0
                jump_o += srule.weights @ np.abs(rv_t - rv_o) ** p
            sb = SideBasis(k, a, b)
            chi = sb.eval(srule.points)
            uF = chi @ u.sides[s, 0]
            gram = chi.T @ (srule.weights[:, None] * chi)
            mom = chi.T @ (srule.weights * (rv_t - uF))
            proj = chi @ np.linalg.solve(gram, mom) if projected \
                else rv_t - uF
            trace_o += srule.weights @ np.abs(proj) ** p
        w_side = areas[t] ** ((eps * p + 1 - p) / 2)
        assert abs(est.interior_jumps[t] - w_side * jump_o) \
            < 1e-10 * max(1.0, jump_o)
        assert abs(est.side_traces[t] - w_side * trace_o) \
            < 1e-10 * max(1.0, trace_o)

    # stress projection term: sigma as the L2 projection of DW(G u) onto
    # the padded basis, and int_T |sigma - DW(G u)|^p' per triangle
    ed = problem._ed
    tau = padded_grad_basis(space, ed["pts"])
    pp = p / (p - 1)
    for t in (2, 6):
        w = ed["w"][t]
        Gu = tau[t].transpose(0, 2, 1) @ (space.G_op[t]
                                          @ u.data[space.loc2glob[t, 0]])
        dW = Gu * np.linalg.norm(Gu, axis=1)[:, None] ** (p - 2)
        gram = np.einsum("q,qid,qjd->ij", w, tau[t], tau[t])
        coeffs = np.linalg.solve(gram, np.einsum("q,qid,qd->i", w, tau[t], dW))
        assert np.allclose(sigma.coeffs[t, 0], coeffs, rtol=1e-10, atol=1e-12)
        dmag = np.linalg.norm(np.einsum("qid,i->qd", tau[t], coeffs) - dW,
                              axis=1)
        oracle = w @ dmag ** pp
        assert oracle > 1e-8
        assert abs(defect[t] - oracle) < 1e-10 * max(1, oracle)
        assert abs(est.stress_projection[t]
                   - areas[t] ** (eps * pp / 2) * oracle) \
            < 1e-10 * max(1, oracle)
    # estimate only weighs the defect it is given
    other = rng.random(mesh.num_triangles)
    est_other, _ = estimate(problem, u, other, params)
    assert np.allclose(est_other.stress_projection,
                       areas ** (eps * pp / 2) * other, rtol=1e-14, atol=0)


def _poly_at(poly, t, pts):
    return poly.at_points(pts[None], np.array([t]))[0, :, 0]


def test_estimator_dirichlet_residual_without_closure():
    """Without a Dirichlet closure the constrained dofs are held at zero,
    and the estimator's Dirichlet term measures R u against zero: the
    indicators are those of the zero closure, bit for bit."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("odp-lshape")
    mesh = bench.initial_mesh().refine_uniform().refine_uniform()
    zero = bench.make_problem(mesh, 1)
    bare = DiscreteProblem(zero.space, zero.density, f=zero.f)
    params = EstimatorParams(eps=0.02)
    totals = []
    for problem in (zero, bare):
        sol = minimize(problem)
        assert sol.converged
        est, eta = estimate(problem, sol.u, problem.discrete_stress(sol.u)[1],
                            params)
        assert est.dirichlet_trace.sum() > 0.0
        totals.append(est.total)
    np.testing.assert_array_equal(totals[0], totals[1])


def test_estimator_rejects_bad_variant():
    family = AffineFamily()
    problem, sol, _, defect = solve_level(family, 0)
    params = EstimatorParams(eps=0.5, kind="fhm")
    with pytest.raises(ValueError):
        estimate(problem, sol.u, defect, params)


def test_estimator_params_validation():
    with pytest.raises(ValueError):
        EstimatorParams(eps=0.5, theta=1.5).validate(0, 2.0, RT)
    with pytest.raises(ValueError):
        EstimatorParams(eps=2.0).validate(0, 2.0, RT)  # eps > k+1
    with pytest.raises(ValueError):
        EstimatorParams(eps=0.8).validate(0, 4.0, STABILIZED)  # > (k+1)/(p-1)
    EstimatorParams(eps=1.0).validate(0, 2.0, RT)
    with pytest.warns(UserWarning):
        EstimatorParams(eps=0.0).validate(0, 2.0, RT)
    with pytest.raises(ValueError, match="'standard' or 'fhm'"):
        EstimatorParams(eps=0.02, kind="twowell").validate(1, 2.0, RT)


# -- marking -----------------------------------------------------------------------

def test_doerfler_examples():
    marked = mark_doerfler([4.0, 3.0, 2.0, 1.0], 0.5)
    assert set(marked) == {0, 1}
    marked = mark_doerfler([1.0, 4.0, 2.0, 3.0], 1e-9)
    assert set(marked) == {1}
    assert len(mark_doerfler(np.zeros(5), 0.5)) == 0


def test_doerfler_feasibility_and_ties():
    vals = np.array([2.0, 2.0, 2.0, 2.0])
    marked = mark_doerfler(vals, 0.5)
    assert vals[marked].sum() >= 0.5 * vals.sum()
    assert set(marked) == {0, 1}  # ties broken by index


def test_doerfler_ties_survive_rounding():
    """Indicators equal in exact arithmetic but perturbed by 1e-15
    relative, as rounding leaves them on a symmetric mesh, are marked as
    the exact ties are: by the lower index."""
    rng = np.random.default_rng(5)
    exact = np.array([0.7, 3.0, 2.0, 0.7, 2.0, 1.0, 2.0, 2.0, 0.7, 1.0])
    for theta in (0.3, 0.5, 0.7, 0.9):
        want = mark_doerfler(exact, theta)
        for _ in range(200):
            noisy = exact * (1.0 + 1e-15 * rng.uniform(-1.0, 1.0, len(exact)))
            assert np.array_equal(mark_doerfler(noisy, theta), want)
    assert set(mark_doerfler(exact, 0.5)) == {1, 2, 4, 6}


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_doerfler_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="indicators must be finite"):
        mark_doerfler([bad, 1.0, 2.0], 0.5)


def brute_force_min_cardinality(values, theta):
    total = values.sum()
    n = len(values)
    for size in range(0, n + 1):
        for combo in itertools.combinations(range(n), size):
            if values[list(combo)].sum() >= theta * total:
                return size
    return n


def test_doerfler_minimal_cardinality_oracle():
    rng = np.random.default_rng(17)
    for trial in range(1000):
        n = int(rng.integers(1, 13))
        values = rng.random(n) ** 2
        theta = float(rng.uniform(0.05, 0.95))
        marked = mark_doerfler(values, theta)
        assert values[marked].sum() >= theta * values.sum() - 1e-12
        assert len(marked) == brute_force_min_cardinality(values, theta)


# -- prolongation -------------------------------------------------------------------

def test_prolong_constant():
    family = AffineFamily()
    coarse_mesh = family.initial_mesh()
    problem = family.make_problem(coarse_mesh, 1)
    v = problem.space.interpolate(lambda p: np.full(len(p), 2.5))
    fine_mesh = coarse_mesh.refine_uniform()
    fine_prob = family.make_problem(fine_mesh, 1)
    w = prolong(fine_prob.space, problem.space.companion(v))
    assert np.allclose(w.cells[:, :, 0], 2.5, atol=1e-10)
    assert np.allclose(w.cells[:, :, 1:], 0.0, atol=1e-10)
    assert np.allclose(w.sides[:, :, 0], 2.5, atol=1e-10)


@pytest.mark.parametrize("k", [0, 1])
def test_prolong_roundtrip_for_continuous_pk1(k):
    rng = np.random.default_rng(23)
    family = AffineFamily()
    coarse_mesh = family.initial_mesh()
    cprob = family.make_problem(coarse_mesh, k)
    cb = CellBasis(k + 1, (0.5, 0.5), 1.0)
    c = rng.standard_normal(cb.dim)
    fn = lambda p: cb.eval(p.reshape(-1, 2)) @ c
    v = cprob.space.interpolate(fn, degree=2 * (k + 1) + 4)
    fine_mesh = coarse_mesh.refine_uniform()
    fprob = family.make_problem(fine_mesh, k)
    w = prolong(fprob.space, cprob.space.companion(v))
    w_direct = fprob.space.interpolate(fn, degree=2 * (k + 1) + 4)
    assert np.max(np.abs(w.data - w_direct.data)) < 1e-9


def test_prolong_rejects_non_nested():
    """Rejected: an initial mesh (parents -1), a mesh two refinements
    away (parents out of range), and a refinement of the other diagonal
    split of the square (parents in range, centroids outside them)."""
    family = AffineFamily()
    mesh_a = family.initial_mesh()
    mesh_b = family.initial_mesh()
    other = build_triangulation([(0, 0), (1, 0), (1, 1), (0, 1)],
                                [(0, 1, 3), (1, 2, 3)], mixed_rule)
    pa = family.make_problem(mesh_a, 0)
    v = pa.space.zero_vector()
    J = pa.space.companion(v)
    for fine in (mesh_b, mesh_a.refine_uniform().refine_uniform(),
                 other.refine_uniform()):
        with pytest.raises(ValueError):
            prolong(HhoSpace(fine, 0), J)


# -- driver ------------------------------------------------------------------------

def test_run_ahho_manufactured_stops_immediately():
    family = AffineFamily(nref=1)
    records = run_ahho(family, k=0, params=EstimatorParams(eps=0.01),
                       max_ndof=10000, max_levels=5)
    assert len(records) == 1
    assert records[0].estimator < 1e-10
    assert records[0].converged


def test_run_ahho_uniform_ndof_growth():
    class Forced(AffineFamily):
        def make_problem(self, mesh, k, variant=RT):
            prob = super().make_problem(mesh, k, variant)
            # non-resolvable load makes the estimator positive
            prob_new = DiscreteProblem(
                prob.space, prob.density,
                f=lambda p: np.sin(3 * p[:, 0]) * p[:, 1],
                g=prob.g, u_dirichlet=prob.u_dirichlet)
            return prob_new

    records = run_ahho(Forced(), k=0, params=EstimatorParams(eps=0.01),
                       max_ndof=2000, max_levels=6, mode="uniform")
    assert len(records) >= 3
    ratios = [records[i + 1].ntriangles / records[i].ntriangles
              for i in range(len(records) - 1)]
    assert all(r == 4.0 for r in ratios)
    ndofs = [r.ndof for r in records]
    assert all(n2 > n1 for n1, n2 in zip(ndofs, ndofs[1:]))
    # dof count quadruples asymptotically
    assert 3.4 < ndofs[-1] / ndofs[-2] <= 4.2


def test_energy_monotone_under_refinement_via_prolongation():
    """Nested-space monotonicity: E_{l+1}(u_{l+1}) <= E_{l+1}(I J u_l)."""
    family = AffineFamily()

    class Perturbed(AffineFamily):
        def make_problem(self, mesh, k, variant=RT):
            base = super().make_problem(mesh, k, variant)
            return DiscreteProblem(
                base.space, p_laplace(4.0),
                f=lambda p: np.sin(2 * p[:, 0]) + p[:, 1],
                u_dirichlet=affine)

    fam = Perturbed()
    mesh = fam.initial_mesh()
    prev = None
    for level in range(3):
        problem = fam.make_problem(mesh, 0)
        if prev is not None:
            init = prolong(problem.space, prev.u.space.companion(prev.u))
            problem.apply_dirichlet(init)
            e_prolonged = problem.energy(init)
        else:
            init = problem.initial_guess()
        sol = minimize(problem, init)
        assert sol.converged
        if prev is not None:
            assert sol.energy <= e_prolonged + 1e-10
        prev = sol
        mesh = mesh.refine_uniform()


def test_prolonged_energy_close_on_benchmark_levels():
    """On benchmark meshes past the coarsest levels, the prolonged iterate
    carries nearly the coarse energy (10% regression band)."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("p-laplace-lshape")
    mesh = bench.initial_mesh().refine_uniform().refine_uniform()
    coarse = bench.make_problem(mesh, 0)
    sol_c = minimize(coarse)
    fine_mesh = mesh.refine_uniform()
    fine = bench.make_problem(fine_mesh, 0)
    init = prolong(fine.space, coarse.space.companion(sol_c.u))
    fine.apply_dirichlet(init)
    e_prolonged = fine.energy(init)
    assert np.isfinite(e_prolonged)
    assert abs(e_prolonged - sol_c.energy) <= 0.1 * abs(sol_c.energy)
    sol_f = minimize(fine, init)
    assert sol_f.converged
    assert sol_f.energy <= e_prolonged + 1e-10


def test_stabilization_bounded_by_indicator_terms():
    """s_K(v;v) is controlled by the volume-residual and trace terms of
    the indicator (recorded regression constant)."""
    rng = np.random.default_rng(71)
    family = AffineFamily(nref=1)
    mesh = family.initial_mesh()
    problem = family.make_problem(mesh, 1, variant=STABILIZED)
    space = problem.space
    params = EstimatorParams(eps=1e-9)  # weights closest to the raw terms
    _, defect = problem.discrete_stress(problem.initial_guess())
    consts = []
    h_t = space.h_t
    for _ in range(20):
        v = space.zero_vector()
        v.data[:] = rng.standard_normal(space.ndof)
        problem.apply_dirichlet(v)
        _, s_elem, _ = space.stabilization(v, v, problem.p,
                                           return_parts=True)
        est, _ = estimate(problem, v, defect, params)
        # eps ~ 0: volume term carries |T|^{-p/2} = h^-p, traces h^{1-p}
        control = (est.volume_residual * h_t ** (-2.0)
                   + est.side_traces * h_t ** (-2.0)) + 1e-30
        consts.append(np.max(s_elem / control))
    assert max(consts) < 50.0, max(consts)


def test_stabilization_decays_cleanly_for_quadratic_growth():
    """p = 2 stabilization is a hard quadratic penalty: along uniform
    refinements of the optimal-design benchmark, s_l(u_l;u_l) contracts by
    the full factor 4 per level."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("odp-lshape")
    recs = run_ahho(bench, 0, EstimatorParams(eps=0.01), max_ndof=2000,
                    max_levels=5, mode="uniform", variant=STABILIZED)
    ss = [r.stab for r in recs]
    assert len(ss) >= 4
    for a, b in zip(ss, ss[1:]):
        assert b <= 0.27 * a


def test_stabilized_plaplace_adaptive_regression():
    """Stabilized p-Laplace k = 1 adaptive run to 1000 dofs: the ndof
    sequence and per-level Newton counts as recorded, and the energies
    to 1e-12 relative."""
    from ahho.benchmarks import get_benchmark
    recs = run_ahho(get_benchmark("p-laplace-lshape"), 1,
                    EstimatorParams(eps=0.02), max_ndof=1000,
                    variant=STABILIZED)
    assert all(r.converged for r in recs)
    assert [r.ndof for r in recs] == [44, 68, 92, 123, 166, 197, 240, 271,
                                      314, 364, 421, 480, 612, 758, 925]
    assert [r.solution.iterations for r in recs] == [12, 9, 8, 10, 10, 10,
                                                     10, 10, 10, 9, 9, 11,
                                                     9, 11, 9]
    energies = [-1.5815456264488608, -1.5353945638901556,
                -1.5096301794866531, -1.4873907331663458,
                -1.4694862052535567, -1.4616367811647493,
                -1.4553163824483102, -1.4525414565120547,
                -1.4503075493527062, -1.4489316521275197,
                -1.4476212291338886, -1.4468028518225169,
                -1.4454074885514914, -1.4445246041055146,
                -1.4439648160821013]
    np.testing.assert_allclose([r.energy for r in recs], energies,
                               rtol=1e-12, atol=0)


def test_fhm_adaptive_concentrates_at_origin():
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("fhm-rect")
    recs = run_ahho(bench, 0,
                    EstimatorParams(eps=0.01, kind=bench.indicator_kind),
                    max_ndof=2500, max_levels=20, mode="adaptive")
    assert all(r.converged for r in recs)
    errs = [abs(r.energy - 0.88137023556) for r in recs]
    assert all(b < a for a, b in zip(errs, errs[1:]))
    mesh = recs[-1].problem.space.mesh
    h_t, _ = mesh.mesh_size()
    at0 = [t for t in range(mesh.num_triangles)
           if np.min(np.hypot(*mesh.corners()[t].T)) < 1e-12]
    assert min(h_t[t] for t in at0) < max(h_t) / 4


def test_two_well_adaptive_concentrates_at_interface():
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("two-well-rect")
    recs = run_ahho(bench, 0,
                    EstimatorParams(eps=0.01, kind=bench.indicator_kind),
                    max_ndof=2500, max_levels=25, mode="adaptive")
    mesh = recs[-1].problem.space.mesh
    cent = mesh.centroids()
    rho = np.abs((3 * (cent[:, 0] - 1) + 2 * cent[:, 1]) / np.sqrt(13))
    h_t, _ = mesh.mesh_size()
    finest = h_t < np.median(h_t)
    assert np.median(rho[finest]) < 0.6 * np.median(rho)


def test_zero_estimator_implies_consistency():
    """eta = 0 forces vanishing potential jumps, sigma = DW(G u) element
    by element, and vanishing data oscillations (manufactured case)."""
    family = AffineFamily(nref=1)
    problem, sol, sigma, _ = solve_level(family, 1)
    space = problem.space
    mesh = space.mesh
    R = space.potential_reconstruction(sol.u)
    tplus = mesh.adjacency[:, 0]
    interior = mesh.interior_sides()
    r_plus = R.at_points(space.side_pts[interior], tplus[interior])
    r_minus = R.at_points(space.side_pts[interior],
                          mesh.adjacency[interior, 1])
    assert np.max(np.abs(r_plus - r_minus)) < 1e-9
    ed = problem._ed
    tau = padded_grad_basis(space, ed["pts"])
    sig_vals = np.einsum("tqid,tmi->tqmd", tau, sigma.coeffs)
    dW = problem.density.dw(problem._grad_values(sol.u))
    assert np.max(np.abs(sig_vals - dW)) < 1e-9
    from ahho.diagnostics import data_oscillations
    osc_f, osc_g, osc_z = data_oscillations(problem)
    assert osc_f == 0.0 and osc_g < 1e-12 and osc_z == 0.0


@pytest.mark.parametrize("mode", ["adaptive", "uniform"])
@pytest.mark.parametrize("name, unread", [("p-laplace-lshape", 0),
                                          ("two-well-rect", 1)])
def test_run_ahho_capped_by_max_levels(monkeypatch, name, unread, mode):
    """A run that ``max_levels`` ends refines no mesh and builds no
    companion after its last level: one refinement per level that
    follows, and J_l u_l of every level that the dual bound (p-Laplace)
    or the next level's prolongation reads, so two-well builds
    levels - 1."""
    from ahho.benchmarks import get_benchmark
    from ahho.mesh import Triangulation
    refined, companions = [], []
    for meth in ("refine_nvb", "refine_uniform"):
        fn = getattr(Triangulation, meth)
        monkeypatch.setattr(Triangulation, meth,
                            lambda self, *a, fn=fn: refined.append(self)
                            or fn(self, *a))
    companion = HhoSpace.companion
    monkeypatch.setattr(HhoSpace, "companion", lambda self, v:
                        companions.append(self) or companion(self, v))
    bench = get_benchmark(name)
    records = run_ahho(bench, 0, EstimatorParams(eps=0.01),
                       max_ndof=10 ** 6, max_levels=3, mode=mode)
    assert len(records) == 3 and all(r.converged for r in records)
    meshes = [r.problem.space.mesh for r in records]
    assert refined == meshes[:-1]
    spaces = [r.problem.space for r in records]
    assert companions == spaces[:len(spaces) - unread]
    assert (records[-1].companion is None) == bool(unread)


@pytest.mark.parametrize("name, k", [("p-laplace-lshape", 1),
                                     ("two-well-rect", 0)])
def test_run_ahho_builds_each_table_once_per_level(monkeypatch, name, k):
    """Within one level of the loop no basis table is built twice: every
    call of ``_batch_eval`` (in ``ahho.hho`` and wherever a module holds
    a copy) is keyed by the basis size and a digest of the local
    coordinates, and no key repeats before the next level starts.  Nor
    is an entry of a space's level cache (tables, operators, energy
    tables) built twice."""
    import hashlib

    import ahho.diagnostics as diagnostics
    import ahho.hho as hho
    import ahho.solver as solver
    from ahho.benchmarks import get_benchmark
    levels = []
    building = []           # the level of the space at work
    level_of = {}           # id of each level's space -> its level
    batch_eval = hho._batch_eval
    init, kept = HhoSpace.__init__, HhoSpace._kept

    def counted(exps, loc):
        levels[building[-1]].append(
            (len(exps), loc.shape, hashlib.sha1(loc.tobytes()).hexdigest()))
        return batch_eval(exps, loc)

    def counted_init(self, *a, **kw):
        levels.append([])
        level_of[id(self)] = len(levels) - 1
        building[:] = [len(levels) - 1]
        init(self, *a, **kw)

    def counted_kept(self, key, build):
        if key not in self._tables:
            levels[level_of[id(self)]].append(("kept", key))
        return kept(self, key, build)

    for module in (hho, solver, diagnostics):
        if hasattr(module, "_batch_eval"):
            monkeypatch.setattr(module, "_batch_eval", counted)
    monkeypatch.setattr(HhoSpace, "__init__", counted_init)
    monkeypatch.setattr(HhoSpace, "_kept", counted_kept)
    bench = get_benchmark(name)
    records = run_ahho(bench, k, EstimatorParams(
        eps=(k + 1) / 100.0, kind=bench.indicator_kind), max_ndof=600)
    assert len(records) == len(levels) >= 3
    for level, keys in enumerate(levels):
        assert len(set(keys)) == len(keys), level


@pytest.mark.parametrize("name, k", [("p-laplace-lshape", 1),
                                     ("two-well-rect", 0)])
def test_finished_levels_keep_only_what_reports_read(name, k):
    """Once ``run_ahho`` returns, no record's space holds a table or a
    construction-only operator and no record's problem holds a Newton
    table; G, which the reports read, stays."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark(name)
    records = run_ahho(bench, k, EstimatorParams(
        eps=(k + 1) / 100.0, kind=bench.indicator_kind), max_ndof=600)
    assert len(records) >= 3
    for rec in records:
        space = rec.problem.space
        assert not space._tables
        assert not {"R_op", "grad_gram", "phi_k_side", "side_pts_t",
                    "vol_pts", "vol_w", "phi_k_vol"} & set(vars(space))
        assert not {"_terms", "_ed"} & set(vars(rec.problem))
        assert space.G_op.shape == (space.mesh.num_triangles, space.ng,
                                    space.nloc)


@pytest.mark.parametrize("name, k, variant", [
    ("p-laplace-lshape", 1, RT), ("p-laplace-lshape", 1, STABILIZED),
    ("two-well-rect", 0, RT), ("fhm-rect", 1, STABILIZED)])
def test_released_records_rebuild_bit_for_bit(name, k, variant):
    """A returned record builds its tables and operators again on first
    use: the energy, sigma and the companion are bitwise what the loop
    computed before the release (the companion, without a conjugate,
    what a problem freshly made on the record's mesh computes), and so
    are the stress defect and the Newton system."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark(name)
    records = run_ahho(bench, k, EstimatorParams(
        eps=(k + 1) / 100.0, kind=bench.indicator_kind), max_ndof=600,
        variant=variant)
    assert len(records) >= 3
    for rec in records:
        problem, u = rec.problem, rec.solution.u
        fresh = bench.make_problem(problem.space.mesh, k, variant)
        assert problem.energy(u) == rec.energy == fresh.energy(u)
        sigma, defect = problem.discrete_stress(u)
        assert np.array_equal(sigma.coeffs, rec.sigma.coeffs)
        assert np.array_equal(defect, fresh.discrete_stress(u)[1])
        assert np.array_equal(problem.energy_hessian(u).H,
                              fresh.energy_hessian(u).H)
        J = problem.space.companion(u)
        want = rec.companion or fresh.space.companion(u)
        assert np.array_equal(J.coeffs, want.coeffs)
