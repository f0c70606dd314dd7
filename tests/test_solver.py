import numpy as np
import pytest

from ahho.densities import p_laplace, two_well
from ahho.hho import RT, STABILIZED, HhoSpace
from ahho.mesh import DIRICHLET, NEUMANN, build_triangulation, refine_uniform
from ahho.solver import DiscreteProblem, SolverSettings, minimize, optimize
from poly_reference import grad_basis_div, padded_grad_basis

B_AFFINE = np.array([2.0, -1.0])


def affine(p):
    return 0.7 + p[..., 0] * B_AFFINE[0] + p[..., 1] * B_AFFINE[1]


def mixed_rule(mid):
    # Dirichlet on left and bottom, Neumann on right and top
    if mid[0] < 1e-12 or mid[1] < 1e-12:
        return DIRICHLET
    return NEUMANN


def square_mesh(nref=1, rule=mixed_rule):
    m = build_triangulation([(0, 0), (1, 0), (1, 1), (0, 1)],
                            [(0, 1, 2), (0, 2, 3)], rule)
    for _ in range(nref):
        m = refine_uniform(m)
    return m


def dirichlet_mask_from_labels(mesh, m):
    mask = np.zeros((mesh.num_sides, m), dtype=bool)
    mask[mesh.boundary_sides(DIRICHLET)] = True
    return mask


def affine_problem(k=1, nref=1, variant=RT):
    """p=2 manufactured affine solution: f = 0, g = B . nu."""
    mesh = square_mesh(nref)
    space = HhoSpace(mesh, k, m=1, variant=variant,
                     dirichlet_mask=dirichlet_mask_from_labels(mesh, 1))

    def g(pts, normals):
        # flux of the affine solution through the Neumann boundary
        return normals @ B_AFFINE

    return DiscreteProblem(space, p_laplace(2.0), f=None, g=g,
                           u_dirichlet=affine)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_affine_manufactured_energy_and_gradient(k):
    prob = affine_problem(k)
    sol = minimize(prob)
    assert sol.converged
    assert sol.iterations <= 5
    # exact energy: int |B|^2/2 - int_GN (B.nu) u
    from poly_reference import side_quadrature
    mesh = prob.space.mesh
    bnd = 0.0
    for s in mesh.boundary_sides(NEUMANN):
        a = mesh.vertices[mesh.sides[s, 0]]
        b = mesh.vertices[mesh.sides[s, 1]]
        rule = side_quadrature(a, b, 6)
        gv = np.where(np.abs(rule.points[:, 0] - 1.0) < 1e-12, B_AFFINE[0],
                      B_AFFINE[1])
        bnd += rule.weights @ (gv * affine(rule.points))
    exact = 0.5 * (B_AFFINE @ B_AFFINE) - bnd
    assert abs(sol.energy - exact) < 1e-10
    # reconstructed gradient is exactly B
    g = prob.space.gradient_reconstruction(sol.u)
    vals = g.at_points(prob.space.vol_pts)
    assert np.max(np.abs(vals[:, :, 0, :] - B_AFFINE)) < 1e-9


def test_zero_data_zero_energy():
    mesh = square_mesh(0, rule=lambda mid: DIRICHLET)
    for density in (p_laplace(2.0), p_laplace(4.0)):
        space = HhoSpace(mesh, 0, dirichlet_mask=dirichlet_mask_from_labels(
            mesh, 1))
        prob = DiscreteProblem(space, density,
                               u_dirichlet=lambda p: np.zeros(len(p)))
        v = prob.initial_guess()
        v.data[:] = 0.0
        assert prob.energy(v) == 0.0


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for variant in (RT, STABILIZED):
        prob = affine_problem(k=1, variant=variant)
        # use p = 4 to exercise the nonlinear path
        mesh = prob.space.mesh
        space = HhoSpace(mesh, 1, variant=variant,
                         dirichlet_mask=prob.space.dirichlet_mask)
        prob4 = DiscreteProblem(space, p_laplace(4.0),
                                f=lambda p: np.ones(len(p)),
                                u_dirichlet=affine)
        v = prob4.initial_guess()
        v.data[prob4.free_idx] += 0.3 * rng.standard_normal(
            len(prob4.free_idx))
        g = prob4.energy_gradient(v)
        scale = np.linalg.norm(v.data)
        eps = 1e-6 * max(scale, 1.0)
        for _ in range(5):
            w = rng.standard_normal(len(prob4.free_idx))
            w /= np.linalg.norm(w)
            vp = v.copy()
            vm = v.copy()
            vp.data[prob4.free_idx] += eps * w
            vm.data[prob4.free_idx] -= eps * w
            fd = (prob4.energy(vp) - prob4.energy(vm)) / (2 * eps)
            assert abs(fd - g @ w) < 1e-5 * max(1.0, abs(fd))


def _safe_pow(mag, e):
    """mag**e, with 0 at mag = 0 for a negative exponent e."""
    if e >= 0:
        return mag ** e
    out = np.zeros_like(mag)
    out[mag > 0] = mag[mag > 0] ** e
    return out


def _stabilized_problems():
    """Stabilized p-Laplace (m = 1, p = 4) and stabilized FHM (m = 2,
    p = 2)."""
    from ahho.benchmarks import get_benchmark
    mesh = square_mesh(2)
    space = HhoSpace(mesh, 1, variant=STABILIZED,
                     dirichlet_mask=dirichlet_mask_from_labels(mesh, 1))
    yield DiscreteProblem(space, p_laplace(4.0),
                          f=lambda p: np.ones(len(p)), u_dirichlet=affine)
    bench = get_benchmark("fhm-rect")
    yield bench.make_problem(bench.initial_mesh(), 1, STABILIZED)


def test_stabilized_energy_and_gradient_match_einsum_oracles():
    """The stabilization term read as the p-Laplace density on S_{K,S} v:
    the energy against ``stabilization(v, v, p) / p`` and the gradient
    against sum w |S v|^(p-2) S v . S e_l."""
    rng = np.random.default_rng(37)
    for prob in _stabilized_problems():
        space, p = prob.space, prob.p
        assert prob.stabilized and prob.l2_weight == 0.0
        v = prob.initial_guess()
        v.data[prob.free_idx] += 0.3 * rng.standard_normal(
            len(prob.free_idx))
        loc = v.data[space.loc2glob]
        ed, sd = prob._ed, space.stab_data(p)
        Gv = np.einsum("tqdl,tml->tqmd", ed["B"], loc)
        E = (float(np.sum(ed["w"] * prob.density.w(Gv)))
             - float(prob.load @ v.data) + space.stabilization(v, v, p) / p)
        assert abs(prob.energy(v) - E) <= 1e-13 * abs(E)

        S = np.einsum("tjql,tml->tjmq", sd["B"], loc)
        mag = np.sqrt(np.einsum("tjmq,tjmq->tjq", S, S))
        g_loc = np.einsum("tq,tqmd,tqdl->tml", ed["w"],
                          prob.density.dw(Gv), ed["B"])
        g_loc += np.einsum("tjq,tjq,tjmq,tjql->tml", sd["w"],
                           _safe_pow(mag, p - 2), S, sd["B"])
        g = np.bincount(space.loc2glob.reshape(-1), g_loc.reshape(-1),
                        minlength=space.ndof) - prob.load
        assert np.abs(prob.energy_gradient(v, reduced=False) - g).max() \
            <= 1e-13 * np.abs(g).max()


def test_quadratic_gradient_matches_sparse_assembly():
    """p = 2: the energy is quadratic, E(v) = v.A.v/2 - b.v + c; the
    gradient must match the independently assembled sparse operator."""
    prob = affine_problem(k=1)
    rng = np.random.default_rng(5)
    n = len(prob.free_idx)
    # assemble A and b by probing with unit vectors (independent oracle)
    z = prob.initial_guess()
    z.data[:] = 0.0
    prob.apply_dirichlet(z)
    g0 = prob.energy_gradient(z)
    cols = []
    for j in range(n):
        e = z.copy()
        e.data[prob.free_idx[j]] += 1.0
        cols.append(prob.energy_gradient(e) - g0)
    A = np.array(cols).T
    assert np.allclose(A, A.T, atol=1e-9)
    for _ in range(3):
        v = z.copy()
        v.data[prob.free_idx] = rng.standard_normal(n)
        g = prob.energy_gradient(v)
        assert np.allclose(g, A @ v.data[prob.free_idx] + g0, atol=1e-8)


def test_quadratic_minimizer_matches_direct_solve():
    prob = affine_problem(k=0)
    z = prob.initial_guess()
    z.data[:] = 0.0
    prob.apply_dirichlet(z)
    g0 = prob.energy_gradient(z)
    n = len(prob.free_idx)
    cols = []
    for j in range(n):
        e = z.copy()
        e.data[prob.free_idx[j]] += 1.0
        cols.append(prob.energy_gradient(e) - g0)
    A = np.array(cols).T
    direct = np.linalg.solve(A, -g0)
    sol = minimize(prob)
    assert np.allclose(sol.u.data[prob.free_idx], direct, atol=1e-8)


def test_newton_converges_on_plaplace():
    mesh = square_mesh(1)
    space = HhoSpace(mesh, 0, dirichlet_mask=dirichlet_mask_from_labels(
        mesh, 1))
    prob = DiscreteProblem(space, p_laplace(4.0),
                           f=lambda p: np.ones(len(p)),
                           u_dirichlet=lambda p: np.zeros(len(p)))
    sol = minimize(prob, settings=SolverSettings(grad_tol=1e-11))
    assert sol.converged, sol.grad_norm
    assert sol.grad_norm <= 1e-11
    assert sol.iterations > 1


def test_determinism():
    """Two solves of a non-quadratic problem give the same bits."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("two-well-rect")
    prob = bench.make_problem(refine_uniform(bench.initial_mesh()), 0)
    s1 = minimize(prob)
    s2 = minimize(prob)
    assert s1.converged and s1.iterations > 1
    assert s1.energy == s2.energy
    assert s1.iterations == s2.iterations
    assert np.array_equal(s1.u.data, s2.u.data)


def test_dirichlet_values_exact():
    prob = affine_problem(k=1)
    sol = minimize(prob)
    assert np.array_equal(sol.u.data[prob.dirichlet_idx],
                          prob.dirichlet_values)


def test_ele_residual_random_test_vectors():
    """At the minimizer: |int sigma : G w - f.w - g.w (+ s(u; w))| below
    10x the gradient tolerance for unit test vectors."""
    rng = np.random.default_rng(11)
    for variant, p in ((RT, 4.0), (STABILIZED, 4.0)):
        mesh = square_mesh(1)
        space = HhoSpace(mesh, 1, variant=variant,
                         dirichlet_mask=dirichlet_mask_from_labels(mesh, 1))
        prob = DiscreteProblem(space, p_laplace(p),
                               f=lambda q: np.ones(len(q)),
                               g=lambda q, nu: 0.1 * np.ones(len(q)),
                               u_dirichlet=lambda q: np.zeros(len(q)))
        settings = SolverSettings(grad_tol=1e-11)
        sol = minimize(prob, settings=settings)
        assert sol.converged
        sigma, _ = prob.discrete_stress(sol.u)
        tau = padded_grad_basis(space, prob._ed["pts"])
        for _ in range(20):
            w = space.zero_vector()
            w.data[prob.free_idx] = rng.standard_normal(len(prob.free_idx))
            w.data /= np.linalg.norm(w.data)
            Gw = space.gradient_reconstruction(w)
            gw_vals = np.einsum("tqid,tmi->tqmd", tau, Gw.coeffs)
            sig_vals = np.einsum("tqid,tmi->tqmd", tau, sigma.coeffs)
            lhs = np.einsum("tq,tqmd,tqmd->", prob._ed["w"], sig_vals,
                            gw_vals)
            rhs = prob.load @ w.data
            if variant == STABILIZED:
                rhs -= space.stabilization(sol.u, w, p)
            assert abs(lhs - rhs) <= 10 * settings.grad_tol


def test_hdiv_conformity_of_stress():
    """RT variant: normal jumps of sigma vanish, div sigma = -Pi_k f, and
    sigma.nu matches the Neumann projection of g (all with the energy
    quadrature pairing)."""
    mesh = square_mesh(1)
    space = HhoSpace(mesh, 1, dirichlet_mask=dirichlet_mask_from_labels(
        mesh, 1))
    prob = DiscreteProblem(space, p_laplace(4.0),
                           f=lambda q: np.cos(q[:, 0]) + q[:, 1],
                           g=lambda q, nu: 0.2 * q[:, 0],
                           u_dirichlet=lambda q: np.zeros(len(q)))
    settings = SolverSettings(grad_tol=1e-12)
    sol = minimize(prob, settings=settings)
    assert sol.converged
    sigma, _ = prob.discrete_stress(sol.u)

    # normal jump continuity across interior sides
    for s in mesh.interior_sides():
        tp, tm = mesh.adjacency[s]
        pts = space.side_pts[s]
        vals_p = _stress_at(sigma, tp, pts)
        vals_m = _stress_at(sigma, tm, pts)
        jump = (vals_p - vals_m) @ mesh.normals[s]
        wq = space.side_w[s]
        assert np.sqrt(wq @ jump ** 2) < 1e-8

    # div sigma + Pi_k f = 0 elementwise (same quadrature data)
    pts, w = space.volume_rule(prob.data_degree)
    fvals = prob.f(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    phi = space.cell_eval(space.exps_k, pts)
    mom = np.einsum("tq,tqi,tq->ti", w, phi, fvals)
    gram_k = np.einsum("tq,tqi,tqj->tij", w, phi, phi)
    pif = np.linalg.solve(gram_k, mom[..., None])[..., 0]
    div_sigma = np.einsum("tqi,ti->tq", grad_basis_div(space, space.vol_pts),
                          sigma.coeffs[:, 0])
    pif_vals = np.einsum("ti,tqi->tq", pif, space.phi_k_vol)
    resid = div_sigma + pif_vals
    l2 = np.sqrt(np.sum(space.vol_w * resid ** 2))
    assert l2 < 1e-8

    # Neumann trace matches the projection of g
    for s in mesh.boundary_sides(NEUMANN):
        t = mesh.adjacency[s, 0]
        pts_s = space.side_pts[s]
        vals = _stress_at(sigma, t, pts_s) @ mesh.normals[s]
        gv = prob.g(pts_s, np.tile(mesh.normals[s], (len(pts_s), 1)))
        chi = space.chi_ref
        wq = space.side_w[s]
        mom_g = chi.T @ (wq * gv)
        gram = chi.T @ (wq[:, None] * chi)
        pig = chi @ np.linalg.solve(gram, mom_g)
        assert np.sqrt(wq @ (vals - pig) ** 2) < 1e-8


def _stress_at(sigma, t, pts):
    """Evaluate a GradField on one triangle at physical points (nq, 2)."""
    space = sigma.space
    c = space.centroid[t]
    h = space.h_t[t]
    loc = (pts - c) / h
    k = sigma.space.k
    from ahho.hho import _batch_eval
    from ahho.poly import monomial_exponents
    phi = _batch_eval(monomial_exponents(k), loc)
    ncb = phi.shape[-1]
    vals = np.zeros((len(pts), 2))
    coeff = sigma.coeffs[t, 0]
    vals[:, 0] += phi @ coeff[:ncb]
    vals[:, 1] += phi @ coeff[ncb:2 * ncb]
    if sigma.space.variant == RT:
        hom = np.array([(k - b, b) for b in range(k + 1)])
        q = _batch_eval(hom, loc)
        vals += (q @ coeff[2 * ncb:])[:, None] * loc
    return vals


def test_two_well_lower_order_term():
    mesh = square_mesh(0, rule=lambda mid: DIRICHLET)
    space = HhoSpace(mesh, 0, dirichlet_mask=dirichlet_mask_from_labels(
        mesh, 1))
    F2 = np.array([3.0, 2.0]) / np.sqrt(13)
    zeta = lambda p: p[:, 0] + 0.5 * p[:, 1]
    prob = DiscreteProblem(space, two_well(-F2, F2),
                           u_dirichlet=lambda p: np.zeros(len(p)),
                           l2_weight=1.0, l2_data=zeta)
    # when v_T equals the projection of zeta, the quadratic term equals
    # the projection defect of zeta only
    v = space.interpolate(zeta, degree=8)
    v.data[space.ncell_dofs:] = 0.0
    E = prob.energy(v)
    # direct quadrature oracle: quadratic term with the data rule, the
    # density term with the energy rule (matching the assembly policy)
    pts, w = space.volume_rule(prob.data_degree)
    zv = zeta(pts.reshape(-1, 2)).reshape(pts.shape[:2])
    vT = np.einsum("tmi,tqi->tq", v.cells, space.cell_eval(space.exps_k, pts))
    quad_term = 0.5 * np.sum(w * (zv - vT) ** 2)
    g = space.gradient_reconstruction(v)
    epts, ew = prob._ed["pts"], prob._ed["w"]
    gvals = np.einsum("tqid,tmi->tqmd", padded_grad_basis(space, epts),
                      g.coeffs)
    wterm = np.sum(ew * prob.density.w(gvals))
    assert abs(E - (wterm + quad_term)) < 1e-10 * max(1.0, abs(E))


def test_iteration_budget_flagged():
    prob = affine_problem(k=1)
    sol = minimize(prob, settings=SolverSettings(max_iter=1, grad_tol=1e-14))
    assert sol.iterations == 1
    assert not sol.converged and sol.grad_norm > 1e-14


def test_fhm_free_component_natural_condition():
    """Vector problem with componentwise constraints: at the minimizer the
    free component of the stress trace has vanishing moments on the
    partially constrained boundary (natural boundary condition)."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("fhm-rect")
    mesh = bench.initial_mesh()
    problem = bench.make_problem(mesh, 0)
    sol = minimize(problem, settings=SolverSettings(grad_tol=1e-12))
    assert sol.converged
    sigma, _ = problem.discrete_stress(sol.u)
    space = problem.space
    tau_side = padded_grad_basis(space, space.side_pts_t)
    sig_side = np.einsum("tjqid,tmi->tjqmd", tau_side, sigma.coeffs)
    for label, free_comp in (("gamma1", 1), ("gamma2", 0)):
        for s in mesh.boundary_sides(label):
            t = mesh.adjacency[s, 0]
            j = int(np.where(mesh.side_of_triangle[t] == s)[0][0])
            trace = sig_side[t, j] @ mesh.normals[s]   # (nq, m)
            moments = space.chi_ref.T @ (space.side_w[s] * trace[:, free_comp])
            assert np.max(np.abs(moments)) < 1e-9


def test_initial_guess_structure():
    """Coarse-level initial value: cell and skeleton unknowns equal one,
    constrained side dofs carry the projected boundary data."""
    prob = affine_problem(k=1)
    v = prob.initial_guess()
    assert np.allclose(v.cells[:, :, 0], 1.0)
    assert np.allclose(v.cells[:, :, 1:], 0.0)
    free_sides = np.ones(prob.space.mesh.num_sides, dtype=bool)
    constrained = np.nonzero(prob.space.dirichlet_mask[:, 0])[0]
    free_sides[constrained] = False
    assert np.allclose(v.sides[free_sides, :, 0], 1.0)
    assert np.allclose(v.sides[free_sides, :, 1:], 0.0)
    assert np.array_equal(v.data[prob.dirichlet_idx], prob.dirichlet_values)


# -- Hessian pattern and Newton line search ----------------------------------------

def _stab_hessian_einsum(prob, v):
    """Local Hessians of s(v; v)/p by the einsum formulas, (nt, m, nloc,
    m, nloc)."""
    space = prob.space
    p = prob.p
    wq = space.stab_data(p)["w"]
    Bs = space.stab_data(p)["B"]
    S = np.einsum("tjql,tml->tjmq", Bs, v.data[space.loc2glob])
    mag = np.sqrt(np.einsum("tjmq,tjmq->tjq", S, S))
    H = np.einsum("tjq,tjq,mn,tjql,tjqf->tmlnf", wq, _safe_pow(mag, p - 2),
                  np.eye(prob.space.m), Bs, Bs)
    if p != 2:
        H += np.einsum("tjq,tjq,tjmq,tjnq,tjql,tjqf->tmlnf", wq,
                       (p - 2) * _safe_pow(mag, p - 4), S, S, Bs, Bs)
    return H


def _scatter_free(Hloc, dofs, free):
    """Oracle assembly: local blocks (ne, nl, nl) over the global dofs
    ``dofs`` (ne, nl) scattered into a COO matrix, converted and then
    restricted to the ``free`` dofs."""
    import scipy.sparse as sp
    rows = np.broadcast_to(dofs[:, :, None], Hloc.shape).reshape(-1)
    cols = np.broadcast_to(dofs[:, None, :], Hloc.shape).reshape(-1)
    n = len(free)
    H = sp.coo_matrix((Hloc.reshape(-1), (rows, cols)), shape=(n, n)).tocsr()
    return H[free][:, free].tocsc()


def _hessian_full_coo(prob, v):
    """Oracle: every local Hessian block scattered into the free x free
    matrix, the L2 term's in Gram form."""
    from poly_reference import GramL2Term
    space = prob.space
    m = prob.space.m
    B = prob._ed["B"]
    wd2 = prob._ed["w"][..., None, None, None, None] \
        * prob.density.d2w(prob._grad_values(v))
    Hloc = np.einsum("tqdl,tqmdne,tqef->tmlnf", B, wd2, B)
    if prob.l2_weight > 0.0:
        Hloc[:, :, :space.ncb, :, :space.ncb] += np.einsum(
            "mn,tij->tminj", np.eye(m), GramL2Term(prob).hessian())
    if prob.stabilized:
        Hloc = Hloc + _stab_hessian_einsum(prob, v)
    nt, nl = len(Hloc), m * space.loc2glob.shape[-1]
    return _scatter_free(Hloc.reshape(nt, nl, nl),
                         space.loc2glob.reshape(nt, nl), prob.free_mask)


def _courant_hessian_full(courant, x):
    """Oracle: the conforming P1 probe's local Hessians scattered into the
    free x free matrix."""
    loc2glob = courant.loc2glob
    return _scatter_free(courant.energy_hessian(x).H,
                         loc2glob.reshape(len(loc2glob), -1),
                         courant.free_mask)


class _FullMatrix:
    """An assembled free x free matrix behind the interface of
    ``CondensedHessian``: the oracle Newton system."""

    def __init__(self, H):
        self.H = H
        self.scale = np.abs(H.diagonal()).max(initial=0.0)

    def solve(self, rhs, shift):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        n = self.H.shape[0]
        return spla.spsolve(self.H + shift * sp.eye(n, format="csc"), rhs)


def _hessian_cases():
    from ahho.benchmarks import get_benchmark
    mesh = square_mesh(1)
    for k, variant in ((1, RT), (0, STABILIZED)):
        space = HhoSpace(mesh, k, variant=variant,
                         dirichlet_mask=dirichlet_mask_from_labels(mesh, 1))
        prob = DiscreteProblem(space, p_laplace(4.0),
                               f=lambda p: np.ones(len(p)),
                               u_dirichlet=affine)
        yield prob
    bench = get_benchmark("two-well-rect")
    yield bench.make_problem(refine_uniform(bench.initial_mesh()), 0)
    bench = get_benchmark("fhm-rect")
    yield bench.make_problem(bench.initial_mesh(), 1)


def _courant_cases():
    """The conforming P1 probe: p-Laplace with Dirichlet vertices, the L2
    term of the two-well problem and the vector-valued FHM problem."""
    from ahho.benchmarks import get_benchmark
    for name in ("p-laplace-lshape", "two-well-rect", "fhm-rect"):
        bench = get_benchmark(name)
        yield bench.make_courant(refine_uniform(bench.initial_mesh()))


def _check_newton_system(H, ref, nc, rng, solve_shifts, solve_tol):
    """``H`` against the assembled free x free matrix ``ref``: its
    pattern, ``scale``, Schur complement and ``solve`` at the shifts
    ``solve_shifts`` x scale to ``solve_tol`` relative.  The skeleton
    system is laid out in the column order SuperLU picks for it (COLAMD
    read off the structure alone), so its solve has the bits of
    ``spsolve`` on the system in the numbering's order."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla
    ref = ref.toarray()
    indptr, indices = H.pattern[:2]
    order = H.pattern[-1]
    assert all(a.dtype == np.int32 for a in H.pattern)
    assert np.array_equal(np.sort(order), np.arange(len(order)))
    assert all(np.all(np.diff(indices[a:b]) > 0)
               for a, b in zip(indptr[:-1], indptr[1:]))
    diag_ref = np.abs(np.diagonal(ref)).max()
    assert abs(H.scale - diag_ref) <= 1e-14 * diag_ref
    for shift in (0.0, 1e-6 * H.scale):
        shifted = ref + shift * np.eye(len(ref))
        A, Bm, C = shifted[:nc, :nc], shifted[:nc, nc:], shifted[nc:, nc:]
        schur = C - Bm.T @ np.linalg.solve(A, Bm)
        S = H._condense(np.zeros(len(ref)), shift)[0]
        assert S.format == "csc" and S.has_sorted_indices
        # column order[c] of S holds skeleton unknown c
        S = S[:, order]
        assert np.abs(S.toarray() - schur).max() \
            <= 1e-12 * np.abs(schur).max()
    for shift in np.multiply(solve_shifts, H.scale):
        rhs = rng.standard_normal(len(ref))
        x_ref = spla.spsolve(sp.csc_matrix(ref) + shift * sp.eye(len(ref)),
                             rhs)
        x = H.solve(rhs, shift)
        assert np.abs(x - x_ref).max() <= solve_tol * np.abs(x_ref).max()
        S, r, _ = H._condense(rhs, shift)
        S = S[:, order]
        assert np.array_equal(spla.splu(S).perm_c, order)
        assert np.array_equal(x[nc:], spla.spsolve(S, r))


def test_hessian_pattern_matches_full_assembly():
    """The condensed Newton system against the full free x free assembly:
    RT p-Laplace k = 1, the stabilization Hessian (k = 0), the L2 term of
    the two-well problem (k = 0) and the vector-valued FHM problem
    (m = 2, k = 1), and the conforming P1 probe's system without cell
    blocks on three benchmarks."""
    rng = np.random.default_rng(23)
    for prob in _hessian_cases():
        v = prob.initial_guess()
        v.data[prob.free_idx] += 0.3 * rng.standard_normal(
            len(prob.free_idx))
        # FHM's system is nearly singular (condition ~5e12) at shift 0
        _check_newton_system(prob.energy_hessian(v),
                             _hessian_full_coo(prob, v),
                             prob.space.ncell_dofs, rng, (1e-6,), 1e-10)
    for courant in _courant_cases():
        x = courant.initial_guess()
        x[courant.free_mask] = 0.3 * rng.standard_normal(
            courant.free_mask.sum())
        H = courant.energy_hessian(x)
        assert H.nc == 0
        _check_newton_system(H, _courant_hessian_full(courant, x), 0, rng,
                             (0.0, 1e-6), 1e-12)


@pytest.mark.parametrize("k", [0, 1])
def test_l2_term_matches_gram_oracle(k):
    """Two-well: the lower-order term as |v_T|^2/2 at a rule of degree
    2k, its cross term in the load and int zeta^2 in the constant,
    against the Gram form added to the same problem without the term."""
    from ahho.benchmarks import get_benchmark
    from poly_reference import GramL2Term
    bench = get_benchmark("two-well-rect")
    prob = bench.make_problem(refine_uniform(bench.initial_mesh()), k)
    assert prob.l2_weight > 0.0 and prob.space.m == 1
    rest = DiscreteProblem(prob.space, prob.density, f=prob.f, g=prob.g,
                           u_dirichlet=prob.u_dirichlet)
    l2 = GramL2Term(prob)
    loc2glob = prob.space.loc2glob
    rng = np.random.default_rng(47)
    for _ in range(3):
        v = prob.initial_guess()
        v.data[prob.free_idx] += 0.3 * rng.standard_normal(
            len(prob.free_idx))
        E = rest.energy(v) + l2.energy(v)
        assert abs(prob.energy(v) - E) <= 1e-12 * abs(E)
        g = rest.energy_gradient(v, reduced=False) + l2.gradient(v)
        assert np.abs(prob.energy_gradient(v, reduced=False) - g).max() \
            <= 1e-12 * np.abs(g).max()
        H = _scatter_free(prob.energy_hessian(v).H,
                          loc2glob.reshape(len(loc2glob), -1),
                          prob.free_mask)
        H_ref = _hessian_full_coo(prob, v)
        assert abs(H - H_ref).max() <= 1e-12 * abs(H_ref).max()


def test_courant_terms_match_reference_oracle():
    """The conforming P1 probe built from terms against its energy,
    gradient and local Hessians written out by hand."""
    from poly_reference import CourantReference
    rng = np.random.default_rng(53)
    for courant in _courant_cases():
        ref = CourantReference(courant)
        x = 0.3 * rng.standard_normal(courant.free_mask.shape)
        E = ref.energy(x)
        assert abs(courant.energy(x) - E) <= 1e-12 * abs(E)
        g = ref.gradient(x)
        assert np.abs(courant.energy_gradient(x, reduced=False) - g).max() \
            <= 1e-12 * np.abs(g).max()
        H_ref = _scatter_free(ref.hessian(x),
                              ref.dof.reshape(len(ref.dof), -1),
                              courant.free_mask)
        H = _courant_hessian_full(courant, x)
        assert abs(H - H_ref).max() <= 1e-12 * abs(H_ref).max()


def test_grad_values_read_the_first_term_only():
    """Outside a solve, G v alone is contracted: the other terms, here
    replaced by one that cannot be evaluated, are not read."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("two-well-rect")
    prob = bench.make_problem(bench.initial_mesh(), 0)
    v = prob.initial_guess()
    Gv = prob._local_values(v)[0]
    prob._terms = prob._terms[:1] + [(None, None, None)]
    np.testing.assert_array_equal(prob._grad_values(v), Gv)


def test_converged_flag_is_a_bool():
    """A plain bool, also where the optimizers compare the gradient norm
    with the tolerance, so that the solution goes into JSON."""
    import json
    from ahho.benchmarks import get_benchmark
    prob = affine_problem(k=0)
    bench = get_benchmark("two-well-rect")
    courant = bench.make_courant(bench.initial_mesh())
    for settings in (SolverSettings(), SolverSettings(max_iter=1)):
        sol = minimize(prob, settings=settings)
        conv = minimize(courant, settings=settings).converged
        assert type(sol.converged) is bool and type(conv) is bool
        json.dumps([sol.converged, conv])
    assert minimize(prob).converged


def test_condensed_solve_without_free_skeleton_dofs():
    """Every skeleton dof constrained: the solve is the cell solve."""
    from ahho.solver import CondensedHessian, hessian_pattern
    rng = np.random.default_rng(43)
    nt, nc, ns = 5, 3, 6
    M = rng.standard_normal((nt, nc + ns, nc + ns))
    H = np.matmul(M, M.transpose(0, 2, 1))
    pattern = hessian_pattern(np.zeros((nt, ns), dtype=np.int32), 0)
    assert len(pattern[0]) == 1 and len(pattern[-1]) == 0
    rhs = rng.standard_normal(nt * nc)
    x = CondensedHessian(H, nc, pattern).solve(rhs, 0.5)
    x_ref = np.linalg.solve(H[:, :nc, :nc] + 0.5 * np.eye(nc),
                            rhs.reshape(nt, nc, 1))
    np.testing.assert_allclose(x, x_ref.reshape(-1), rtol=1e-13)


def test_hessian_pattern_built_once_per_problem():
    """For the hybrid problem and for the conforming P1 probe."""
    rng = np.random.default_rng(29)
    for prob in (next(_hessian_cases()), next(_courant_cases())):
        v = prob.initial_guess()
        prob.energy_hessian(v)
        pattern = prob._hess_pattern
        assert all(a.dtype == np.int32 for a in pattern)
        np.asarray(v)[prob.free_idx] += rng.standard_normal(
            len(prob.free_idx))
        prob.energy_hessian(v)
        assert prob._hess_pattern is pattern
        # the adaptive loop keeps every level's problem alive: a solve
        # releases the structure it built
        minimize(prob)
        assert prob._hess_pattern is None


def _eager_newton(fun, grad, hess, x0):
    """Newton with the energy and the gradient at every line-search
    trial, as the fun_grad closures worked before."""
    def fun_grad(x, energy=True, gradient=True):
        return fun(x), grad(x)
    return optimize(fun_grad, hess, x0, SolverSettings())


def test_newton_gradients_only_at_accepted_points():
    from ahho.benchmarks import get_benchmark
    from ahho.hho import HhoVector
    bench = get_benchmark("two-well-rect")
    prob = bench.make_problem(refine_uniform(bench.initial_mesh()), 0)
    calls = []
    gradient = prob.energy_gradient
    prob.energy_gradient = lambda v: calls.append(1) or gradient(v)
    sol = minimize(prob)
    lazy = len(calls)

    full = prob.initial_guess().data
    free = prob.free_idx

    def at(xf):
        full[free] = xf
        return HhoVector(prob.space, full)
    del calls[:]
    x, E, it, gnorm, conv = _eager_newton(
        lambda xf: prob.energy(at(xf)), lambda xf: prob.energy_gradient(at(xf)),
        lambda xf: prob.energy_hessian(at(xf)), full[free].copy())
    assert sol.converged and conv
    assert sol.iterations == it
    assert abs(sol.energy - E) <= 1e-14 * abs(E)
    assert lazy == it + 1 < len(calls)


def test_newton_condensed_matches_full_matrix():
    """Newton on the condensed system and on the full free x free matrix
    (through the oracle adapter ``_FullMatrix``) takes the same steps."""
    from ahho.benchmarks import get_benchmark
    from ahho.hho import HhoVector
    bench = get_benchmark("two-well-rect")
    prob = bench.make_problem(refine_uniform(bench.initial_mesh()), 0)
    full = prob.initial_guess().data
    free = prob.free_idx
    x0 = full[free].copy()

    def at(xf):
        full[free] = xf
        return HhoVector(prob.space, full)

    def fun_grad(xf, energy=True, gradient=True):
        return (prob.energy(at(xf)) if energy else None,
                prob.energy_gradient(at(xf)) if gradient else None)

    runs = [optimize(fun_grad, hess, x0, SolverSettings())
            for hess in (lambda xf: prob.energy_hessian(at(xf)),
                         lambda xf: _FullMatrix(_hessian_full_coo(prob,
                                                                  at(xf))))]
    (_, E, it, _, conv), (_, E_ref, it_ref, _, conv_ref) = runs
    assert conv and conv_ref and it == it_ref > 5
    assert abs(E - E_ref) <= 1e-14 * abs(E_ref)


def test_courant_p1_minimize_converges_with_lazy_gradients():
    """The probe's lazy gradients give the same iterates as eager Newton
    on its own system, and the same steps as Newton on the full free x
    free matrix (through the oracle adapter ``_FullMatrix``)."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("two-well-rect")
    courant = bench.make_courant(refine_uniform(bench.initial_mesh()))
    sol = minimize(courant)
    E, x = sol.energy, sol.u
    assert sol.converged

    free = np.nonzero(courant.free_mask)[0]
    full = courant.initial_guess()
    x0 = full[free].copy()

    def at(xf):
        full[free] = xf
        return full
    (x_ref, E_ref, it, _, conv_ref), (_, E_full, it_full, _, conv_full) = [
        _eager_newton(lambda xf: courant.energy(at(xf)),
                      lambda xf: courant.energy_gradient(at(xf)), hess, x0)
        for hess in (lambda xf: courant.energy_hessian(at(xf)),
                     lambda xf: _FullMatrix(_courant_hessian_full(courant,
                                                                  at(xf))))]
    assert conv_ref and conv_full and it == it_full
    assert abs(E - E_ref) <= 1e-14 * abs(E_ref)
    assert np.array_equal(x[free], x_ref)
    assert abs(E - E_full) <= 1e-14 * abs(E_full)


def _condense_lapack(self, rhs, shift):
    """Reference: ``CondensedHessian._condense`` with every cell block
    solved by LAPACK, whatever its size."""
    import scipy.sparse as sp
    H, nc = self.H, self.nc
    indptr, indices, slot, diag, side_loc, _ = self.pattern
    nt, nfs, nnz = len(H), len(diag), len(indices)
    Hcc = H[:, :nc, :nc] + shift * np.eye(nc)
    X = np.linalg.solve(Hcc, np.concatenate(
        (H[:, :nc, nc:], rhs[:nt * nc].reshape(nt, nc, 1)), axis=2))
    HX = np.matmul(H[:, nc:, :nc], X)
    data = np.bincount(slot, (H[:, nc:, nc:] - HX[:, :, :-1]).reshape(-1),
                       minlength=nnz + 1)[:nnz]
    data[diag] += shift
    S = sp.csc_matrix((data, indices, indptr), shape=(nfs, nfs))
    r = rhs[nt * nc:] - np.bincount(side_loc.reshape(-1),
                                    HX[:, :, -1].reshape(-1),
                                    minlength=nfs + 1)[:nfs]
    return S, r, X


def _two_well_problem(k):
    mesh = square_mesh(3, rule=lambda mid: DIRICHLET)
    dens = two_well(-np.array([3.0, 2.0]) / np.sqrt(13),
                    np.array([3.0, 2.0]) / np.sqrt(13))
    return DiscreteProblem(HhoSpace(mesh, k, 1, RT), dens,
                           f=lambda q: np.sin(3 * q[:, 0]) + q[:, 1],
                           u_dirichlet=lambda q: np.zeros(len(q)),
                           l2_weight=1.0, l2_data=lambda q: q[:, 0] ** 2)


@pytest.mark.parametrize("k", [0, 1])
def test_condensed_cell_solve_matches_lapack(k, monkeypatch):
    """1x1 cell blocks (k = 0, m = 1) are solved by the reciprocal pivot:
    the same local solutions, Schur complement and Newton iterates as
    LAPACK's solve; larger blocks still go to LAPACK."""
    from ahho.solver import CondensedHessian
    prob = _two_well_problem(k)
    rng = np.random.default_rng(5)
    v = prob.initial_guess()
    v.data[prob.free_idx] = 0.1 * rng.standard_normal(len(prob.free_idx))
    prob._point = []
    try:
        H = prob.energy_hessian(v)
        assert (H.nc == 1) == (k == 0)
        rhs = rng.standard_normal(len(prob.free_idx))
        for shift in (0.0, 1e-10 * H.scale, 1e-2 * H.scale):
            S, r, X = H._condense(rhs, shift)
            S0, r0, X0 = _condense_lapack(H, rhs, shift)
            np.testing.assert_allclose(X, X0, rtol=1e-15, atol=0)
            np.testing.assert_allclose(r, r0, rtol=1e-15, atol=0)
            np.testing.assert_allclose(S.toarray(), S0.toarray(),
                                       rtol=1e-15, atol=0)
    finally:
        prob._point = None
        prob._hess_pattern = None
    sol = minimize(prob)
    monkeypatch.setattr(CondensedHessian, "_condense", _condense_lapack)
    ref = minimize(prob)
    assert sol.converged and ref.converged
    assert sol.iterations == ref.iterations
    np.testing.assert_allclose(sol.u.data, ref.u.data, rtol=1e-15, atol=0)


# -- optimizer branches, driven by stubs on small quadratics ----------------------

def _quadratic(A, b):
    """fun_grad of 0.5 x.A x - b.x."""
    def fun_grad(x, energy=True, gradient=True):
        return (0.5 * x @ A @ x - b @ x if energy else None,
                A @ x - b if gradient else None)
    return fun_grad


class _StubHessian:
    """A Newton system whose ``solve`` records each shift and answers
    ``answer(rhs, shift)``."""

    def __init__(self, answer, shifts):
        self.scale = 1.0
        self.answer = answer
        self.shifts = shifts

    def solve(self, rhs, shift):
        self.shifts.append(shift)
        return self.answer(rhs, shift)


@pytest.mark.parametrize("rung", [1e-10, 1e-6, 1e-2])
def test_optimize_climbs_the_shift_ladder(rung):
    """Below ``rung`` the solve fails in each way the ladder rejects: a
    LinAlgError, a RuntimeError, a non-finite or an ascent direction.
    The first step is the shifted Newton step of ``rung``."""
    A = np.diag([1.0, 2.0])
    b = np.array([0.5, -1.0])
    x0 = np.array([1.0, 2.0])
    failures = [np.linalg.LinAlgError, RuntimeError,
                lambda rhs: np.full_like(rhs, np.nan), lambda rhs: -rhs]

    def answer(rhs, shift):
        if shift < rung:
            fail = failures.pop(0)
            failures.append(fail)
            if isinstance(fail, type):
                raise fail("singular")
            return fail(rhs)
        return np.linalg.solve(A + shift * np.eye(2), rhs)

    shifts = []
    hess = lambda x: _StubHessian(answer, shifts)
    fun_grad = _quadratic(A, b)
    ladder = [1e-14, 1e-10, 1e-6, 1e-2]
    x, E, it, gnorm, conv = optimize(fun_grad, hess, x0,
                                     SolverSettings(max_iter=1))
    assert it == 1 and shifts == ladder[:ladder.index(rung) + 1]
    d = np.linalg.solve(A + rung * np.eye(2), -fun_grad(x0)[1])
    np.testing.assert_array_equal(x, x0 + d)
    x, E, it, gnorm, conv = optimize(fun_grad, hess, x0, SolverSettings())
    assert conv and gnorm <= 1e-10
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=0, atol=1e-10)


def test_optimize_falls_back_to_minus_gradient():
    """Every rung fails: the direction is -g, and on 0.5|x|^2 - b.x its
    full step lands on b."""
    b = np.array([0.5, -1.0])
    x0 = np.array([1.0, 2.0])

    def answer(rhs, shift):
        raise np.linalg.LinAlgError("singular")

    shifts = []
    x, E, it, gnorm, conv = optimize(
        _quadratic(np.eye(2), b), lambda x: _StubHessian(answer, shifts),
        x0, SolverSettings())
    assert shifts == [1e-14, 1e-10, 1e-6, 1e-2]
    assert conv and it == 1 and gnorm == 0.0
    np.testing.assert_array_equal(x, b)


def test_optimize_gradient_step_when_armijo_fails():
    """A Newton system 1e30 times too stiff gives a descent direction no
    Armijo trial accepts; the gradient step of length min(1, 1/|g|)
    is taken instead, and the run still converges."""
    b = np.array([0.5, -1.0])
    x0 = np.array([4.0, 3.0])
    fun_grad = _quadratic(np.eye(2), b)
    hess = lambda x: _StubHessian(lambda rhs, shift: 1e30 * rhs, [])
    x, E, it, gnorm, conv = optimize(fun_grad, hess, x0,
                                     SolverSettings(max_iter=1))
    g0 = fun_grad(x0)[1]
    assert it == 1 and np.linalg.norm(g0) > 1.0
    np.testing.assert_array_equal(x, x0 - (1.0 / np.linalg.norm(g0)) * g0)
    x, E, it, gnorm, conv = optimize(fun_grad, hess, x0, SolverSettings())
    assert conv
    np.testing.assert_allclose(x, b, rtol=1e-12)


def test_optimize_stops_when_the_gradient_step_fails():
    """On 50|x|^2 with |g| < 50 the gradient step of length 1/|g| raises
    the energy: the optimizer stops where it started, not converged."""
    x0 = np.array([0.1, 0.2])
    hess = lambda x: _StubHessian(lambda rhs, shift: 1e30 * rhs, [])
    x, E, it, gnorm, conv = optimize(_quadratic(100.0 * np.eye(2),
                                                np.zeros(2)),
                                     hess, x0, SolverSettings())
    assert it == 0 and not conv
    np.testing.assert_array_equal(x, x0)


def test_optimize_stops_when_no_trial_contracts_the_gradient():
    """A slope below the energy's float64 resolution sends the step to
    the gradient-contraction trials; a constant gradient contracts at
    none of them, so the optimizer stops where it started."""
    c = np.array([6e-9, 8e-9])

    def fun_grad(x, energy=True, gradient=True):
        return (0.0 if energy else None, c if gradient else None)

    x0 = np.array([1.0, 2.0])
    x, E, it, gnorm, conv = optimize(
        fun_grad, lambda x: _StubHessian(lambda rhs, shift: rhs, []), x0,
        SolverSettings())
    assert it == 0 and not conv and gnorm == np.linalg.norm(c)
    np.testing.assert_array_equal(x, x0)


def test_optimize_stall_exit():
    """Half Newton steps on 0.5|x|^2 lower the energy by less than
    energy_tol (1 + |E|) when energy_tol = 1: the optimizer stops after
    NEWTON_STALL_LIMIT such steps, not converged."""
    from ahho.solver import NEWTON_STALL_LIMIT
    x0 = np.array([0.25, 0.5])
    hess = lambda x: _StubHessian(lambda rhs, shift: 0.5 * rhs, [])
    x, E, it, gnorm, conv = optimize(
        _quadratic(np.eye(2), np.zeros(2)), hess, x0,
        SolverSettings(energy_tol=1.0))
    assert it == NEWTON_STALL_LIMIT and not conv
    np.testing.assert_array_equal(x, x0 / 2 ** NEWTON_STALL_LIMIT)
