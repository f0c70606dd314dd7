import numpy as np
import pytest

from ahho.hho import (RT, STABILIZED, GradField, HhoSpace, HhoVector,
                      _batch_eval, _batch_grad, lagrange_node_ids,
                      lattice_nodes, lp_integral)
from ahho.mesh import (DIRICHLET, Triangulation, build_triangulation,
                       refine_uniform)
from ahho.poly import cell_dim, monomial_exponents, reference_triangle_rule
from poly_reference import (CellBasis, RtBasis, SideBasis,
                            divergence_form_gradient_op, grad_basis_div,
                            l2_project_cell, l2_project_side,
                            padded_grad_basis, rt_project, side_quadrature,
                            triangle_quadrature)


def all_dirichlet(mid):
    return DIRICHLET


def square_mesh(nref=1):
    m = build_triangulation([(0, 0), (1, 0), (1, 1), (0, 1)],
                            [(0, 1, 2), (0, 2, 3)], all_dirichlet)
    for _ in range(nref):
        m = refine_uniform(m)
    return m


def lshape_mesh():
    vertices = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0),
                (-1, -1), (0, -1)]
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6),
                 (0, 6, 7)]
    return build_triangulation(vertices, triangles, all_dirichlet)


def random_vector(space, rng):
    return HhoVector(space, rng.standard_normal(space.ndof))


@pytest.mark.parametrize("k", range(6))
def test_running_product_kernels_match_cell_basis(k):
    """Values and gradients built from running-product power tables agree
    with the per-element basis evaluated by integer powers, also where a
    local coordinate is 0 (0**0 and zero exponents)."""
    rng = np.random.default_rng(5 + k)
    centroid, h = np.array([0.3, -0.2]), 0.7
    pts = centroid + h * rng.uniform(-1.0, 1.0, (40, 2))
    pts[:8, 0] = centroid[0]          # local x = 0
    pts[8:16, 1] = centroid[1]        # local y = 0
    pts[16] = centroid                # both 0
    basis = CellBasis(k, centroid, h)
    exps = monomial_exponents(k)
    loc = ((pts - centroid) / h)[None]
    hh = np.array([h])
    for got, want in ((_batch_eval(exps, loc)[0], basis.eval(pts)),
                      (_batch_grad(exps, loc, hh)[0], basis.grad(pts))):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-13,
                                   atol=1e-13 * np.max(np.abs(want)))


def _grad_field_cases(space):
    """(tri, pts): all triangles and subsets, (n, nq, 2) and (n, 3, nq, 2)
    points, and an empty subset."""
    subset = np.array([7, 0, 13, 13, 2])
    return [(slice(None), space.vol_pts), (slice(None), space.side_pts_t),
            (subset, space.vol_pts[subset]),
            (subset, space.side_pts_t[subset]),
            (subset[:0], space.vol_pts[:0])]


@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_grad_field_at_points_matches_basis_table(variant, k, m):
    """``GradField.at_points`` equals the coefficients times the
    per-element RT_k basis (RT) or the P_k basis in each row (stabilized),
    triangle by triangle."""
    rng = np.random.default_rng(11 + k + 3 * m)
    space = HhoSpace(refine_uniform(lshape_mesh()), k, m, variant)
    nt = len(space.corners)
    c = rng.standard_normal((nt, m, space.ng))
    field = GradField(space, c)
    for tri, pts in _grad_field_cases(space):
        got = field.at_points(pts, tri)
        assert got.shape == pts.shape[:-1] + (m, 2)
        for i, t in enumerate(np.arange(nt)[tri]):
            x = pts[i].reshape(-1, 2)
            if variant == RT:
                tau = RtBasis(k, space.centroid[t], space.h_t[t]).eval(x)
                want = np.einsum("pid,mi->pmd", tau, c[t])
            else:
                phi = CellBasis(k, space.centroid[t], space.h_t[t]).eval(x)
                want = np.einsum("pi,mdi->pmd", phi,
                                 c[t].reshape(m, 2, space.ncb))
            np.testing.assert_allclose(
                got[i].reshape(want.shape), want, rtol=0,
                atol=1e-14 * np.abs(want).max(initial=1))


@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_grad_basis_eval_is_the_padded_table(variant, k, m):
    """``grad_values`` with identity coefficients has the bytes of the
    zero-padded basis table."""
    space = HhoSpace(refine_uniform(lshape_mesh()), k, m, variant)
    ng = space.ng
    for tri, pts in _grad_field_cases(space):
        loc = space.local_coords(pts, tri)
        eye = np.broadcast_to(np.eye(ng), (len(loc), ng, ng))
        got = space.grad_values(loc, _batch_eval(space.exps_k, loc), eye)
        want = padded_grad_basis(space, pts, tri)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_grad_moments_is_the_adjoint_of_grad_values(variant, k, m):
    """<grad_values(c), V> = <c, grad_moments(V)> triangle by triangle,
    on volume and side points and on subsets of the triangles."""
    rng = np.random.default_rng(17 + k + 3 * m)
    space = HhoSpace(refine_uniform(lshape_mesh()), k, m, variant)
    for tri, pts in _grad_field_cases(space):
        loc = space.local_coords(pts, tri)
        phi = _batch_eval(space.exps_k, loc)
        c = rng.standard_normal((len(loc), m, space.ng))
        V = rng.standard_normal(pts.shape[:-1] + (m, 2))
        mom = space.grad_moments(loc, phi, V)
        assert mom.shape == (len(loc), space.ng, m)
        lhs = (space.grad_values(loc, phi, c) * V).sum(
            axis=tuple(range(1, V.ndim)))
        rhs = np.einsum("tmi,tim->t", c, mom)
        np.testing.assert_allclose(lhs, rhs, rtol=0, atol=1e-13 * max(
            1.0, np.abs(lhs).max(initial=0)))


@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_gradient_op_matches_divergence_form(variant, k):
    """G from the gradient form of its defining identity equals G from
    the divergence form, to 1e-13 relative."""
    space = HhoSpace(refine_uniform(lshape_mesh()), k, 1, variant)
    want = divergence_form_gradient_op(space)
    np.testing.assert_allclose(space.G_op, want, rtol=0,
                               atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_energy_table_matches_padded_contraction(variant, k):
    """B = G applied to the local unit vectors at the energy rule equals
    the padded basis table contracted with G_op, to 1e-14 relative."""
    space = HhoSpace(refine_uniform(lshape_mesh()), k, 1, variant)
    for degree in (2 * k + 2, 2 * k + 6):
        ed = space.energy_data(degree)
        want = np.einsum("tqid,til->tqdl", padded_grad_basis(space, ed["pts"]),
                         space.G_op)
        assert ed["B"].shape == want.shape
        np.testing.assert_allclose(ed["B"], want, rtol=0,
                                   atol=1e-14 * np.abs(want).max())


def test_triangle_rule_and_local_coords_match_broadcast_formulas():
    """``volume_rule`` and ``local_coords``: the per-component affine
    maps give the same bits as the maps broadcast over the trailing axis
    of length 2."""
    space = HhoSpace(refine_uniform(lshape_mesh()), 1)
    subset = np.array([5, 1, 1, 20])
    for degree in (3, 9):
        ref_pts, ref_w = reference_triangle_rule(degree)
        for tri in (slice(None), subset):
            corners = space.corners[tri]
            p0 = corners[:, 0]
            e1 = corners[:, 1] - p0
            e2 = corners[:, 2] - p0
            det = np.abs(e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
            want = (ref_pts[None, :, 0:1] * e1[:, None, :]
                    + ref_pts[None, :, 1:2] * e2[:, None, :] + p0[:, None, :])
            pts, w = space.volume_rule(degree, tri)
            assert np.array_equal(pts, want)
            assert np.array_equal(w, det[:, None] * ref_w[None, :])
    for tri, pts in ((slice(None), space.vol_pts),
                     (slice(None), space.side_pts_t),
                     (subset, space.side_pts_t[subset])):
        extra = pts.ndim - 2
        c = space.centroid[tri].reshape((-1,) + (1,) * extra + (2,))
        h = space.h_t[tri].reshape((-1,) + (1,) * (extra + 1))
        assert np.array_equal(space.local_coords(pts, tri), (pts - c) / h)


def test_ndof_layout():
    mesh = square_mesh()
    for k in (0, 1, 2):
        for m in (1, 2):
            space = HhoSpace(mesh, k, m=m)
            expected = m * (mesh.num_triangles * cell_dim(k)
                            + mesh.num_sides * (k + 1))
            assert space.ndof == expected


def test_vector_array_view_and_copy():
    """``np.asarray`` of an HhoVector is its data, writable in place; a copy
    is made only when asked for, also in NumPy 1.x's call without ``copy``."""
    v = random_vector(HhoSpace(square_mesh(), 1), np.random.default_rng(3))
    a = np.asarray(v)
    assert a is v.data
    a[0] = 7.0
    assert v.data[0] == 7.0
    assert v.__array__() is v.data
    assert v.__array__(np.float64) is v.data
    for c in (np.array(v), v.__array__(copy=True)):
        assert not np.shares_memory(c, v.data)
        np.testing.assert_array_equal(c, v.data)
    f32 = v.__array__(np.float32)
    assert f32.dtype == np.float32 and not np.shares_memory(f32, v.data)


# -- interpolation ---------------------------------------------------------------

def test_interpolate_constant():
    space = HhoSpace(square_mesh(), 1)
    v = space.interpolate(lambda p: np.ones(len(p)))
    assert np.allclose(v.cells[:, :, 0], 1.0)
    assert np.allclose(v.cells[:, :, 1:], 0.0, atol=1e-13)
    assert np.allclose(v.sides[:, :, 0], 1.0)
    assert np.allclose(v.sides[:, :, 1:], 0.0, atol=1e-13)


def test_interpolate_affine_roundtrip():
    space = HhoSpace(square_mesh(), 1)
    fn = lambda p: 1.0 + 2.0 * p[..., 0] - 0.5 * p[..., 1]
    v = space.interpolate(fn)
    vals = np.einsum("tmi,tqi->tqm", v.cells, space.phi_k_vol)
    exact = fn(space.vol_pts)
    assert np.allclose(vals[:, :, 0], exact, atol=1e-12)


def test_interpolate_singular_matches_side_oracle():
    mesh = lshape_mesh()
    space = HhoSpace(mesh, 2)

    def fn(p):
        r = np.hypot(p[..., 0], p[..., 1])
        phi = np.arctan2(p[..., 1], p[..., 0])
        phi = np.where(phi < 0, phi + 2 * np.pi, phi)
        return np.where(r > 0, r ** (7 / 8), 0.0) * np.sin(7 * phi / 8)

    v = space.interpolate(fn, degree=24)
    for s in (1, 4, 9):
        a = mesh.vertices[mesh.sides[s, 0]]
        b = mesh.vertices[mesh.sides[s, 1]]
        coeff, _ = l2_project_side(lambda p: fn(p), a, b, 2, 24)
        assert np.allclose(v.sides[s, 0], coeff, atol=1e-10)


# -- gradient reconstruction ------------------------------------------------------

@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_gradient_of_affine_interpolant_is_constant(k, variant):
    space = HhoSpace(square_mesh(), k, variant=variant)
    B = np.array([1.7, -0.3])
    v = space.interpolate(lambda p: 0.4 + p @ B)
    g = space.gradient_reconstruction(v)
    vals = g.at_points(space.vol_pts)
    assert np.allclose(vals[:, :, 0, :], B, atol=1e-11)


def test_gradient_of_zero_is_zero():
    space = HhoSpace(square_mesh(), 1)
    g = space.gradient_reconstruction(space.zero_vector())
    assert np.allclose(g.coeffs, 0.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_gradient_defining_identity(k):
    """Per triangle: int_T Gv : tau = -int_T v_T div tau
    + sum_F int_F v_F (tau . nu_T) for random tau."""
    rng = np.random.default_rng(42)
    mesh = square_mesh()
    space = HhoSpace(mesh, k)
    v = random_vector(space, rng)
    g = space.gradient_reconstruction(v)

    tau_vol = padded_grad_basis(space, space.vol_pts)
    div_vol = grad_basis_div(space, space.vol_pts)
    gv = g.at_points(space.vol_pts)[:, :, 0, :]
    vT = np.einsum("tmi,tqi->tq", v.cells, space.phi_k_vol)
    lhs = np.einsum("tq,tqd,tqid->ti", space.vol_w, gv, tau_vol)
    rhs = -np.einsum("tq,tq,tqi->ti", space.vol_w, vT, div_vol)
    tau_side = padded_grad_basis(space, space.side_pts_t)
    taun = np.einsum("tjqid,tjd->tjqi", tau_side, space.nu)
    vF = np.einsum("smn,qn->sqm", v.sides, space.chi_ref)[space.sot][..., 0]
    wside = space.h_f[space.sot][:, :, None] * space.side_wref
    rhs += np.einsum("tjq,tjq,tjqi->ti", wside, vF, taun)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("k", [0, 1, 2])
def test_commutativity_with_projection_oracle(k):
    """G I v equals the independent elementwise RT projection of Dv."""
    rng = np.random.default_rng(3)
    mesh = square_mesh()
    space = HhoSpace(mesh, k)
    for trial in range(20):
        cdeg = 3
        cb = CellBasis(cdeg, (0.5, 0.5), 1.0)
        c = rng.standard_normal(cb.dim)
        fn = lambda p: cb.eval(np.atleast_2d(p)) @ c
        dfn = lambda p: cb.grad(np.atleast_2d(p)) @ c  # wrong contraction
        v = space.interpolate(lambda p: cb.eval(p.reshape(-1, 2)) @ c,
                              degree=2 * cdeg + 2)
        g = space.gradient_reconstruction(v)
        corners = mesh.corners()
        for t in range(0, mesh.num_triangles, 3):
            field = lambda p: np.einsum("qid,i->qd", cb.grad(p), c)
            coeff, basis = rt_project(field, corners[t], k, 2 * cdeg + 2)
            pts = space.vol_pts[t]
            oracle = np.einsum("qid,i->qd", basis.eval(pts), coeff)
            mine = g.at_points(space.vol_pts)[t, :, 0, :]
            assert np.max(np.abs(mine - oracle)) < 1e-9


# -- potential reconstruction ------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2])
def test_potential_reproduces_pk1(k):
    rng = np.random.default_rng(7)
    mesh = square_mesh()
    space = HhoSpace(mesh, k)
    cb = CellBasis(k + 1, (0.3, 0.6), 1.0)
    c = rng.standard_normal(cb.dim)
    fn = lambda p: cb.eval(p.reshape(-1, 2)) @ c
    v = space.interpolate(fn, degree=2 * (k + 1) + 2)
    R = space.potential_reconstruction(v)
    vals = R.at_points(space.vol_pts)[:, :, 0]
    pts = space.vol_pts
    exact = (cb.eval(pts.reshape(-1, 2)) @ c).reshape(pts.shape[:2])
    assert np.max(np.abs(vals - exact)) < 1e-10


def test_potential_constant():
    space = HhoSpace(square_mesh(), 1)
    v = space.interpolate(lambda p: np.full(len(p), 3.25))
    R = space.potential_reconstruction(v)
    vals = R.at_points(space.vol_pts)[:, :, 0]
    assert np.allclose(vals, 3.25, atol=1e-11)


def _pk1_laplacians(space):
    """Laplacians of the P_{k+1} basis at the volume rule, (nt, nq, nk1),
    triangle by triangle from the reference basis."""
    k = space.k
    return np.stack([
        CellBasis(k + 1, space.centroid[t], space.h_t[t]).laplace(x)
        for t, x in enumerate(space.vol_pts)])


def _reference_potential_op(space):
    """R built from scratch, by a Laplacian volume term and a side loop:
    int grad R v . grad phi = -int v_K lap phi + sum_S int_S v_S grad phi
    . nu_T for phi in P_{k+1}, with the mean of R v that of v_K."""
    w = space.vol_w
    gphi = space.cell_grad(space.exps_k1, space.vol_pts)
    stiff = np.einsum("tq,tqid,tqjd->tij", w, gphi, gphi)
    rhs_cell = -np.einsum("tq,tqi,tqj->tij", w, _pk1_laplacians(space),
                          space.phi_k_vol)
    nt, nk1, ncb, nsb = stiff.shape[0], space.nk1, space.ncb, space.nsb
    rhs = np.zeros((nt, nk1, space.nloc))
    rhs[:, :, :ncb] = rhs_cell
    gphi_side = space.cell_grad(space.exps_k1, space.side_pts_t)
    gn = np.einsum("tjqid,tjd->tjqi", gphi_side, space.nu)
    wside = space.h_f[space.sot][:, :, None] * space.side_wref
    for j in range(3):
        blk = np.einsum("tq,tqi,qn->tin", wside[:, j], gn[:, j], space.chi_ref)
        rhs[:, :, ncb + j * nsb:ncb + (j + 1) * nsb] = blk
    mean = np.einsum("tq,tqi->ti", w,
                     space.cell_eval(space.exps_k1, space.vol_pts))
    aug = np.zeros((nt, nk1 + 1, nk1 + 1))
    aug[:, :nk1, :nk1] = stiff
    aug[:, :nk1, nk1] = mean
    aug[:, nk1, :nk1] = mean
    rhs_aug = np.zeros((nt, nk1 + 1, space.nloc))
    rhs_aug[:, :nk1] = rhs
    rhs_aug[:, nk1, :ncb] = np.einsum("tq,tqi->ti", w, space.phi_k_vol)
    return np.linalg.solve(aug, rhs_aug)[:, :nk1]


def _reference_stabilization_op(space):
    """S_{K,S} from hand-written Gram matrices and moments: the identity
    on the side dofs minus the projected traces of v_K and of
    (1 - Pi_K^k) R v."""
    nt, ncb, nsb, nloc = len(space.corners), space.ncb, space.nsb, space.nloc
    mom = np.einsum("tq,tqi,tqj->tij", space.vol_w, space.phi_k_vol,
                    space.cell_eval(space.exps_k1, space.vol_pts))
    gram_k = np.einsum("tq,tqi,tqj->tij", space.vol_w, space.phi_k_vol,
                       space.phi_k_vol)
    proj_k_of_k1 = np.linalg.solve(gram_k, mom)
    inv = np.linalg.inv(np.einsum("q,qi,qj->ij", space.side_wref,
                                  space.chi_ref, space.chi_ref))
    momk = np.einsum("q,qi,tjqn->tjin", space.side_wref, space.chi_ref,
                     space.phi_k_side)
    momk1 = np.einsum("q,qi,tjqn->tjin", space.side_wref, space.chi_ref,
                      space.cell_eval(space.exps_k1, space.side_pts_t))
    trace_proj_k = np.einsum("in,tjnl->tjil", inv, momk)
    trace_proj_k1 = np.einsum("in,tjnl->tjil", inv, momk1)
    S = np.zeros((nt, 3, nsb, nloc))
    R_proj = np.einsum("tci,til->tcl", proj_k_of_k1, space.R_op)
    for j in range(3):
        sl = slice(ncb + j * nsb, ncb + (j + 1) * nsb)
        S[:, j, :, sl] += np.eye(nsb)
        S[:, j, :, :ncb] -= trace_proj_k[:, j]
        S[:, j] -= (np.einsum("tin,tnl->til", trace_proj_k1[:, j], space.R_op)
                    - np.einsum("tin,tnl->til", trace_proj_k[:, j], R_proj))
    return S


def nvb_lshape_mesh():
    """An L-shape refined uniformly, then by NVB towards the corner, so
    that triangles of several shapes and sizes occur."""
    mesh = refine_uniform(lshape_mesh())
    for _ in range(2):
        near = np.nonzero(np.hypot(*mesh.centroids().T) < 0.6)[0]
        mesh = mesh.refine_nvb(near)
    return mesh


@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_potential_and_stabilization_match_reference_builds(k, variant):
    """R read off G equals R built from scratch: the same bits at k = 0,
    1e-13 relative above; S from the shared projections equals S from
    hand-written Gram matrices to 1e-13."""
    space = HhoSpace(nvb_lshape_mesh(), k, variant=variant)
    want = _reference_potential_op(space)
    assert space.R_op.shape == want.shape
    if k == 0:
        assert np.array_equal(space.R_op, want)
    np.testing.assert_allclose(space.R_op, want, rtol=0,
                               atol=1e-13 * np.abs(want).max())
    if variant == STABILIZED:
        want = _reference_stabilization_op(space)
        assert space.S_op.shape == want.shape
        np.testing.assert_allclose(space.S_op, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())


@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_potential_mean_and_stiffness_identity(k, variant):
    rng = np.random.default_rng(11)
    mesh = square_mesh()
    space = HhoSpace(mesh, k, variant=variant)
    v = random_vector(space, rng)
    R = space.potential_reconstruction(v)
    # mean constraint
    mean_R = np.einsum("tq,tqm->tm", space.vol_w, R.at_points(space.vol_pts))
    mean_v = np.einsum("tq,tqm->tm", space.vol_w,
                       np.einsum("tmi,tqi->tqm", v.cells, space.phi_k_vol))
    assert np.max(np.abs(mean_R - mean_v)) < 1e-11
    # stiffness identity against all P_{k+1} test functions
    gR = R.grad_at_points(space.vol_pts)[:, :, 0, :]
    gphi = space.cell_grad(space.exps_k1, space.vol_pts)
    lhs = np.einsum("tq,tqd,tqid->ti", space.vol_w, gR, gphi)
    lap = np.einsum("tq,tqi,tq->ti", space.vol_w, _pk1_laplacians(space),
                    np.einsum("tmi,tqi->tq", v.cells, space.phi_k_vol))
    rhs = -lap
    gphi_side = space.cell_grad(space.exps_k1, space.side_pts_t)
    gn = np.einsum("tjqid,tjd->tjqi", gphi_side, space.nu)
    vF = np.einsum("smn,qn->sqm", v.sides, space.chi_ref)[space.sot][..., 0]
    wside = space.h_f[space.sot][:, :, None] * space.side_wref
    rhs += np.einsum("tjq,tjq,tjqi->ti", wside, vF, gn)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_potential_gradient_is_projection_of_g(k, variant):
    """D R v is the L2 projection of G v onto gradients of P_{k+1}."""
    rng = np.random.default_rng(13)
    mesh = square_mesh()
    space = HhoSpace(mesh, k, variant=variant)
    v = random_vector(space, rng)
    R = space.potential_reconstruction(v)
    G = space.gradient_reconstruction(v)
    gR = R.grad_at_points(space.vol_pts)[:, :, 0, :]
    gv = G.at_points(space.vol_pts)[:, :, 0, :]
    gphi = space.cell_grad(space.exps_k1, space.vol_pts)
    resid = np.einsum("tq,tqd,tqid->ti", space.vol_w, gv - gR, gphi)
    assert np.max(np.abs(resid)) < 1e-10


# -- stabilization ------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2])
def test_stabilization_vanishes_on_pk1_interpolants(k):
    rng = np.random.default_rng(17)
    mesh = square_mesh(0)
    space = HhoSpace(mesh, k, variant=STABILIZED)
    cb = CellBasis(k + 1, (0.4, 0.5), 1.0)
    c = rng.standard_normal(cb.dim)
    v = space.interpolate(lambda p: cb.eval(p.reshape(-1, 2)) @ c,
                          degree=2 * (k + 1) + 2)
    s = space.stabilization(v, v, p=2.0)
    assert abs(s) < 1e-20 or s < 1e-22


@pytest.mark.parametrize("k", [0, 1, 2])
def test_stabilization_op_matches_definition(k):
    """Per triangle and side, S_op applied to v is Pi_S^k (v_S - v_K
    - (1 - Pi_K^k) R v), with the reference projections."""
    rng = np.random.default_rng(19)
    mesh = nvb_lshape_mesh()
    space = HhoSpace(mesh, k, variant=STABILIZED)
    v = random_vector(space, rng)
    loc = v.data[space.loc2glob][:, 0]
    rc = space.potential_reconstruction(v).coeffs[:, 0]
    corners = mesh.corners()
    for t in range(0, mesh.num_triangles, 5):
        cell = CellBasis(k, space.centroid[t], space.h_t[t])
        pot = CellBasis(k + 1, space.centroid[t], space.h_t[t])
        pc, pb = l2_project_cell(lambda x: pot.eval(x) @ rc[t], corners[t],
                                 k, 2 * k + 2)
        for j in range(3):
            s = mesh.side_of_triangle[t, j]
            a, b = mesh.vertices[mesh.sides[s]]
            side = SideBasis(k, a, b)

            def f(x):
                return (side.eval(x) @ v.sides[s, 0]
                        - cell.eval(x) @ v.cells[t, 0]
                        - pot.eval(x) @ rc[t] + pb.eval(x) @ pc)
            want, _ = l2_project_side(f, a, b, k, 2 * k + 2)
            got = space.S_op[t, j] @ loc[t]
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())


def test_stabilization_nonnegative_and_hoelder():
    rng = np.random.default_rng(23)
    mesh = square_mesh()
    p = 4.0
    space = HhoSpace(mesh, 1, variant=STABILIZED)
    for _ in range(100):
        v = random_vector(space, rng)
        assert space.stabilization(v, v, p) >= 0
    for _ in range(20):
        u = random_vector(space, rng)
        v = random_vector(space, rng)
        _, su_elem, _ = space.stabilization(u, u, p, return_parts=True)
        _, sv_elem, _ = space.stabilization(v, v, p, return_parts=True)
        _, suv_elem, _ = space.stabilization(u, v, p, return_parts=True)
        pp = p / (p - 1)
        bound = su_elem ** (1 / pp) * sv_elem ** (1 / p)
        assert np.all(suv_elem <= bound + 1e-10)


# -- companion -----------------------------------------------------------------------

@pytest.mark.parametrize("k", [0, 1, 2])
def test_companion_reproduces_continuous_pk1(k):
    rng = np.random.default_rng(31)
    mesh = square_mesh()
    space = HhoSpace(mesh, k)
    cb = CellBasis(k + 1, (0.5, 0.5), 1.0)
    c = rng.standard_normal(cb.dim)
    fn = lambda p: cb.eval(p.reshape(-1, 2)) @ c
    v = space.interpolate(fn, degree=2 * (k + 1) + 2)
    J = space.companion(v)
    pts = space.vol_pts
    exact = (cb.eval(pts.reshape(-1, 2)) @ c).reshape(pts.shape[:2])
    assert np.max(np.abs(J.at_points(pts)[:, :, 0] - exact)) < 1e-9


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("m", [1, 2])
def test_companion_moment_preservation(k, m):
    rng = np.random.default_rng(37)
    mesh = square_mesh()
    space = HhoSpace(mesh, k, m=m)
    v = random_vector(space, rng)
    J = space.companion(v)
    # cell moments: Pi_T^k J v = v_T
    jv = J.at_points(space.vol_pts)
    mom = np.einsum("tq,tqi,tqm->tim", space.vol_w, space.phi_k_vol, jv)
    gram_k = np.einsum("tq,tqi,tqj->tij", space.vol_w, space.phi_k_vol,
                       space.phi_k_vol)
    cell_proj = np.linalg.solve(gram_k, mom).transpose(0, 2, 1)
    assert np.max(np.abs(cell_proj - v.cells)) < 1e-9
    # side moments: Pi_F^k J v = v_F
    tplus = mesh.adjacency[:, 0]
    jv_side = J.at_points(space.side_pts, tplus)
    mom_s = np.einsum("q,qi,sqm->smi", space.side_wref, space.chi_ref, jv_side)
    gram_s = np.einsum("q,qi,qj->ij", space.side_wref, space.chi_ref,
                       space.chi_ref)
    side_proj = np.linalg.solve(gram_s, mom_s[..., None])[..., 0]
    assert np.max(np.abs(side_proj - v.sides)) < 1e-9


def test_companion_continuity_across_interior_sides():
    rng = np.random.default_rng(41)
    mesh = square_mesh()
    space = HhoSpace(mesh, 1)
    v = random_vector(space, rng)
    J = space.companion(v)
    for s in mesh.interior_sides():
        tp, tm = mesh.adjacency[s]
        pts = space.side_pts[s][None]
        vp = J.at_points(pts, np.array([tp]))
        vm = J.at_points(pts, np.array([tm]))
        assert np.max(np.abs(vp - vm)) < 1e-9


def test_companion_right_inverse():
    rng = np.random.default_rng(43)
    mesh = square_mesh()
    space = HhoSpace(mesh, 1)
    v = random_vector(space, rng)
    J = space.companion(v)
    w = space.interpolate(
        lambda p: _eval_on_mesh(J, space, p), degree=2 * (1 + 3))
    assert np.max(np.abs(w.data - v.data)) < 1e-9


def _eval_on_mesh(poly, space, pts):
    """Evaluate a continuous piecewise polynomial at arbitrary points by
    locating the containing triangle (brute force, tests only)."""
    mesh = space.mesh
    corners = mesh.corners()
    out = np.zeros(len(pts))
    for i, x in enumerate(pts):
        found = False
        for t in range(mesh.num_triangles):
            lam = _bary(corners[t], x)
            if np.all(lam > -1e-9):
                out[i] = poly.at_points(x[None, None, :],
                                        np.array([t]))[0, 0, 0]
                found = True
                break
        assert found
    return out


def _bary(c, x):
    A = np.array([[c[0, 0], c[1, 0], c[2, 0]],
                  [c[0, 1], c[1, 1], c[2, 1]],
                  [1.0, 1.0, 1.0]])
    return np.linalg.solve(A, np.array([x[0], x[1], 1.0]))


# -- seminorm -----------------------------------------------------------------------

def test_seminorm_constant_zero():
    space = HhoSpace(square_mesh(), 1)
    v = space.interpolate(lambda p: np.full(len(p), 2.0))
    assert space.seminorm(v, p=2.0) < 1e-12


def test_seminorm_affine():
    space = HhoSpace(square_mesh(), 1)
    B = np.array([2.0, 1.0])
    v = space.interpolate(lambda p: p @ B)
    p = 4.0
    expected = np.linalg.norm(B) * 1.0 ** (1 / p)  # |Omega| = 1
    assert abs(space.seminorm(v, p) - expected) < 1e-11


def test_seminorm_matches_quadrature_oracle():
    rng = np.random.default_rng(53)
    mesh = square_mesh(0)
    space = HhoSpace(mesh, 1)
    v = random_vector(space, rng)
    p = 2.0
    total = 0.0
    corners = mesh.corners()
    for t in range(mesh.num_triangles):
        rule = triangle_quadrature(corners[t], 6)
        cb = CellBasis(1, corners[t].mean(axis=0),
                       np.sqrt(space.area[t]))
        gv = np.einsum("qid,i->qd", cb.grad(rule.points), v.cells[t, 0])
        total += rule.weights @ np.sum(gv ** 2, axis=1)
        for j in range(3):
            s = mesh.side_of_triangle[t, j]
            a = mesh.vertices[mesh.sides[s, 0]]
            b = mesh.vertices[mesh.sides[s, 1]]
            srule = side_quadrature(a, b, 6)
            h = np.linalg.norm(b - a)
            vT = cb.eval(srule.points) @ v.cells[t, 0]
            sb = SideBasis(1, a, b)
            vF = sb.eval(srule.points) @ v.sides[s, 0]
            total += h ** (1 - p) * (srule.weights @ (vT - vF) ** 2)
    assert abs(space.seminorm(v, p) ** p - total) < 1e-10 * max(1, total)


@pytest.mark.parametrize("variant", [RT, STABILIZED])
def test_norm_equivalence_regression(variant):
    """Record-style check: c ||v||_l <= ||G v||_p (+ s(v;v)) <= C ||v||_l."""
    rng = np.random.default_rng(59)
    mesh = square_mesh()
    p = 2.0
    space = HhoSpace(mesh, 1, variant=variant)
    ratios = []
    for _ in range(100):
        v = random_vector(space, rng)
        nv = space.seminorm(v, p)
        g = space.gradient_reconstruction(v).lp_norm(p)
        if variant == STABILIZED:
            g = (g ** p + space.stabilization(v, v, p)) ** (1 / p)
        ratios.append(g / nv)
    ratios = np.array(ratios)
    # recorded regression band for this mesh family
    assert ratios.min() > 0.2
    assert ratios.max() < 6.0


def test_companion_gradient_matches_on_resolved_data():
    """When the skeleton data are the traces of a globally continuous
    P_{k+1} function (vanishing estimator terms), G v = D(J v)."""
    rng = np.random.default_rng(61)
    mesh = square_mesh()
    for k in (0, 1):
        space = HhoSpace(mesh, k)
        cb = CellBasis(k + 1, (0.5, 0.5), 1.0)
        c = rng.standard_normal(cb.dim)
        v = space.interpolate(lambda p: cb.eval(p.reshape(-1, 2)) @ c,
                              degree=2 * (k + 1) + 4)
        G = space.gradient_reconstruction(v)
        J = space.companion(v)
        pts = space.vol_pts
        gv = G.at_points(pts)
        gj = J.grad_at_points(pts)
        assert np.max(np.abs(gv - gj)) < 1e-9


def test_companion_distance_controlled_by_jump_terms():
    """||G v - D J v||_p^p stays finite and comparable to the skeleton
    jump/trace terms (recorded regression factor)."""
    rng = np.random.default_rng(67)
    mesh = square_mesh()
    p = 2.0
    space = HhoSpace(mesh, 1)
    for _ in range(10):
        v = random_vector(space, rng)
        G = space.gradient_reconstruction(v)
        J = space.companion(v)
        pts = space.vol_pts
        diff = G.at_points(pts) - J.grad_at_points(pts)
        lhs = np.sum(space.vol_w * np.einsum("tqmd,tqmd->tq", diff, diff))
        # skeleton terms: h^{1-p}-weighted traces of v_T - v_F
        vT_side = np.einsum("tmi,tjqi->tjqm", v.cells, space.phi_k_side)
        vF = np.einsum("smn,qn->sqm", v.sides, space.chi_ref)[space.sot]
        d = vT_side - vF
        mag = np.einsum("tjqm,tjqm->tjq", d, d)
        h = space.h_f[space.sot]
        rhs = np.sum(h ** (1.0 - p)
                     * np.einsum("tjq,q->tj", mag, space.side_wref) * h)
        assert np.isfinite(lhs)
        assert lhs <= 100.0 * rhs


def test_norm_equivalence_regression_quartic():
    """p = 4 band for the stabilized equivalence (recorded constants)."""
    rng = np.random.default_rng(73)
    mesh = square_mesh()
    space = HhoSpace(mesh, 0, variant=STABILIZED)
    ratios = []
    for _ in range(60):
        v = random_vector(space, rng)
        lhs = space.seminorm(v, 4.0) ** 4
        g = space.gradient_reconstruction(v).lp_norm(4.0, degree=8) ** 4
        s = space.stabilization(v, v, 4.0)
        ratios.append((g + s) / lhs)
    # recorded band on this mesh family: [1.17, 80.2]
    assert min(ratios) > 0.5
    assert max(ratios) < 150.0


@pytest.mark.parametrize("k", [0, 1, 2])
def test_companion_node_ids_identify_equal_nodes(k):
    """On an NVB-refined L-shape the global ids of the P_{k+1} lattice
    nodes are equal exactly where the node coordinates are, and count
    nv + k ns + nt k(k-1)/2."""
    mesh = lshape_mesh()
    for _ in range(3):
        near = np.nonzero(np.hypot(*mesh.centroids().T) < 0.5)[0]
        mesh = mesh.refine_nvb(near)
    lat = lattice_nodes(k + 1)
    gid = lagrange_node_ids(mesh.triangles, lat).reshape(-1)
    xy = np.round(np.einsum("nj,tjd->tnd", lat / (k + 1),
                            mesh.corners()).reshape(-1, 2), 12)
    _, coord_id = np.unique(xy, axis=0, return_inverse=True)
    pairs = np.unique(np.stack([gid, coord_id.reshape(-1)]), axis=1)
    assert len(np.unique(pairs[0])) == pairs.shape[1]
    assert len(np.unique(pairs[1])) == pairs.shape[1]
    n_global = gid.max() + 1
    assert n_global == (mesh.num_vertices + k * mesh.num_sides
                        + mesh.num_triangles * k * (k - 1) // 2)
    assert n_global == pairs.shape[1]


@pytest.mark.parametrize("k", [0, 1, 2])
def test_companion_independent_of_numbering(k):
    """Renumbering the vertices and triangles of a refined L-shape and
    rotating each triangle's local vertex order, keeping its refinement
    edge, leaves J of the interpolated data unchanged at fixed points.
    The data are a polynomial that the interpolation's rule integrates
    exactly, since rotating a triangle moves its quadrature points."""
    rng = np.random.default_rng(53)
    mesh = nvb_lshape_mesh()
    nv, nt = mesh.num_vertices, mesh.num_triangles
    vorder = rng.permutation(nv)            # new vertex j = old vorder[j]
    vnew = np.empty(nv, dtype=np.int64)
    vnew[vorder] = np.arange(nv)
    torder = rng.permutation(nt)            # new triangle i = old torder[i]
    shift = rng.integers(0, 3, nt)
    tri = np.take_along_axis(vnew[mesh.triangles[torder]],
                             (np.arange(3) + shift[:, None]) % 3, axis=1)
    other = Triangulation(mesh.vertices[vorder], tri,
                          (mesh.ref_edge[torder] - shift) % 3, all_dirichlet)

    def fn(x):
        return x[:, 0] ** 5 * x[:, 1] - 3 * x[:, 0] ** 2 * x[:, 1] ** 3 \
            + x[:, 1] ** 4 - x[:, 0]

    pts = np.einsum("nj,tjd->tnd", lattice_nodes(k + 4) / (k + 4),
                    mesh.corners())
    J = HhoSpace(mesh, k).companion(HhoSpace(mesh, k).interpolate(fn))
    space = HhoSpace(other, k)
    J_other = space.companion(space.interpolate(fn))
    np.testing.assert_allclose(J_other.at_points(pts[torder]),
                               J.at_points(pts)[torder], rtol=0, atol=1e-12)


def test_rt_ops_keep_no_stabilization_or_companion_state():
    """An RT space builds no stabilization operator, and the companion
    leaves no geometry behind on the space."""
    rng = np.random.default_rng(3)
    space = HhoSpace(square_mesh(), 1)
    assert not hasattr(space, "S_op")
    before = dict(vars(space))
    space.companion(random_vector(space, rng))
    assert vars(space).keys() == before.keys()
    assert all(vars(space)[key] is val for key, val in before.items())
    assert hasattr(HhoSpace(square_mesh(), 1, variant=STABILIZED), "S_op")


def test_dirichlet_dofs_follow_mask_order():
    """Vector case with partly constrained sides (fhm-rect, m = 2): the
    constrained dofs come side by side, component by component."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark("fhm-rect")
    mesh = refine_uniform(bench.initial_mesh())
    mask = bench.dirichlet_mask(mesh)
    space = HhoSpace(mesh, 1, m=2, dirichlet_mask=mask)
    assert mask.any(axis=1).sum() > mask.all(axis=1).sum() > 0
    want = np.concatenate([space.side_dof_indices(s, c)
                           for s, c in zip(*np.nonzero(mask))])
    got = space.dirichlet_dofs()
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("k, m", [(0, 1), (1, 2), (2, 3)])
def test_local_maps_follow_dof_layout(k, m):
    """loc2glob[t, c] lists the cell dofs (t m + c) ncb + i, then for each
    local side j the side dofs ncell + (s m + c)(k + 1) + n of its side
    s; side_dof_indices gives the latter."""
    mesh = lshape_mesh()
    space = HhoSpace(mesh, k, m)
    ncb, nsb = cell_dim(k), k + 1
    ncell = mesh.num_triangles * m * ncb
    for t in range(mesh.num_triangles):
        for c in range(m):
            sides = [ncell + (s * m + c) * nsb + np.arange(nsb)
                     for s in mesh.side_of_triangle[t]]
            want = np.concatenate([(t * m + c) * ncb + np.arange(ncb)]
                                  + sides)
            assert np.array_equal(space.loc2glob[t, c], want)
            for s, dofs in zip(mesh.side_of_triangle[t], sides):
                assert np.array_equal(space.side_dof_indices(s, c), dofs)
    assert space.loc2glob.dtype == np.int64
    assert space.loc2glob.flags.c_contiguous


def test_dirichlet_mask_must_have_one_column_per_component():
    """On the L-shape, an (ns, 2) mask on a scalar space (side 0,
    component 1 set) and an (ns,) mask are refused when the space is
    built, not read as other dofs or failing later."""
    mesh = lshape_mesh()
    ns = mesh.num_sides
    assert mesh.adjacency[0, 1] < 0
    wide = np.zeros((ns, 2), dtype=bool)
    wide[0, 1] = True
    for mask in (wide, np.zeros(ns, dtype=bool)):
        with pytest.raises(ValueError, match="Dirichlet mask of shape"):
            HhoSpace(mesh, 1, dirichlet_mask=mask)
    space = HhoSpace(mesh, 1, m=2, dirichlet_mask=wide)
    assert np.array_equal(space.dirichlet_dofs(), space.side_dof_indices(0, 1))


@pytest.mark.parametrize("shape", [(5, 7), (5, 3, 7), (0, 7), (0, 3, 7)])
def test_lp_integral_matches_written_out_sum(shape):
    """Per element sum of w |vals|^p with the Frobenius norm over the
    value axes, for one and two point axes and for no element at all."""
    rng = np.random.default_rng(2)
    w = rng.random(shape)
    vals = rng.standard_normal(shape + (2, 2))
    got = lp_integral(w, vals, 3.0)
    want = (w * np.linalg.norm(vals.reshape(shape + (4,)), axis=-1) ** 3
            ).reshape(shape[0], int(np.prod(shape[1:]))).sum(axis=1)
    assert got.shape == (shape[0],)
    np.testing.assert_allclose(got, want, rtol=1e-13)


@pytest.mark.parametrize("variant", [RT, STABILIZED])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_residuals_match_projections_of_reconstruction(k, variant):
    """delta_K v = Pi_K^k R v - v_K and delta_S v = Pi_S^k (R v)|_S - v_S,
    against the per-element reference projections."""
    rng = np.random.default_rng(29)
    mesh = nvb_lshape_mesh()
    space = HhoSpace(mesh, k, m=2, variant=variant)
    v = random_vector(space, rng)
    R = space.potential_reconstruction(v)
    d_k, d_s = space.residuals(v.data[space.loc2glob], R.coeffs)
    assert d_k.shape == (mesh.num_triangles, 2, space.ncb)
    assert d_s.shape == (mesh.num_triangles, 3, 2, space.nsb)
    corners = mesh.corners()
    for t in range(0, mesh.num_triangles, 7):
        pot = CellBasis(k + 1, space.centroid[t], space.h_t[t])
        for c in range(2):
            def rv(x):
                return pot.eval(x) @ R.coeffs[t, c]
            want, _ = l2_project_cell(rv, corners[t], k, 2 * k + 2)
            np.testing.assert_allclose(d_k[t, c], want - v.cells[t, c],
                                       rtol=0, atol=1e-11)
            for j in range(3):
                s = mesh.side_of_triangle[t, j]
                a, b = mesh.vertices[mesh.sides[s]]
                want, _ = l2_project_side(rv, a, b, k, 2 * k + 2)
                np.testing.assert_allclose(d_s[t, j, c],
                                           want - v.sides[s, c],
                                           rtol=0, atol=1e-11)
