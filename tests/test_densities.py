import numpy as np
import pytest

from ahho.densities import (OdpParameters, fhm, optimal_design, p_laplace,
                            two_well)


def odp_benchmark_params(lam=0.0145, mu1=1.0, mu2=2.0):
    xi1 = np.sqrt(2 * lam * mu1 / mu2)
    xi2 = mu2 * xi1 / mu1
    return OdpParameters(mu1, mu2, xi1, xi2)


ALL_DENSITIES = [
    p_laplace(4.0),
    p_laplace(2.0),
    optimal_design(odp_benchmark_params()),
    two_well(-np.array([3.0, 2.0]) / np.sqrt(13),
             np.array([3.0, 2.0]) / np.sqrt(13)),
    fhm(),
]


def fd_gradient(density, A, eps=1e-7):
    g = np.zeros_like(A)
    for m in range(A.shape[0]):
        for d in range(A.shape[1]):
            Ap = A.copy()
            Am = A.copy()
            Ap[m, d] += eps
            Am[m, d] -= eps
            g[m, d] = (density.w(Ap[None])[0] - density.w(Am[None])[0]) \
                / (2 * eps)
    return g


def random_args(density, rng, n):
    return rng.standard_normal((n, density.m, 2))


# -- direct formula checks ---------------------------------------------------------

def test_p_laplace_basic_values():
    d = p_laplace(4.0)
    A = np.array([[[1.0, 0.0]]])
    assert abs(d.w(A)[0] - 0.25) < 1e-15
    assert np.allclose(d.dw(A)[0], [[1.0, 0.0]])
    Z = np.zeros((1, 1, 2))
    assert d.w(Z)[0] == 0.0
    assert np.allclose(d.dw(Z)[0], 0.0)


def _p_laplace_d2w_m1(p, A):
    """D^2 W of |a|^p / p on (..., 1, 2) arguments, written per entry."""
    r = np.maximum(np.sqrt(np.einsum("...md,...md->...", A, A)), 1e-12)
    h = np.zeros(A.shape[:-2] + (1, 2, 1, 2))
    h[..., 0, :, 0, :] = (r ** (p - 2))[..., None, None] * np.eye(2)
    if p != 2:
        h[..., 0, :, 0, :] += ((p - 2) * r ** (p - 4))[..., None, None] \
            * np.einsum("...d,...e->...de", A[..., 0, :], A[..., 0, :])
    return h


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
def test_p_laplace_d2w_any_trailing_shape(p):
    """d2w of (m, d) arguments is r^(p-2) I + (p-2) r^(p-4) a (x) a; on
    (1, 2), the shape of G v, it has the bits of the per-entry formula."""
    rng = np.random.default_rng(31)
    d2w = p_laplace(p).d2w
    A = rng.standard_normal((40, 1, 2))
    A[0] = 0.0
    assert d2w(A).tobytes() == _p_laplace_d2w_m1(p, A).tobytes()
    for shape in ((1, 1), (2, 1), (2, 2)):
        A = rng.standard_normal((40,) + shape)
        a = A.reshape(40, -1)
        r = np.sqrt(np.einsum("na,na->n", a, a))[:, None, None]
        ref = (r ** (p - 2) * np.eye(a.shape[1])
               + (p - 2) * r ** (p - 4) * np.einsum("na,nb->nab", a, a))
        np.testing.assert_allclose(d2w(A).reshape(ref.shape), ref,
                                   rtol=1e-13, atol=0)


def test_p_laplace_rejects_bad_exponent():
    with pytest.raises(ValueError):
        p_laplace(1.0)
    with pytest.raises(ValueError):
        p_laplace(0.5)


def test_odp_benchmark_parameters():
    par = odp_benchmark_params()
    assert abs(par.xi1 - np.sqrt(0.0145)) < 1e-15
    assert abs(par.xi2 - 2 * par.xi1) < 1e-15
    par.validate()


def test_odp_parameter_constraint_enforced():
    with pytest.raises(ValueError):
        optimal_design(OdpParameters(1.0, 2.0, 0.1, 0.3)).w


def test_odp_branch_continuity():
    par = odp_benchmark_params()
    d = optimal_design(par)
    for xi in (par.xi1, par.xi2):
        e = np.array([1.0, 0.0])
        below = d.w(np.array([[(xi - 1e-12) * e]]))[0]
        above = d.w(np.array([[(xi + 1e-12) * e]]))[0]
        assert abs(below - above) < 1e-10
        # one-sided difference quotients agree at the joints (C1)
        eps = 1e-7
        left = (d.w(np.array([[xi * e]]))[0]
                - d.w(np.array([[(xi - eps) * e]]))[0]) / eps
        right = (d.w(np.array([[(xi + eps) * e]]))[0]
                 - d.w(np.array([[xi * e]]))[0]) / eps
        assert abs(left - right) < 1e-6


def test_two_well_zero_at_wells_and_nonnegative():
    F2 = np.array([3.0, 2.0]) / np.sqrt(13)
    d = two_well(-F2, F2)
    assert abs(d.w(np.array([[-F2]]))[0]) < 1e-14
    assert abs(d.w(np.array([[F2]]))[0]) < 1e-14
    # midpoint of the wells: max-term vanishes, second term evaluated directly
    B = np.zeros(2)
    wB = d.w(np.array([[B]]))[0]
    assert abs(wB - 0.0) < 1e-14
    rng = np.random.default_rng(1)
    assert np.all(d.w(3 * rng.standard_normal((500, 1, 2))) >= -1e-12)


def test_two_well_rejects_equal_wells():
    with pytest.raises(ValueError):
        two_well([1.0, 0.0], [1.0, 0.0])


def _two_well_einsum(F1, F2):
    """The two-well formulas written with einsum and np.where."""
    A = (F2 - F1) / 2
    B = (F1 + F2) / 2
    a2 = float(A @ A)

    def w(M):
        d = M[..., 0, :] - B
        d2 = np.einsum("...d,...d->...", d, d)
        ad = np.einsum("...d,d->...", d, A)
        return np.maximum(0.0, d2 - a2) ** 2 + 4 * (a2 * d2 - ad ** 2)

    def dw(M):
        d = M[..., 0, :] - B
        d2 = np.einsum("...d,...d->...", d, d)
        ad = np.einsum("...d,d->...", d, A)
        g = (4 * np.maximum(0.0, d2 - a2)[..., None] * d
             + 8 * (a2 * d - ad[..., None] * A))
        return g[..., None, :]

    def d2w(M):
        d = M[..., 0, :] - B
        d2 = np.einsum("...d,...d->...", d, d)
        eye = np.eye(2)
        h = np.zeros(M.shape[:-2] + (1, 2, 1, 2))
        h[..., 0, :, 0, :] = (
            4 * np.maximum(0.0, d2 - a2)[..., None, None] * eye
            + 8 * np.where((d2 > a2)[..., None, None],
                           np.einsum("...d,...e->...de", d, d), 0.0)
            + 8 * (a2 * eye - np.einsum("d,e->de", A, A)))
        return h
    return w, dw, d2w


def test_two_well_kernels_match_einsum_formulas():
    """Inside and outside the ellipse |d| <= |a| around the midpoint of the
    wells, and on its boundary."""
    rng = np.random.default_rng(31)
    F1 = np.array([-0.3, 0.7])
    F2 = np.array([1.1, -0.2])
    a = np.linalg.norm(F2 - F1) / 2
    direction = rng.standard_normal((3, 50, 2))
    direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
    radius = np.stack([a * rng.uniform(0.0, 1.0, 50),
                       a * rng.uniform(1.0, 3.0, 50), np.full(50, a)])
    M = ((F1 + F2) / 2 + radius[..., None] * direction)[..., None, :]
    density = two_well(F1, F2)
    for new, ref in zip((density.w, density.dw, density.d2w),
                        _two_well_einsum(F1, F2)):
        got, want = new(M), ref(M)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want).max())


def test_fhm_values():
    d = fhm()
    eye = np.eye(2)[None]
    assert abs(d.w(eye)[0] - 1.0) < 1e-15
    assert d.w(np.zeros((1, 2, 2)))[0] == 0.0


# -- derivative consistency ----------------------------------------------------------

@pytest.mark.parametrize("density", ALL_DENSITIES, ids=lambda d: d.name)
def test_dw_matches_finite_differences(density):
    rng = np.random.default_rng(101)
    count = 0
    while count < 50:
        A = rng.standard_normal((density.m, 2))
        if density.name == "two-well":
            # keep a margin from the max-switch surface
            g = A[0] @ A[0] - 1.0
            if abs(g) < 0.05:
                continue
        if np.linalg.norm(A) < 0.1:
            continue
        g_fd = fd_gradient(density, A)
        g = density.dw(A[None])[0]
        err = np.max(np.abs(g - g_fd)) / max(1.0, np.max(np.abs(g)))
        assert err < 1e-6, density.name
        count += 1


@pytest.mark.parametrize("density", ALL_DENSITIES, ids=lambda d: d.name)
def test_hessian_matches_fd_of_gradient(density):
    if density.d2w is None:
        pytest.skip("no hessian")
    rng = np.random.default_rng(7)
    eps = 1e-6
    for _ in range(10):
        A = rng.standard_normal((density.m, 2)) * 1.5
        if density.name == "two-well" and abs(A[0] @ A[0] - 1.0) < 0.1:
            continue
        if np.linalg.norm(A) < 0.2:
            continue
        H = density.d2w(A[None])[0]
        for n in range(density.m):
            for e in range(2):
                Ap = A.copy()
                Am = A.copy()
                Ap[n, e] += eps
                Am[n, e] -= eps
                col = (density.dw(Ap[None])[0]
                       - density.dw(Am[None])[0]) / (2 * eps)
                err = np.max(np.abs(H[:, :, n, e] - col))
                assert err < 1e-4 * max(1.0, np.max(np.abs(H)))


@pytest.mark.parametrize("density", ALL_DENSITIES, ids=lambda d: d.name)
def test_midpoint_convexity(density):
    rng = np.random.default_rng(11)
    A = 2.5 * rng.standard_normal((1000, density.m, 2))
    B = 2.5 * rng.standard_normal((1000, density.m, 2))
    lhs = density.w((A + B) / 2)
    rhs = (density.w(A) + density.w(B)) / 2
    assert np.all(lhs <= rhs + 1e-10)


@pytest.mark.parametrize("density", ALL_DENSITIES[:4], ids=lambda d: d.name)
def test_two_sided_growth_regression(density):
    rng = np.random.default_rng(13)
    A = 4.0 * rng.standard_normal((2000, density.m, 2))
    vals = density.w(A)
    mag = np.sqrt(np.einsum("nmd,nmd->n", A, A))
    c = np.max(vals / (mag ** density.p + 1.0))
    assert c < 10.0, f"{density.name}: growth factor {c}"


# -- conjugates ------------------------------------------------------------------------

def test_p4_conjugate_formula_and_fenchel_young():
    d = p_laplace(4.0)
    rng = np.random.default_rng(17)
    S = rng.standard_normal((20, 1, 2))
    assert np.allclose(d.conjugate(S),
                       0.75 * np.sum(S ** 2, axis=(1, 2)) ** (2 / 3))
    A = rng.standard_normal((50, 1, 2))
    Sg = d.dw(A)
    lhs = d.w(A) + d.conjugate(Sg)
    rhs = np.einsum("nmd,nmd->n", A, Sg)
    assert np.max(np.abs(lhs - rhs)) < 1e-8
    # inequality for generic pairs
    S2 = rng.standard_normal((200, 1, 2))
    A2 = rng.standard_normal((200, 1, 2))
    assert np.all(d.w(A2) + d.conjugate(S2)
                  - np.einsum("nmd,nmd->n", A2, S2) >= -1e-10)


def test_conjugate_at_zero_is_zero():
    for d in ALL_DENSITIES:
        if d.conjugate is None:
            continue
        assert abs(d.conjugate(np.zeros((1, 1, 2)))[0]) < 1e-14


def test_odp_conjugate_matches_grid_oracle():
    par = odp_benchmark_params()
    d = optimal_design(par)

    def psi(xi):
        c3 = -par.xi1 * par.mu2 * (par.xi1 / 2 - par.xi2 / 2)
        return np.where(xi <= par.xi1, par.mu2 * xi ** 2 / 2,
                        np.where(xi <= par.xi2,
                                 par.xi1 * par.mu2 * (xi - par.xi1 / 2),
                                 par.mu1 * xi ** 2 / 2 + c3))

    grid = np.linspace(0.0, 12.0, 400001)
    psig = psi(grid)
    for t in (0.0, 0.05, par.mu2 * par.xi1, 0.5, 1.3, 4.0):
        oracle = np.max(t * grid - psig)
        mine = d.conjugate(np.array([[[t, 0.0]]]))[0]
        assert abs(mine - oracle) < 1e-6, t


def test_odp_fenchel_young():
    d = optimal_design(odp_benchmark_params())
    rng = np.random.default_rng(23)
    A = rng.standard_normal((100, 1, 2))
    Sg = d.dw(A)
    gap = d.w(A) + d.conjugate(Sg) - np.einsum("nmd,nmd->n", A, Sg)
    assert np.max(np.abs(gap)) < 1e-8
