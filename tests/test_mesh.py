import numpy as np
import pytest

from ahho.mesh import (DIRICHLET, NEUMANN, MeshError, build_triangulation,
                       read_mesh, refine_nvb, refine_uniform,
                       shape_regularity, write_mesh)


def all_dirichlet(mid):
    return DIRICHLET


def reference_triangle():
    return build_triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)],
                               all_dirichlet)


def unit_square():
    return build_triangulation([(0, 0), (1, 0), (1, 1), (0, 1)],
                               [(0, 1, 2), (0, 2, 3)], all_dirichlet)


def lshape():
    vertices = [(0, 0), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0),
                (-1, -1), (0, -1)]
    triangles = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 6),
                 (0, 6, 7)]
    return build_triangulation(vertices, triangles, all_dirichlet)


# -- half-edge oracle ---------------------------------------------------------

def halfedge_edge_count(triangles):
    """Independent edge count: pair up directed half-edges."""
    half = set()
    for (a, b, c) in triangles:
        for u, v in ((a, b), (b, c), (c, a)):
            assert (u, v) not in half, "inconsistent orientation"
            half.add((u, v))
    edges = set(tuple(sorted(e)) for e in half)
    interior = sum(1 for (u, v) in edges if (v, u) in half and (u, v) in half
                   and ((v, u) in half))
    return len(edges)


def test_reference_triangle_topology():
    m = reference_triangle()
    assert m.num_triangles == 1
    assert m.num_sides == 3
    assert len(m.interior_sides()) == 0
    assert len(m.boundary_sides()) == 3


def test_unit_square_topology():
    m = unit_square()
    assert m.num_triangles == 2
    assert len(m.interior_sides()) == 1
    assert len(m.boundary_sides()) == 4


def test_lshape_euler_formula():
    m = lshape()
    n_edges = halfedge_edge_count([tuple(t) for t in m.triangles])
    assert m.num_sides == n_edges
    assert m.num_vertices - m.num_sides + m.num_triangles == 1


def test_areas_positive_and_cover_domain():
    for m, area in ((reference_triangle(), 0.5), (unit_square(), 1.0),
                    (lshape(), 3.0)):
        assert np.all(m.areas() > 0)
        assert abs(m.areas().sum() - area) < 1e-14


def test_normals_point_outward_of_t_plus():
    m = lshape()
    cent = m.centroids()
    for s in range(m.num_sides):
        tp = m.adjacency[s, 0]
        mid = 0.5 * (m.vertices[m.sides[s, 0]] + m.vertices[m.sides[s, 1]])
        assert np.dot(m.normals[s], mid - cent[tp]) > 0


def test_degenerate_triangle_rejected():
    with pytest.raises(MeshError):
        build_triangulation([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)],
                            all_dirichlet)


def test_hanging_node_rejected():
    vertices = [(0, 0), (2, 0), (1, 0), (1, 1)]
    triangles = [(0, 2, 3), (2, 1, 3), (0, 1, 3)]
    with pytest.raises(MeshError):
        build_triangulation(vertices, triangles, all_dirichlet)


def test_unlabeled_boundary_rejected():
    def bad_rule(mid):
        return "interior"
    with pytest.raises(MeshError):
        build_triangulation([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)], bad_rule)


# -- refinement ----------------------------------------------------------------

def conforming(m):
    """Brute-force conformity: interior sides in exactly 2 triangles,
    boundary sides in exactly 1, and no vertex inside any side."""
    counts = np.zeros(m.num_sides, dtype=int)
    for t in range(m.num_triangles):
        for s in m.side_of_triangle[t]:
            counts[s] += 1
    if not np.all((counts == 1) | (counts == 2)):
        return False
    for v in m.vertices:
        for s in range(m.num_sides):
            a = m.vertices[m.sides[s, 0]]
            b = m.vertices[m.sides[s, 1]]
            t = np.dot(v - a, b - a) / np.dot(b - a, b - a)
            if 1e-9 < t < 1 - 1e-9:
                proj = a + t * (b - a)
                if np.linalg.norm(v - proj) < 1e-12:
                    return False
    return True


def test_single_bisection_halves_area():
    m = reference_triangle()
    fine = refine_nvb(m, {0})
    assert fine.num_triangles == 2
    assert np.allclose(fine.areas(), 0.25)
    assert np.all(fine.parent == 0)
    assert conforming(fine)


def test_closure_refines_neighbor():
    m = unit_square()
    fine = refine_nvb(m, {0})
    assert conforming(fine)
    # both diagonal-sharing triangles must have been bisected
    assert fine.num_triangles >= 4
    assert set(fine.parent) == {0, 1}


def test_children_satisfy_volume_reduction():
    # (M2) with gamma = 1/2: every child of a refined triangle has at most
    # half the parent volume; a single bisection gives exactly half.
    m = lshape()
    fine = refine_nvb(m, {0, 3})
    coarse_area = m.areas()
    children = {par: np.nonzero(fine.parent == par)[0]
                for par in range(m.num_triangles)}
    refined = [par for par, ch in children.items() if len(ch) > 1]
    assert refined, "marking must refine something"
    for par in refined:
        for t in children[par]:
            assert fine.areas()[t] <= 0.5 * coarse_area[par] + 1e-14


def test_children_areas_sum_to_parent():
    m = lshape()
    fine = refine_nvb(m, {1, 4})
    fa = fine.areas()
    for par in range(m.num_triangles):
        mask = fine.parent == par
        assert abs(fa[mask].sum() - m.areas()[par]) < 1e-12 * m.areas()[par]


def test_uniform_refinement_counts():
    m1 = reference_triangle()
    assert refine_uniform(m1).num_triangles == 4
    m2 = unit_square()
    f2 = refine_uniform(m2)
    assert f2.num_triangles == 8
    assert abs(f2.areas().sum() - 1.0) < 1e-12
    assert conforming(f2)


def test_uniform_refinement_preserves_area_lshape():
    m = lshape()
    for _ in range(3):
        m = refine_uniform(m)
    assert abs(m.areas().sum() - 3.0) < 1e-12 * 3.0
    assert conforming(m)


# -- shape regularity -----------------------------------------------------------

def radius_ratio(p0, p1, p2):
    """Closed-form inradius / circumradius oracle."""
    a = np.linalg.norm(np.subtract(p2, p1))
    b = np.linalg.norm(np.subtract(p0, p2))
    c = np.linalg.norm(np.subtract(p1, p0))
    s = 0.5 * (a + b + c)
    area = 0.5 * abs((p1[0] - p0[0]) * (p2[1] - p0[1])
                     - (p1[1] - p0[1]) * (p2[0] - p0[0]))
    return (area / s) / (a * b * c / (4 * area))


def test_shape_regularity_equilateral():
    m = build_triangulation([(0, 0), (1, 0), (0.5, np.sqrt(3) / 2)],
                            [(0, 1, 2)], all_dirichlet)
    assert abs(shape_regularity(m) - 0.5) < 1e-12
    assert abs(radius_ratio((0, 0), (1, 0), (0.5, np.sqrt(3) / 2)) - 0.5) < 1e-12


def test_shape_regularity_right_isoceles():
    m = reference_triangle()
    expected = radius_ratio((0, 0), (1, 0), (0, 1))
    assert abs(expected - (np.sqrt(2) - 1)) < 1e-12
    assert abs(shape_regularity(m) - expected) < 1e-12


def test_shape_regularity_no_decrease_under_uniform_refinement():
    m = lshape()
    rho0 = shape_regularity(m)
    rhos = []
    for _ in range(5):
        m = refine_uniform(m)
        rhos.append(shape_regularity(m))
    assert min(rhos) >= rho0 - 1e-12 or min(rhos) > 0.3


def test_at_most_four_similarity_classes():
    m = reference_triangle()
    shapes = set()
    for _ in range(6):
        m = refine_uniform(m)
        c = m.corners()
        for t in range(m.num_triangles):
            l = sorted([np.linalg.norm(c[t, 2] - c[t, 1]),
                        np.linalg.norm(c[t, 0] - c[t, 2]),
                        np.linalg.norm(c[t, 1] - c[t, 0])])
            shapes.add((round(l[0] / l[2], 9), round(l[1] / l[2], 9)))
    assert len(shapes) <= 4


# -- labels and text format -----------------------------------------------------

def test_label_rule_survives_refinement():
    def rule(mid):
        return DIRICHLET if mid[1] < 1e-12 else NEUMANN

    m = build_triangulation([(0, 0), (1, 0), (1, 1), (0, 1)],
                            [(0, 1, 2), (0, 2, 3)], rule)
    f = refine_uniform(refine_uniform(m))
    for s in f.boundary_sides():
        mid = 0.5 * (f.vertices[f.sides[s, 0]] + f.vertices[f.sides[s, 1]])
        assert f.labels[s] == rule(mid)
    assert all(f.labels[s] == "interior" for s in f.interior_sides())


def test_mesh_text_roundtrip(tmp_path):
    def rule(mid):
        return DIRICHLET if mid[0] < 0.5 else NEUMANN

    m = refine_uniform(build_triangulation(
        [(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0, 2, 3)], rule))
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    back = read_mesh(path)
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.triangles, m.triangles)
    assert np.array_equal(back.ref_edge, m.ref_edge)
    assert list(back.labels) == list(m.labels)
    first = (path.read_bytes())
    write_mesh(back, path)
    assert path.read_bytes() == first


def test_mesh_size_field_equivalence():
    """h_F and h_T agree up to the shape-regularity factor for F in F(T)."""
    m = refine_uniform(lshape())
    h_t, h_f = m.mesh_size()
    for t in range(m.num_triangles):
        for s in m.side_of_triangle[t]:
            ratio = h_f[s] / h_t[t]
            assert 0.25 < ratio < 4.0


def _sides_loop_reference(mesh):
    """Adjacency and normals side by side and triangle by triangle."""
    tri, p = mesh.triangles, mesh.vertices
    sot = mesh.side_of_triangle
    adjacency = np.full((mesh.num_sides, 2), -1, dtype=np.int64)
    for t in range(len(tri)):
        for s in sot[t]:
            adjacency[s, 0 if adjacency[s, 0] == -1 else 1] = t
    normals = np.empty((mesh.num_sides, 2))
    for s, (a, b) in enumerate(mesh.sides):
        t = adjacency[s, 0]
        opp = tri[t, np.where(sot[t] == s)[0][0]]
        tang = p[b] - p[a]
        nrm = np.array([tang[1], -tang[0]])
        nrm /= np.linalg.norm(nrm)
        if np.dot(nrm, p[opp] - p[a]) > 0:
            nrm = -nrm
        normals[s] = nrm
    return adjacency, normals


@pytest.mark.parametrize("name", ["p-laplace-lshape", "two-well-rect"])
def test_side_arrays_match_loop_reference(name):
    """Adjacency and normals on NVB-refined meshes, bit for bit."""
    from ahho.benchmarks import get_benchmark
    rng = np.random.default_rng(37)
    mesh = get_benchmark(name).initial_mesh()
    for _ in range(6):
        marked = np.nonzero(rng.random(mesh.num_triangles) < 0.3)[0]
        mesh = refine_nvb(mesh, marked)
        adjacency, normals = _sides_loop_reference(mesh)
        assert np.array_equal(mesh.adjacency, adjacency)
        assert np.array_equal(mesh.normals, normals)
