import numpy as np
import pytest

from ahho.mesh import (DIRICHLET, NEUMANN, MeshError, Triangulation,
                       build_triangulation, read_mesh, refine_nvb,
                       refine_uniform, shape_regularity, write_mesh)


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


def test_degenerate_check_is_relative_to_the_triangle_scale():
    """A small or a much bisected triangle is valid; a collinear one and
    a sliver with area 1e-16 times its longest edge squared are not."""
    tiny = build_triangulation(1e-8 * np.array([(0, 0), (1, 0), (0, 1)]),
                               [(0, 1, 2)], all_dirichlet)
    assert tiny.num_triangles == 1
    m = reference_triangle()
    for _ in range(60):
        m = refine_nvb(m, [0])
    assert m.num_triangles > 60
    for vertices in ([(0, 0), (1, 0), (2, 0)],
                     [(0, 0), (1, 0), (0.5, 2e-16)]):
        with pytest.raises(MeshError, match="degenerate"):
            build_triangulation(vertices, [(0, 1, 2)], all_dirichlet)


def test_refinement_edge_out_of_range_rejected():
    """A refinement edge must be one local edge 0, 1 or 2 per triangle."""
    vertices, triangles = [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]
    for ref in ([-1], [3], [0, 1], []):
        with pytest.raises(MeshError, match="refinement edges"):
            Triangulation(vertices, triangles, ref, all_dirichlet)


def test_non_integer_indices_rejected():
    """Triangle vertices and refinement edges must be integers: a float
    index is not truncated and a bool, alone or inside a list of ints, is
    not taken for 0 or 1, while integer-valued floats are accepted."""
    vertices, triangles = [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]
    with pytest.raises(MeshError, match="triangle vertex indices"):
        Triangulation(vertices, [(0.9, 1, 2.2)], [1], all_dirichlet)
    for tri in (np.array([[False, True, True]]), [(False, True, 2)],
                [(0, np.True_, 2)], ([0, 1, True],)):
        with pytest.raises(MeshError, match="triangle vertex indices"):
            Triangulation(vertices, tri, [1], all_dirichlet)
    for ref in ([1.7], [True], (np.True_,), [np.nan], ["1"]):
        with pytest.raises(MeshError, match="refinement edges"):
            Triangulation(vertices, triangles, ref, all_dirichlet)
    with pytest.raises(MeshError, match="refinement edges"):
        Triangulation(vertices + [(1, 1)], [(0, 1, 2), (1, 3, 2)], [0, True],
                      all_dirichlet)
    mesh = Triangulation(vertices, np.array(triangles, dtype=float), [1.0],
                         all_dirichlet)
    assert mesh.triangles.dtype == np.int64
    assert mesh.ref_edge.tolist() == [1]


@pytest.mark.parametrize("ragged", ["vertices", "triangles", "ref_edge"])
def test_ragged_input_rejected(ragged):
    """A ragged nested list is a MeshError, not numpy's ValueError."""
    args = {"vertices": [(0, 0), (1, 0), (0, 1)],
            "triangles": [(0, 1, 2)], "ref_edge": [0]}
    bad, match = {
        "vertices": ([(0, 0), (1, 0), (0,)], "vertices must be an"),
        "triangles": ([(0, 1, 2), (0, 1)], "triangle vertex indices must "
                      "form a rectangular array"),
        "ref_edge": ([0, (1, 2)], "refinement edges must form a "
                     "rectangular array")}[ragged]
    args[ragged] = bad
    with pytest.raises(MeshError, match=match):
        Triangulation(args["vertices"], args["triangles"], args["ref_edge"],
                      all_dirichlet)


@pytest.mark.parametrize("bad", [{}, 1j, "x"])
def test_non_numeric_vertices_rejected(bad):
    """A vertex coordinate that is not a real number is a MeshError, not
    numpy's TypeError or ValueError."""
    with pytest.raises(MeshError, match="array of real numbers"):
        Triangulation([(0, 0), (1, 0), (bad, 1)], [(0, 1, 2)], [0],
                      all_dirichlet)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertices_rejected(bad, tmp_path):
    """A nan or infinite coordinate is refused by name, both when built
    from arrays and when read from a file (where it would otherwise give
    a NaN area and NaN normals, or pass as a degenerate triangle)."""
    with pytest.raises(MeshError, match="vertex coordinates must be finite"):
        build_triangulation([(0, 0), (1, 0), (0, bad)], [(0, 1, 2)],
                            all_dirichlet)
    m = unit_square()
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    head, *rows = path.read_text().splitlines()
    rows[2] = f"{rows[2].split()[0]} {bad!r}"
    path.write_text("\n".join([head] + rows) + "\n")
    with pytest.raises(MeshError, match="vertex coordinates must be finite"):
        read_mesh(path)


def test_read_mesh_rejects_refinement_edge_out_of_range(tmp_path):
    m = unit_square()
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    head, *rows = path.read_text().splitlines()
    a, b, c, _ = rows[m.num_vertices].split()
    rows[m.num_vertices] = f"{a} {b} {c} 3"
    path.write_text("\n".join([head] + rows) + "\n")
    with pytest.raises(MeshError, match="refinement edges"):
        read_mesh(path)


def test_hanging_node_rejected():
    vertices = [(0, 0), (2, 0), (1, 0), (1, 1)]
    triangles = [(0, 2, 3), (2, 1, 3), (0, 1, 3)]
    with pytest.raises(MeshError):
        build_triangulation(vertices, triangles, all_dirichlet)


def _hanging_loop_reference(mesh):
    """The first vertex strictly inside a side, vertex by vertex against
    all sides; None for a conforming mesh."""
    p = mesh.vertices
    a = p[mesh.sides[:, 0]]
    tang = p[mesh.sides[:, 1]] - a
    length2 = np.einsum("sd,sd->s", tang, tang)
    for v in range(len(p)):
        d = p[v] - a
        t = np.einsum("sd,sd->s", d, tang) / length2
        perp = d - t[:, None] * tang
        on = np.einsum("sd,sd->s", perp, perp) < 1e-24 * length2
        if np.any(on & (t > 1e-12) & (t < 1 - 1e-12)):
            return v
    return None


def _assert_hanging(vertices, triangles, vertex):
    """The mesh is refused naming ``vertex``, as the loop reference finds
    it, also when the (side, vertex) pairs are tested in small chunks."""
    with pytest.raises(MeshError, match=f"vertex {vertex} lies inside"):
        build_triangulation(vertices, triangles, all_dirichlet)
    mesh = Triangulation(vertices, triangles, np.zeros(len(triangles)),
                         all_dirichlet, _skip_checks=True)
    assert _hanging_loop_reference(mesh) == vertex
    for chunk in (1, 7):
        with pytest.raises(MeshError, match=f"vertex {vertex} lies inside"):
            mesh._check_conforming(chunk=chunk)


def _rotated(points, angle=0.5):
    c, s = np.cos(angle), np.sin(angle)
    return [(c * x - s * y, s * x + c * y) for x, y in points]


def test_hanging_node_on_long_interior_side_rejected():
    """(0, 4) x (0, 2), rotated, cut at y = 1: the bottom strip is two
    triangles whose long side (0, 1)-(4, 1) runs through the domain, the
    top strip is three triangles that meet it at (2, 1), vertex 6.  The
    mesh is accepted once the bottom triangles take that vertex too."""
    vertices = _rotated([(0, 0), (4, 0), (4, 1), (0, 1), (4, 2), (0, 2),
                         (2, 1)])
    top = [(3, 6, 5), (6, 2, 4), (6, 4, 5)]
    _assert_hanging(vertices, [(0, 1, 2), (0, 2, 3)] + top, 6)
    conforming = [(0, 1, 6), (1, 2, 6), (0, 6, 3)] + top
    mesh = build_triangulation(vertices, conforming, all_dirichlet)
    assert _hanging_loop_reference(mesh) is None
    mesh._check_conforming(chunk=1)


def test_hanging_node_on_boundary_side_rejected():
    """A triangle outside the twice refined unit square touches the
    middle of its boundary side (0.25, 0)-(0.5, 0) with a vertex."""
    m = refine_uniform(refine_uniform(unit_square()))
    nv = m.num_vertices
    vertices = np.vstack([m.vertices, [(0.375, 0.0), (0.45, -0.5),
                                       (0.3, -0.5)]])
    triangles = np.vstack([m.triangles, [(nv, nv + 2, nv + 1)]])
    _assert_hanging(vertices, triangles, nv)


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


# -- array refinement against the loop code it replaced -------------------------

BENCHMARKS = ["p-laplace-lshape", "odp-lshape", "two-well-rect", "fhm-rect",
              "manufactured-affine"]
MESH_ARRAYS = ("vertices", "triangles", "ref_edge", "sides",
               "side_of_triangle", "adjacency", "normals", "parent", "labels")


def _closure_loop_reference(mesh, marked):
    split = np.zeros(mesh.num_sides, dtype=bool)
    for t in marked:
        split[mesh.side_of_triangle[t, mesh.ref_edge[t]]] = True
    while True:
        has_split = split[mesh.side_of_triangle].any(axis=1)
        need = mesh.side_of_triangle[np.arange(mesh.num_triangles),
                                     mesh.ref_edge]
        grow = has_split & ~split[need]
        if not np.any(grow):
            break
        split[need[grow]] = True
    return split


def _refine_loop_reference(mesh, split, label_rule):
    """Triangle-by-triangle bisection; ``label_rule`` labels the new mesh."""
    verts = [mesh.vertices]
    midpoint = np.full(mesh.num_sides, -1, dtype=np.int64)
    split_ids = np.nonzero(split)[0]
    if len(split_ids):
        mids = 0.5 * (mesh.vertices[mesh.sides[split_ids, 0]]
                      + mesh.vertices[mesh.sides[split_ids, 1]])
        midpoint[split_ids] = mesh.num_vertices + np.arange(len(split_ids))
        verts.append(mids)
    new_tri, new_ref, new_parent = [], [], []
    for t in range(mesh.num_triangles):
        loc = mesh.side_of_triangle[t]
        e = mesh.ref_edge[t]
        if not split[loc].any():
            new_tri.append(tuple(mesh.triangles[t]))
            new_ref.append(e)
            new_parent.append(t)
            continue
        peak = mesh.triangles[t, e]
        a = mesh.triangles[t, (e + 1) % 3]
        b = mesh.triangles[t, (e + 2) % 3]
        m = midpoint[loc[e]]
        for v_new, va, vb, edge_opp in ((m, peak, a, (e + 2) % 3),
                                        (m, b, peak, (e + 1) % 3)):
            s_child = loc[edge_opp]
            if split[s_child]:
                mm = midpoint[s_child]
                children = ((mm, v_new, va), (mm, vb, v_new))
            else:
                children = ((v_new, va, vb),)
            for child in children:
                new_tri.append(child)
                new_ref.append(0)
                new_parent.append(t)
    return Triangulation(np.vstack(verts), np.array(new_tri),
                         np.array(new_ref), label_rule,
                         parent=np.array(new_parent), _skip_checks=True)


def _labels_from_parent_rule_reference(mesh):
    """Label of the coarse boundary side that contains a midpoint."""
    p = mesh.vertices
    bnd = mesh.boundary_sides()
    a = p[mesh.sides[bnd, 0]]
    tang = p[mesh.sides[bnd, 1]] - a
    length2 = np.einsum("sd,sd->s", tang, tang)
    labs = mesh.labels[bnd]

    def rule(mid):
        d = mid - a
        t = np.einsum("sd,sd->s", d, tang) / length2
        perp = d - t[:, None] * tang
        on = (np.einsum("sd,sd->s", perp, perp) < 1e-20 * length2)
        on &= (t > -1e-10) & (t < 1 + 1e-10)
        hits = np.nonzero(on)[0]
        if len(hits) == 0:
            raise MeshError("refined boundary side not on a coarse side")
        return labs[hits[0]]

    return rule


def _assert_same_mesh(mesh, ref):
    for name in MESH_ARRAYS:
        got, want = getattr(mesh, name), getattr(ref, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def _renumbered(mesh, label_rule, seed):
    """The same mesh with permuted vertices and triangles, each triangle's
    vertices rotated and every other one listed clockwise."""
    rng = np.random.default_rng(seed)
    vorder = rng.permutation(mesh.num_vertices)
    vnew = np.empty_like(vorder)
    vnew[vorder] = np.arange(len(vorder))
    torder = rng.permutation(mesh.num_triangles)
    shift = rng.integers(0, 3, mesh.num_triangles)
    rot = (np.arange(3) + shift[:, None]) % 3
    tri = np.take_along_axis(vnew[mesh.triangles[torder]], rot, axis=1)
    ref = (mesh.ref_edge[torder] - shift) % 3
    cw = np.arange(mesh.num_triangles) % 2 == 1
    tri[cw] = tri[cw][:, [0, 2, 1]]
    ref[cw] = (3 - ref[cw]) % 3
    return Triangulation(mesh.vertices[vorder], tri, ref, label_rule)


@pytest.mark.parametrize("name", BENCHMARKS)
def test_refinement_matches_loop_reference(name):
    """Random NVB levels and a uniform one, from the benchmark's initial
    mesh and from a renumbered copy: every array bit for bit."""
    from ahho.benchmarks import get_benchmark
    bench = get_benchmark(name)
    start = bench.initial_mesh()
    rng = np.random.default_rng(53)
    for mesh in (start, _renumbered(start, bench.label_rule, 11)):
        for level in range(6):
            if level == 3:
                fine = mesh.refine_uniform()
                split = np.ones(mesh.num_sides, dtype=bool)
            else:
                marked = np.nonzero(rng.random(mesh.num_triangles) < 0.25)[0]
                fine = mesh.refine_nvb(marked)
                split = _closure_loop_reference(mesh, marked)
                assert np.array_equal(mesh._split_edges_closure(marked),
                                      split)
            _assert_same_mesh(fine, _refine_loop_reference(
                mesh, split, bench.label_rule))
            mesh = fine


@pytest.mark.parametrize("name", ["p-laplace-lshape", "two-well-rect"])
def test_read_mesh_refinement_matches_loop_reference(name, tmp_path):
    """A mesh read from a file refines as the geometric parent lookup did."""
    from ahho.benchmarks import get_benchmark
    rng = np.random.default_rng(5)
    mesh = get_benchmark(name).initial_mesh().refine_uniform()
    path = tmp_path / "mesh.txt"
    for level in range(4):
        write_mesh(mesh, path)
        mesh = read_mesh(path)
        marked = np.nonzero(rng.random(mesh.num_triangles) < 0.3)[0]
        fine = mesh.refine_nvb(marked)
        _assert_same_mesh(fine, _refine_loop_reference(
            mesh, _closure_loop_reference(mesh, marked),
            _labels_from_parent_rule_reference(mesh)))
        mesh = fine


def _write_mesh_loop_reference(mesh, path):
    """The mesh text format written row by row."""
    lines = [f"vertices {mesh.num_vertices} / triangles {mesh.num_triangles}"
             f" / sides {mesh.num_sides}"]
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    for t in range(mesh.num_triangles):
        v0, v1, v2 = mesh.triangles[t]
        lines.append(f"{v0} {v1} {v2} {mesh.ref_edge[t]}")
    for s in range(mesh.num_sides):
        a, b = mesh.sides[s]
        lines.append(f"{a} {b} {mesh.labels[s]}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def test_write_mesh_matches_loop_reference(tmp_path):
    """Byte for byte on a refined two-well level and on a mesh whose
    sides carry every label, with vertices that need all 17 digits."""
    from ahho.benchmarks import get_benchmark
    from ahho.mesh import ALL_LABELS, BOUNDARY_LABELS
    rng = np.random.default_rng(11)
    two_well = get_benchmark("two-well-rect").initial_mesh()
    for _ in range(4):
        two_well = refine_nvb(two_well, np.nonzero(
            rng.random(two_well.num_triangles) < 0.4)[0])
    square = refine_uniform(unit_square())
    rule = iter(BOUNDARY_LABELS * 2)
    labelled = _rotated(square.vertices, 0.3)
    labelled = build_triangulation(labelled, square.triangles,
                                   lambda mid: next(rule))
    assert set(labelled.labels) == set(ALL_LABELS)
    for mesh in (two_well, labelled):
        write_mesh(mesh, tmp_path / "got.mesh")
        _write_mesh_loop_reference(mesh, tmp_path / "want.mesh")
        assert (tmp_path / "got.mesh").read_bytes() \
            == (tmp_path / "want.mesh").read_bytes()


def _longest_edge_loop_reference(mesh):
    c = mesh.corners()
    lengths = np.stack([np.linalg.norm(c[:, 2] - c[:, 1], axis=1),
                        np.linalg.norm(c[:, 0] - c[:, 2], axis=1),
                        np.linalg.norm(c[:, 1] - c[:, 0], axis=1)], axis=1)
    ref = np.empty(mesh.num_triangles, dtype=np.int64)
    for t in range(mesh.num_triangles):
        lmax = lengths[t].max()
        cand = np.nonzero(lengths[t] > lmax - 1e-12 * lmax)[0]
        ref[t] = cand[np.argmin(mesh.side_of_triangle[t, cand])]
    return ref


def test_longest_edge_matches_loop_reference():
    from ahho.benchmarks import get_benchmark
    meshes = [get_benchmark(name).initial_mesh() for name in BENCHMARKS]
    # equilateral lattice: three longest edges per triangle, equal up to
    # rounding, some triangles listed clockwise
    n = 4
    vertices = [(i + 0.5 * j, 0.5 * np.sqrt(3) * j)
                for j in range(n + 1) for i in range(n + 1)]
    triangles = []
    for j in range(n):
        for i in range(n):
            a, b = j * (n + 1) + i, j * (n + 1) + i + 1
            c, d = b + n + 1, a + n + 1
            triangles += [(a, b, d), (b, d, c)]
    meshes.append(build_triangulation(vertices, triangles, all_dirichlet))
    for mesh in meshes:
        assert mesh.ref_edge.dtype == np.int64
        assert np.array_equal(mesh.ref_edge,
                              _longest_edge_loop_reference(mesh))


# -- labels, file sides and marks -----------------------------------------------

def test_split_side_halves_inherit_label():
    """A rule that changes inside an initial side is read at its midpoint;
    the halves of the side keep that label on every level."""
    def rule(mid):
        return DIRICHLET if mid[0] < 0.5 else NEUMANN

    m = build_triangulation([(0, 0), (1, 0), (1, 1), (0, 1)],
                            [(0, 1, 2), (0, 2, 3)], rule)
    fine = refine_uniform(refine_nvb(refine_uniform(m), [0, 3]))
    p = fine.vertices
    for s in fine.boundary_sides():
        mid = 0.5 * (p[fine.sides[s, 0]] + p[fine.sides[s, 1]])
        # bottom and top sides have midpoint x = 0.5: Neumann throughout
        expected = DIRICHLET if mid[0] < 1e-12 else NEUMANN
        assert fine.labels[s] == expected
    assert any(fine.labels[s] == NEUMANN and p[fine.sides[s]].max() < 0.5
               for s in fine.boundary_sides())


def test_read_mesh_rejects_side_list_mismatch(tmp_path):
    """A missing, an extra or a repeated side row is refused."""
    m = refine_uniform(unit_square())
    nv, nt = m.num_vertices, m.num_triangles
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    rows = path.read_text().splitlines()[1:]
    cells, sides = rows[:nv + nt], rows[nv + nt:]
    a, b = m.sides[m.interior_sides()[0]]
    c, d = m.sides[m.boundary_sides()[0]]
    assert not np.any((m.sides == (0, nv - 1)).all(axis=1))
    for edited, match in (
            ([r for r in sides if r != f"{a} {b} interior"], "side list"),
            ([r for r in sides if not r.startswith(f"{c} {d} ")],
             "unlabeled boundary side"),
            (sides + [f"0 {nv - 1} interior"], "side list"),
            (sides + [f"{b} {a} interior"], "side list")):
        assert len(edited) != len(sides)
        head = f"vertices {nv} / triangles {nt} / sides {len(edited)}"
        path.write_text("\n".join([head] + cells + edited) + "\n")
        with pytest.raises(MeshError, match=match):
            read_mesh(path)


def test_read_mesh_rejects_malformed_rows(tmp_path):
    """A row with the wrong number of values, a value that does not
    parse, an unknown label or a bad header is a MeshError, in the first
    row of a block, in a later one, or in all of them."""
    m = refine_uniform(unit_square())
    nv, nt = m.num_vertices, m.num_triangles
    path = tmp_path / "mesh.txt"
    write_mesh(m, path)
    head, *rows = path.read_text().splitlines()
    first_tri, first_side = nv, nv + nt

    def edit(i, row):
        return [head] + rows[:i] + [row] + rows[i + 1:]

    x, y = rows[1].split()
    a, b, c, e = rows[first_tri + 1].split()
    s0, s1, lab = rows[first_side + 1].split()
    cases = [
        (edit(1, x), "vertex row"),
        (edit(1, f"{x} {y} 0.5"), "vertex row"),
        (edit(0, rows[0].split()[0]), "vertex row"),
        (edit(1, f"{x} one"), "vertex row"),
        (edit(first_tri + 1, f"{a} {b} {c}"), "triangle row"),
        (edit(first_tri + 1, f"{a} {b} {c} 0.5"), "triangle row"),
        (edit(first_side + 1, f"{s0} {s1}"), "side row"),
        (edit(first_side, " ".join(rows[first_side].split()[:2])),
         "side row"),
        (edit(first_side + 1, f"{s0} x {lab}"), "side row"),
        (edit(first_side + 1, f"{s0} {s1} {lab} {lab}"), "side row"),
        (edit(first_side + 1, f"{s0} {s1} wall"), "unknown side label"),
        ([head] + [" ".join(r.split()[:1]) for r in rows[:nv]]
         + rows[nv:], "vertex row"),
        ([head] + rows[:nv] + [" ".join(r.split()[:3])
                               for r in rows[nv:nv + nt]] + rows[nv + nt:],
         "triangle row"),
        ([head.replace(f"vertices {nv}", "vertices many")] + rows,
         "bad mesh header"),
        ([], "bad mesh header"),
        (["vertices 0 / triangles 0 / sides 0"], "bad mesh header"),
    ]
    for lines, match in cases:
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MeshError, match=match):
            read_mesh(path)
    # the unedited rows still read back, bit for bit
    path.write_text("\n".join([head] + rows) + "\n")
    back = read_mesh(path)
    assert np.array_equal(back.vertices, m.vertices)
    assert np.array_equal(back.triangles, m.triangles)
    assert list(back.labels) == list(m.labels)


def test_refine_nvb_rejects_unknown_triangles():
    m = lshape()
    for bad in ([-1], [0, m.num_triangles], [m.num_triangles, 0],
                {3, -2, 5}):
        with pytest.raises(MeshError):
            refine_nvb(m, bad)


def test_refine_nvb_accepts_any_iterable():
    m = refine_uniform(lshape())
    ref = refine_nvb(m, {2, 7, 11})
    for marked in ([11, 2, 7], np.array([7, 2, 11, 2, 7]), iter([2, 7, 11])):
        _assert_same_mesh(refine_nvb(m, marked), ref)
    _assert_same_mesh(refine_nvb(m, []), refine_nvb(m, set()))


def test_side_geometry_kept_read_only():
    """On NVB-refined meshes of every benchmark, ``side_vectors``,
    ``side_lengths`` and ``side_midpoints`` are b - a, |b - a| and
    (a + b)/2 of each side (a, b), and read-only."""
    from ahho.benchmarks import register_benchmarks
    for name, factory in register_benchmarks().items():
        mesh = factory().initial_mesh()
        for _ in range(3):
            mesh = refine_nvb(mesh, range(0, mesh.num_triangles, 3))
        a = mesh.vertices[mesh.sides[:, 0]]
        b = mesh.vertices[mesh.sides[:, 1]]
        assert np.array_equal(mesh.side_vectors, b - a), name
        assert np.array_equal(mesh.side_lengths,
                              np.linalg.norm(b - a, axis=1)), name
        assert np.array_equal(mesh.side_midpoints, 0.5 * (a + b)), name
        for arr in (mesh.side_vectors, mesh.side_lengths,
                    mesh.side_midpoints):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0


def test_label_array_of_wrong_length_rejected():
    """An explicit per-side label array must have one label per side; a
    single label and an array of the right length are taken."""
    vertices, triangles = [(0, 0), (1, 0), (0, 1)], [(0, 1, 2)]
    for n in (2, 4):
        with pytest.raises(MeshError,
                           match=f"{n} side labels given for 3 sides"):
            build_triangulation(vertices, triangles, [DIRICHLET] * n)
    for labels in (DIRICHLET, [DIRICHLET] * 3):
        mesh = build_triangulation(vertices, triangles, labels)
        assert list(mesh.labels) == [DIRICHLET] * 3
