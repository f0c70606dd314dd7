"""Conforming 2D simplicial triangulations with newest-vertex bisection.

A :class:`Triangulation` stores vertices, triangles with a distinguished
refinement edge, a global side table with oriented unit normals, boundary
labels, and (after refinement) parent links to the previous level.  Meshes
are immutable after construction; refinement returns a new mesh whose
``previous`` attribute points back to the coarse one.
"""

from __future__ import annotations

import numpy as np

INTERIOR = "interior"
DIRICHLET = "dirichlet"
NEUMANN = "neumann"
GAMMA1 = "gamma1"
GAMMA2 = "gamma2"
GAMMA3 = "gamma3"

BOUNDARY_LABELS = (DIRICHLET, NEUMANN, GAMMA1, GAMMA2, GAMMA3)
ALL_LABELS = (INTERIOR,) + BOUNDARY_LABELS


class MeshError(Exception):
    """Invalid mesh topology or geometry."""


def _signed_area(p0, p1, p2):
    return 0.5 * ((p1[..., 0] - p0[..., 0]) * (p2[..., 1] - p0[..., 1])
                  - (p1[..., 1] - p0[..., 1]) * (p2[..., 0] - p0[..., 0]))


class Triangulation:
    """Conforming triangulation of a polygonal domain.

    Attributes
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices, counterclockwise.  Local edge ``i`` is opposite
        local vertex ``i``, i.e. it connects vertices ``(i+1)%3, (i+2)%3``.
    ref_edge : (nt,) int array
        Local index of the refinement edge of each triangle.
    sides : (ns, 2) int array
        Vertex pairs, each stored with the smaller index first.
    side_of_triangle : (nt, 3) int array
        Global side index of each local edge.
    adjacency : (ns, 2) int array
        Triangles ``(t_plus, t_minus)`` sharing each side; ``t_minus = -1``
        on the boundary.  The side normal equals the outward normal of
        ``t_plus`` on that side.
    normals : (ns, 2) float array
        Unit normals fixing the side orientation.
    labels : (ns,) array of str
        One of ``interior, dirichlet, neumann, gamma1, gamma2, gamma3``.
    parent : (nt,) int array
        Index of the containing triangle on the previous level (-1 on the
        initial mesh).
    previous : Triangulation or None
        The coarse mesh this one was refined from.
    """

    def __init__(self, vertices, triangles, ref_edge, labels_or_rule,
                 parent=None, previous=None, _skip_checks=False):
        self.vertices = np.array(vertices, dtype=float, order="C")
        tri = np.array(triangles, dtype=np.int64, order="C")
        ref = np.array(ref_edge, dtype=np.int64, order="C")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if tri.size and (tri.min() < 0 or tri.max() >= len(self.vertices)):
            raise MeshError("triangle references a vertex out of range")

        # Normalize to counterclockwise orientation; swapping the last two
        # vertices exchanges the local edges 1 and 2.
        p = self.vertices
        area = _signed_area(p[tri[:, 0]], p[tri[:, 1]], p[tri[:, 2]])
        if np.any(np.abs(area) < 1e-14):
            raise MeshError("degenerate (zero-area) triangle")
        flip = area < 0
        tri[flip] = tri[flip][:, [0, 2, 1]]
        swap = flip & (ref > 0)
        ref[swap] = 3 - ref[swap]
        self.triangles = tri
        self.ref_edge = ref

        self._build_sides()
        if not _skip_checks:
            self._check_conforming()
        self._assign_labels(labels_or_rule)

        nt = len(tri)
        if parent is None:
            parent = np.full(nt, -1, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64, order="C")
        self.previous = previous

        for arr in (self.vertices, self.triangles, self.ref_edge, self.sides,
                    self.side_of_triangle, self.adjacency, self.normals,
                    self.parent):
            arr.flags.writeable = False

    # -- construction helpers ------------------------------------------------

    def _build_sides(self):
        tri = self.triangles
        nt = len(tri)
        # local edge i is (i+1, i+2) mod 3
        edges = np.stack([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]],
                         axis=1).reshape(-1, 2)
        canon = np.sort(edges, axis=1)
        sides, inverse, counts = np.unique(canon, axis=0,
                                           return_inverse=True,
                                           return_counts=True)
        if np.any(counts > 2):
            raise MeshError("non-conforming input: side shared by >2 triangles")
        self.sides = sides
        self.side_of_triangle = inverse.reshape(nt, 3)

        # the first triangle on a side is T_plus, the second T_minus
        order = np.argsort(self.side_of_triangle.reshape(-1), kind="stable")
        first = np.zeros(len(sides), dtype=np.int64)
        np.cumsum(counts[:-1], out=first[1:])
        adjacency = np.full((len(sides), 2), -1, dtype=np.int64)
        adjacency[:, 0] = order[first] // 3
        shared = counts == 2
        adjacency[shared, 1] = order[first[shared] + 1] // 3
        self.adjacency = adjacency

        # normal of the side = outward normal of T_plus, oriented away
        # from the vertex of T_plus opposite the side
        p = self.vertices
        tplus = adjacency[:, 0]
        opp = tri[tplus, order[first] % 3]
        a = p[sides[:, 0]]
        tang = p[sides[:, 1]] - a
        normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        normals /= np.sqrt(normals[:, 0] ** 2 + normals[:, 1] ** 2)[:, None]
        away = p[opp] - a
        flip = normals[:, 0] * away[:, 0] + normals[:, 1] * away[:, 1] > 0
        normals[flip] *= -1
        self.normals = normals

    def _check_conforming(self):
        # a vertex strictly inside another triangle's side is a hanging node
        p = self.vertices
        a = p[self.sides[:, 0]]
        b = p[self.sides[:, 1]]
        tang = b - a
        length2 = np.einsum("sd,sd->s", tang, tang)
        for v in range(len(p)):
            d = p[v] - a
            t = np.einsum("sd,sd->s", d, tang) / length2
            perp = d - t[:, None] * tang
            on = (np.einsum("sd,sd->s", perp, perp) < 1e-24 * length2)
            inside = on & (t > 1e-12) & (t < 1 - 1e-12)
            if np.any(inside):
                raise MeshError(f"hanging node: vertex {v} lies inside a side")

    def _assign_labels(self, labels_or_rule):
        ns = len(self.sides)
        boundary = self.adjacency[:, 1] == -1
        labels = np.array([INTERIOR] * ns, dtype=object)
        if isinstance(labels_or_rule, _SideLabelMap):
            labels = labels_or_rule.resolve(self.sides)
        elif callable(labels_or_rule):
            mids = 0.5 * (self.vertices[self.sides[:, 0]]
                          + self.vertices[self.sides[:, 1]])
            for s in np.nonzero(boundary)[0]:
                lab = labels_or_rule(mids[s])
                if lab not in BOUNDARY_LABELS:
                    raise MeshError(f"unlabeled boundary side {s}: got {lab!r}")
                labels[s] = lab
        else:
            labels[:] = labels_or_rule
        for s in range(ns):
            if boundary[s] and labels[s] not in BOUNDARY_LABELS:
                raise MeshError(f"unlabeled boundary side {s}")
            if not boundary[s] and labels[s] != INTERIOR:
                raise MeshError(f"interior side {s} carries boundary label")
        self.labels = labels
        self.labels.flags.writeable = False
        self._label_rule = labels_or_rule if callable(labels_or_rule) else None

    # -- geometric quantities ------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def num_sides(self):
        return len(self.sides)

    def corners(self):
        """Vertex coordinates per triangle, shape (nt, 3, 2)."""
        return self.vertices[self.triangles]

    def areas(self):
        c = self.corners()
        return _signed_area(c[:, 0], c[:, 1], c[:, 2])

    def mesh_size(self):
        """Per-triangle h_T = |T|^(1/2) and per-side diameter h_F."""
        h_t = np.sqrt(self.areas())
        d = self.vertices[self.sides[:, 1]] - self.vertices[self.sides[:, 0]]
        h_f = np.sqrt(np.einsum("sd,sd->s", d, d))
        return h_t, h_f

    def centroids(self):
        return self.corners().mean(axis=1)

    def interior_sides(self):
        return np.nonzero(self.adjacency[:, 1] >= 0)[0]

    def boundary_sides(self, label=None):
        mask = self.adjacency[:, 1] < 0
        if label is not None:
            mask &= self.labels == label
        return np.nonzero(mask)[0]

    # -- refinement ----------------------------------------------------------

    def _split_edges_closure(self, marked):
        """Edge-split set: refinement edges of marked triangles, closed so
        that any triangle with a split edge also splits its refinement edge."""
        split = np.zeros(self.num_sides, dtype=bool)
        for t in marked:
            split[self.side_of_triangle[t, self.ref_edge[t]]] = True
        while True:
            has_split = split[self.side_of_triangle].any(axis=1)
            need = self.side_of_triangle[np.arange(self.num_triangles),
                                         self.ref_edge]
            grow = has_split & ~split[need]
            if not np.any(grow):
                break
            split[need[grow]] = True
        return split

    def _refine(self, split):
        """Bisect each triangle according to its set of split edges."""
        verts = [self.vertices]
        midpoint = np.full(self.num_sides, -1, dtype=np.int64)
        split_ids = np.nonzero(split)[0]
        if len(split_ids):
            mids = 0.5 * (self.vertices[self.sides[split_ids, 0]]
                          + self.vertices[self.sides[split_ids, 1]])
            midpoint[split_ids] = self.num_vertices + np.arange(len(split_ids))
            verts.append(mids)
        new_vertices = np.vstack(verts)

        new_tri = []
        new_ref = []
        new_parent = []

        def emit(v_new, va, vb, parent):
            # child of a bisection: newest vertex first, refinement edge
            # opposite it (edge 0)
            new_tri.append((v_new, va, vb))
            new_ref.append(0)
            new_parent.append(parent)

        for t in range(self.num_triangles):
            loc = self.side_of_triangle[t]
            e = self.ref_edge[t]
            if not split[loc].any():
                new_tri.append(tuple(self.triangles[t]))
                new_ref.append(e)
                new_parent.append(t)
                continue
            # closure guarantees the refinement edge is split
            peak = self.triangles[t, e]
            a = self.triangles[t, (e + 1) % 3]
            b = self.triangles[t, (e + 2) % 3]
            m = midpoint[loc[e]]
            # children (m, peak, a) and (m, b, peak); their refinement edges
            # are the original edges (peak, a) and (b, peak)
            for v_new, va, vb, edge_opp in ((m, peak, a, (e + 2) % 3),
                                            (m, b, peak, (e + 1) % 3)):
                s_child = loc[edge_opp]
                if split[s_child]:
                    mm = midpoint[s_child]
                    emit(mm, v_new, va, t)
                    emit(mm, vb, v_new, t)
                else:
                    emit(v_new, va, vb, t)

        rule = self._label_rule
        if rule is None:
            rule = self._labels_from_parent_rule()
        return Triangulation(new_vertices, np.array(new_tri),
                             np.array(new_ref), rule,
                             parent=np.array(new_parent), previous=self,
                             _skip_checks=True)

    def _labels_from_parent_rule(self):
        """Geometric label lookup built from this mesh's own side labels."""
        p = self.vertices
        bnd = self.boundary_sides()
        a = p[self.sides[bnd, 0]]
        tang = p[self.sides[bnd, 1]] - a
        length2 = np.einsum("sd,sd->s", tang, tang)
        labs = self.labels[bnd]

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

    def refine_nvb(self, marked):
        """Newest-vertex bisection of ``marked`` with conformity closure."""
        marked = np.asarray(sorted(set(int(t) for t in marked)), dtype=np.int64)
        if len(marked) and (marked.min() < 0
                            or marked.max() >= self.num_triangles):
            raise MeshError("marked set references unknown triangle")
        split = self._split_edges_closure(marked)
        return self._refine(split)

    def refine_uniform(self):
        """Red refinement via three bisections: every triangle into four."""
        split = np.ones(self.num_sides, dtype=bool)
        return self._refine(split)

    def shape_regularity(self):
        """Minimum over triangles of inradius / circumradius."""
        c = self.corners()
        l0 = np.linalg.norm(c[:, 2] - c[:, 1], axis=1)
        l1 = np.linalg.norm(c[:, 0] - c[:, 2], axis=1)
        l2 = np.linalg.norm(c[:, 1] - c[:, 0], axis=1)
        area = self.areas()
        s = 0.5 * (l0 + l1 + l2)
        r_in = area / s
        r_circ = l0 * l1 * l2 / (4.0 * area)
        return float(np.min(r_in / r_circ))


def build_triangulation(vertices, triangles, boundary_label_rule,
                        ref_edge=None):
    """Build a conforming triangulation from raw vertex/triangle arrays.

    ``boundary_label_rule`` is either a callable mapping a boundary side
    midpoint to a label, or an explicit per-side label array.  When
    ``ref_edge`` is omitted, the refinement edge of each triangle is its
    longest edge, ties broken by the lowest global side index.
    """
    if ref_edge is not None:
        return Triangulation(vertices, triangles, ref_edge,
                             boundary_label_rule)
    mesh = Triangulation(vertices, triangles,
                         np.zeros(len(triangles), dtype=np.int64),
                         boundary_label_rule)
    c = mesh.corners()
    lengths = np.stack([np.linalg.norm(c[:, 2] - c[:, 1], axis=1),
                        np.linalg.norm(c[:, 0] - c[:, 2], axis=1),
                        np.linalg.norm(c[:, 1] - c[:, 0], axis=1)], axis=1)
    ref = np.empty(mesh.num_triangles, dtype=np.int64)
    for t in range(mesh.num_triangles):
        lmax = lengths[t].max()
        cand = np.nonzero(lengths[t] > lmax - 1e-12 * lmax)[0]
        ref[t] = cand[np.argmin(mesh.side_of_triangle[t, cand])]
    return Triangulation(mesh.vertices, mesh.triangles, ref,
                         boundary_label_rule)


def refine_nvb(mesh, marked):
    return mesh.refine_nvb(marked)


def refine_uniform(mesh):
    return mesh.refine_uniform()


def shape_regularity(mesh):
    return mesh.shape_regularity()


# -- text format -------------------------------------------------------------

def write_mesh(mesh, path):
    """Write the mesh text format: header, vertex, triangle and side rows."""
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


def read_mesh(path):
    """Read the mesh text format written by :func:`write_mesh`."""
    with open(path, encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    head = lines[0].replace("/", " ").split()
    if head[0] != "vertices" or head[2] != "triangles" or head[4] != "sides":
        raise MeshError("bad mesh header")
    nv, nt, ns = int(head[1]), int(head[3]), int(head[5])
    if len(lines) != 1 + nv + nt + ns:
        raise MeshError("mesh record count does not match header")
    vertices = np.array([[float(w) for w in ln.split()]
                         for ln in lines[1:1 + nv]])
    tri_rows = np.array([[int(w) for w in ln.split()]
                         for ln in lines[1 + nv:1 + nv + nt]])
    side_labels = {}
    for ln in lines[1 + nv + nt:]:
        a, b, lab = ln.split()
        if lab not in ALL_LABELS:
            raise MeshError(f"unknown side label {lab!r}")
        side_labels[(min(int(a), int(b)), max(int(a), int(b)))] = lab
    return Triangulation(vertices, tri_rows[:, :3], tri_rows[:, 3],
                         _SideLabelMap(side_labels))


class _SideLabelMap:
    """Label assignment by vertex pair, used when reading mesh files."""

    def __init__(self, mapping):
        self.mapping = mapping

    def resolve(self, sides):
        labels = np.array([INTERIOR] * len(sides), dtype=object)
        for s, (a, b) in enumerate(sides):
            lab = self.mapping.get((int(a), int(b)))
            if lab is None:
                raise MeshError(f"side ({a},{b}) missing from file")
            labels[s] = lab
        return labels
