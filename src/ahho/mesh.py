"""Conforming 2D simplicial triangulations with newest-vertex bisection.

A :class:`Triangulation` stores vertices, triangles with a distinguished
refinement edge, a global side table with side vectors, lengths,
midpoints and oriented unit normals, boundary labels, and (after
refinement) parent links to the previous level.  Meshes are immutable
after construction; refinement returns a new mesh.

Refinement bisects every triangle by its pattern of split edges, after
Funken, Praetorius & Wissgott (CMAM 2011).  Labels are inherited: an
unsplit side keeps its label and both halves of a split side take it, so a
label rule is evaluated once, on the mesh built from raw arrays.
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


def _index_array(values, what):
    """``values`` as an int64 array; ragged input, bools and non-integers
    are refused."""
    try:
        arr = np.asarray(values)
    except ValueError:
        raise MeshError(f"{what} must form a rectangular array") from None
    integral = arr.dtype.kind in "iu" or arr.dtype.kind == "f" and (
        np.isfinite(arr) & (arr == np.trunc(arr))).all()
    # numpy casts a bool inside a list of ints to 0 or 1
    if not integral or isinstance(values, (list, tuple)) and any(
            isinstance(x, (bool, np.bool_))
            for x in np.asarray(values, dtype=object).flat):
        raise MeshError(f"{what} must be integers")
    return np.array(arr, dtype=np.int64, order="C")


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
    side_vectors, side_lengths, side_midpoints : (ns, 2), (ns,), (ns, 2)
        ``vertices[b] - vertices[a]`` of each side (a, b), its length and
        its midpoint.
    normals : (ns, 2) float array
        Unit normals fixing the side orientation.
    labels : (ns,) array of str
        One of ``interior, dirichlet, neumann, gamma1, gamma2, gamma3``.
        ``labels_or_rule`` gives them: a callable evaluated once at the
        midpoint of each boundary side, an explicit per-side array, or the
        vertex-pair map that refinement passes on (unsplit sides keep their
        label, both halves of a split side take its label).
    parent : (nt,) int array
        Index of the containing triangle on the previous level (-1 on the
        initial mesh).
    """

    def __init__(self, vertices, triangles, ref_edge, labels_or_rule,
                 parent=None, _skip_checks=False):
        try:
            self.vertices = np.array(vertices, dtype=float, order="C")
        except (TypeError, ValueError):
            raise MeshError("vertices must be an (nv, 2) array of real "
                            "numbers") from None
        tri = _index_array(triangles, "triangle vertex indices")
        ref = _index_array(ref_edge, "refinement edges")
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if not np.isfinite(self.vertices).all():
            raise MeshError("vertex coordinates must be finite")
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if tri.size and (tri.min() < 0 or tri.max() >= len(self.vertices)):
            raise MeshError("triangle references a vertex out of range")
        if ref.shape != (len(tri),) or not np.isin(ref, (0, 1, 2)).all():
            raise MeshError("refinement edges must be one local edge "
                            "0, 1 or 2 per triangle")

        # Normalize to counterclockwise orientation; swapping the last two
        # vertices exchanges the local edges 1 and 2.
        p = self.vertices
        area = _signed_area(p[tri[:, 0]], p[tri[:, 1]], p[tri[:, 2]])
        flip = area < 0
        tri[flip] = tri[flip][:, [0, 2, 1]]
        swap = flip & (ref > 0)
        ref[swap] = 3 - ref[swap]
        self.triangles = tri
        self.ref_edge = ref

        self._build_sides(area)
        if not _skip_checks:
            self._check_conforming()
        self._assign_labels(labels_or_rule)

        nt = len(tri)
        if parent is None:
            parent = np.full(nt, -1, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64, order="C")

        for arr in (self.vertices, self.triangles, self.ref_edge, self.sides,
                    self.side_of_triangle, self.adjacency, self.side_vectors,
                    self.side_lengths, self.side_midpoints, self.normals,
                    self.parent):
            arr.flags.writeable = False

    # -- construction helpers ------------------------------------------------

    def _build_sides(self, area):
        """Side table and geometry; a degenerate triangle is refused."""
        tri = self.triangles
        nt = len(tri)
        # local edge i is (i+1, i+2) mod 3
        edges = np.stack([tri[:, [1, 2]], tri[:, [2, 0]], tri[:, [0, 1]]],
                         axis=1).reshape(-1, 2)
        canon = np.sort(edges, axis=1)
        # one int64 key per side, ordered as the (a, b) rows lexicographically
        nv = len(self.vertices)
        keys, inverse, counts = np.unique(canon[:, 0] * nv + canon[:, 1],
                                          return_inverse=True,
                                          return_counts=True)
        if np.any(counts > 2):
            raise MeshError("non-conforming input: side shared by >2 triangles")
        sides = np.stack([keys // nv, keys % nv], axis=1)
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
        self.side_vectors = tang = p[sides[:, 1]] - a
        self.side_midpoints = 0.5 * (a + p[sides[:, 1]])
        self.side_lengths = np.sqrt(tang[:, 0] ** 2 + tang[:, 1] ** 2)
        # relative to the triangle's own scale, so that a fine or a small
        # mesh is not taken for a degenerate one
        if np.any(np.abs(area) <= 1e-14 * self.side_lengths[
                self.side_of_triangle].max(axis=1, initial=0.0) ** 2):
            raise MeshError("degenerate (zero-area) triangle")
        normals = np.stack([tang[:, 1], -tang[:, 0]], axis=1)
        normals /= self.side_lengths[:, None]
        away = p[opp] - a
        flip = normals[:, 0] * away[:, 0] + normals[:, 1] * away[:, 1] > 0
        normals[flip] *= -1
        self.normals = normals

    def _check_conforming(self, chunk=1 << 16):
        """Reject a hanging node: a vertex whose projection onto a side
        (a, b) lies at t in (1e-12, 1 - 1e-12) and whose squared distance
        to the side's line is below 1e-24 |b - a|^2.  Only vertices inside
        the side's bounding box widened by 1e-11 |b - a| can pass; they
        are found among the vertices sorted by x and tested in chunks of
        about ``chunk`` (side, vertex) pairs."""
        p = self.vertices
        a = p[self.sides[:, 0]]
        b = p[self.sides[:, 1]]
        tang = self.side_vectors
        length2 = np.einsum("sd,sd->s", tang, tang)
        pad = 1e-11 * self.side_lengths[:, None]
        lo = np.minimum(a, b) - pad
        hi = np.maximum(a, b) + pad
        order = np.argsort(p[:, 0], kind="stable")
        xs = p[order, 0]
        first = np.searchsorted(xs, lo[:, 0], side="left")
        count = np.searchsorted(xs, hi[:, 0], side="right") - first
        ends = np.cumsum(count)
        hanging = []
        start = 0
        while start < len(count):
            base = ends[start] - count[start]
            stop = max(int(np.searchsorted(ends, base + chunk, side="right")),
                       start + 1)
            n = count[start:stop]
            side = np.repeat(np.arange(start, stop), n)
            offset = np.arange(len(side)) - np.repeat(np.cumsum(n) - n, n)
            v = order[first[side] + offset]
            y = p[v, 1]
            keep = (y >= lo[side, 1]) & (y <= hi[side, 1])
            side, v = side[keep], v[keep]
            d = p[v] - a[side]
            t = np.einsum("sd,sd->s", d, tang[side]) / length2[side]
            perp = d - t[:, None] * tang[side]
            on = (np.einsum("sd,sd->s", perp, perp) < 1e-24 * length2[side])
            inside = on & (t > 1e-12) & (t < 1 - 1e-12)
            hanging += v[inside].tolist()
            start = stop
        if hanging:
            raise MeshError(f"hanging node: vertex {min(hanging)} lies "
                            "inside a side")

    def _assign_labels(self, labels_or_rule):
        boundary = self.adjacency[:, 1] == -1
        if isinstance(labels_or_rule, _SideLabelMap):
            labels = labels_or_rule.resolve(self.sides)
        else:
            labels = np.full(len(self.sides), INTERIOR, dtype=object)
            if callable(labels_or_rule):
                for s in np.nonzero(boundary)[0]:
                    labels[s] = labels_or_rule(self.side_midpoints[s])
            elif np.shape(labels_or_rule) in ((), labels.shape):
                labels[:] = labels_or_rule
            else:
                raise MeshError(f"{np.size(labels_or_rule)} side labels "
                                f"given for {len(labels)} sides")
        unlabeled = boundary & ~np.isin(labels, BOUNDARY_LABELS)
        if unlabeled.any():
            s = np.argmax(unlabeled)
            raise MeshError(f"unlabeled boundary side {s}: got {labels[s]!r}")
        labeled = ~boundary & (labels != INTERIOR)
        if labeled.any():
            raise MeshError(f"interior side {np.argmax(labeled)} carries "
                            "boundary label")
        self.labels = labels
        self.labels.flags.writeable = False

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
        return np.sqrt(self.areas()), self.side_lengths

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
        need = self.side_of_triangle[np.arange(self.num_triangles),
                                     self.ref_edge]
        split = np.zeros(self.num_sides, dtype=bool)
        split[need[marked]] = True
        while True:
            grow = split[self.side_of_triangle].any(axis=1) & ~split[need]
            if not np.any(grow):
                return split
            split[need[grow]] = True

    def _refine(self, split):
        """Bisect each triangle according to its pattern of split edges."""
        nv, nt = self.num_vertices, self.num_triangles
        vertices = np.vstack([self.vertices, self.side_midpoints[split]])
        midpoint = np.full(self.num_sides, -1, dtype=np.int64)
        midpoint[split] = np.arange(nv, len(vertices))

        # local edges e, e+1, e+2 face peak, a, b; their midpoints are m
        # (refinement edge), mr on (b, peak) and ml on (peak, a)
        local = (self.ref_edge[:, None] + np.arange(3)) % 3
        peak, a, b = np.take_along_axis(self.triangles, local, axis=1).T
        m, mr, ml = midpoint[np.take_along_axis(self.side_of_triangle,
                                                local, axis=1)].T
        # seven candidates per triangle: itself, then the children of
        # (m, peak, a) with and without its bisection, then those of
        # (m, b, peak); every child has its newest vertex first and its
        # refinement edge opposite it
        t0, t1, t2 = self.triangles.T
        candidates = np.stack([t0, t1, t2,
                               ml, m, peak, ml, a, m, m, peak, a,
                               mr, m, b, mr, peak, m, m, b, peak],
                              axis=1).reshape(nt, 7, 3)
        # the closure splits the refinement edge of every triangle with a
        # split edge
        bisected = m >= 0
        left, right = ml >= 0, mr >= 0
        keep = np.stack([~bisected, left, left, bisected & ~left,
                         right, right, bisected & ~right], axis=1)
        ref = np.zeros((nt, 7), dtype=np.int64)
        ref[:, 0] = self.ref_edge
        parent = np.broadcast_to(np.arange(nt)[:, None], (nt, 7))

        # unsplit sides keep their label, both halves of a split side take it
        s = self.sides[split]
        pairs = np.concatenate([self.sides[~split],
                                np.stack([s[:, 0], midpoint[split]], axis=1),
                                np.stack([s[:, 1], midpoint[split]], axis=1)])
        labels = np.concatenate([self.labels[~split], self.labels[split],
                                 self.labels[split]])
        return Triangulation(vertices, candidates[keep], ref[keep],
                             _SideLabelMap(pairs, labels),
                             parent=parent[keep], _skip_checks=True)

    def refine_nvb(self, marked):
        """Newest-vertex bisection of ``marked`` with conformity closure.

        ``marked`` is any iterable of triangle indices; repeats are allowed.
        """
        marked = np.unique(np.fromiter(marked, np.int64))
        if len(marked) and (marked[0] < 0
                            or marked[-1] >= self.num_triangles):
            raise MeshError("marked set references unknown triangle")
        return self._refine(self._split_edges_closure(marked))

    def refine_uniform(self):
        """Red refinement via three bisections: every triangle into four."""
        split = np.ones(self.num_sides, dtype=bool)
        return self._refine(split)

    def shape_regularity(self):
        """Minimum over triangles of inradius / circumradius."""
        l0, l1, l2 = self.side_lengths[self.side_of_triangle].T
        area = self.areas()
        s = 0.5 * (l0 + l1 + l2)
        r_in = area / s
        r_circ = l0 * l1 * l2 / (4.0 * area)
        return float(np.min(r_in / r_circ))


def build_triangulation(vertices, triangles, boundary_label_rule):
    """Build a conforming triangulation from raw vertex/triangle arrays.

    ``boundary_label_rule`` is either a callable mapping a boundary side
    midpoint to a label, or an explicit per-side label array.  A callable
    is evaluated once per boundary side of this mesh and refined meshes
    inherit the labels, so this mesh must resolve the boundary partition:
    a label change inside one of its sides is never seen.  The refinement
    edge of each triangle is its longest edge (within 1e-12 relative), ties
    broken by the lowest global side index.
    """
    mesh = Triangulation(vertices, triangles,
                         np.zeros(len(triangles), dtype=np.int64),
                         boundary_label_rule)
    # local edge i is side side_of_triangle[:, i]
    lengths = mesh.side_lengths[mesh.side_of_triangle]
    lmax = lengths.max(axis=1, keepdims=True)
    longest = lengths > lmax - 1e-12 * lmax
    ref = np.argmin(np.where(longest, mesh.side_of_triangle, mesh.num_sides),
                    axis=1)
    # same triangles, so the same sides: reuse the checks and the labels
    return Triangulation(mesh.vertices, mesh.triangles, ref, mesh.labels,
                         _skip_checks=True)


def refine_nvb(mesh, marked):
    return mesh.refine_nvb(marked)


def refine_uniform(mesh):
    return mesh.refine_uniform()


def shape_regularity(mesh):
    return mesh.shape_regularity()


# -- text format -------------------------------------------------------------

def write_mesh(mesh, path):
    """Write the mesh text format: header, vertex, triangle and side rows.
    Floats are written by ``repr``, so :func:`read_mesh` reads them back
    exactly; each block is formatted in one call on its flat values."""
    nv, nt, ns = mesh.num_vertices, mesh.num_triangles, mesh.num_sides
    sides = np.empty((ns, 3), dtype=object)
    sides[:, :2] = mesh.sides
    sides[:, 2] = mesh.labels
    text = "".join([
        f"vertices {nv} / triangles {nt} / sides {ns}\n",
        "%r %r\n" * nv % tuple(mesh.vertices.ravel().tolist()),
        "%d %d %d %d\n" * nt % tuple(np.column_stack(
            [mesh.triangles, mesh.ref_edge]).ravel().tolist()),
        "%d %d %s\n" * ns % tuple(sides.ravel().tolist())])
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


def read_mesh(path):
    """Read the mesh text format written by :func:`write_mesh`.

    Each block of rows is parsed in one call; a malformed row (a wrong
    number of values, a value that does not parse, an unknown label)
    raises :class:`MeshError`.  The side rows must list every side of the
    mesh exactly once.
    """
    with open(path, encoding="ascii") as fh:
        lines = [ln for ln in fh if not ln.isspace()]
    try:
        head = lines[0].replace("/", " ").split()
        if head[0] != "vertices" or head[2] != "triangles" \
                or head[4] != "sides":
            raise MeshError("bad mesh header")
        nv, nt, ns = int(head[1]), int(head[3]), int(head[5])
    except (IndexError, ValueError):
        raise MeshError("bad mesh header") from None
    if min(nv, nt, ns) < 1:
        raise MeshError("bad mesh header: a mesh has at least one "
                        "vertex, triangle and side")
    if len(lines) != 1 + nv + nt + ns:
        raise MeshError("mesh record count does not match header")
    vertices = _read_rows(lines[1:1 + nv], float, 2, "vertex")
    tri_rows = _read_rows(lines[1 + nv:1 + nv + nt], np.int64, 4,
                          "triangle")
    side_lines = lines[1 + nv + nt:]
    # the label column is read as its index in ALL_LABELS, -1 if unknown
    side_rows = _read_rows(side_lines, np.int64, 3, "side",
                           {2: lambda lab: _LABEL_CODE.get(lab, -1)})
    unknown = np.nonzero(side_rows[:, 2] < 0)[0]
    if len(unknown):
        lab = side_lines[unknown[0]].split()[2]
        raise MeshError(f"unknown side label {lab!r}")
    pairs = np.sort(side_rows[:, :2], axis=1)
    labels = np.array(ALL_LABELS, dtype=object)[side_rows[:, 2]]
    mesh = Triangulation(vertices, tri_rows[:, :3], tri_rows[:, 3],
                         _SideLabelMap(pairs, labels))
    listed = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    if not np.array_equal(listed, mesh.sides):
        raise MeshError("side list in file does not match the mesh")
    return mesh


_LABEL_CODE = {lab: i for i, lab in enumerate(ALL_LABELS)}


def _read_rows(lines, dtype, ncols, what, converters=None):
    """The text rows ``lines`` as an (n, ncols) array of ``dtype``; a row
    with another number of values, or with a value that does not parse,
    raises :class:`MeshError`."""
    try:
        rows = np.loadtxt(lines, dtype=dtype, comments=None, ndmin=2,
                          converters=converters)
    except ValueError as err:
        raise MeshError(f"bad {what} row: {err}") from None
    if rows.shape[1] != ncols:
        raise MeshError(f"bad {what} row: {rows.shape[1]} values, "
                        f"expected {ncols}")
    return rows


class _SideLabelMap:
    """Side labels by vertex pair; pairs not listed are interior."""

    def __init__(self, pairs, labels):
        self.pairs = pairs
        self.labels = labels

    def resolve(self, sides):
        n = max(sides.max(initial=0), self.pairs.max(initial=0)) + 1
        keys = self.pairs[:, 0] * n + self.pairs[:, 1]
        want = sides[:, 0] * n + sides[:, 1]
        order = np.argsort(keys)
        pos = np.searchsorted(keys, want, sorter=order)
        found = pos < len(keys)
        found[found] = keys[order[pos[found]]] == want[found]
        labels = np.full(len(sides), INTERIOR, dtype=object)
        labels[found] = self.labels[order[pos[found]]]
        return labels
