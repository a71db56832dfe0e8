"""Triangular mesh handling: reading, validation and P1 geometry.

All solvers work on a :class:`MeshSystem`, which bundles the validated mesh
with its per-element geometric quantities and the degree-of-freedom
identification used for periodic boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshError(Exception):
    """Raised for parse errors, non-conforming meshes or degenerate triangles."""


# Relative degeneracy tolerance: triangles with area below DEGENERATE_REL times
# the squared bounding-box diagonal are rejected.
DEGENERATE_REL = 1e-14


@dataclass
class Mesh:
    """A conforming triangular mesh with optional boundary tags and periodic pairs.

    Triangles are stored counterclockwise; :func:`validate` reorients on demand.
    """

    nodes: np.ndarray                       # (N, 2) float
    triangles: np.ndarray                   # (E, 3) int
    boundary_tags: dict = field(default_factory=dict)   # (i, j) sorted pair -> tag
    periodic_pairs: dict = field(default_factory=dict)  # node -> partner node

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    def signed_areas(self) -> np.ndarray:
        p = self.nodes[self.triangles]
        a = p[:, 1] - p[:, 0]
        b = p[:, 2] - p[:, 0]
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])

    def edges(self):
        """Yield each undirected edge (sorted node pair) with its multiplicity."""
        tri = self.triangles
        pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
        pairs.sort(axis=1)
        uniq, counts = np.unique(pairs, axis=0, return_counts=True)
        return uniq, counts

    def validate(self) -> "Mesh":
        """Check all mesh invariants in place and reorient triangles CCW.

        Returns self for chaining. Raises :class:`MeshError` on any violation.
        """
        nodes = np.asarray(self.nodes, dtype=float)
        tri = np.asarray(self.triangles, dtype=np.int64)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError("nodes must be an (N, 2) array")
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise MeshError("triangles must be an (E, 3) array")
        if tri.size and (tri.min() < 0 or tri.max() >= nodes.shape[0]):
            bad = int(np.argmax((tri < 0) | (tri >= nodes.shape[0])))
            raise MeshError(
                f"triangle {bad // 3} references node index out of range "
                f"(have {nodes.shape[0]} nodes)"
            )
        self.nodes = nodes
        self.triangles = tri

        # Reorient clockwise triangles, then reject degenerate ones.
        areas = self.signed_areas()
        flip = areas < 0
        if flip.any():
            tri[flip] = tri[flip][:, [0, 2, 1]]
            areas = np.abs(areas)
        span = nodes.max(axis=0) - nodes.min(axis=0) if nodes.size else np.zeros(2)
        scale2 = max(float(span @ span), 1.0)
        if tri.size and areas.min() <= DEGENERATE_REL * scale2:
            e = int(np.argmin(areas))
            raise MeshError(f"degenerate triangle {e} (area {areas[e]:g})")

        uniq, counts = self.edges()
        if counts.size and counts.max() > 2:
            e = uniq[np.argmax(counts)]
            raise MeshError(f"non-conforming mesh: edge {tuple(e)} shared by >2 triangles")

        for (i, j), tag in self.boundary_tags.items():
            if not isinstance(tag, str):
                raise MeshError(f"boundary tag for edge ({i}, {j}) is not a string")

        boundary_nodes = set(uniq[counts == 1].ravel().tolist())
        for a, b in self.periodic_pairs.items():
            if a == b:
                raise MeshError(f"node {a} periodically paired with itself")
            # Either a symmetric pair (involution) or a canonical node->representative
            # entry; the latter is needed to merge all four corners of a torus.
            if b in self.periodic_pairs and self.periodic_pairs[b] != a:
                raise MeshError(f"inconsistent periodic pairing at node {a}")
            if a not in boundary_nodes or b not in boundary_nodes:
                raise MeshError(f"periodic pair ({a}, {b}) involves a non-boundary node")
        return self


@dataclass
class ElementGeometry:
    """Exact P1 geometric quantities for every element (closed form, no quadrature).

    c[e, i] is the integral of -grad(phi_i) over element e; m_pair holds the
    3x3 element mass matrix (|K|/6 diagonal, |K|/12 off-diagonal).
    """

    area: np.ndarray                        # (E,)
    grad: np.ndarray                        # (E, 3, 2)
    c: np.ndarray                           # (E, 3, 2)
    m_elem: np.ndarray                      # (E,)  = area / 3
    m_pair: np.ndarray                      # (E, 3, 3)
    centroid: np.ndarray                    # (E, 2)


def element_geometry(mesh: Mesh) -> ElementGeometry:
    p = mesh.nodes[mesh.triangles]          # (E, 3, 2)
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    area = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if area.size and area.min() <= 0:
        raise MeshError("element_geometry requires CCW-oriented, nondegenerate triangles")
    # grad(phi_i) = ((y_j - y_k), (x_k - x_j)) / (2 |K|), (i, j, k) cyclic
    grad = np.empty((mesh.n_elements, 3, 2))
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grad[:, i, 0] = p[:, j, 1] - p[:, k, 1]
        grad[:, i, 1] = p[:, k, 0] - p[:, j, 0]
    grad /= (2.0 * area)[:, None, None]
    c = -area[:, None, None] * grad
    m_elem = area / 3.0
    m_pair = (area[:, None, None] / 12.0) * (np.ones((3, 3)) + np.eye(3))
    centroid = p.mean(axis=1)
    return ElementGeometry(area=area, grad=grad, c=c, m_elem=m_elem,
                           m_pair=m_pair, centroid=centroid)


def _dof_map(mesh: Mesh) -> tuple[np.ndarray, int]:
    """Collapse periodically paired nodes onto shared degrees of freedom."""
    parent = np.arange(mesh.n_nodes)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in mesh.periodic_pairs.items():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    root = np.array([find(i) for i in range(mesh.n_nodes)])
    reps, dof_of_node = np.unique(root, return_inverse=True)
    return dof_of_node, len(reps)


@dataclass
class MeshSystem:
    """Everything the schemes need: mesh, geometry, DOFs and masses.

    Immutable after construction; safe to share read-only.
    """

    mesh: Mesh
    geometry: ElementGeometry
    dof_of_node: np.ndarray                 # (N,)
    n_dofs: int
    elem_dofs: np.ndarray                   # (E, 3)
    lumped_mass: np.ndarray                 # (n_dofs,)
    dof_coords: np.ndarray                  # (n_dofs, 2) representative coordinates
    boundary_normal: np.ndarray             # (n_dofs, 2)  n_i = -sum_e c_i^e
    boundary_dofs: np.ndarray               # indices with |n_i| > 0
    dof_tags: list                          # per dof: set of boundary tags

    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements


def build_system(mesh: Mesh) -> MeshSystem:
    mesh.validate()
    geom = element_geometry(mesh)
    dof_of_node, n_dofs = _dof_map(mesh)
    elem_dofs = dof_of_node[mesh.triangles]

    lumped = np.zeros(n_dofs)
    np.add.at(lumped, elem_dofs, geom.m_elem[:, None] * np.ones(3))
    if lumped.size and lumped.min() <= 0:
        raise MeshError("nonpositive lumped mass (isolated node?)")

    dof_coords = np.zeros((n_dofs, 2))
    # Representative = lowest-index node of each identified group.
    seen = np.full(n_dofs, False)
    for i in range(mesh.n_nodes):
        d = dof_of_node[i]
        if not seen[d]:
            dof_coords[d] = mesh.nodes[i]
            seen[d] = True

    normal = np.zeros((n_dofs, 2))
    np.add.at(normal, elem_dofs, -geom.c)
    scale = np.sqrt(lumped.mean()) if n_dofs else 1.0
    nrm = np.linalg.norm(normal, axis=1)
    boundary_dofs = np.nonzero(nrm > 1e-12 * scale)[0]
    interior = nrm <= 1e-12 * scale
    normal[interior] = 0.0

    dof_tags = [set() for _ in range(n_dofs)]
    for (i, j), tag in mesh.boundary_tags.items():
        dof_tags[dof_of_node[i]].add(tag)
        dof_tags[dof_of_node[j]].add(tag)

    return MeshSystem(
        mesh=mesh, geometry=geom,
        dof_of_node=dof_of_node, n_dofs=n_dofs, elem_dofs=elem_dofs,
        lumped_mass=lumped, dof_coords=dof_coords,
        boundary_normal=normal, boundary_dofs=boundary_dofs, dof_tags=dof_tags,
    )


def read_mesh(text: str) -> Mesh:
    """Parse the ASCII mesh format.

    Sections: ``nodes N`` followed by N ``x y`` lines, ``triangles E`` followed
    by E ``i j k`` lines, optional ``boundary B`` (``i j tag`` lines) and
    ``periodic P`` (``i j`` lines). ``#`` starts a comment.
    """
    lines = text.splitlines()
    idx = 0

    def next_tokens():
        nonlocal idx
        while idx < len(lines):
            raw = lines[idx]
            idx += 1
            body = raw.split("#", 1)[0].strip()
            if body:
                return body.split(), idx
        return None, idx

    def expect_header(names):
        toks, ln = next_tokens()
        if toks is None:
            return None, 0, ln
        if len(toks) != 2 or toks[0] not in names:
            raise MeshError(f"line {ln}: expected section header, got {' '.join(toks)!r}")
        try:
            count = int(toks[1])
        except ValueError:
            raise MeshError(f"line {ln}: bad count {toks[1]!r}") from None
        return toks[0], count, ln

    name, n, _ = expect_header({"nodes"})
    if name is None:
        raise MeshError("empty mesh file")
    nodes = np.zeros((n, 2))
    for a in range(n):
        toks, ln = next_tokens()
        if toks is None or len(toks) != 2:
            raise MeshError(f"line {ln}: expected 'x y' for node {a}")
        try:
            nodes[a] = [float(toks[0]), float(toks[1])]
        except ValueError:
            raise MeshError(f"line {ln}: bad coordinate") from None

    name, e, _ = expect_header({"triangles"})
    if name is None:
        raise MeshError("missing 'triangles' section")
    tris = np.zeros((e, 3), dtype=np.int64)
    for a in range(e):
        toks, ln = next_tokens()
        if toks is None or len(toks) != 3:
            raise MeshError(f"line {ln}: expected 'i j k' for triangle {a}")
        try:
            tris[a] = [int(toks[0]), int(toks[1]), int(toks[2])]
        except ValueError:
            raise MeshError(f"line {ln}: bad node index") from None

    boundary_tags: dict = {}
    raw_pairs: list = []
    while True:
        name, cnt, ln = expect_header({"boundary", "periodic"})
        if name is None:
            break
        for _ in range(cnt):
            toks, ln = next_tokens()
            if name == "boundary":
                if toks is None or len(toks) != 3:
                    raise MeshError(f"line {ln}: expected 'i j tag'")
                i, j = int(toks[0]), int(toks[1])
                boundary_tags[(min(i, j), max(i, j))] = toks[2]
            else:
                if toks is None or len(toks) != 2:
                    raise MeshError(f"line {ln}: expected 'i j'")
                raw_pairs.append((int(toks[0]), int(toks[1])))

    mesh = Mesh(nodes=nodes, triangles=tris,
                boundary_tags=boundary_tags,
                periodic_pairs=canonical_pairs(raw_pairs))
    return mesh.validate()


def canonical_pairs(pairs) -> dict:
    """Turn identification edges into a canonical node->representative map.

    The representative of each identified group is its smallest node index;
    groups of any size are allowed (torus corners merge four nodes).
    """
    parent: dict = {}

    def find(a):
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {a: find(a) for a in parent if find(a) != a}


def write_mesh(mesh: Mesh) -> str:
    """Serialize a mesh to the ASCII format accepted by :func:`read_mesh`."""
    out = [f"nodes {mesh.n_nodes}"]
    out += [f"{x:.17g} {y:.17g}" for x, y in mesh.nodes]
    out.append(f"triangles {mesh.n_elements}")
    out += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    if mesh.boundary_tags:
        out.append(f"boundary {len(mesh.boundary_tags)}")
        for (i, j), tag in sorted(mesh.boundary_tags.items()):
            out.append(f"{i} {j} {tag}")
    if mesh.periodic_pairs:
        pairs = sorted({(min(a, b), max(a, b)) for a, b in mesh.periodic_pairs.items()})
        out.append(f"periodic {len(pairs)}")
        out += [f"{a} {b}" for a, b in pairs]
    return "\n".join(out) + "\n"


def structured_rect(nx: int, ny: int, x0: float = 0.0, x1: float = 1.0,
                    y0: float = 0.0, y1: float = 1.0,
                    periodic: bool = False) -> Mesh:
    """Uniform triangulation of a rectangle: nx*ny cells, each split by the
    lower-left/upper-right diagonal (interior nodes touch 6 elements).

    With ``periodic=True`` opposite boundary nodes are paired for wraparound.
    """
    if nx < 1 or ny < 1:
        raise MeshError("structured_rect needs nx, ny >= 1")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    def nid(ix, iy):
        return iy * (nx + 1) + ix

    tris = []
    for iy in range(ny):
        for ix in range(nx):
            a, b = nid(ix, iy), nid(ix + 1, iy)
            c, d = nid(ix + 1, iy + 1), nid(ix, iy + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    tris = np.array(tris, dtype=np.int64)

    tags = {}
    for ix in range(nx):
        tags[tuple(sorted((nid(ix, 0), nid(ix + 1, 0))))] = "bottom"
        tags[tuple(sorted((nid(ix, ny), nid(ix + 1, ny))))] = "top"
    for iy in range(ny):
        tags[tuple(sorted((nid(0, iy), nid(0, iy + 1))))] = "left"
        tags[tuple(sorted((nid(nx, iy), nid(nx, iy + 1))))] = "right"

    periodic_pairs: dict = {}
    if periodic:
        # Canonical mapping: wrap right->left and top->bottom; all four
        # corners share the representative (0, 0).
        for iy in range(ny + 1):
            for ix in range(nx + 1):
                rx, ry = ix % nx, iy % ny
                if (rx, ry) != (ix, iy):
                    periodic_pairs[nid(ix, iy)] = nid(rx, ry)
    mesh = Mesh(nodes=nodes, triangles=tris,
                boundary_tags=tags, periodic_pairs=periodic_pairs)
    return mesh.validate()
