"""Triangular mesh handling: reading, validation and P1 geometry.

All solvers work on a :class:`MeshSystem`, which bundles the validated mesh
with its per-element geometric quantities and the degree-of-freedom
identification used for periodic boundaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .models import TINY


class Workspace(dict):
    """Named float buffers (the values of the dict) and the views of them
    that ``scratch`` hands out, each made once per ``(name, shape)``.

    The views live in the workspace, so they go with it: a scheme that owns
    one frees its buffers and their views together.
    """

    def __init__(self):
        super().__init__()
        self.views = {}


def scratch(ws: Workspace | None, name: str, shape: tuple):
    """Float array ``name`` of ``shape`` from the workspace ``ws``, stored
    with the first index fastest (Fortran order) and made on first use.

    Later calls with the same name reuse the memory (a name whose shape
    grows gets a larger block once), so the contents are whatever the last
    user left, and return the same view for the same ``(name, shape)``.
    Without a workspace it returns None, which as a numpy ``out=`` argument
    asks for a fresh result: code written with ``out=scratch(ws, ...)``
    runs unchanged either way.
    """
    if ws is None:
        return None
    view = ws.views.get((name, shape))
    if view is not None:
        return view
    size = math.prod(shape)
    flat = ws.get(name)
    if flat is None or flat.size < size:
        flat = ws[name] = np.empty(size)
        for key in [k for k in ws.views if k[0] == name]:
            del ws.views[key]         # views of the old block are stale
    view = ws.views[(name, shape)] = flat[:size].reshape(shape, order="F")
    return view


# Reductions over the three nodes of an element (axis 1 of an (E, 3, ...)
# block) into ``out`` when given, written out: numpy's reduce over a
# length-3 axis costs several times more. Each keeps the node axis with
# length 1, so the (E, 1, ...) result broadcasts against the block.

def node_sum(a, out=None):
    s = np.add(a[:, :1], a[:, 1:2], out=out)
    s += a[:, 2:]
    return s


def node_min(a, out=None):
    m = np.minimum(a[:, :1], a[:, 1:2], out=out)
    return np.minimum(m, a[:, 2:], out=m)


def node_max(a, out=None):
    m = np.maximum(a[:, :1], a[:, 1:2], out=out)
    return np.maximum(m, a[:, 2:], out=m)


class MeshError(Exception):
    """Raised for parse errors, non-conforming meshes or degenerate triangles."""


# Relative degeneracy tolerance: triangles with area below DEGENERATE_REL times
# the squared bounding-box diagonal are rejected.
DEGENERATE_REL = 1e-14


@dataclass
class Mesh:
    """A triangular mesh, checked and reoriented CCW by :func:`build_system`.

    ``periodic_pairs`` maps each paired node to the smallest node of its
    group, which is itself unpaired (the form of :func:`canonical_pairs`).
    """

    nodes: np.ndarray                       # (N, 2) float
    triangles: np.ndarray                   # (E, 3) int
    periodic_pairs: dict = field(default_factory=dict)  # node -> partner node

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.triangles.shape[0]

    def _edge_keys(self):
        """The ascending keys ``lo * n + hi`` of the edges (node pairs lo <
        hi; n exceeds every node index), their ``counts`` and ``n``."""
        tri = self.triangles
        a, b = tri.ravel(), tri[:, [1, 2, 0]].ravel()
        # One int64 key per pair sorts like the rows (lo, hi) lexicographically.
        n = int(b.max()) + 1 if b.size else 1
        keys = np.minimum(a, b).astype(np.int64, copy=False)
        keys *= n
        keys += np.maximum(a, b, out=b)
        keys.sort()
        new = np.empty(keys.size, dtype=bool)
        new[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=new[1:])
        first = np.flatnonzero(new)
        counts = np.empty_like(first)           # the run lengths
        np.subtract(first[1:], first[:-1], out=counts[:-1])
        counts[-1:] = keys.size - first[-1:]
        return keys[first], counts, n

    def _validated(self) -> tuple:
        """Check every mesh invariant (:class:`MeshError`), reorienting
        clockwise triangles in place. Returns for :func:`build_system` the
        node coordinates of the reoriented triangles, (E, 3, 2) with the
        element index fastest, and their areas (E,)."""
        nodes = np.asarray(self.nodes, dtype=float)
        tri = np.asarray(self.triangles)
        if nodes.ndim != 2 or nodes.shape[1] != 2:
            raise MeshError("nodes must be an (N, 2) array")
        if tri.ndim != 2 or tri.shape[1] != 3:
            raise MeshError("triangles must be an (E, 3) array")
        if tri.shape[0] == 0:
            raise MeshError("mesh has no triangles")
        # the extent of each coordinate, NaN or inf if any coordinate is
        span = np.array([np.ptp(nodes[:, 0]), np.ptp(nodes[:, 1])]) \
            if nodes.size else np.zeros(2)
        if not np.isfinite(span).all():
            bad = int(np.argmin(np.isfinite(nodes).all(axis=1)))
            raise MeshError(f"node {bad} has a non-finite coordinate "
                            f"({nodes[bad, 0]:g}, {nodes[bad, 1]:g})")
        if tri.min() < 0 or tri.max() >= nodes.shape[0]:
            bad = int(np.argmax((tri < 0) | (tri >= nodes.shape[0])))
            raise MeshError(
                f"triangle {bad // 3} references node index out of range "
                f"(have {nodes.shape[0]} nodes)"
            )
        if tri.dtype.kind == "f":
            whole = tri == np.floor(tri)    # False for NaN, which min/max let by
            if not whole.all():
                bad = int(np.argmin(whole))
                raise MeshError(f"triangle {bad // 3} has a non-integer node "
                                f"index {tri.flat[bad]:g}")
        tri = tri.astype(np.int64, copy=False)
        self.nodes = nodes
        self.triangles = tri

        # Reorient clockwise triangles, then reject degenerate ones. A
        # flipped triangle's area is the exact negative of its old one.
        p = _corners(nodes, tri)
        areas = _signed_areas(p)
        flip = areas < 0
        if flip.any():
            tri[flip] = tri[flip][:, [0, 2, 1]]
            p[flip] = p[flip][:, [0, 2, 1]]
            np.abs(areas, out=areas)
        scale2 = max(float(span @ span), 1.0)
        if areas.min() <= DEGENERATE_REL * scale2:
            e = int(np.argmin(areas))
            raise MeshError(f"degenerate triangle {e} (area {areas[e]:g})")

        keys, counts, n = self._edge_keys()
        if counts.max() > 2:
            e = divmod(int(keys[np.argmax(counts)]), n)
            raise MeshError(f"non-conforming mesh: edge {e} shared by >2 "
                            "triangles")

        if self.periodic_pairs:
            boundary_nodes = set(
                np.concatenate(np.divmod(keys[counts == 1], n)).tolist())
        for a, b in self.periodic_pairs.items():
            if a == b:
                raise MeshError(f"node {a} periodically paired with itself")
            # the canonical form: a representative is smaller and unpaired
            if b > a or b in self.periodic_pairs:
                raise MeshError(f"inconsistent periodic pairing at node {a}")
            if a not in boundary_nodes or b not in boundary_nodes:
                raise MeshError(f"periodic pair ({a}, {b}) involves a non-boundary node")
        return p, areas


def _corners(nodes, tri) -> np.ndarray:
    """The coordinates of the triangles' nodes, (E, 3, 2) with the element
    index fastest."""
    return np.asarray(nodes).T.take(np.asarray(tri).T, axis=1).T


def _signed_areas(p) -> np.ndarray:
    a = p[:, 1] - p[:, 0]
    b = p[:, 2] - p[:, 0]
    area = a[:, 0] * b[:, 1]
    area -= a[:, 1] * b[:, 0]
    area *= 0.5
    return area


@dataclass
class ElementGeometry:
    """Exact P1 geometric quantities for every element (closed form, no quadrature).

    c[e, i] is the integral of -grad(phi_i) over element e. The element
    mass matrix has |K|/6 on its diagonal and ``m_off`` = |K|/12 off it, so
    its rows sum to ``m_elem`` = |K|/3.
    ``c``, ``c_norm``, ``c_hat`` and ``centroid`` are stored with the
    element index fastest, the order of the blocks that read them.
    ``c_norm`` and ``c_hat`` are formed from ``c`` on first use: only the
    wave speeds of a nonlinear flux read them, so a run with a linear flux
    never forms them.
    """

    c: np.ndarray                           # (E, 3, 2)
    m_elem: np.ndarray                      # (E,)  = area / 3
    m_off: np.ndarray                       # (E,)  = area / 12
    centroid: np.ndarray                    # (E, 2)

    @cached_property
    def c_norm(self) -> np.ndarray:
        """(E, 3) |c_i^e|, with the bits of np.linalg.norm(c, axis=-1)."""
        c = self.c
        c_norm = c[..., 0] * c[..., 0]
        c_norm += c[..., 1] * c[..., 1]
        return np.sqrt(c_norm, out=c_norm)

    @cached_property
    def c_hat(self) -> np.ndarray:
        """(E, 3, 2) c_i^e / |c_i^e|."""
        return self.c / np.maximum(self.c_norm, TINY)[..., None]


def _geometry(p, area) -> ElementGeometry:
    """The geometry of the elements with node coordinates ``p`` (E, 3, 2)
    and positive areas ``area`` (E,)."""
    # grad(phi_i) = ((y_j - y_k), (x_k - x_j)) / (2 |K|), (i, j, k) cyclic
    grad = np.empty((area.size, 3, 2), order="F")
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        grad[:, i, 0] = p[:, j, 1] - p[:, k, 1]
        grad[:, i, 1] = p[:, k, 0] - p[:, j, 0]
    grad /= (2.0 * area)[:, None, None]
    c = -area[:, None, None] * grad
    # the bits of p.mean(axis=1)
    centroid = np.add(p[:, 0], p[:, 1], out=np.empty((area.size, 2), order="F"))
    centroid += p[:, 2]
    centroid /= 3.0
    return ElementGeometry(c=c, m_elem=area / 3.0, m_off=area / 12.0,
                           centroid=centroid)


def _dof_map(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    """Collapse periodically paired nodes onto shared degrees of freedom:
    the dof of each node, and the lowest node of each dof's group."""
    node = np.arange(mesh.n_nodes)
    rep = node.copy()                       # smallest node of each group
    rep[list(mesh.periodic_pairs)] = list(mesh.periodic_pairs.values())
    first = rep == node
    return (np.cumsum(first) - 1)[rep], np.flatnonzero(first)


@dataclass
class MeshSystem:
    """Everything the schemes need: mesh, geometry, DOFs and masses.

    Immutable after construction; safe to share read-only.

    Per-element arrays keep their logical shapes, (E, 3) and (E, 3, ...),
    but are stored with the element index fastest (Fortran order), so that
    numpy runs its inner loops over the elements. ``gather`` reads per-DOF
    values into that order; ``scatter_add`` and ``scatter_min_max`` reduce
    per-element node values of any order onto the DOFs and return fresh
    per-DOF arrays stored with the DOF index fastest. Sums add in the same
    order as ``np.add.at`` over ``elem_dofs``, so they are bit-identical;
    minima and maxima equal those of ``np.minimum.at``/``np.maximum.at``
    except that a tie between -0.0 and +0.0 may keep either sign.
    """

    mesh: Mesh
    geometry: ElementGeometry
    dof_of_node: np.ndarray                 # (N,)
    n_dofs: int
    elem_dofs: np.ndarray                   # (E, 3), element index fastest
    lumped_mass: np.ndarray                 # (n_dofs,)
    dof_coords: np.ndarray                  # (n_dofs, 2) representative coordinates
    boundary_dofs: np.ndarray               # (B,) indices with |n_i| > 0
    # The fixed data of the boundary terms, at boundary_dofs:
    boundary_n: np.ndarray                  # (B, 2)  n_i = -sum_e c_i^e
    boundary_nlen: np.ndarray               # (B,)  |n_i|
    boundary_nhat: np.ndarray               # (B, 2)  n_i / |n_i|
    boundary_x: np.ndarray                  # (B, 2)  dof coordinates
    # Column d lists where dof d occurs in the element-fastest flattening of
    # an (E, 3) block (node i of element e at i * E + e), in element order,
    # which is the order of np.add.at. The columns are as long as the
    # largest valence; a shorter one is padded with its own last entry,
    # which leaves minima and maxima unchanged. dof_pad lists the padding
    # slots of the flattened table, which sums set to zero.
    dof_table: np.ndarray                   # (V, n_dofs)
    dof_pad: np.ndarray                     # (P,)

    @property
    def n_elements(self) -> int:
        return self.mesh.n_elements

    def gather(self, x: np.ndarray, out=None) -> np.ndarray:
        """Per-DOF values (n_dofs,) or (n_dofs, m) at the element nodes,
        (E, 3) or (E, 3, m) with the element index fastest; written into
        ``out`` (that shape, Fortran order) when given."""
        # elem_dofs is in range by construction; mode="clip" skips the
        # bounds check, and with it the copy numpy makes of ``out``. It
        # would also read a short x, or fill a short out, without an error.
        shape = self.elem_dofs.shape + x.shape[1:]
        if x.shape[0] != self.n_dofs or out is not None and out.shape != shape:
            raise ValueError(f"gather takes {self.n_dofs} DOF values into "
                             f"{shape}, not {x.shape[0]} into "
                             f"{shape if out is None else out.shape}")
        return x.T.take(self.elem_dofs.T, axis=-1, mode="clip",
                        out=None if out is None else out.T).T

    def _components(self, vals: np.ndarray) -> np.ndarray:
        """The (E, 3) or (E, 3, m) ``vals`` as (m, 3 E) rows (m = 1 for
        (E, 3)) in the element-fastest flattening that ``dof_table``
        indexes: a view of element-fastest values."""
        if vals.shape[:2] != self.elem_dofs.shape:
            raise ValueError(f"scatter takes an {self.elem_dofs.shape} element "
                             f"block, not {vals.shape[:2]}")
        return vals.T.reshape(-1, vals.shape[0] * 3)

    def _row_blocks(self, flat: np.ndarray, table: np.ndarray, ws=None):
        """For each row of ``flat`` (m, n), one component, yield the
        C-ordered (V, n_dofs) block whose column d holds the row's values
        at the positions in column d of ``table`` (V, n_dofs): one
        ``np.take`` per component, each into the one row block of the
        workspace ``ws`` when given."""
        rows = scratch(ws, "mesh.rows", table.shape[::-1])
        for component in flat:
            yield component.take(table, mode="clip",
                                 out=None if rows is None else rows.T)

    # Every reduction runs unmasked over a whole row block (a where= mask
    # over it costs several times more) into a row of a fresh contiguous
    # (m, n_dofs) result, which is returned transposed: DOF-fastest, with
    # no copy. One component is reduced at a time, in the same order per
    # DOF as over an (m, V, n_dofs) block, so the row block is (V, n_dofs).

    def scatter_add(self, vals: np.ndarray, ws=None) -> np.ndarray:
        """Sum (E, 3) or (E, 3, m) values onto the DOFs, in element order
        from 0.0."""
        flat = self._components(vals)
        total = np.empty((len(flat), self.n_dofs))
        for rows, out in zip(self._row_blocks(flat, self.dof_table, ws),
                             total):
            if self.dof_pad.size:
                # A sum from +0.0 is never -0.0, so adding +0.0 for each
                # padding slot after the real entries changes no bit.
                rows.reshape(-1)[self.dof_pad] = 0.0
            np.add.reduce(rows, axis=0, initial=0.0, out=out)
        return total.T.reshape((self.n_dofs,) + vals.shape[2:])

    def _min_max(self, flat: np.ndarray, table: np.ndarray, ws,
                 shape: tuple) -> tuple:
        """The smallest and the largest value of each component of
        ``flat`` over each column of ``table`` (see ``_row_blocks``),
        each shaped ``shape``, (n_dofs,) or (n_dofs, m)."""
        lo = np.empty((len(flat), self.n_dofs))
        hi = np.empty_like(lo)
        for rows, lo_k, hi_k in zip(self._row_blocks(flat, table, ws), lo,
                                    hi):
            np.minimum.reduce(rows, axis=0, out=lo_k)
            np.maximum.reduce(rows, axis=0, out=hi_k)
        return lo.T.reshape(shape), hi.T.reshape(shape)

    def scatter_min_max(self, vals: np.ndarray, ws=None) -> tuple:
        """The smallest and the largest (E, 3) or (E, 3, m) value at each
        DOF, from one row block per component."""
        return self._min_max(self._components(vals), self.dof_table, ws,
                             (self.n_dofs,) + vals.shape[2:])

    @cached_property
    def stencil_table(self) -> np.ndarray:
        """(W, n_dofs) table whose column d lists, once each and in
        ascending order, the DOFs that share an element with d, d included;
        a shorter column is padded with its own last entry. Built on first
        use, so in the first FCT stage of a run: only the stencil bounds
        read it."""
        n, dofs = self.n_dofs, self.elem_dofs
        # every (d, neighbour) pair of every element, as one sortable key,
        # each once; the block is flattened in its memory order (element
        # fastest), with no copy, as the sort makes the order moot
        keys = (dofs[:, :, None] * n + dofs[:, None, :]).ravel(order="K")
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        d = keys // n
        count = np.bincount(d, minlength=n)
        slot = np.arange(count.max(initial=0))[:, None]
        starts = np.cumsum(count) - count
        return keys[starts + np.minimum(slot, count - 1)] % n

    def stencil_min_max(self, x: np.ndarray, ws=None) -> tuple:
        """Smallest and largest per-DOF value ``x`` (n_dofs,) or (n_dofs,
        m) over each DOF's stencil (the DOFs it shares an element with,
        itself included): per component, one ``np.take`` through
        ``stencil_table`` into the row block of the scatters, then one
        reduction each. Fresh results shaped like ``x``, stored with the
        DOF index fastest."""
        if x.shape[0] != self.n_dofs:
            raise ValueError(f"stencil_min_max takes {self.n_dofs} DOF "
                             f"values, not {x.shape[0]}")
        return self._min_max(x.T.reshape(-1, self.n_dofs),
                             self.stencil_table, ws, x.shape)


def build_system(mesh: Mesh) -> MeshSystem:
    """Validate ``mesh`` (reorienting it in place) and form its system.

    This is a mesh's one validation, of the canonical form of its periodic
    pairs too. The element coordinates are gathered once, by the
    validation, whose areas the geometry takes."""
    geom = _geometry(*mesh._validated())
    dof_of_node, first_node = _dof_map(mesh)
    n_dofs = first_node.size
    elem_c = dof_of_node[mesh.triangles]
    elem_dofs = np.asfortranarray(elem_c)

    flat = elem_c.ravel()                   # element by element
    lumped = np.bincount(flat, weights=np.repeat(geom.m_elem, 3), minlength=n_dofs)
    if lumped.min() <= 0:
        raise MeshError("nonpositive lumped mass (isolated node?)")
    # Each DOF's entries of flat, in element order, padded to the largest
    # valence with its last entry and mapped to the element-fastest
    # flattening.
    by_dof = np.argsort(flat, kind="stable")
    valence = np.bincount(flat, minlength=n_dofs)
    slot = np.arange(valence.max(initial=0))[:, None]
    starts = np.cumsum(valence) - valence
    e, i = np.divmod(by_dof[starts + np.minimum(slot, valence - 1)], 3)
    dof_table = i * mesh.n_elements + e
    dof_pad = np.flatnonzero(slot >= valence)

    # Representative = lowest-index node of each identified group.
    dof_coords = mesh.nodes[first_node]

    normal = np.stack([np.bincount(flat, weights=-geom.c[..., k].ravel(),
                                   minlength=n_dofs) for k in range(2)], axis=1)
    scale = np.sqrt(lumped.mean())
    nrm = np.sqrt(normal[:, 0] * normal[:, 0] + normal[:, 1] * normal[:, 1])
    boundary_dofs = np.nonzero(nrm > 1e-12 * scale)[0]

    b_n = normal[boundary_dofs]
    b_nlen = nrm[boundary_dofs]
    b_nhat = b_n / np.maximum(b_nlen, TINY)[:, None]

    return MeshSystem(
        mesh=mesh, geometry=geom,
        dof_of_node=dof_of_node, n_dofs=n_dofs, elem_dofs=elem_dofs,
        lumped_mass=lumped, dof_coords=dof_coords,
        boundary_dofs=boundary_dofs,
        boundary_n=b_n, boundary_nlen=b_nlen, boundary_nhat=b_nhat,
        boundary_x=dof_coords[boundary_dofs],
        dof_table=dof_table, dof_pad=dof_pad,
    )


def _integer(token: str, low: int = -2 ** 63) -> int:
    """``token`` as an integer in [low, 2**63), which int64 holds, else
    ValueError."""
    value = int(token)
    if not low <= value < 2 ** 63:
        raise ValueError(token)
    return value


def read_mesh(text: str) -> Mesh:
    """Parse the ASCII mesh format.

    Sections: ``nodes N`` followed by N ``x y`` lines, ``triangles E`` followed
    by E ``i j k`` lines, optional ``boundary B`` (``i j tag`` lines, checked
    and dropped: no boundary condition reads a tag) and ``periodic P``
    (``i j`` lines in any direction, returned in canonical form). ``#``
    starts a comment. Only the lines are checked here; :func:`build_system`
    checks the mesh.
    """
    lines = text.splitlines()
    # (line number, tokens) of each line that has data
    data = ((ln, body.split()) for ln, raw in enumerate(lines, start=1)
            if (body := raw.split("#", 1)[0].strip()))

    def read(types, expected, bad, line=None):
        """The number of ``line`` (by default the next data line) and its
        tokens, each converted by its entry of ``types``; MeshError ``line
        N: expected ...`` for another number of tokens, ``bad ...`` for one
        that does not convert."""
        ln, toks = line or next(data, (len(lines), ()))
        if len(toks) != len(types):
            raise MeshError(f"line {ln}: expected {expected}")
        try:
            return ln, [convert(t) for convert, t in zip(types, toks)]
        except ValueError:
            raise MeshError(f"line {ln}: bad {bad}") from None

    def header(names, missing=None):
        """The next section header as (name, count). Past the last data
        line, a MeshError ``missing`` if it is given, else None."""
        ln, toks = next(data, (0, None))
        if toks is None:
            if missing:
                raise MeshError(missing)
            return None
        got = f"section header, got {' '.join(toks)!r}"
        if toks[0] not in names:
            raise MeshError(f"line {ln}: expected {got}")
        return read((str, lambda t: _integer(t, 0)), got,
                    f"count {toks[-1]!r}", (ln, toks))[1]

    n = header({"nodes"}, "empty mesh file")[1]
    nodes = np.array([read((float, float), f"'x y' for node {a}",
                           "coordinate")[1] for a in range(n)]).reshape(n, 2)
    e = header({"triangles"}, "missing 'triangles' section")[1]
    tris = np.array([read((_integer,) * 3, f"'i j k' for triangle {a}",
                          "node index")[1] for a in range(e)],
                    dtype=np.int64).reshape(e, 3)

    raw_pairs: list = []
    for name, count in iter(lambda: header({"boundary", "periodic"}), None):
        for _ in range(count):
            if name == "boundary":
                read((_integer, _integer, str), "'i j tag'", "node index")
                continue
            ln, (a, b) = read((_integer,) * 2, "'i j'", "node index")
            # canonical_pairs would drop the pair, and with it the
            # validation's check of it
            if a == b:
                raise MeshError(f"line {ln}: node {a} periodically "
                                "paired with itself")
            raw_pairs.append((a, b))

    return Mesh(nodes=nodes, triangles=tris,
                periodic_pairs=canonical_pairs(raw_pairs))


def canonical_pairs(pairs) -> dict:
    """Turn identification edges into the canonical node->representative
    map that :class:`Mesh` holds: each group's representative is its
    smallest node and no key. Groups of any size are allowed (torus corners
    merge four nodes)."""
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
    if mesh.periodic_pairs:
        pairs = sorted((b, a) for a, b in mesh.periodic_pairs.items())
        out.append(f"periodic {len(pairs)}")
        out += [f"{a} {b}" for a, b in pairs]
    return "\n".join(out) + "\n"


def structured_rect(nx: int, ny: int, x0: float = 0.0, x1: float = 1.0,
                    y0: float = 0.0, y1: float = 1.0,
                    periodic: bool = False) -> Mesh:
    """Uniform triangulation of a rectangle: nx*ny cells, each split by the
    lower-left/upper-right diagonal (interior nodes touch 6 elements).

    With ``periodic=True`` opposite boundary nodes are paired for wraparound;
    no boundary edge is labelled. The arguments are checked here, so that
    bad ones fail with a message about them; ``build_system`` validates the
    mesh like any other.
    """
    w, h = x1 - x0, y1 - y0
    # the degenerate-triangle test of Mesh._validated on the signed area,
    # which a zero, non-finite or (in one direction) inverted extent fails
    if nx < 1 or ny < 1 or not (w * h / (2 * nx * ny)
                                > DEGENERATE_REL * max(w * w + h * h, 1.0)):
        raise MeshError(f"structured_rect needs nx, ny >= 1 and nondegenerate"
                        f" cells, got {nx} x {ny} over {w:g} x {h:g}")
    xs = np.linspace(x0, x1, nx + 1)
    ys = np.linspace(y0, y1, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    row = nx + 1                            # node (ix, iy) is iy * row + ix
    # Cells in row-major order, each split into (a, b, c) and (a, c, d).
    a = (np.arange(ny)[:, None] * row + np.arange(nx)).ravel()
    b, c, d = a + 1, a + row + 1, a + row
    tris = np.stack([a, b, c, a, c, d], axis=1).reshape(-1, 3).astype(np.int64)

    periodic_pairs: dict = {}
    if periodic:
        # Canonical mapping: wrap right->left and top->bottom; all four
        # corners share the representative (0, 0).
        gy, gx = np.meshgrid(np.arange(ny + 1), np.arange(nx + 1), indexing="ij")
        node = (gy * row + gx).ravel()
        rep = ((gy % ny) * row + gx % nx).ravel()
        moved = node != rep
        periodic_pairs = dict(zip(node[moved].tolist(), rep[moved].tolist()))
    return Mesh(nodes=nodes, triangles=tris, periodic_pairs=periodic_pairs)
