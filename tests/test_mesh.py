import dataclasses
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpfem.config import RunConfig
from idpfem.mesh import (Mesh, MeshError, _corners, _signed_areas,
                         build_system, canonical_pairs, node_max, node_min,
                         node_sum, read_mesh, structured_rect, write_mesh)
from idpfem.runner import setup

from conftest import p1_mass_matrix, random_triangle, single_triangle_system


def barycentric_gradients(p):
    """Oracle: solve the 3x3 linear system phi_i(x_j) = delta_ij for the
    affine shape functions and return their gradients."""
    A = np.column_stack([np.ones(3), p])
    grads = np.empty((3, 2))
    for i in range(3):
        rhs = np.zeros(3)
        rhs[i] = 1.0
        coef = np.linalg.solve(A, rhs)
        grads[i] = coef[1:]
    return grads


class TestElementGeometry:
    def test_unit_right_triangle_values(self, unit_triangle):
        g = unit_triangle.geometry
        assert 3.0 * g.m_elem[0] == pytest.approx(0.5, abs=1e-15)
        c = g.c[0]
        assert np.allclose(c[0], [0.5, 0.5], atol=1e-15)
        assert np.allclose(c[1], [-0.5, 0.0], atol=1e-15)
        assert np.allclose(c[2], [0.0, -0.5], atol=1e-15)
        assert np.allclose(g.m_elem, 0.5 / 3.0)

    def test_gradients_match_linear_solve_oracle(self, rng):
        for _ in range(100):
            p = random_triangle(rng)
            ms = single_triangle_system(p)
            g = ms.geometry
            grads = barycentric_gradients(p)
            assert np.allclose(-g.c[0] / (3.0 * g.m_elem[0]), grads,
                               rtol=1e-13, atol=1e-13)

    def test_c_vectors_sum_to_zero(self, rng):
        for _ in range(50):
            ms = single_triangle_system(random_triangle(rng))
            scale = np.abs(ms.geometry.c).max()
            assert np.abs(ms.geometry.c[0].sum(axis=0)).max() < 1e-14 * scale

    def test_mass_matrix_exact_entries(self, rng):
        p = random_triangle(rng)
        g = single_triangle_system(p).geometry
        mp = p1_mass_matrix(p)
        assert np.allclose(np.diag(mp), 2.0 * g.m_off[0])
        assert np.allclose(mp[~np.eye(3, dtype=bool)], g.m_off[0])
        assert 4.0 * g.m_off[0] == pytest.approx(g.m_elem[0], rel=1e-15)
        # row sums give the lumped element mass
        assert np.allclose(mp.sum(axis=1), g.m_elem[0])

    def test_gradient_interpolation_is_exact_for_affine_fields(self, rng):
        # grad(sum u_i phi_i) must equal the gradient of any affine field
        a, b0, b1 = rng.normal(size=3)
        p = random_triangle(rng)
        ms = single_triangle_system(p)
        u = a + b0 * p[:, 0] + b1 * p[:, 1]
        g = ms.geometry
        grad = -g.c[0] / (3.0 * g.m_elem[0])
        gu = (u[:, None] * grad).sum(axis=0)
        assert np.allclose(gu, [b0, b1], atol=1e-12)


class TestMeshValidation:
    def test_clockwise_triangles_are_reoriented(self):
        mesh = Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    triangles=np.array([[0, 2, 1]]))
        build_system(mesh)
        assert _signed_areas(_corners(mesh.nodes, mesh.triangles))[0] > 0

    def test_degenerate_triangle_rejected(self):
        mesh = Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                    triangles=np.array([[0, 1, 2]]))
        with pytest.raises(MeshError, match="degenerate"):
            build_system(mesh)

    def test_out_of_range_index_rejected(self):
        mesh = Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    triangles=np.array([[0, 1, 3]]))
        with pytest.raises(MeshError, match="out of range"):
            build_system(mesh)

    def test_nonconforming_edge_rejected(self):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
                          [0.5, -1.0]])
        tris = np.array([[0, 1, 2], [1, 3, 2], [0, 1, 3], [0, 1, 4]])
        # edge (0, 1) is in three triangles; its int64 row reads as plain
        # ints, not as numpy scalars
        with pytest.raises(MeshError, match=r"^non-conforming mesh: edge "
                           r"\(0, 1\) shared by >2 triangles$"):
            build_system(Mesh(nodes=nodes, triangles=tris))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_coordinate_rejected(self, bad):
        nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        nodes[2, 1] = bad
        mesh = Mesh(nodes=nodes, triangles=np.array([[0, 1, 3], [0, 3, 2]]))
        with pytest.raises(MeshError,
                           match=rf"^node 2 has a non-finite coordinate "
                                 rf"\(0, {bad:g}\)$"):
            build_system(mesh)

    def test_non_finite_coordinate_in_a_mesh_file_rejected(self):
        with pytest.raises(MeshError, match="node 1 has a non-finite"):
            build_system(read_mesh("nodes 3\n0 0\nnan 0\n0 1\ntriangles 1\n"
                                   "0 1 2\n"))

    @pytest.mark.parametrize("index, message", [
        (2.7, "triangle 0 has a non-integer node index 2.7"),
        (np.nan, "triangle 0 has a non-integer node index nan"),
        (np.inf, "triangle 0 references node index out of range")],
        ids=["fraction", "nan", "inf"])
    def test_non_integer_node_index_rejected(self, index, message):
        mesh = Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    triangles=[[0, 1, index]])
        with pytest.raises(MeshError, match=f"^{message}"):
            build_system(mesh)

    def test_whole_number_float_indices_accepted(self):
        mesh = Mesh(nodes=np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    triangles=[[0.0, 2.0, 1.0]])
        build_system(mesh)
        assert mesh.triangles.dtype == np.int64
        assert mesh.triangles.tolist() == [[0, 1, 2]]

    def test_self_paired_periodic_node_rejected(self):
        mesh = structured_rect(2, 2)
        mesh.periodic_pairs = {0: 0}
        with pytest.raises(MeshError, match="paired with itself"):
            build_system(mesh)

    @pytest.mark.parametrize("n_nodes", [0, 3])
    def test_mesh_without_triangles_rejected(self, n_nodes):
        mesh = Mesh(nodes=np.zeros((n_nodes, 2)),
                    triangles=np.zeros((0, 3), dtype=np.int64))
        with pytest.raises(MeshError, match="^mesh has no triangles$"):
            build_system(mesh)


def _assert_same_arrays(ms, ref):
    """Every array of the mesh system ``ms``, of its geometry (``c_hat``
    formed) and of its mesh has the name, dtype, shape and bytes of one of
    ``ref``, and the other way round; returns how many there are."""
    for s in (ms, ref):
        s.geometry.c_hat                    # formed on first use
    got, want = ({k: v for k, v in {**vars(s), **vars(s.geometry),
                                    **vars(s.mesh)}.items()
                  if isinstance(v, np.ndarray)} for s in (ms, ref))
    assert got.keys() == want.keys()
    for k, a in want.items():
        assert got[k].dtype == a.dtype and got[k].shape == a.shape, k
        assert got[k].tobytes() == a.tobytes(), k
    return len(want)


# A one-triangle mesh file.
TRIANGLE = "nodes 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n"


class TestMeshIO:
    def test_roundtrip(self):
        mesh = structured_rect(3, 2, periodic=True)
        text = write_mesh(mesh)
        back = read_mesh(text)
        assert np.allclose(back.nodes, mesh.nodes)
        assert np.array_equal(back.triangles, mesh.triangles)
        # both describe the same identification, possibly different encodings
        assert build_system(back).n_dofs == build_system(mesh).n_dofs

    def test_parse_error_reports_line(self):
        with pytest.raises(MeshError, match="line 3"):
            read_mesh("nodes 2\n0 0\nbroken line here\n")

    @pytest.mark.parametrize("text, message", [
        ("nodes -1\n", "line 1: bad count '-1'"),
        (TRIANGLE.replace("triangles 1", "triangles -2"),
         "line 5: bad count '-2'"),
        (TRIANGLE + "boundary -1\n", "line 7: bad count '-1'"),
        (TRIANGLE + "periodic -1\n", "line 7: bad count '-1'"),
        (TRIANGLE + "periodic 1\n0 0\n",
         "line 8: node 0 periodically paired with itself"),
        (TRIANGLE + "boundary 1\n0 x top\n", "line 8: bad node index"),
        (TRIANGLE + "periodic 1\n0 y\n", "line 8: bad node index"),
        (TRIANGLE + f"boundary 1\n0 {2 ** 63} top\n",
         "line 8: bad node index"),
        (TRIANGLE.replace("0 1 2", f"0 1 {2 ** 64}"),
         "line 6: bad node index"),
        ("nodes 0\ntriangles 0\n", "mesh has no triangles")],
        ids=["nodes", "triangles", "boundary", "periodic", "self-pair",
             "boundary-index", "periodic-index", "tag-beyond-int64",
             "triangle-beyond-int64", "empty"])
    def test_bad_section_rejected(self, text, message):
        """Each bad line is rejected by ``read_mesh``; a file without
        triangles reads, and ``build_system`` rejects the mesh."""
        with pytest.raises(MeshError, match=f"^{re.escape(message)}$"):
            build_system(read_mesh(text))

    def test_boundary_section_is_read_and_dropped(self):
        """A file with a valid ``boundary`` section, as earlier versions of
        ``write_mesh`` wrote one for every edge on the rectangle's sides,
        gives the same system, bit for bit, as the file without it."""
        nx, ny, row = 3, 2, 4
        sides = [(i, i + 1, "bottom") for i in range(nx)] \
            + [(ny * row + i, ny * row + i + 1, "top") for i in range(nx)] \
            + [(j * row, (j + 1) * row, "left") for j in range(ny)] \
            + [(j * row + nx, (j + 1) * row + nx, "right") for j in range(ny)]
        plain = write_mesh(structured_rect(nx, ny, periodic=True))
        head, periodic = plain.split("periodic")
        tagged = head + f"boundary {len(sides)}\n" + "".join(
            f"{i} {j} {tag}\n" for i, j, tag in sides) + "periodic" + periodic
        systems = [build_system(read_mesh(text)) for text in (plain, tagged)]
        assert _assert_same_arrays(*systems) == 19
        assert systems[0].mesh.periodic_pairs == systems[1].mesh.periodic_pairs

    def test_written_files_have_no_boundary_section(self):
        assert "boundary" not in write_mesh(structured_rect(4, 3))

    def test_missing_triangles_section(self):
        with pytest.raises(MeshError, match="triangles"):
            read_mesh("nodes 1\n0 0\n")

    def test_comments_and_blank_lines_ignored(self):
        text = ("# a comment\n\nnodes 3\n0 0\n1 0  # inline\n0 1\n"
                "triangles 1\n0 1 2\n")
        mesh = read_mesh(text)
        assert mesh.n_nodes == 3 and mesh.n_elements == 1


class TestStructuredRect:
    def test_counts(self):
        mesh = structured_rect(4, 3)
        assert mesh.n_nodes == 5 * 4
        assert mesh.n_elements == 2 * 4 * 3

    def test_interior_node_valence_six(self):
        mesh = structured_rect(4, 4)
        counts = np.zeros(mesh.n_nodes, dtype=int)
        np.add.at(counts, mesh.triangles, 1)
        # node (ix, iy) has id iy * 5 + ix; interior nodes are (1..3, 1..3)
        assert np.all(counts.reshape(5, 5)[1:-1, 1:-1] == 6)

    def test_total_mass_equals_area(self):
        ms = build_system(structured_rect(5, 7, 0.0, 2.0, 0.0, 3.0))
        assert ms.lumped_mass.sum() == pytest.approx(6.0, rel=1e-13)

    def test_periodic_dof_count(self):
        ms = build_system(structured_rect(4, 4, periodic=True))
        assert ms.n_dofs == 16
        # every dof is interior on the torus
        assert ms.boundary_dofs.size == 0

    def test_periodic_valence_six_everywhere(self):
        ms = build_system(structured_rect(4, 4, periodic=True))
        counts = np.zeros(ms.n_dofs, dtype=int)
        np.add.at(counts, ms.elem_dofs, 1)
        assert np.all(counts == 6)

    @pytest.mark.parametrize("periodic", [False, True])
    @pytest.mark.parametrize("extent", [(0.0, 1.0, 0.0, 1.0),
                                        (-2.0, 3.0, 1.0, 1.5),
                                        (1.0, 0.0, 1.0, 0.0)])
    def test_valid_as_built(self, extent, periodic):
        """``build_system`` finds nothing to fix or reject in what
        ``structured_rect`` builds."""
        mesh = structured_rect(3, 4, *extent, periodic=periodic)
        tris = mesh.triangles.copy()
        build_system(mesh)
        assert np.array_equal(mesh.triangles, tris)
        assert mesh.nodes.dtype == float and tris.dtype == np.int64

    @pytest.mark.parametrize("extent", [
        (0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 2.0, 2.0), (1.0, 0.0, 0.0, 1.0),
        (0.0, 1e-300, 0.0, 1.0), (0.0, np.nan, 0.0, 1.0),
        (0.0, np.inf, 0.0, 1.0)])
    def test_degenerate_or_inverted_extent_rejected(self, extent):
        with pytest.raises(MeshError, match="nondegenerate cells, got 3 x 4 over"):
            structured_rect(3, 4, *extent)

    def _count_validations(self, monkeypatch, cfg):
        calls = []
        original = Mesh._validated
        monkeypatch.setattr(Mesh, "_validated", lambda self: calls.append(1)
                            or original(self))
        setup(cfg)
        return len(calls)

    def test_setup_validates_each_mesh_once(self, monkeypatch):
        """``build_system`` is the one run of ``Mesh._validated``."""
        cfg = RunConfig(benchmark="advected_gaussian", h=1 / 8)
        assert self._count_validations(monkeypatch, cfg) == 1

    def test_setup_validates_a_mesh_file_once(self, monkeypatch, tmp_path):
        """A mesh read from a ``mesh =`` file is validated by
        ``build_system`` alone, not also by ``read_mesh``."""
        path = tmp_path / "m.mesh"
        path.write_text(write_mesh(structured_rect(8, 8, periodic=True)))
        cfg = RunConfig(benchmark="advected_gaussian", mesh=str(path))
        assert self._count_validations(monkeypatch, cfg) == 1

    def test_setup_of_a_built_mesh_takes_its_pairs_as_they_are(
            self, monkeypatch):
        """``structured_rect`` builds canonical pairs, so set-up runs no
        union-find over them."""
        import idpfem.mesh as mesh_mod
        calls = []
        original = mesh_mod.canonical_pairs
        monkeypatch.setattr(mesh_mod, "canonical_pairs",
                            lambda pairs: calls.append(1) or original(pairs))
        setup(RunConfig(benchmark="advected_gaussian", h=1 / 8))
        assert calls == []

    def test_boundary_normals_point_outward(self):
        ms = build_system(structured_rect(4, 4))
        n, x = ms.boundary_n, ms.boundary_x
        # outward means positive dot product with (x - center)
        assert np.all(np.sum(n * (x - 0.5), axis=1) > 0)


class TestPeriodicPairs:
    def test_canonical_pairs_merges_corner_group(self):
        pairs = [(0, 4), (0, 20), (4, 24)]
        out = canonical_pairs(pairs)
        assert out == {4: 0, 20: 0, 24: 0}

    @pytest.mark.parametrize("pairs, node", [
        ({0: 2, 2: 0, 3: 5, 5: 3}, 0), ({1: 4}, 1), ({1: 0, 2: 1}, 2)],
        ids=["involution", "larger-representative", "chain"])
    def test_non_canonical_pairs_rejected(self, pairs, node):
        """A ``Mesh`` holds its pairs in canonical form only: each node
        maps to a smaller one that is itself unpaired."""
        mesh = structured_rect(2, 1)
        mesh.periodic_pairs = pairs
        with pytest.raises(MeshError, match="^inconsistent periodic pairing "
                           f"at node {node}$"):
            build_system(mesh)

    def test_involution_pairs_in_a_mesh_file_accepted(self):
        """The lines of a symmetric pairing, each pair both ways, read to
        the canonical form."""
        mesh = structured_rect(2, 1)
        head = write_mesh(mesh)
        mesh = read_mesh(head + "periodic 4\n0 2\n2 0\n3 5\n5 3\n")
        assert mesh.periodic_pairs == {2: 0, 5: 3}
        ms = build_system(mesh)
        assert ms.n_dofs == mesh.n_nodes - 2
        # each group is numbered by its smallest node
        assert ms.dof_of_node.tolist() == [0, 1, 0, 2, 3, 2]

    @pytest.mark.parametrize("form", ["corner-chain", "both-ways"])
    def test_mesh_file_pair_forms_give_the_canonical_system(self, form):
        """A torus file whose periodic lines chain the four corners, or
        list every pair both ways, gives the system of the file that
        ``mesh-gen`` writes, bit for bit."""
        nx, ny, row = 3, 2, 4
        canonical = write_mesh(structured_rect(nx, ny, periodic=True))
        head, lines = canonical.split("periodic")
        pairs = [tuple(map(int, ln.split()))
                 for ln in lines.splitlines()[1:]]
        corners = (0, nx, ny * row + nx, ny * row)
        if form == "corner-chain":
            pairs = [p for p in pairs if p[0] != 0] \
                + list(zip(corners[:-1], corners[1:]))
        else:
            pairs += [(b, a) for a, b in pairs]
        text = head + f"periodic {len(pairs)}\n" + "".join(
            f"{a} {b}\n" for a, b in pairs)
        _assert_same_arrays(*(build_system(read_mesh(t))
                              for t in (text, canonical)))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_geometry_identities_hold_for_random_triangles(seed):
    rng = np.random.default_rng(seed)
    p = random_triangle(rng)
    ms = single_triangle_system(p)
    g = ms.geometry
    scale = max(np.abs(g.c).max(), 1e-30)
    assert np.abs(g.c[0].sum(axis=0)).max() < 1e-13 * scale
    assert np.allclose(-g.c[0] / (3.0 * g.m_elem[0]),
                       barycentric_gradients(p), rtol=1e-11, atol=1e-11)
    # the mass matrix (2 m_off on the diagonal, m_off off it) sums to |K|
    assert 12.0 * g.m_off[0] == pytest.approx(3.0 * g.m_elem[0], rel=1e-13)


@pytest.mark.parametrize("periodic", [False, True])
def test_boundary_data_is_the_normal_at_the_boundary_dofs(periodic):
    """The boundary terms read the fixed boundary data stored by
    ``build_system``; each equals its expression in the per-DOF normal."""
    ms = build_system(structured_rect(5, 4, periodic=periodic))
    dofs = ms.boundary_dofs
    assert (dofs.size == 0) == periodic
    # n_i = -sum_e c_i^e, in element order
    normal = np.zeros((ms.n_dofs, 2))
    np.add.at(normal, ms.elem_dofs, -ms.geometry.c)
    n = normal[dofs]
    nlen = np.linalg.norm(n, axis=-1)
    assert ms.boundary_n.tobytes() == n.tobytes()
    assert ms.boundary_nlen.tobytes() == nlen.tobytes()
    assert ms.boundary_x.tobytes() == ms.dof_coords[dofs].tobytes()


@pytest.mark.parametrize("reduce, oracle", [(node_sum, np.sum),
                                            (node_min, np.min),
                                            (node_max, np.max)],
                         ids=["sum", "min", "max"])
@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("tail", [(), (4,), (4, 2)],
                         ids=["E3", "E3k", "E3k2"])
def test_node_reductions_equal_numpy_bit_for_bit(reduce, oracle, order,
                                                 tail):
    """The written-out reductions over an element's three nodes give the
    bytes of numpy's reduce over axis 1, NaNs included, and keep the node
    axis with length 1, into ``out`` or a fresh array."""
    a = np.random.default_rng(5).normal(size=(7, 3) + tail)
    a.flat[::5] = np.nan
    a = np.asarray(a, order=order)
    ref = oracle(a, axis=1, keepdims=True)
    out = np.empty(ref.shape, order=order)
    for res in (reduce(a), reduce(a, out=out)):
        assert res.shape == (7, 1) + tail
        assert res.tobytes() == ref.tobytes()
    assert reduce(a, out=out) is out


# A 3 x 2 rectangle read from text: two of its triangles (the first and the
# last) are clockwise, and its periodic pairs are a chain over the four
# corners (0-3, 11-3, 8-11) plus two side pairs, so reading it runs the
# union-find of ``canonical_pairs`` and validating it reorients.
PINNED_MESH_TEXT = """\
nodes 12
0 0
1 0
2 0
3 0
0 1
1 1.25
2 1
3 1
0 2
1 2
2 2
3 2
triangles 12
0 5 1
0 5 4
1 2 6
1 6 5
2 3 7
2 7 6
4 5 9
4 9 8
5 6 10
5 10 9
6 7 11
6 10 11
periodic 5
0 3
11 3
8 11
4 7
1 9
"""


# The geometry arrays, by name: the fields and the ones formed on first
# read, in the order the digests were recorded in.
GEOMETRY_ARRAYS = ("c", "c_norm", "c_hat", "m_elem", "m_off", "centroid")


def _update(h, name, a):
    """Feed ``a``'s name, dtype, shape, memory order and bytes to ``h``."""
    order = "C" if a.flags.c_contiguous else "F" if a.flags.f_contiguous \
        else "-"
    h.update(f"{name} {a.dtype.str} {a.shape} {order}\n".encode())
    h.update(a.tobytes(order="A"))


def _mesh_system_digest(ms):
    """sha256 prefix over every array of a MeshSystem and of its geometry:
    each one's name, dtype, shape, memory order and bytes."""
    h = hashlib.sha256()
    arrays = {"nodes": ms.mesh.nodes, "triangles": ms.mesh.triangles}
    arrays.update((name, getattr(ms.geometry, name))
                  for name in GEOMETRY_ARRAYS)
    arrays.update((f.name, getattr(ms, f.name)) for f in dataclasses.fields(ms)
                  if isinstance(getattr(ms, f.name), np.ndarray))
    for name, a in arrays.items():
        _update(h, name, a)
    h.update(str(ms.n_dofs).encode())
    return h.hexdigest()[:16]


# The mesh systems of the two benchmark meshes, a small periodic one and one
# read from text, pinned byte for byte: a change to how set-up forms them
# must leave every bit, dtype and memory order as it was.
MESH_PINS = {
    "advect-64x64-periodic": (
        lambda: structured_rect(64, 64, periodic=True), "a6f263604468bf28"),
    "dmr-128x32": (
        lambda: structured_rect(128, 32, 0.0, 4.0, 0.0, 1.0),
        "0baf25d6b42c2b61"),
    "rect-7x5-periodic": (
        lambda: structured_rect(7, 5, periodic=True), "769a419481e58e7f"),
    "read-clockwise-corner-chain": (
        lambda: read_mesh(PINNED_MESH_TEXT), "e1794298ca36bbab"),
}


@pytest.mark.parametrize("name", sorted(MESH_PINS))
def test_mesh_system_bytes_are_pinned(name):
    make, digest = MESH_PINS[name]
    assert _mesh_system_digest(build_system(make())) == digest


# The stencil table of each pinned mesh (FCT's, formed on first read),
# byte for byte as well.
STENCIL_PINS = {"advect-64x64-periodic": "cb1376b87c72d693",
                "dmr-128x32": "468d879bcb4fef87",
                "rect-7x5-periodic": "d55058e3f13807a5",
                "read-clockwise-corner-chain": "a7efb3244cfc102a"}


@pytest.mark.parametrize("name", sorted(MESH_PINS))
def test_stencil_table_bytes_are_pinned(name):
    h = hashlib.sha256()
    table = build_system(MESH_PINS[name][0]()).stencil_table
    _update(h, "stencil_table", table)
    assert h.hexdigest()[:16] == STENCIL_PINS[name]
