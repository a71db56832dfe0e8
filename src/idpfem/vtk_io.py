"""Legacy ASCII VTK output (and a reader for our own files).

Output is byte-stable: identical states produce identical files.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshSystem

SCALAR_NAMES = {1: ["u"], 4: ["rho", "mom_x", "mom_y", "E"]}


def _lines(template: str, values) -> str:
    """``template`` filled once per row of ``values`` with its numbers, each
    the round-trip text with 17 significant digits (not the shortest such
    text). One %-format over Python floats is the fastest way to make it."""
    return (template * len(values)) % tuple(np.ravel(values).tolist())


def _grid_text(ms: MeshSystem) -> str:
    """The fixed POINTS, CELLS and CELL_TYPES block, rendered once per mesh
    system."""
    text = ms.cache.get("vtk_grid")
    if text is None:
        mesh = ms.mesh
        n_el = mesh.n_elements
        # Cells row by row: a tolist() of all cells would leave the heap
        # fragmented by its many small objects.
        text = ms.cache["vtk_grid"] = "".join([
            f"POINTS {mesh.n_nodes} double\n",
            _lines("%.17g %.17g 0\n", mesh.nodes),
            f"CELLS {n_el} {4 * n_el}\n",
            *(f"3 {i} {j} {k}\n" for i, j, k in mesh.triangles),
            f"CELL_TYPES {n_el}\n",
            "5\n" * n_el,
        ])
    return text


def vtk_text(ms: MeshSystem, u: np.ndarray, model=None) -> str:
    """Render the state as a legacy VTK unstructured grid (triangles, type 5).

    Periodically identified DOFs are expanded back to mesh nodes. For Euler
    models the derived pressure and velocity fields are appended.
    """
    nodal = u[ms.dof_of_node]                 # (N, m)
    m = nodal.shape[1]
    parts = [
        "# vtk DataFile Version 3.0\nidpfem state\nASCII\n"
        "DATASET UNSTRUCTURED_GRID\n",
        _grid_text(ms),
        f"POINT_DATA {ms.mesh.n_nodes}\n",
    ]

    names = SCALAR_NAMES.get(m, [f"u{k}" for k in range(m)])
    fields = {name: nodal[:, k] for k, name in enumerate(names)}
    if model is not None and getattr(model, "kind", "") == "euler":
        rho, v, p, _ = model.primitives(nodal)
        fields["pressure"] = p
        fields["vel_x"] = v[:, 0]
        fields["vel_y"] = v[:, 1]
    for name, vals in fields.items():
        parts.append(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
        parts.append(_lines("%.17g\n", vals))
    return "".join(parts)


def write_vtk(path, ms: MeshSystem, u: np.ndarray, model=None) -> None:
    with open(path, "w") as fh:
        fh.write(vtk_text(ms, u, model))


def read_vtk_point_data(path):
    """Read back node coordinates and POINT_DATA scalars of a file written
    by write_vtk. Returns (points (N, 2), fields dict)."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = {}
    points = None
    n_points = None
    i = 0
    while i < len(lines):
        toks = lines[i].split()
        if toks[:1] == ["POINTS"]:
            n_points = int(toks[1])
            points = np.array([[float(c) for c in lines[i + 1 + k].split()[:2]]
                               for k in range(n_points)])
            i += n_points + 1
            continue
        if toks[:1] == ["SCALARS"]:
            name = toks[1]
            i += 2                            # skip LOOKUP_TABLE line
            vals = [float(lines[i + k]) for k in range(n_points)]
            fields[name] = np.array(vals)
            i += n_points
            continue
        i += 1
    return points, fields
