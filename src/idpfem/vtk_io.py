"""Legacy ASCII VTK output (and a reader for our own files).

Output is byte-stable: identical states produce identical files.
"""

from __future__ import annotations

import numpy as np

from .mesh import MeshSystem

SCALAR_NAMES = {1: ["u"], 4: ["rho", "mom_x", "mom_y", "E"]}


def _fmt(values) -> list:
    """Round-trip text of each value with 17 significant digits (not the
    shortest such text); Python floats format faster than numpy scalars, so
    convert first."""
    return [f"{v:.17g}" for v in values.tolist()]


def _grid_text(ms: MeshSystem) -> str:
    """The fixed POINTS, CELLS and CELL_TYPES block, rendered once per mesh
    system."""
    text = ms.cache.get("vtk_grid")
    if text is None:
        mesh = ms.mesh
        lines = [f"POINTS {mesh.n_nodes} double"]
        lines += [f"{x} {y} 0" for x, y in zip(_fmt(mesh.nodes[:, 0]),
                                               _fmt(mesh.nodes[:, 1]))]
        lines.append(f"CELLS {mesh.n_elements} {4 * mesh.n_elements}")
        # Row by row: a nested tolist() of all cells would leave the heap
        # fragmented by its many small objects.
        lines += [f"3 {i} {j} {k}" for i, j, k in mesh.triangles]
        lines.append(f"CELL_TYPES {mesh.n_elements}")
        lines += ["5"] * mesh.n_elements
        text = ms.cache["vtk_grid"] = "\n".join(lines)
    return text


def vtk_text(ms: MeshSystem, u: np.ndarray, model=None) -> str:
    """Render the state as a legacy VTK unstructured grid (triangles, type 5).

    Periodically identified DOFs are expanded back to mesh nodes. For Euler
    models the derived pressure and velocity fields are appended.
    """
    nodal = u[ms.dof_of_node]                 # (N, m)
    m = nodal.shape[1]
    lines = [
        "# vtk DataFile Version 3.0",
        "idpfem state",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        _grid_text(ms),
        f"POINT_DATA {ms.mesh.n_nodes}",
    ]

    names = SCALAR_NAMES.get(m, [f"u{k}" for k in range(m)])
    fields = {name: nodal[:, k] for k, name in enumerate(names)}
    if model is not None and getattr(model, "kind", "") == "euler":
        rho, v, p, _ = model.primitives(nodal)
        fields["pressure"] = p
        fields["vel_x"] = v[:, 0]
        fields["vel_y"] = v[:, 1]
    for name, vals in fields.items():
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines += _fmt(vals)
    return "\n".join(lines) + "\n"


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
