"""Legacy VTK 3.0 BINARY output, and its reader (used by ``idpfem norms``).

Data blocks are big-endian, as the legacy format requires: ``float64`` for
points and fields, ``int32`` for cells and cell types. Each block ends with a
newline. Output is byte-stable: identical states produce identical files,
and every float64 round-trips bit for bit.
"""

from __future__ import annotations

import pathlib

import numpy as np

from .mesh import MeshSystem
from .models import Euler

# Field names by the width of the state: scalar models and Euler.
SCALAR_NAMES = {1: ["u"], 4: ["rho", "mom_x", "mom_y", "E"]}
HEADER = b"# vtk DataFile Version 3.0\nidpfem state\nBINARY\nDATASET UNSTRUCTURED_GRID\n"


class VtkError(ValueError):
    """Raised for a snapshot that cannot be read, or does not fit its run."""


def vtk_grid(ms: MeshSystem) -> bytes:
    """The state-free part of every snapshot of ``ms``: the header, points,
    cells and cell types, up to the POINT_DATA line."""
    mesh = ms.mesh
    n, n_el = mesh.n_nodes, mesh.n_elements
    points = np.zeros((n, 3), ">f8")
    points[:, :2] = mesh.nodes
    cells = np.empty((n_el, 4), ">i4")
    cells[:, 0] = 3
    cells[:, 1:] = mesh.triangles
    return b"".join([
        HEADER,
        b"POINTS %d double\n" % n, points.tobytes(), b"\n",
        b"CELLS %d %d\n" % (n_el, 4 * n_el), cells.tobytes(), b"\n",
        b"CELL_TYPES %d\n" % n_el, np.full(n_el, 5, ">i4").tobytes(), b"\n",
        b"POINT_DATA %d\n" % n,
    ])


def write_vtk(path, ms: MeshSystem, u: np.ndarray, model,
              grid: bytes) -> None:
    """Write the state to ``path`` as a legacy VTK unstructured grid
    (triangles, type 5), after ``grid``, the ``vtk_grid(ms)`` a run keeps
    for its snapshots.

    Periodically identified DOFs are expanded back to mesh nodes. For Euler
    models the derived pressure and velocity fields are appended. Each
    field's header line, big-endian data block and newline are written one
    by one, so that no joined copy of the snapshot is formed.
    """
    nodal = u[ms.dof_of_node]                 # (N, m)
    fields = {name: nodal[:, k]
              for k, name in enumerate(SCALAR_NAMES[nodal.shape[1]])}
    if isinstance(model, Euler):
        rho, v, p, _ = model.primitives(nodal)
        fields["pressure"] = p
        fields["vel_x"] = v[:, 0]
        fields["vel_y"] = v[:, 1]
    with open(path, "wb") as f:
        f.write(grid)
        for name, vals in fields.items():
            f.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"
                    .encode())
            f.write(np.ascontiguousarray(vals, ">f8"))
            f.write(b"\n")


# The argument that the reader takes of each header line it reads: a name
# for SCALARS, the count of values in the data block after the others.
_READ_ARG = {"POINTS": 0, "CELLS": -1, "CELL_TYPES": -1, "SCALARS": 0}


def read_vtk_point_data(path):
    """Read back node coordinates and POINT_DATA scalars of a file written
    by write_vtk. Returns (points (N, 2), fields dict).

    Raises VtkError naming the file for any other format, such as an
    ASCII legacy file, and for a BINARY file without POINTS, with a
    LOOKUP_TABLE before its POINTS or SCALARS, with a header line that
    lacks its name or count, or with a data block cut short.
    """
    data = pathlib.Path(path).read_bytes()
    head = data.split(b"\n", 3)
    fmt = head[2].strip().decode(errors="replace") if len(head) > 3 else "?"
    if fmt != "BINARY":
        raise VtkError(f"{path}: legacy VTK format {fmt!r}, only BINARY "
                       "snapshots can be read")
    points, name, fields, pos = None, None, {}, 0

    def block(dtype, count):
        """The ``count`` values of ``dtype`` at pos, which moves past them
        and the newline that follows each data block."""
        nonlocal pos
        size = np.dtype(dtype).itemsize * count
        if pos + size > len(data):
            raise VtkError(f"{path}: data block after {line!r} is cut "
                           "short")
        vals = np.frombuffer(data, dtype, count, pos)
        pos += size + 1
        return vals

    while pos < len(data):
        end = data.find(b"\n", pos)
        end = len(data) if end < 0 else end
        line = data[pos:end].decode(errors="replace")
        key, *args = line.split() or [""]
        pos = end + 1
        if key in _READ_ARG:
            arg = args[_READ_ARG[key]] if args else ""
            if not arg or key != "SCALARS" and not arg.isdecimal():
                raise VtkError(f"{path}: malformed line {line!r}")
        if key == "POINTS":
            n = int(arg)
            points = block(">f8", 3 * n).reshape(n, 3)[:, :2]
        elif key in ("CELLS", "CELL_TYPES"):
            block(">i4", int(arg))            # int32 values, skipped
        elif key == "SCALARS":
            name = arg
        elif key == "LOOKUP_TABLE":
            if points is None or name is None:
                raise VtkError(f"{path}: LOOKUP_TABLE before POINTS or "
                               "SCALARS")
            fields[name] = block(">f8", n).astype(float)
    if points is None:
        raise VtkError(f"{path}: no POINTS")
    return points.astype(float), fields
