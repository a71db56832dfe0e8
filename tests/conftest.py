import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from idpfem.mesh import Mesh, build_system, structured_rect


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_triangle(rng, min_area=1e-3):
    """A single nondegenerate CCW triangle with nodes in [-1, 1]^2."""
    while True:
        p = rng.uniform(-1.0, 1.0, (3, 2))
        a, b = p[1] - p[0], p[2] - p[0]
        area = 0.5 * (a[0] * b[1] - a[1] * b[0])
        if area < 0:
            p = p[[0, 2, 1]]
            area = -area
        if area > min_area:
            return p


def p1_mass_matrix(p):
    """Oracle: the 3x3 P1 mass matrix of the triangle with nodes p (3, 2),
    by the edge-midpoint rule, which is exact for the quadratic products
    phi_i phi_j: at the midpoint of the edge opposite node q, phi_q is 0
    and the other two basis functions are 1/2."""
    a, b = p[1] - p[0], p[2] - p[0]
    area = 0.5 * abs(a[0] * b[1] - a[1] * b[0])
    phi = 0.5 * (1.0 - np.eye(3))           # phi[q, i]: phi_i at midpoint q
    return area / 3.0 * phi.T @ phi


def single_triangle_system(p):
    mesh = Mesh(nodes=np.asarray(p, dtype=float),
                triangles=np.array([[0, 1, 2]]))
    return build_system(mesh)


@pytest.fixture
def unit_triangle():
    """Right triangle (0,0)-(1,0)-(0,1), area 1/2."""
    return single_triangle_system([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


@pytest.fixture
def periodic8():
    return build_system(structured_rect(8, 8, periodic=True))


def random_euler_states(rng, model, shape):
    rho = rng.uniform(0.5, 2.0, shape)
    v = rng.uniform(-1.0, 1.0, shape + (2,))
    p = rng.uniform(0.5, 2.0, shape)
    return model.conserved(rho, v, p)


def perfbench_workloads():
    """``perfbench/workloads.py``, imported by path and left unchanged."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        path = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
        spec = importlib.util.spec_from_file_location(
            name, path / "workloads.py")
        # registered first: its dataclass looks the module up by name
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]
