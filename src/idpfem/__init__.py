"""Invariant-domain-preserving P1 finite element solver with element-based convex limiting."""

from .mesh import Mesh, ElementGeometry, MeshSystem, read_mesh, structured_rect
from .models import LinearAdvection, Burgers2D, Euler, make_model

__all__ = [
    "Mesh",
    "ElementGeometry",
    "MeshSystem",
    "read_mesh",
    "structured_rect",
    "LinearAdvection",
    "Burgers2D",
    "Euler",
    "make_model",
]
