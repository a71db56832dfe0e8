"""Benchmark registry: meshes, initial data, boundary conditions and exact
solutions for the built-in test problems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .config import BENCHMARK_IDS, ConfigError, RunConfig
from .mesh import Mesh, structured_rect
from .models import Euler, make_model


@dataclass
class Benchmark:
    id: str
    model: object
    mesh: Mesh
    u0: Callable[[np.ndarray], np.ndarray]            # x (N, 2) -> (N, m)
    bc: Optional[Callable]                            # see assembly.boundary_terms
    exact: Optional[Callable]                         # (x, t) -> (N, m)
    t_end: float


def _cells(h: float, length: float) -> int:
    return max(1, round(length / h))


def moving_shock_state(model: Euler, mach: float, rho1: float, p1: float,
                       direction: np.ndarray) -> np.ndarray:
    """Post-shock conserved state behind a shock moving with the given Mach
    number into quiescent gas (rho1, p1, v=0), from the Rankine-Hugoniot
    jump conditions. ``direction`` is the unit shock-propagation direction."""
    g = model.gamma
    c1 = np.sqrt(g * p1 / rho1)
    m2 = mach * mach
    rho2 = rho1 * (g + 1.0) * m2 / ((g - 1.0) * m2 + 2.0)
    p2 = p1 * (2.0 * g * m2 - (g - 1.0)) / (g + 1.0)
    vn = 2.0 * (m2 - 1.0) / ((g + 1.0) * mach) * c1
    v = vn * np.asarray(direction, dtype=float)
    return model.conserved(rho2, v, p2)


def _gaussian(x: np.ndarray, center=(0.5, 0.5), sigma: float = 0.15) -> np.ndarray:
    r2 = (x[..., 0] - center[0]) ** 2 + (x[..., 1] - center[1]) ** 2
    return np.exp(-0.5 * r2 / sigma ** 2)[..., None]


def _wrap_unit(x: np.ndarray) -> np.ndarray:
    return x - np.floor(x)


def _rotated_back(x: np.ndarray, t: float) -> np.ndarray:
    """The points that the rotation by 2 pi t about (0.5, 0.5) takes to x."""
    ang = -2.0 * np.pi * t
    c, s = np.cos(ang), np.sin(ang)
    dx = x - 0.5
    return np.stack([c * dx[..., 0] - s * dx[..., 1],
                     s * dx[..., 0] + c * dx[..., 1]], axis=-1) + 0.5


def make_benchmark(cfg: RunConfig, mesh: Optional[Mesh] = None) -> Benchmark:
    """Instantiate a registered benchmark, honoring config overrides for the
    model, velocity field, resolution and end time. Without a ``mesh`` it
    generates the benchmark's rectangle at cell size ``h``. A ``model`` or
    ``velocity`` other than the one the benchmark runs is a
    ``ConfigError``, and so is any ``velocity`` for a model other than
    advection. So is a key that the benchmark does not read: ``vx``/``vy``
    are read only by translation advection, ``body`` only by
    ``solid_body_rotation`` and ``h`` only without a mesh."""
    name = cfg.benchmark
    if name not in _REGISTRY:
        raise ConfigError(f"unknown benchmark {name!r}")
    maker, model, velocity, h, (width, height), periodic, t_end = \
        _REGISTRY[name]
    model = model or cfg.model or "advection"
    velocity = (velocity or cfg.velocity or "translation") \
        if model == "advection" else "none"
    for key, runs in (("model", model), ("velocity", velocity)):
        if getattr(cfg, key) not in (None, runs):
            raise ConfigError(f"benchmark {name} runs {key} = {runs}, not "
                              f"{getattr(cfg, key)}")
    for key, read in (("vx", velocity == "translation"),
                      ("vy", velocity == "translation"),
                      ("body", name == "solid_body_rotation")):
        if not read and getattr(cfg, key) is not None:
            raise ConfigError(f"benchmark {name} with model = {model} and "
                              f"velocity = {velocity} does not read {key}")
    if mesh is None:
        h = h if cfg.h is None else cfg.h
        mesh = structured_rect(_cells(h, width), _cells(h, height),
                               0.0, width, 0.0, height, periodic=periodic)
    elif cfg.h is not None:
        raise ConfigError(f"benchmark {name} with a mesh file does not read h")
    # a translation's (vx, vy), each 1 unless set
    v = tuple(1.0 if c is None else c for c in (cfg.vx, cfg.vy)) \
        if velocity == "translation" else None
    model = make_model(model, gamma=cfg.gamma, velocity=velocity,
                       **dict(zip(("vx", "vy"), v or ())))
    u0, exact, bc = maker(model, v, cfg.body)
    return Benchmark(id=name, model=model, mesh=mesh, u0=u0, bc=bc,
                     exact=exact,
                     t_end=t_end if cfg.t_end is None else cfg.t_end)


# Each maker takes the model, the translation (vx, vy) or None and the
# config's ``body``, and returns the initial data, the exact solution and
# the boundary condition, each None if the benchmark has none.

def _bench_constant(model, v, body):
    if model.m == 1:
        def u0(x):
            return np.ones(x.shape[:-1] + (1,))
    else:
        state = model.conserved(1.0, [0.3, -0.2], 1.0)

        def u0(x):
            return np.broadcast_to(state, x.shape[:-1] + (4,)).copy()

    def exact(x, t):
        return u0(x)

    return u0, exact, None


def _bench_advected_gaussian(model, v, body):
    u0 = _gaussian

    if v is not None:
        v = np.array(v)

        def exact(x, t):
            return u0(_wrap_unit(x - v * t))
    else:                                   # the rotation
        def exact(x, t):
            return u0(_rotated_back(x, t))

    return u0, exact, None


def _bench_solid_body_rotation(model, v, body):
    if body in (None, "smooth"):
        def u0(x):
            r = np.sqrt((x[..., 0] - 0.5) ** 2 + (x[..., 1] - 0.75) ** 2)
            val = np.where(r < 0.15, 0.5 * (1.0 + np.cos(np.pi * r / 0.15)), 0.0)
            return val[..., None]
    else:
        def u0(x):
            dx = x[..., 0] - 0.5
            dy = x[..., 1] - 0.75
            inside = (dx ** 2 + dy ** 2 < 0.15 ** 2)
            slot = (np.abs(dx) < 0.025) & (x[..., 1] < 0.85)
            return (inside & ~slot).astype(float)[..., None]

    def exact(x, t):
        return u0(_rotated_back(x, t))

    def bc(x, t, u_in, nhat):
        # zero inflow, copy at outflow
        inflow = np.sum(model.velocity(x) * nhat, axis=-1) < 0.0
        return np.where(inflow[:, None], 0.0, u_in)

    return u0, exact, bc


def _bench_burgers_riemann(model, v, body):
    def u0(x):
        inside = ((np.abs(x[..., 0] - 0.5) < 0.25)
                  & (np.abs(x[..., 1] - 0.5) < 0.25))
        return np.where(inside, 0.8, -0.2)[..., None]

    return u0, None, None


# Double Mach reflection: Mach-10 shock at 60 degrees over a reflecting wall
# starting at x = 1/6 (Woodward-Colella configuration).
_DMR_X0 = 1.0 / 6.0
_DMR_MACH = 10.0
_DMR_RHO1 = 1.4
_DMR_P1 = 1.0
_SQRT3 = np.sqrt(3.0)


def dmr_states(model: Euler):
    pre = model.conserved(_DMR_RHO1, [0.0, 0.0], _DMR_P1)
    direction = np.array([_SQRT3 / 2.0, -0.5])    # unit normal of the 60-deg front
    post = moving_shock_state(model, _DMR_MACH, _DMR_RHO1, _DMR_P1, direction)
    return pre, post


def dmr_shock_indicator(x: np.ndarray, t: float) -> np.ndarray:
    """True where (x, y) is still ahead (pre-shock) of the moving front."""
    # front: (sqrt3/2) x - y/2 = sqrt3/12 + 10 t
    return (_SQRT3 / 2.0) * x[..., 0] - 0.5 * x[..., 1] > _SQRT3 * _DMR_X0 / 2.0 \
        + 10.0 * t


def _bench_dmr(model, v, body):
    pre, post = dmr_states(model)

    def u0(x):
        ahead = dmr_shock_indicator(x, 0.0)
        return np.where(ahead[..., None], pre, post)

    # The boundary masks depend on the positions alone, which the assembly
    # passes as the same array (ms.boundary_x) every time: they are made
    # once per array, as index arrays, and only the top row's pre-/post-
    # shock split is formed per call.
    sides = {}

    def side_indices(x):
        if sides.get("x") is not x:
            left = x[:, 0] <= 0.0 + 1e-12
            bottom = x[:, 1] <= 0.0 + 1e-12
            top = np.flatnonzero(x[:, 1] >= 1.0 - 1e-12)
            inflow_bottom = bottom & (x[:, 0] < _DMR_X0)
            sides.update(x=x, post=np.flatnonzero(left | inflow_bottom),
                         top=top, x_top=x[top],
                         wall=np.flatnonzero(bottom & ~inflow_bottom))
        return sides

    def bc(x, t, u_in, nhat):
        u_ext = u_in.copy()
        side = side_indices(x)
        u_ext[side["post"]] = post
        top, wall = side["top"], side["wall"]
        if top.size:
            ahead = dmr_shock_indicator(side["x_top"], t)
            u_ext[top] = np.where(ahead[:, None], pre, post)
        if wall.size:
            # mirror the momentum about the wall normal
            mom = u_in[wall, 1:3]
            n = nhat[wall]
            u_ext[wall, 1:3] = mom - 2.0 * np.sum(mom * n, axis=-1,
                                                  keepdims=True) * n
        # right edge keeps u_ext = u_in (outflow)
        return u_ext

    return u0, None, bc


# name -> (maker, the model and the velocity field it runs, the default
# cell size h, the (width, height) of the generated rectangle [0, width] x
# [0, height], whether it is periodic, and the default t_end). The model and
# velocity are None where the config chooses, and there is no velocity
# field but for advection.
_REGISTRY = {
    "constant": (_bench_constant, None, None, 1 / 16, (1.0, 1.0), True, 1.0),
    "advected_gaussian": (_bench_advected_gaussian, "advection", None,
                          1 / 32, (1.0, 1.0), True, 1.0),
    "solid_body_rotation": (_bench_solid_body_rotation, "advection",
                            "rotation", 1 / 32, (1.0, 1.0), False, 1.0),
    "burgers_riemann": (_bench_burgers_riemann, "burgers", None, 1 / 32,
                        (1.0, 1.0), True, 0.5),
    "dmr": (_bench_dmr, "euler", None, 1 / 32, (4.0, 1.0), False, 0.2),
}

assert tuple(_REGISTRY) == BENCHMARK_IDS    # config owns ids and order
