"""Per-element assembly: Rusanov viscosity, bar states, residuals and
antidiffusive contributions.

The antidiffusive contributions come from their direct formula. No scheme
reads the residual-distribution split they belong to, so it is left to the
tests, which recompute it (``tests/reference.py``).

Flux evaluations inside one element use the velocity at the element centroid
(midpoint rule), which keeps every identity exact for position-dependent
advection fields. For a model with a linear flux (``flux_coefficients``,
see ``models``) that makes f(u) . c_i = u k_i with k_i = v(x_e) . c_i (E, 3),
and the flux part of the antidiffusive contribution, f(ubar) . c_i -
sum_j f(u_j) . c_i / 3, exactly zero: such a model is assembled in that
coefficient form, from k alone, and no flux tensor is formed.

Every per-element array is stored with the element index fastest (see
``MeshSystem``); numpy keeps that order through elementwise operations, so
the code below reads as if it were C-ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import MeshSystem, Workspace, scratch
from .models import TINY


@dataclass
class ElementWork:
    """Everything the limiters and schemes consume, for all elements at once.
    Per-element arrays are stored with the element index fastest.
    ``f_anti`` is None for a low-order assembly (``with_antidiffusion=False``)
    and ``bar_states`` for one without them (``with_bar_states=False``).
    """

    u_loc: np.ndarray         # (E, 3, m) gathered nodal states
    ubar: np.ndarray          # (E, m) element averages
    d: np.ndarray             # (E,) Rusanov viscosity
    bar_states: Optional[np.ndarray]        # (E, 3, m)
    r_rusanov: np.ndarray     # (E, 3, m) closed-form low-order residual
    residual: np.ndarray      # (n_dofs, m) assembled r_rusanov + boundary terms
    udot: np.ndarray          # (n_dofs, m) lumped time-derivative approximation
    f_anti: Optional[np.ndarray] = None     # (E, 3, m) antidiffusive contributions


@dataclass
class BoundaryWork:
    """Rusanov boundary-face terms for weakly imposed boundary conditions."""

    dofs: np.ndarray          # (B,) boundary dof indices
    flux_term: np.ndarray     # (B, m) contribution to m_i du_i/dt
    visc: np.ndarray          # (B,) lambda * |n_i|, enters the CFL condition
    bar_states: np.ndarray    # (B, m) boundary bar states (IDP audit / bounds)


def _node_sum(a: np.ndarray, out=None) -> np.ndarray:
    """Sum over the three element nodes (axis 1 of (E, 3, ...)). Written out,
    because numpy's reduce over a length-3 axis costs several times more."""
    s = np.add(a[:, 0], a[:, 1], out=out)
    s += a[:, 2]
    return s


def element_average(u_loc: np.ndarray, out=None) -> np.ndarray:
    """Arithmetic mean of the three nodal states."""
    s = _node_sum(u_loc, out)
    s /= 3.0
    return s


def wave_speeds(model, ms: MeshSystem, u_loc, ubar, out=None, aux_loc=None,
                aux_bar=None, tmp=None) -> np.ndarray:
    """Directional wave-speed bound between ubar and each node, (E, 3).
    ``aux_loc`` and ``aux_bar`` are ``model.aux`` of u_loc and ubar when
    the caller has them; ``tmp`` (E, 3, 2) takes the intermediates when
    given."""
    geom = ms.geometry
    if aux_bar is not None:
        aux_bar = aux_bar[:, None]
    return model.max_wave_speed(ubar[:, None, :], u_loc, geom.c_hat,
                                geom.centroid[:, None, :], out=out,
                                aux_l=aux_bar, aux_r=aux_loc, tmp=tmp)


def rusanov_viscosity(lam: np.ndarray, c_norm: np.ndarray, out=None,
                      tmp=None) -> np.ndarray:
    """d^e = max_i lambda_i |c_i|."""
    a = np.multiply(lam, c_norm, out=tmp)
    d = np.maximum(a[:, 0], a[:, 1], out=out)
    return np.maximum(d, a[:, 2], out=d)


def _dot(f: np.ndarray, c: np.ndarray, out=None, tmp=None) -> np.ndarray:
    """f . c over the space axis: f (..., m, 2), c (..., 2) -> (..., m).

    The result is allocated in Fortran order unless ``out`` is given: where
    f is broadcast over the nodes and c over the components, numpy would
    otherwise fall back to C order for those two axes. ``tmp`` (the shape
    of the result) holds the second product when given.
    """
    if out is None:
        shape = np.broadcast_shapes(f.shape[:-1], c.shape[:-1] + (1,))
        out = np.empty(shape, order="F")
    np.multiply(f[..., 0], c[..., None, 0], out=out)
    out += np.multiply(f[..., 1], c[..., None, 1], out=tmp)
    return out


def flux_coefficients(ms: MeshSystem, model) -> Optional[np.ndarray]:
    """k_i = v(x_e) . c_i (E, 3) of a model with a linear flux, the velocity
    taken at the element centroid; None for a model without
    ``flux_coefficients``."""
    coefficients = getattr(model, "flux_coefficients", None)
    if coefficients is None:
        return None
    geom = ms.geometry
    return coefficients(geom.c, geom.centroid[:, None, :])


def bar_states(fbar_c, fi_c, u_loc, ubar, d, out=None,
               tmp=None) -> np.ndarray:
    """Riemann-averaged intermediate states from f(ubar) . c_i and
    f(u_i) . c_i; arithmetic mean where d = 0. ``out`` takes the result and
    ``tmp`` (same shape) an intermediate when given; neither may be an
    input."""
    df = np.subtract(fbar_c, fi_c, out=tmp)
    # 2 max(d, TINY) in the first column of out, until the mean goes there
    den = np.maximum(d, TINY, out=None if out is None else out[:, 0, 0])
    den *= 2.0
    df /= den[:, None, None]
    # where d = 0 the mean is kept: df (maybe inf or nan there) is zeroed,
    # which is rarely needed, so that the subtraction runs unmasked
    if not d.min() > 0:
        np.copyto(df, 0.0, where=(d <= 0)[:, None, None])
    mean = np.add(ubar[:, None, :], u_loc, out=out)
    mean *= 0.5
    return np.subtract(mean, df, out=mean)


def assemble(ms: MeshSystem, model, u: np.ndarray, t: float = 0.0,
             bc: Optional[Callable] = None,
             with_antidiffusion: bool = True, ws: Optional[Workspace] = None,
             with_bar_states: bool = True,
             d: Optional[np.ndarray] = None,
             k: Optional[np.ndarray] = None) -> tuple:
    """Compute the element quantities for the global state u (n_dofs, m).

    Returns (ElementWork, BoundaryWork or None). Gather/scatter order is fixed,
    so repeated calls are bit-identical. ``with_antidiffusion=False`` skips
    the antidiffusive contributions and ``with_bar_states=False`` the
    element bar states (and f(u_i) . c_i, which only they read); the other
    blocks keep their bits either way. Boundary bar states are always formed.

    ``d`` (E,) is the Rusanov viscosity when the caller already has it, for
    a model whose wave speeds do not depend on the states (see
    ``models``): the wave speeds and the viscosity are then not computed,
    ``d`` itself is the returned ``work.d`` and every other block keeps its
    bits.

    A model with a linear flux is assembled in coefficient form, from the
    (E, 3) ``k`` of ``flux_coefficients``; ``k`` is formed here unless the
    caller passes the one it keeps. Other models go through ``model.flux``.

    With a ``Workspace`` ``ws`` every element block is written into a
    buffer of ``ws`` (see ``mesh.scratch``), so the blocks of the returned
    ElementWork are overwritten by the next call with the same ``ws``.
    Without one, every array is fresh. Per-DOF arrays are fresh either way.
    """
    geom = ms.geometry
    blk = ms.elem_dofs.shape + u.shape[1:]        # (E, 3, m)
    n_e, m = blk[0], blk[2]

    def buf(name, shape=blk):
        return scratch(ws, "asm." + name, shape)

    tmp = buf("tmp")
    u_loc = ms.gather(u, out=buf("u_loc"))
    ubar = element_average(u_loc, out=buf("ubar", (n_e, m)))
    # What the fluxes and the wave speeds share (the Euler pressure), in
    # the buffers of f_anti and r_rusanov until those are formed
    aux_loc = model.aux(u_loc, out=buf("f_anti", blk[:2]),
                        tmp=buf("tmp", blk[:2]))
    aux_bar = model.aux(ubar, out=buf("r_rus", (n_e,)),
                        tmp=buf("tmp", (n_e,)))
    if d is None:
        # the wave speeds go where the bar states (if formed) go later,
        # their intermediates where f(u_i) goes
        lam = wave_speeds(model, ms, u_loc, ubar, out=buf("bars", blk[:2]),
                          aux_loc=aux_loc, aux_bar=aux_bar,
                          tmp=buf("flux_loc", blk[:2] + (2,)))
        d = rusanov_viscosity(lam, geom.c_norm, out=buf("d", (n_e,)),
                              tmp=buf("tmp", blk[:2]))

    if k is None:
        k = flux_coefficients(ms, model)
    linear = k is not None
    # f(ubar) . c_i goes where r_rusanov, which is formed from it last, goes
    if linear:
        k = k[:, :, None]
        fbar_c = np.multiply(ubar[:, None, :], k, out=buf("r_rus"))
    else:
        x_bar = geom.centroid
        flux_bar = model.flux(ubar, x_bar, out=buf("flux_bar", (n_e, m, 2)),
                              aux=aux_bar)
        flux_loc = model.flux(u_loc, x_bar[:, None, :],
                              out=buf("flux_loc", blk + (2,)), aux=aux_loc)
        fbar_c = _dot(flux_bar[:, None], geom.c, out=buf("r_rus"), tmp=tmp)
    bars = None
    if with_bar_states:
        # f(u_i) . c_i is read only by the bar states; f_anti overwrites it
        fi_c = (np.multiply(u_loc, k, out=buf("f_anti")) if linear
                else _dot(flux_loc, geom.c, out=buf("f_anti"), tmp=tmp))
        bars = bar_states(fbar_c, fi_c, u_loc, ubar, d, out=buf("bars"),
                          tmp=tmp)

    if with_antidiffusion and not linear:
        # fbar_c - sum_j f(u_j) . c_i / 3, completed to f_anti below
        sum_flux = _node_sum(flux_loc, out=flux_bar)  # (E, m, 2)
        f_anti = _dot(sum_flux[:, None], geom.c, out=buf("f_anti"), tmp=tmp)
        f_anti /= 3.0
        f_anti = np.subtract(fbar_c, f_anti, out=f_anti)

    # Closed-form Rusanov residual: d (ubar - u_i) - f(ubar) . c_i
    visc = np.subtract(ubar[:, None, :], u_loc, out=tmp)
    visc *= d[:, None, None]
    r_rus = np.subtract(visc, fbar_c, out=fbar_c)

    bwork = boundary_terms(ms, model, u, t, bc) if bc is not None else None

    residual = ms.scatter_add(r_rus, ws)
    if bwork is not None:
        residual[bwork.dofs] += bwork.flux_term
    udot = residual / ms.lumped_mass[:, None]

    work = ElementWork(u_loc=u_loc, ubar=ubar, d=d, bar_states=bars,
                       r_rusanov=r_rus, residual=residual, udot=udot)
    if not with_antidiffusion:
        return work, bwork

    # Element mass term: sum_j m_ij (udot_i - udot_j) = (|K|/12)(3 udot_i - sum_j udot_j),
    # formed in the gathered udot, in the buffers of the used-up fluxes (of
    # the wave speeds' intermediates only, in coefficient form)
    mass = ms.gather(udot, out=buf("flux_loc"))
    udot_sum = _node_sum(mass, out=buf("flux_bar", (n_e, m)))
    mass *= 3.0
    mass -= udot_sum[:, None, :]
    mass *= geom.m_off[:, None, None]

    # direct antidiffusion formula: f_anti = mass + flux part - visc, with
    # no flux part in coefficient form
    if linear:
        f_anti = np.subtract(mass, visc, out=buf("f_anti"))
    else:
        f_anti += mass
        f_anti -= visc
    work.f_anti = f_anti
    return work, bwork


def boundary_terms(ms: MeshSystem, model, u: np.ndarray, t: float,
                   bc: Callable) -> Optional[BoundaryWork]:
    """Weak Rusanov flux through the boundary, one face term per boundary dof.

    ``bc(x, t, u_in, n_hat)`` returns the exterior states. The term
    pairs with the closed-form interior assembly: for a free-stream state it
    cancels the deficit f(u_i) . n_i exactly, and its bar-state form keeps
    the forward-Euler update a convex combination of admissible states.
    """
    dofs = ms.boundary_dofs
    if dofs.size == 0:
        return None
    n, nlen, nhat = ms.boundary_n, ms.boundary_nlen, ms.boundary_nhat
    x = ms.boundary_x
    u_in = u[dofs]
    u_ext = bc(x, t, u_in, nhat)
    aux_in, aux_ext = model.aux(u_in), model.aux(u_ext)

    lam = model.max_wave_speed(u_in, u_ext, nhat, x, aux_l=aux_in,
                               aux_r=aux_ext)
    visc = lam * nlen
    if hasattr(model, "flux_coefficients"):
        k = model.flux_coefficients(n, x)[:, None]
        f_in, f_ext = u_in * k, u_ext * k
    else:
        f_in = _dot(model.flux(u_in, x, aux=aux_in), n)
        f_ext = _dot(model.flux(u_ext, x, aux=aux_ext), n)
    flux_term = -0.5 * (f_in + f_ext) + 0.5 * visc[:, None] * (u_ext - u_in)

    # bar state: 0.5 (u_in + u_ext) - (f_ext - f_in) . n_hat / (2 lambda)
    dfn = (f_ext - f_in) / np.maximum(nlen, TINY)[:, None]
    bars = 0.5 * (u_in + u_ext) - dfn / (2.0 * np.maximum(lam, TINY))[:, None]
    zero = lam * nlen <= 0
    if zero.any():
        bars[zero] = 0.5 * (u_in[zero] + u_ext[zero])

    return BoundaryWork(dofs=dofs, flux_term=flux_term, visc=visc,
                        bar_states=bars)
