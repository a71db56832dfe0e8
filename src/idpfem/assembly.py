"""Per-element assembly: Rusanov viscosity, bar states, residuals and
antidiffusive contributions.

The antidiffusive contributions come from their direct formula. No scheme
reads the residual-distribution split they belong to, so it is left to the
tests, which recompute it (``tests/reference.py``).

Flux evaluations inside one element use the velocity at the element centroid
(midpoint rule), which keeps every identity exact for position-dependent
advection fields. For a model with a linear flux (``flux_coefficients``,
see ``models``) that makes f(u) . c_i = u k_i with k_i = v(x_e) . c_i (E, 3),
the viscosity d^e = max_i lambda_i |c_i| = max_i |k_i|, the bar states
u_i + w_i (ubar - u_i) with the weights w_i = 1/2 - k_i / (2 d^e) in
[0, 1], and the flux part of the antidiffusive contribution, f(ubar) . c_i
- sum_j f(u_j) . c_i / 3, exactly zero: such a model is assembled in that
coefficient form, from the state-free ``LinearFlux`` of ``linear_flux``,
and neither a flux tensor nor a wave speed is formed.

Every per-element array is stored with the element index fastest (see
``MeshSystem``); numpy keeps that order through elementwise operations, so
the code below reads as if it were C-ordered. One value per element, such
as the mean ubar of ``mesh.node_sum``, keeps the node axis with length 1,
(E, 1, ...), and so broadcasts against the (E, 3, ...) blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .mesh import MeshSystem, Workspace, node_max, node_sum, scratch
from .models import TINY


@dataclass
class ElementWork:
    """Everything the limiters and schemes consume, for all elements at once.
    Per-element arrays are stored with the element index fastest.
    ``f_anti`` is None for a low-order assembly (``with_antidiffusion=False``)
    and ``bar_states`` for one without them (``with_bar_states=False``).
    """

    u_loc: np.ndarray         # (E, 3, m) gathered nodal states
    d: np.ndarray             # (E,) Rusanov viscosity
    bar_states: Optional[np.ndarray]        # (E, 3, m)
    residual: np.ndarray      # (n_dofs, m) Rusanov residual + boundary terms
    udot: np.ndarray          # (n_dofs, m) lumped time-derivative approximation
    f_anti: Optional[np.ndarray] = None     # (E, 3, m) antidiffusive contributions


@dataclass
class BoundaryWork:
    """Rusanov boundary-face terms for weakly imposed boundary conditions."""

    dofs: np.ndarray          # (B,) boundary dof indices
    flux_term: np.ndarray     # (B, m) contribution to m_i du_i/dt
    visc: np.ndarray          # (B,) lambda * |n_i|, enters the CFL condition
    bar_states: np.ndarray    # (B, m) boundary bar states (IDP audit / bounds)


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


@dataclass(frozen=True)
class LinearFlux:
    """What the element assembly of a model with a linear flux reads of its
    mesh and velocity alone; every array is read-only.

    The bar-state weights ``w`` are formed from ``k`` and ``d`` on first
    use: only an assembly with bar states (MCL) reads them."""

    k: np.ndarray                  # (E, 3) k_i = v(x_e) . c_i
    d: np.ndarray                  # (E,) viscosity d^e = max_i |k_i|

    @cached_property
    def w(self) -> np.ndarray:
        """(E, 3) bar-state weights w_i = 1/2 - k_i / (2 max(d^e, TINY)),
        in [0, 1] (|k_i| <= d^e) and 1/2 where d^e = 0 (every k_i is 0
        there)."""
        den = np.maximum(self.d, TINY)
        den *= 2.0
        w = np.divide(self.k, den[:, None])
        w = np.subtract(0.5, w, out=w)
        w.flags.writeable = False
        return w


def linear_flux(ms: MeshSystem, model) -> Optional[LinearFlux]:
    """The ``LinearFlux`` of a model with ``flux_coefficients``, None for
    any other. k_i takes the velocity at the element centroid, and d^e =
    max_i |k_i| is max_i lambda_i |c_i| because lambda_i = |v(x_e) .
    c_hat_i|."""
    coefficients = getattr(model, "flux_coefficients", None)
    if coefficients is None:
        return None
    geom = ms.geometry
    k = coefficients(geom.c, geom.centroid[:, None, :])
    d = np.abs(k).max(axis=1)
    lin = LinearFlux(k=k, d=d)
    for a in vars(lin).values():
        a.flags.writeable = False
    return lin


def bar_states(fbar_c, fi_c, u_loc, ubar, d, out, tmp) -> np.ndarray:
    """Riemann-averaged intermediate states from f(ubar) . c_i and
    f(u_i) . c_i (E, 3, m), the nodal states u_loc (E, 3, m), their mean
    ubar (E, 1, m) and d (E,); arithmetic mean where d = 0. ``out`` takes
    the result and ``tmp`` (same shape, or None for a fresh array) an
    intermediate; ``tmp`` may be no input, and ``out`` no input but
    ``fi_c``, which is read before ``out`` is written."""
    df = np.subtract(fbar_c, fi_c, out=tmp)
    # 2 max(d, TINY) in the first column of out, until the mean goes there
    den = np.maximum(d, TINY, out=out[:, 0, 0])
    den *= 2.0
    df /= den[:, None, None]
    # where d = 0 the mean is kept: df (maybe inf or nan there) is zeroed,
    # which is rarely needed, so that the subtraction runs unmasked
    if not d.min() > 0:
        np.copyto(df, 0.0, where=(d <= 0)[:, None, None])
    mean = np.add(ubar, u_loc, out=out)
    mean *= 0.5
    return np.subtract(mean, df, out=mean)


def assemble(ms: MeshSystem, model, u: np.ndarray, t: float = 0.0,
             bc: Optional[Callable] = None,
             with_antidiffusion: bool = True, ws: Optional[Workspace] = None,
             with_bar_states: bool = True,
             lin: Optional[LinearFlux] = None) -> tuple:
    """Compute the element quantities for the global state u (n_dofs, m).

    Returns (ElementWork, BoundaryWork or None). Gather/scatter order is fixed,
    so repeated calls are bit-identical. ``with_antidiffusion=False`` skips
    the antidiffusive contributions and ``with_bar_states=False`` the
    element bar states (and, for a flux model, f(u_i) . c_i, which only
    they read); the other blocks keep their bits either way. Boundary bar
    states are always formed.

    A model with a linear flux is assembled in coefficient form, from the
    ``LinearFlux`` ``lin`` of ``linear_flux``, formed here unless the
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
    ubar = node_sum(u_loc, out=buf("ubar", (n_e, 1, m)))
    ubar /= 3.0
    if lin is None:
        lin = linear_flux(ms, model)
    bars = None
    if lin is not None:
        d = lin.d
        # ubar - u_i, in the buffer of the viscous term d (ubar - u_i)
        diff = np.subtract(ubar, u_loc, out=tmp)
        if with_bar_states:
            bars = np.multiply(lin.w[:, :, None], diff, out=buf("bars"))
            bars += u_loc
        visc = np.multiply(diff, d[:, None, None], out=diff)
        # f(ubar) . c_i goes where r_rus, formed from it, goes
        fbar_c = np.multiply(ubar, lin.k[:, :, None], out=buf("r_rus"))
    else:
        # What the fluxes and the wave speeds share (the Euler pressure),
        # in the buffers of tmp and r_rus until those are formed, with
        # their intermediates where the wave speeds go next
        aux_loc = model.aux(u_loc, out=buf("tmp", blk[:2]),
                            tmp=buf("bars", blk[:2]))
        aux_bar = model.aux(ubar, out=buf("r_rus", (n_e, 1)),
                            tmp=buf("bars", (n_e, 1)))
        x_bar = geom.centroid[:, None, :]
        # the wave speeds between ubar and each node go where the bar
        # states (if formed) go later, their intermediates where f(u_i)
        # goes; d^e = max_i lambda_i |c_i|
        lam = model.max_wave_speed(ubar, u_loc, geom.c_hat, x_bar,
                                   out=buf("bars", blk[:2]), aux_l=aux_bar,
                                   aux_r=aux_loc,
                                   tmp=buf("flux_loc", blk[:2] + (2,)))
        lam *= geom.c_norm
        d = node_max(lam, out=buf("d", (n_e, 1)))[:, 0]
        flux_bar = model.flux(ubar, x_bar, out=buf("flux_bar", (n_e, 1, m, 2)),
                              aux=aux_bar)
        flux_loc = model.flux(u_loc, x_bar, out=buf("flux_loc", blk + (2,)),
                              aux=aux_loc)
        # f(ubar) . c_i goes where r_rus, formed from it, goes
        fbar_c = _dot(flux_bar, geom.c, out=buf("r_rus"), tmp=tmp)
        if with_bar_states:
            # f(u_i) . c_i is read only by the bar states, which overwrite
            # it
            fi_c = _dot(flux_loc, geom.c, out=buf("bars"), tmp=tmp)
            bars = bar_states(fbar_c, fi_c, u_loc, ubar, d, out=fi_c,
                              tmp=tmp)
        if with_antidiffusion:
            # (sum_j f(u_j) / 3) . c_i, completed to f_anti below, in the
            # second half of the flux tensor's buffer, spent once summed
            # (the mass term takes the first); without a workspace a
            # fresh array
            sum_flux = node_sum(flux_loc, out=flux_bar)  # (E, 1, m, 2)
            sum_flux /= 3.0
            f_anti = _dot(sum_flux, geom.c,
                          out=None if ws is None else flux_loc[..., 1],
                          tmp=tmp)
        visc = np.subtract(ubar, u_loc, out=tmp)
        visc *= d[:, None, None]

    # Closed-form Rusanov residual: d (ubar - u_i) - f(ubar) . c_i
    r_rus = np.subtract(visc, fbar_c, out=fbar_c)

    bwork = None if bc is None else boundary_terms(ms, model, u, t, bc)

    residual = ms.scatter_add(r_rus, ws)
    if bwork is not None:
        residual[bwork.dofs] += bwork.flux_term
    udot = residual / ms.lumped_mass[:, None]

    work = ElementWork(u_loc=u_loc, d=d, bar_states=bars, residual=residual,
                       udot=udot)
    if not with_antidiffusion:
        return work, bwork

    # Element mass term: sum_j m_ij (udot_i - udot_j) = (|K|/12)(3 udot_i - sum_j udot_j),
    # formed in the gathered udot, in the buffers of the used-up fluxes
    # (the first half of the flux tensor's)
    mass = ms.gather(udot, out=buf("flux_loc"))
    udot_sum = node_sum(mass, out=buf("flux_bar", (n_e, 1, m)))
    mass *= 3.0
    mass -= udot_sum
    mass *= geom.m_off[:, None, None]

    # direct antidiffusion formula: f_anti = mass + f(ubar) . c_i - sum_j
    # f(u_j) . c_i / 3 - visc, which is mass - r_rus - (sum_j f(u_j) /
    # 3) . c_i; in coefficient form the flux part is zero, so mass - visc
    if lin is not None:
        f_anti = np.subtract(mass, visc, out=buf("f_anti"))
    else:
        f_anti = np.subtract(mass, f_anti, out=f_anti)
        f_anti -= r_rus
    work.f_anti = f_anti
    return work, bwork


def boundary_terms(ms: MeshSystem, model, u: np.ndarray, t: float,
                   bc: Callable) -> Optional[BoundaryWork]:
    """Weak Rusanov flux through the boundary, one face term per boundary dof.

    ``bc(x, t, u_in, n_hat)`` returns the exterior states. The term
    pairs with the closed-form interior assembly: for a free-stream state it
    cancels the deficit f(u_i) . n_i exactly, and its bar-state form keeps
    the forward-Euler update a convex combination of admissible states.
    For every model the fluxes are ``model.normal_flux``, no flux tensor,
    and the wave speed is ``model.max_wave_speed`` of the interior and
    exterior states.
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
    f_in = model.normal_flux(u_in, n, x, aux_in)
    f_ext = model.normal_flux(u_ext, n, x, aux_ext)

    # bar state: 0.5 (u_in + u_ext) - (f_ext - f_in) . n_i / |n_i| / (2
    # lambda), the mean where lambda |n_i| = 0; |n_i| > 0 at every
    # boundary DOF, so it divides unguarded
    mean = np.add(u_in, u_ext)
    mean *= 0.5
    bars = np.subtract(f_ext, f_in)
    bars /= nlen[:, None]
    den = np.maximum(lam, TINY)
    den *= 2.0
    bars /= den[:, None]
    bars = np.subtract(mean, bars, out=bars)
    zero = visc <= 0
    if zero.any():
        bars[zero] = mean[zero]

    # lambda |n_i| (u_ext - u_in) / 2 - (f_in + f_ext) . n_i / 2
    flux_term = np.subtract(u_ext, u_in)
    flux_term *= np.multiply(0.5, visc, out=den)[:, None]
    f_in += f_ext
    f_in *= 0.5
    flux_term -= f_in
    return BoundaryWork(dofs=dofs, flux_term=flux_term, visc=visc,
                        bar_states=bars)
