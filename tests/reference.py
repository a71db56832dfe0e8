"""Verification-only references, straight from the formulas: allocating,
workspace-free, with the fluxes evaluated through ``model.flux`` and every
sum written out.

* ``reference_assembly``: the Rusanov viscosity, the bar states, the
  closed-form low-order residual and the antidiffusive contributions of
  one element assembly, boundary terms included;
* ``residual_split``: the residual-distribution split the assembly
  follows (no scheme reads it);
* ``rd_weights``: the signed-fluctuation decomposition of element
  residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from idpfem.assembly import ElementWork, assemble
from idpfem.mesh import MeshSystem


@dataclass
class RdWeights:
    r_plus: np.ndarray            # (E, m)
    r_minus: np.ndarray           # (E, m)
    beta_plus: np.ndarray         # (E, 3, m)
    beta_minus: np.ndarray        # (E, 3, m)


def rd_weights(residuals: np.ndarray) -> RdWeights:
    """Signed-fluctuation decomposition of per-element nodal residuals.

    residuals: (..., 3) or (..., 3, m). beta_{i,+} = max(0, r_i)/r_+ when
    r_+ > 0, else 0; reconstruction beta_{i,+-} r_+- recovers r_i exactly.
    """
    r = np.asarray(residuals, dtype=float)
    if r.shape[-1] == 3:
        r = r[..., None]          # promote scalars to m = 1
    elif r.ndim < 2 or r.shape[-2] != 3:
        raise ValueError("residuals must have a local-node axis of length 3")
    pos = np.maximum(r, 0.0)
    neg = np.minimum(r, 0.0)
    r_plus = pos.sum(axis=-2)
    r_minus = neg.sum(axis=-2)
    with np.errstate(divide="ignore", invalid="ignore"):
        beta_plus = np.where(r_plus[..., None, :] > 0,
                             pos / r_plus[..., None, :], 0.0)
        beta_minus = np.where(r_minus[..., None, :] < 0,
                              neg / r_minus[..., None, :], 0.0)
    return RdWeights(r_plus=r_plus, r_minus=r_minus,
                     beta_plus=beta_plus, beta_minus=beta_minus)


@dataclass
class ResidualSplit:
    work: ElementWork             # the fresh assembly the split is taken from
    flux_c: np.ndarray            # (E, 3, m) f(u_i) . c_i
    mass_term: np.ndarray         # (E, 3, m) sum_j m_ij (udot_i - udot_j)
    fluctuation: np.ndarray       # (E, m) sum_j f(u_j) . c_j
    r_high: np.ndarray            # (E, 3, m) high-order residual
    r_low: np.ndarray             # (E, 3, m) low-order residual


def residual_split(ms: MeshSystem, model, u: np.ndarray) -> ResidualSplit:
    """The residual-distribution split of the element assembly of u (n_dofs, m).

    The high-order residual uses the lumped derivative approximation, the
    antidiffusive vector comes from its direct formula, and the low-order
    residual is defined residually, so that r_low + f_anti = r_high and both
    residual sums equal the element fluctuation exactly (up to roundoff). The
    closed-form Rusanov residual d(ubar - u_i) - f(ubar).c_i (used by the
    actual schemes) agrees with the assembled r_low at interior nodes after
    gathering over elements; elementwise the two differ by boundary-flux
    terms that telescope.

    All but f_anti is recomputed here; f_anti is that of a fresh
    ``assemble``, the contributions the limiters see.
    """
    work, _ = assemble(ms, model, u)
    geom = ms.geometry
    flux_loc = model.flux(work.u_loc, geom.centroid[:, None, :])
    flux_c = (flux_loc * geom.c[:, :, None, :]).sum(axis=-1)
    udot_loc = ms.gather(work.udot) * geom.m_off[:, None, None]
    mass = 3.0 * udot_loc - udot_loc.sum(axis=1, keepdims=True)
    fluctuation = flux_c.sum(axis=1)
    r_high = mass + fluctuation[:, None, :] / 3.0
    return ResidualSplit(work=work, flux_c=flux_c, mass_term=mass,
                         fluctuation=fluctuation, r_high=r_high,
                         r_low=r_high - work.f_anti)


@dataclass
class ReferenceAssembly:
    d: np.ndarray                 # (E,) Rusanov viscosity
    bar_states: np.ndarray        # (E, 3, m)
    r_rusanov: np.ndarray         # (E, 3, m)
    udot: np.ndarray              # (n_dofs, m)
    f_anti: np.ndarray            # (E, 3, m)


def reference_assembly(ms: MeshSystem, model, u: np.ndarray, t: float = 0.0,
                       bc=None) -> ReferenceAssembly:
    """The element quantities of ``assembly.assemble`` from their formulas,
    for any model: every flux is ``model.flux`` at the element centroid
    (at the DOF on the boundary), dotted with c_i by an explicit sum."""
    geom = ms.geometry
    u_loc = u[ms.elem_dofs]                                   # (E, 3, m)
    ubar = u_loc.sum(axis=1) / 3.0                            # (E, m)
    x_bar = geom.centroid

    lam = model.max_wave_speed(ubar[:, None, :], u_loc, geom.c_hat,
                               x_bar[:, None, :])             # (E, 3)
    d = (lam * geom.c_norm).max(axis=1)

    c = geom.c[:, :, None, :]                                 # (E, 3, 1, 2)
    fbar_c = (model.flux(ubar, x_bar)[:, None] * c).sum(axis=-1)
    f_loc = model.flux(u_loc, x_bar[:, None, :])              # (E, 3, m, 2)
    fi_c = (f_loc * c).sum(axis=-1)
    fsum_c = (f_loc.sum(axis=1)[:, None] * c).sum(axis=-1)

    dd = d[:, None, None]
    visc = (ubar[:, None, :] - u_loc) * dd
    r_rus = visc - fbar_c
    mean = 0.5 * (ubar[:, None, :] + u_loc)
    with np.errstate(divide="ignore", invalid="ignore"):
        bars = np.where(dd > 0, mean - (fbar_c - fi_c) / (2.0 * dd), mean)

    residual = np.zeros(u.shape)
    np.add.at(residual, ms.elem_dofs, r_rus)
    if bc is not None and ms.boundary_dofs.size:
        residual[ms.boundary_dofs] += _boundary_flux(ms, model, u, t, bc)
    udot = residual / ms.lumped_mass[:, None]

    udot_loc = udot[ms.elem_dofs]
    mass = (3.0 * udot_loc - udot_loc.sum(axis=1, keepdims=True)) \
        * geom.m_off[:, None, None]
    f_anti = mass + (fbar_c - fsum_c / 3.0) - visc
    return ReferenceAssembly(d=d, bar_states=bars, r_rusanov=r_rus,
                             udot=udot, f_anti=f_anti)


def _boundary_flux(ms: MeshSystem, model, u: np.ndarray, t: float,
                   bc) -> np.ndarray:
    """The weak Rusanov face term -(f(u_in) + f(u_ext)) . n_i / 2
    + lambda |n_i| (u_ext - u_in) / 2 of each boundary DOF, (B, m)."""
    dofs, x = ms.boundary_dofs, ms.boundary_x
    n, nhat = ms.boundary_n, ms.boundary_nhat
    u_in = u[dofs]
    u_ext = bc(x, t, u_in, nhat)
    lam = model.max_wave_speed(u_in, u_ext, nhat, x)

    def flux_n(w):
        return (model.flux(w, x) * n[:, None, :]).sum(axis=-1)

    return (-0.5 * (flux_n(u_in) + flux_n(u_ext))
            + 0.5 * (lam * ms.boundary_nlen)[:, None] * (u_ext - u_in))


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| over max |ref|."""
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300))
