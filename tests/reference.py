"""Verification-only references, straight from the formulas: allocating,
workspace-free, with the fluxes evaluated through ``model.flux`` and every
sum written out.

* ``reference_assembly``: the Rusanov viscosity, the bar states, the
  closed-form low-order residual and the antidiffusive contributions of
  one element assembly, boundary terms included;
* ``reference_stage``: one forward-Euler stage of every scheme key for a
  scalar model, built on ``reference_assembly``: the low-order predictor,
  MCL's bar-state bounds and ``r + f*``, FCT's stencil bounds and
  corrector, and the scaling and clip-and-scale limiters;
* ``product_rule`` and ``sequential_limiter``: the sequential system
  limiter before the IDP fix, the density by a scalar limiter and then
  the products rho phi by the product rule;
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
    residual: np.ndarray          # (n_dofs, m) sum of r_rusanov + boundary
    udot: np.ndarray              # (n_dofs, m)
    f_anti: np.ndarray            # (E, 3, m)
    boundary_bars: np.ndarray | None = None   # (B, m), with a bc


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
    b_bars = None
    if bc is not None and ms.boundary_dofs.size:
        b_flux, b_bars = _boundary_terms(ms, model, u, t, bc)
        residual[ms.boundary_dofs] += b_flux
    udot = residual / ms.lumped_mass[:, None]

    udot_loc = udot[ms.elem_dofs]
    mass = (3.0 * udot_loc - udot_loc.sum(axis=1, keepdims=True)) \
        * geom.m_off[:, None, None]
    f_anti = mass + (fbar_c - fsum_c / 3.0) - visc
    return ReferenceAssembly(d=d, bar_states=bars, r_rusanov=r_rus,
                             residual=residual, udot=udot, f_anti=f_anti,
                             boundary_bars=b_bars)


def _boundary_terms(ms: MeshSystem, model, u: np.ndarray, t: float,
                    bc) -> tuple:
    """The weak Rusanov face term -(f(u_in) + f(u_ext)) . n_i / 2
    + lambda |n_i| (u_ext - u_in) / 2 of each boundary DOF, and its bar
    state (u_in + u_ext) / 2 - (f(u_ext) - f(u_in)) . n_i / (2 lambda |n_i|)
    (the mean where lambda |n_i| = 0), each (B, m)."""
    dofs, x = ms.boundary_dofs, ms.boundary_x
    n, nhat = ms.boundary_n, ms.boundary_nhat
    u_in = u[dofs]
    u_ext = bc(x, t, u_in, nhat)
    visc = (model.max_wave_speed(u_in, u_ext, nhat, x)
            * ms.boundary_nlen)[:, None]

    def flux_n(w):
        return (model.flux(w, x) * n[:, None, :]).sum(axis=-1)

    f_in, f_ext = flux_n(u_in), flux_n(u_ext)
    mean = 0.5 * (u_in + u_ext)
    with np.errstate(divide="ignore", invalid="ignore"):
        bars = np.where(visc > 0, mean - (f_ext - f_in) / (2.0 * visc), mean)
    return -0.5 * (f_in + f_ext) + 0.5 * visc * (u_ext - u_in), bars


@dataclass
class ReferenceStage:
    u: np.ndarray                 # (n_dofs, 1) the stage's result
    alpha: np.ndarray | None      # (E,) factors of a scaling limiter
    f_anti: np.ndarray            # (E, 3, 1) the unlimited contributions


def reference_stage(ms: MeshSystem, model, u: np.ndarray, t: float,
                    dt: float, key: str, bc=None) -> ReferenceStage:
    """One forward-Euler stage ``u -> u + dt (...)`` of the scheme ``key``
    (``schemes.SCHEME_KEYS``) for a scalar model, from the formulas:

    * ``low``: u + dt udot, the low-order predictor;
    * ``none``: u + dt (residual + sum_e f_anti) / m_i;
    * ``mcl.*``: u + dt (residual + sum_e f*) / m_i, f* limited so that
      each bar state + f* / (2 d^e) stays within the range of u_i, of the
      bar states at DOF i and of its boundary bar state; an element with
      d^e = 0 has no viscosity to compensate and takes no correction;
    * ``fct.*``: u_low + dt sum_e f* / m_i from the low-order predictor
      u_low, f* limited so that u_low,i + dt f* / m^e stays within the
      range of u_low over the DOFs DOF i shares an element with, and of
      its boundary bar state.
    """
    ref = reference_assembly(ms, model, u, t, bc)
    m_i = ms.lumped_mass[:, None]
    stage = ReferenceStage(u=u + dt * ref.udot, alpha=None,
                           f_anti=ref.f_anti)
    driver, _, kind = key.partition(".")
    if driver == "low":
        return stage
    if driver == "none":
        stage.u = u + dt * (ref.residual + _sum_at(ms, ref.f_anti)) / m_i
        return stage

    if driver == "mcl":
        base, gamma = ref.bar_states, 2.0 * ref.d[:, None, None]
        lo = np.minimum(_min_at(ms, base), u)
        hi = np.maximum(_max_at(ms, base), u)
        f = np.where(ref.d[:, None, None] > 0, ref.f_anti, 0.0)
    else:
        u_low = stage.u
        base = u_low[ms.elem_dofs]
        gamma = (ms.geometry.m_elem / dt)[:, None, None]
        # each element's range, at its nodes, then over the elements of
        # each DOF
        lo = _min_at(ms, np.broadcast_to(base.min(axis=1, keepdims=True),
                                         base.shape))
        hi = _max_at(ms, np.broadcast_to(base.max(axis=1, keepdims=True),
                                         base.shape))
        f = ref.f_anti
    if ref.boundary_bars is not None:
        dofs = ms.boundary_dofs
        lo[dofs] = np.minimum(lo[dofs], ref.boundary_bars)
        hi[dofs] = np.maximum(hi[dofs], ref.boundary_bars)
    f_star, stage.alpha = _limit(kind, f, gamma * (lo[ms.elem_dofs] - base),
                                 gamma * (hi[ms.elem_dofs] - base))
    if driver == "mcl":
        stage.u = u + dt * (ref.residual + _sum_at(ms, f_star)) / m_i
    else:
        stage.u = u_low + dt * _sum_at(ms, f_star) / m_i
    return stage


def _limit(kind: str, f, fmin, fmax):
    """(f*, per-element factors or None) of the scalar limiter ``kind`` on
    (E, 3, k) blocks with fmin <= 0 <= fmax, each component on its own.

    * ``scale``: f* = alpha f with alpha = min_i alpha_i, where alpha_i is
      fmax_i / f_i above the bounds, fmin_i / f_i below them and 1 within;
    * ``cs``: each f_i clipped into its bounds, then the larger of the
      positive and the negative part scaled down to the size of the other.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind == "scale":
            alpha_i = np.where(f > fmax, fmax / f,
                               np.where(f < fmin, fmin / f, 1.0))
            alpha = alpha_i.min(axis=1)                       # (E, 1)
            return alpha[:, None] * f, alpha[:, 0]
        clipped = np.minimum(np.maximum(f, fmin), fmax)
        pos = np.maximum(clipped, 0.0).sum(axis=1, keepdims=True)
        neg = -np.minimum(clipped, 0.0).sum(axis=1, keepdims=True)
        pos_factor = np.where(pos > neg, neg / pos, 1.0)
        neg_factor = np.where(neg > pos, pos / neg, 1.0)
    return np.where(clipped > 0, pos_factor, neg_factor) * clipped, None


def product_rule(ms: MeshSystem, f_rho_star, rho_bar_star, f_k, base_rho,
                 base_k, gamma, gaps, kind: str) -> tuple:
    """(f_k_star, phi_lo, phi_hi) of ``limiting.product_rule_cs`` with the
    same arguments, from the formulas of its docstring:

    * phibar = sum_i base_k_i / sum_i base_rho_i per element and component;
    * rs = phibar f_rho_star, scaled by the scaling limiter (R_S) so that
      base_k + rs / gamma stays within [lo_k, hi_k], whose ``gaps`` gamma
      (lo_k - base_k) and gamma (hi_k - base_k) are given (and not
      written);
    * phi_eL = (base_k + rs / gamma) / rho_bar_star, and [phi_lo, phi_hi]
      its range at each DOF;
    * f_k_star = rs + g*, with g* the limiter ``kind`` applied to f_k - rs
      against gamma rho_bar_star ([phi_lo, phi_hi] - phi_eL).
    """
    gam = gamma[..., None]
    rho = rho_bar_star[..., None]
    phibar = base_k.sum(axis=1, keepdims=True) \
        / base_rho.sum(axis=1, keepdims=True)[..., None]
    rs = phibar * f_rho_star[..., None]
    rs = _limit("scale", rs, *gaps)[0]
    phi = (base_k + rs / gam) / rho
    phi_lo, phi_hi = _min_at(ms, phi), _max_at(ms, phi)
    g_star = _limit(kind, f_k - rs, gam * rho * (phi_lo[ms.elem_dofs] - phi),
                    gam * rho * (phi_hi[ms.elem_dofs] - phi))[0]
    return rs + g_star, phi_lo, phi_hi


def sequential_limiter(ms: MeshSystem, f, base, gamma, lo, hi,
                       kind: str) -> np.ndarray:
    """The sequential system limiter's f* (E, 3, m) before the IDP fix:
    the density's contributions limited by ``kind`` so that base_rho +
    f_rho* / gamma stays within its bounds, then the products by
    ``product_rule`` around rho_bar_star = base_rho + f_rho* / gamma.
    gamma is (E, 1) or (E, 3); lo, hi are per DOF, (n_dofs, m)."""
    gam = gamma[..., None]
    gaps = gam * (lo[ms.elem_dofs] - base), gam * (hi[ms.elem_dofs] - base)
    f_rho = _limit(kind, f[..., :1], gaps[0][..., :1],
                   gaps[1][..., :1])[0][..., 0]
    rho_bar_star = base[..., 0] + f_rho / gamma
    f_k = product_rule(ms, f_rho, rho_bar_star, f[..., 1:], base[..., 0],
                       base[..., 1:], gamma,
                       (gaps[0][..., 1:], gaps[1][..., 1:]), kind)[0]
    return np.concatenate([f_rho[..., None], f_k], axis=-1)


def _sum_at(ms: MeshSystem, vals) -> np.ndarray:
    out = np.zeros((ms.n_dofs,) + vals.shape[2:])
    np.add.at(out, ms.elem_dofs, vals)
    return out


def _min_at(ms: MeshSystem, vals) -> np.ndarray:
    out = np.full((ms.n_dofs,) + vals.shape[2:], np.inf)
    np.minimum.at(out, ms.elem_dofs, vals)
    return out


def _max_at(ms: MeshSystem, vals) -> np.ndarray:
    out = np.full((ms.n_dofs,) + vals.shape[2:], -np.inf)
    np.maximum.at(out, ms.elem_dofs, vals)
    return out


def relative_error(got: np.ndarray, ref: np.ndarray) -> float:
    """max |got - ref| over max |ref|."""
    return float(np.abs(got - ref).max() / max(np.abs(ref).max(), 1e-300))
