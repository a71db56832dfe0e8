"""Element-based convex limiting of antidiffusive contributions.

All limiters enforce the two-sided nodal constraints together with the
per-element zero-sum condition. Array layouts: per-element-node values are
(E, 3) for scalars and (E, 3, m) for systems, stored with the element index
fastest; bounds live per DOF and are gathered with ``ms.gather``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshSystem, scratch
from .models import TINY, AdmissibilityError


@dataclass
class LimiterConfig:
    kind: str = "cs"              # "scale" | "cs": per-element scalar limiter
    system: str = "sequential"    # "sequential" | "synchronized"
    bounds: str = "auto"          # "auto" | "barstate" | "stencil"
    rs_operator: str = "clip"     # "clip" | "scale": R_S in the product rule

    def bounds_mode(self, driver: str) -> str:
        if self.bounds != "auto":
            return self.bounds
        return "barstate" if driver == "mcl" else "stencil"


# Reductions over the three nodes of an element (the last axis) are written
# out: numpy's reduce over a length-3 axis costs several times more.

def _sum3(a):
    return (a[..., 0] + a[..., 1] + a[..., 2])[..., None]


def _min3(a):
    return np.minimum(np.minimum(a[..., 0], a[..., 1]), a[..., 2])[..., None]


def _max3(a):
    return np.maximum(np.maximum(a[..., 0], a[..., 1]), a[..., 2])[..., None]


# Every function below that takes ``ws`` writes its element-sized
# temporaries and its element-sized result into buffers of that workspace
# dict (``mesh.scratch``); without one they are fresh arrays. Inputs are
# never written. A result that lives in ``ws`` is valid until the next
# limiting call with the same ``ws``.

def _guarded(x, out=None):
    """x where |x| > TINY, inf elsewhere, so that dividing by it gives 0."""
    den = np.abs(x, out=out)
    keep = den > TINY
    den.fill(np.inf)
    np.copyto(den, x, where=keep)
    return den


def scaling_limiter(f, fmin, fmax, ws=None):
    """Single per-element factor alpha = min_i alpha_i applied to all f_i.

    Returns (f_star, alpha_elem, alpha_nodes). Shapes: f, fmin, fmax (..., 3).
    """
    denom = _guarded(f, scratch(ws, "scale.denom", f.shape))
    # fmax / f where f exceeds fmax, else fmin / f where it falls below fmin
    alpha_i = scratch(ws, "scale.alpha_i", f.shape)
    alpha_i = np.empty(f.shape, order="F") if alpha_i is None else alpha_i
    alpha_i.fill(1.0)
    np.divide(fmin, denom, out=alpha_i, where=f < fmin)
    np.divide(fmax, denom, out=alpha_i, where=f > fmax)
    np.clip(alpha_i, 0.0, 1.0, out=alpha_i)
    alpha = _min3(alpha_i)[..., 0]
    f_star = np.multiply(alpha[..., None], f,
                         out=scratch(ws, "scale.f_star", f.shape))
    return f_star, alpha, alpha_i


def clip_and_scale(f, fmin, fmax, ws=None):
    """Clip each f_i into its bounds, then rescale the positive or negative
    part to restore the zero sum. Returns f_star of the same shape."""
    ft = np.clip(f, fmin, fmax, out=scratch(ws, "cs.f_star", f.shape))
    part = np.maximum(ft, 0.0, out=scratch(ws, "cs.part", f.shape))
    pos = _sum3(part)
    neg = _sum3(np.minimum(ft, 0.0, out=part))
    s = pos + neg
    pos_scale = -neg / np.maximum(pos, TINY)
    neg_scale = pos / np.maximum(-neg, TINY)
    up = (s > 0) & (ft > 0)
    down = (s < 0) & (ft < 0)
    np.multiply(pos_scale, ft, out=ft, where=up)
    np.multiply(neg_scale, ft, out=ft, where=down)
    return ft


def limit_scalar(kind: str, f, fmin, fmax, ws=None):
    if kind == "scale":
        return scaling_limiter(f, fmin, fmax, ws)[0]
    if kind == "cs":
        return clip_and_scale(f, fmin, fmax, ws)
    raise ValueError(f"unknown scalar limiter {kind!r}")


def local_bounds(ms: MeshSystem, field: np.ndarray, elem_vals: np.ndarray,
                 mode: str, extra_dofs=None, extra_vals=None, ws=None):
    """Per-DOF admissible range of one scalar quantity, or of every
    component at once.

    ``field`` (n_dofs,) or (n_dofs, m) is the per-DOF reference (u for MCL,
    the low-order predictor for FCT); ``elem_vals`` (E, 3) or (E, 3, m)
    holds per-element-node candidates (bar states for mode "barstate";
    ignored for "stencil", which uses the nodal stencil of ``field``).
    ``extra_*`` injects boundary bar states, (B,) or (B, m). Returns fresh
    (lo, hi) shaped like ``field``.
    """
    if mode == "barstate":
        cand_lo = cand_hi = elem_vals
    elif mode == "stencil":
        f_loc = ms.gather(field, out=scratch(
            ws, "bounds.f_loc", ms.elem_dofs.shape + field.shape[1:]))
        # the element's min and max at each of its nodes
        first, second, third = f_loc[:, :1], f_loc[:, 1:2], f_loc[:, 2:]
        cand_lo = np.broadcast_to(np.minimum(
            np.minimum(first, second), third,
            out=scratch(ws, "bounds.lo", f_loc.shape)), f_loc.shape)
        cand_hi = np.broadcast_to(np.maximum(
            np.maximum(first, second), third,
            out=scratch(ws, "bounds.hi", f_loc.shape)), f_loc.shape)
    else:
        raise ValueError(f"unknown bounds mode {mode!r}")
    lo = ms.scatter_min(cand_lo, ws)
    hi = ms.scatter_max(cand_hi, ws)
    np.minimum(field, lo, out=lo)
    np.maximum(field, hi, out=hi)
    if extra_dofs is not None and len(extra_dofs):
        # boundary dofs are unique, so plain fancy indexing suffices
        lo[extra_dofs] = np.minimum(lo[extra_dofs], extra_vals)
        hi[extra_dofs] = np.maximum(hi[extra_dofs], extra_vals)
    return lo, hi


@dataclass
class LimitResult:
    f_star: np.ndarray            # (E, 3) or (E, 3, m)
    alpha: np.ndarray | None      # per-element factors where defined


def _bound_gaps(ms: MeshSystem, lo, hi, base, gamma, ws):
    """gamma (lo - base) and gamma (hi - base) at the element nodes, for
    per-DOF lo, hi and (E, 3) base, gamma."""
    gaps = []
    for bound, name in ((lo, "gaps.fmin"), (hi, "gaps.fmax")):
        g = ms.gather(bound, out=scratch(ws, name, base.shape))
        g -= base
        g *= gamma
        gaps.append(g)
    return gaps


def limit_scalar_contributions(ms: MeshSystem, f, base, gamma, lo, hi,
                               cfg: LimiterConfig, ws=None) -> LimitResult:
    """Scalar-model limiting: f, base, gamma are (E, 3); lo, hi per DOF."""
    fmin, fmax = _bound_gaps(ms, lo, hi, base, gamma, ws)
    if cfg.kind == "scale":
        f_star, alpha, _ = scaling_limiter(f, fmin, fmax, ws)
        return LimitResult(f_star=f_star, alpha=alpha)
    return LimitResult(f_star=clip_and_scale(f, fmin, fmax, ws), alpha=None)


def _repair_zero_sum(fk, safe, v_lo, v_hi, gamma, base_k, ws=None, out=None):
    """Restore the per-element zero sum after the product-rule step.

    ``safe`` is a bounds-satisfying (not zero-sum) fallback vector; ``v_lo``
    and ``v_hi`` bound the candidate states base_k + fk / gamma. Mean
    subtraction enforces the zero sum exactly; if that pushes a node out of
    bounds, shrink toward ``safe`` and re-center. Any residual bound defect
    is at most the subtracted mean. The result goes into ``out`` (which may
    be ``fk``) when given.
    """
    def buf(name):
        return scratch(ws, "repair." + name, fk.shape)

    fk = np.subtract(fk, _sum3(fk) / 3.0, out=out)
    # Where the bounds collapse, tol is subnormal; adding it once here
    # instead of in every pass keeps the slow subnormal arithmetic out of
    # the loop.
    width = np.subtract(v_hi, v_lo, out=buf("hi_t"))
    tol = 1e-13 * (_max3(np.abs(width, out=width)) + TINY)
    hi_t = np.add(v_hi, tol, out=width)
    lo_t = np.subtract(v_lo, tol, out=buf("lo_t"))
    v0 = np.divide(safe, gamma, out=buf("v0"))
    v0 = np.add(base_k, v0, out=v0)           # base_k + safe / gamma
    val = buf("val")
    for _ in range(2):
        val = np.divide(fk, gamma, out=val)
        val = np.add(base_k, val, out=val)    # base_k + fk / gamma
        bad = (val > hi_t) | (val < lo_t)
        if not bad.any():
            break
        diff = np.subtract(fk, safe, out=buf("diff"))
        diff /= gamma
        dd = _guarded(diff, out=val)
        # theta_hi where diff > 0 and theta_lo where diff < 0, inf elsewhere
        theta_hi = np.subtract(v_hi, v0, out=buf("theta_hi"))
        theta_hi /= dd
        np.copyto(theta_hi, np.inf, where=~(diff > 0))
        theta_lo = np.subtract(v_lo, v0, out=buf("theta_lo"))
        theta_lo /= dd
        np.copyto(theta_lo, np.inf, where=~(diff < 0))
        theta = np.clip(_min3(np.minimum(theta_hi, theta_lo, out=theta_hi)),
                        0.0, 1.0)
        step = np.subtract(fk, safe, out=theta_lo)
        step *= theta
        fk = np.add(safe, step, out=fk)       # safe + theta (fk - safe)
        fk -= _sum3(fk) / 3.0
    return fk


def product_rule_cs(ms: MeshSystem, f_rho_star, rho_bar_star, f_k, base_rho,
                    base_k, gamma, lo_k, hi_k, cfg: LimiterConfig, ws=None):
    """Limit one product component rho*phi given the limited density.

    Returns the final contributions f_k_star (E, 3) with zero element sums.
    ``lo_k``/``hi_k`` are per-DOF bounds on the conserved component, used by
    the clipping form of the scaling operator R_S. The intermediate density
    ``rho_bar_star`` must be positive (``limit_system_contributions`` checks
    it once for all components).
    """
    def buf(name):
        return scratch(ws, "product." + name, f_k.shape)

    delta = np.divide(base_k, base_rho, out=buf("rs"))
    delta *= f_rho_star                       # phibar * f_rho_star

    bk_min, bk_max = _bound_gaps(ms, lo_k, hi_k, base_k, gamma, ws)
    np.minimum(bk_min, 0.0, out=bk_min)
    np.maximum(bk_max, 0.0, out=bk_max)
    if cfg.rs_operator == "clip":
        rs = np.clip(delta, bk_min, bk_max, out=delta)
    elif cfg.rs_operator == "scale":
        rs = delta
        np.copyto(rs, scaling_limiter(delta, bk_min, bk_max, ws)[0])
    else:
        raise ValueError(f"unknown rs_operator {cfg.rs_operator!r}")

    g = np.subtract(f_k, rs, out=buf("g"))
    phi_eL = np.divide(rs, gamma, out=buf("phi_eL"))
    phi_eL = np.add(base_k, phi_eL, out=phi_eL)
    phi_eL /= rho_bar_star                    # (base_k + rs / gamma) / rho_bar_star

    # into the buffers of bk_min and bk_max, which are used up
    phi_lo_g = ms.gather(ms.scatter_min(phi_eL, ws), out=bk_min)
    phi_hi_g = ms.gather(ms.scatter_max(phi_eL, ws), out=bk_max)

    v_lo = np.multiply(rho_bar_star, phi_lo_g, out=buf("v_lo"))
    v_hi = np.multiply(rho_bar_star, phi_hi_g, out=buf("v_hi"))
    # g_min = gamma rho_bar_star (phi_lo_g - phi_eL), g_max likewise
    g_min = np.subtract(phi_lo_g, phi_eL, out=phi_lo_g)
    g_max = np.subtract(phi_hi_g, phi_eL, out=phi_hi_g)
    g_rho = np.multiply(gamma, rho_bar_star, out=phi_eL)
    g_min *= g_rho
    g_max *= g_rho
    g_star = limit_scalar(cfg.kind, g, g_min, g_max, ws)

    fk = np.add(rs, g_star, out=g)
    return _repair_zero_sum(fk, rs, v_lo, v_hi, gamma, base_k, ws, out=fk)


def idp_fix(model, base, f_star, gamma, iters: int = 30, ws=None):
    """Largest per-element alpha in a bisection family keeping all candidate
    states base + alpha f_star / gamma admissible. base: (E, 3, m)."""
    if not np.all(model.admissible(base, 0.0)):
        raise AdmissibilityError("idp_fix called with inadmissible base states")
    corr = np.divide(f_star, gamma[..., None],
                     out=scratch(ws, "idp.corr", f_star.shape))
    cand = scratch(ws, "idp.cand", base.shape)

    def ok(alpha):
        c = np.multiply(alpha[:, None, None], corr, out=cand)
        c = np.add(base, c, out=c)            # base + alpha corr
        adm = model.admissible(c, 0.0)
        return adm[:, 0] & adm[:, 1] & adm[:, 2]

    n_e = base.shape[0]
    alpha = np.ones(n_e)
    good = ok(alpha)
    search = ~good
    if not search.any():
        return alpha
    lo = np.zeros(n_e)
    hi = np.ones(n_e)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        good_mid = ok(mid)
        np.copyto(lo, mid, where=search & good_mid)
        np.copyto(hi, mid, where=search & ~good_mid)
    alpha[search] = lo[search]
    return alpha


def limit_system_contributions(ms: MeshSystem, model, f, base, gamma,
                               bounds_per_comp, cfg: LimiterConfig,
                               ws=None) -> LimitResult:
    """System limiting (sequential or synchronized) plus the IDP correction.

    f, base: (E, 3, m); gamma: (E, 3); bounds_per_comp: list of per-DOF
    (lo, hi) for each conserved component.
    """
    m = f.shape[-1]
    f_star = scratch(ws, "system.f_star", f.shape)
    if f_star is None:
        f_star = np.empty_like(f)
    if cfg.system == "sequential":
        lo0, hi0 = bounds_per_comp[0]
        res0 = limit_scalar_contributions(ms, f[..., 0], base[..., 0], gamma,
                                          lo0, hi0, cfg, ws)
        f_star[..., 0] = res0.f_star
        rho_bar_star = np.divide(f_star[..., 0], gamma, out=scratch(
            ws, "system.rho_bar_star", gamma.shape))
        rho_bar_star = np.add(base[..., 0], rho_bar_star, out=rho_bar_star)
        if np.any(rho_bar_star <= 0):
            raise AdmissibilityError(
                "nonpositive intermediate density in product rule")
        for k in range(1, m):
            lo_k, hi_k = bounds_per_comp[k]
            f_star[..., k] = product_rule_cs(
                ms, f_star[..., 0], rho_bar_star, f[..., k],
                base[..., 0], base[..., k], gamma, lo_k, hi_k, cfg, ws)
    elif cfg.system == "synchronized":
        alpha = np.ones(f.shape[0])
        for k in range(m):
            lo_k, hi_k = bounds_per_comp[k]
            fmin, fmax = _bound_gaps(ms, lo_k, hi_k, base[..., k], gamma, ws)
            _, a_k, _ = scaling_limiter(f[..., k], fmin, fmax, ws)
            alpha = np.minimum(alpha, a_k)
        f_star = np.multiply(alpha[:, None, None], f, out=f_star)
    else:
        raise ValueError(f"unknown system limiter {cfg.system!r}")

    alpha_phi = idp_fix(model, base, f_star, gamma, ws=ws)
    f_star *= alpha_phi[:, None, None]
    return LimitResult(f_star=f_star, alpha=alpha_phi)
