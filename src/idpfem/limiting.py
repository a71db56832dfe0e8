"""Element-based convex limiting of antidiffusive contributions.

All limiters enforce the two-sided nodal constraints together with the
per-element zero-sum condition. Array layouts: per-element-node values are
(E, 3) for scalars and (E, 3, m) for systems, stored with the element index
fastest; bounds live per DOF and are gathered with ``ms.gather``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshSystem
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


def scaling_limiter(f, fmin, fmax):
    """Single per-element factor alpha = min_i alpha_i applied to all f_i.

    Returns (f_star, alpha_elem, alpha_nodes). Shapes: f, fmin, fmax (..., 3).
    """
    denom = np.where(np.abs(f) > TINY, f, np.inf)
    over = f > fmax
    under = f < fmin
    alpha_i = np.where(over, fmax / denom, np.where(under, fmin / denom, 1.0))
    alpha_i = np.clip(alpha_i, 0.0, 1.0)
    alpha = _min3(alpha_i)[..., 0]
    return alpha[..., None] * f, alpha, alpha_i


def clip_and_scale(f, fmin, fmax):
    """Clip each f_i into its bounds, then rescale the positive or negative
    part to restore the zero sum. Returns f_star of the same shape."""
    ft = np.clip(f, fmin, fmax)
    pos = _sum3(np.maximum(ft, 0.0))
    neg = _sum3(np.minimum(ft, 0.0))
    s = pos + neg
    pos_scale = -neg / np.maximum(pos, TINY)
    neg_scale = pos / np.maximum(-neg, TINY)
    out = np.where((s > 0) & (ft > 0), pos_scale * ft,
                   np.where((s < 0) & (ft < 0), neg_scale * ft, ft))
    return out


def limit_scalar(kind: str, f, fmin, fmax):
    if kind == "scale":
        return scaling_limiter(f, fmin, fmax)[0]
    if kind == "cs":
        return clip_and_scale(f, fmin, fmax)
    raise ValueError(f"unknown scalar limiter {kind!r}")


def local_bounds(ms: MeshSystem, field: np.ndarray, elem_vals: np.ndarray,
                 mode: str, extra_dofs=None, extra_vals=None):
    """Per-DOF admissible range for one scalar quantity.

    ``field`` is the per-DOF reference (u for MCL, the low-order predictor for
    FCT); ``elem_vals`` holds per-element-node candidates (bar states for mode
    "barstate"; ignored for "stencil", which uses the nodal stencil of
    ``field``). ``extra_*`` injects boundary bar states.
    """
    if mode == "barstate":
        cand_lo = cand_hi = elem_vals
    elif mode == "stencil":
        f_loc = ms.gather(field)
        cand_lo = np.broadcast_to(_min3(f_loc), f_loc.shape)
        cand_hi = np.broadcast_to(_max3(f_loc), f_loc.shape)
    else:
        raise ValueError(f"unknown bounds mode {mode!r}")
    lo = np.minimum(field, ms.scatter_min(cand_lo))
    hi = np.maximum(field, ms.scatter_max(cand_hi))
    if extra_dofs is not None and len(extra_dofs):
        # boundary dofs are unique, so plain fancy indexing suffices
        lo[extra_dofs] = np.minimum(lo[extra_dofs], extra_vals)
        hi[extra_dofs] = np.maximum(hi[extra_dofs], extra_vals)
    return lo, hi


@dataclass
class LimitResult:
    f_star: np.ndarray            # (E, 3) or (E, 3, m)
    alpha: np.ndarray | None      # per-element factors where defined


def limit_scalar_contributions(ms: MeshSystem, f, base, gamma, lo, hi,
                               cfg: LimiterConfig) -> LimitResult:
    """Scalar-model limiting: f, base, gamma are (E, 3); lo, hi per DOF."""
    lo_g = ms.gather(lo)
    hi_g = ms.gather(hi)
    fmin = gamma * (lo_g - base)
    fmax = gamma * (hi_g - base)
    if cfg.kind == "scale":
        f_star, alpha, _ = scaling_limiter(f, fmin, fmax)
        return LimitResult(f_star=f_star, alpha=alpha)
    return LimitResult(f_star=clip_and_scale(f, fmin, fmax), alpha=None)


def _repair_zero_sum(fk, safe, v_lo, v_hi, gamma, base_k):
    """Restore the per-element zero sum after the product-rule step.

    ``safe`` is a bounds-satisfying (not zero-sum) fallback vector; ``v_lo``
    and ``v_hi`` bound the candidate states base_k + fk / gamma. Mean
    subtraction enforces the zero sum exactly; if that pushes a node out of
    bounds, shrink toward ``safe`` and re-center. Any residual bound defect
    is at most the subtracted mean.
    """
    fk = fk - _sum3(fk) / 3.0
    # Where the bounds collapse, tol is subnormal; adding it once here
    # instead of in every pass keeps the slow subnormal arithmetic out of
    # the loop.
    tol = 1e-13 * (_max3(np.abs(v_hi - v_lo)) + TINY)
    hi_t = v_hi + tol
    lo_t = v_lo - tol
    v0 = base_k + safe / gamma
    for _ in range(2):
        val = base_k + fk / gamma
        bad = (val > hi_t) | (val < lo_t)
        if not bad.any():
            break
        diff = (fk - safe) / gamma
        dd = np.where(np.abs(diff) > TINY, diff, np.inf)
        theta_hi = np.where(diff > 0, (v_hi - v0) / dd, np.inf)
        theta_lo = np.where(diff < 0, (v_lo - v0) / dd, np.inf)
        theta = np.clip(_min3(np.minimum(theta_hi, theta_lo)), 0.0, 1.0)
        fk = safe + theta * (fk - safe)
        fk = fk - _sum3(fk) / 3.0
    return fk


def product_rule_cs(ms: MeshSystem, f_rho_star, rho_bar_star, f_k, base_rho,
                    base_k, gamma, lo_k, hi_k, cfg: LimiterConfig):
    """Limit one product component rho*phi given the limited density.

    Returns the final contributions f_k_star (E, 3) with zero element sums.
    ``lo_k``/``hi_k`` are per-DOF bounds on the conserved component, used by
    the clipping form of the scaling operator R_S.
    """
    if np.any(rho_bar_star <= 0):
        raise AdmissibilityError("nonpositive intermediate density in product rule")
    phibar = base_k / base_rho
    delta = phibar * f_rho_star

    lo_g = ms.gather(lo_k)
    hi_g = ms.gather(hi_k)
    bk_min = gamma * (lo_g - base_k)
    bk_max = gamma * (hi_g - base_k)
    if cfg.rs_operator == "clip":
        rs = np.clip(delta, np.minimum(bk_min, 0.0), np.maximum(bk_max, 0.0))
    elif cfg.rs_operator == "scale":
        rs = scaling_limiter(delta, np.minimum(bk_min, 0.0),
                             np.maximum(bk_max, 0.0))[0]
    else:
        raise ValueError(f"unknown rs_operator {cfg.rs_operator!r}")

    g = f_k - rs
    phi_eL = (base_k + rs / gamma) / rho_bar_star

    phi_lo_g = ms.gather(ms.scatter_min(phi_eL))
    phi_hi_g = ms.gather(ms.scatter_max(phi_eL))

    v_lo = rho_bar_star * phi_lo_g
    v_hi = rho_bar_star * phi_hi_g
    g_min = gamma * rho_bar_star * (phi_lo_g - phi_eL)
    g_max = gamma * rho_bar_star * (phi_hi_g - phi_eL)
    g_star = limit_scalar(cfg.kind, g, g_min, g_max)

    fk = rs + g_star
    return _repair_zero_sum(fk, rs, v_lo, v_hi, gamma, base_k)


def idp_fix(model, base, f_star, gamma, iters: int = 30):
    """Largest per-element alpha in a bisection family keeping all candidate
    states base + alpha f_star / gamma admissible. base: (E, 3, m)."""
    if not np.all(model.admissible(base, 0.0)):
        raise AdmissibilityError("idp_fix called with inadmissible base states")
    corr = f_star / gamma[..., None]

    def ok(alpha):
        cand = base + alpha[:, None, None] * corr
        adm = model.admissible(cand, 0.0)
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
        lo = np.where(search & good_mid, mid, lo)
        hi = np.where(search & ~good_mid, mid, hi)
    alpha[search] = lo[search]
    return alpha


def limit_system_contributions(ms: MeshSystem, model, f, base, gamma,
                               bounds_per_comp, cfg: LimiterConfig) -> LimitResult:
    """System limiting (sequential or synchronized) plus the IDP correction.

    f, base: (E, 3, m); gamma: (E, 3); bounds_per_comp: list of per-DOF
    (lo, hi) for each conserved component.
    """
    m = f.shape[-1]
    f_star = np.empty_like(f)
    if cfg.system == "sequential":
        lo0, hi0 = bounds_per_comp[0]
        res0 = limit_scalar_contributions(ms, f[..., 0], base[..., 0], gamma,
                                          lo0, hi0, cfg)
        f_star[..., 0] = res0.f_star
        rho_bar_star = base[..., 0] + f_star[..., 0] / gamma
        for k in range(1, m):
            lo_k, hi_k = bounds_per_comp[k]
            f_star[..., k] = product_rule_cs(
                ms, f_star[..., 0], rho_bar_star, f[..., k],
                base[..., 0], base[..., k], gamma, lo_k, hi_k, cfg)
    elif cfg.system == "synchronized":
        alpha = np.ones(f.shape[0])
        for k in range(m):
            lo_k, hi_k = bounds_per_comp[k]
            lo_g = ms.gather(lo_k)
            hi_g = ms.gather(hi_k)
            fmin = gamma * (lo_g - base[..., k])
            fmax = gamma * (hi_g - base[..., k])
            _, a_k, _ = scaling_limiter(f[..., k], fmin, fmax)
            alpha = np.minimum(alpha, a_k)
        f_star = alpha[:, None, None] * f
    else:
        raise ValueError(f"unknown system limiter {cfg.system!r}")

    alpha_phi = idp_fix(model, base, f_star, gamma)
    f_star *= alpha_phi[:, None, None]
    return LimitResult(f_star=f_star, alpha=alpha_phi)
