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


# Reductions over the three nodes of an element (axis 1 of an (E, 3) or
# (E, 3, k) block) are written out: numpy's reduce over a length-3 axis costs
# several times more. Both keep the node axis, with length 1.

def _sum3(a, out=None):
    s = np.add(a[:, :1], a[:, 1:2], out=out)
    s += a[:, 2:]
    return s


def _min3(a, out=None):
    m = np.minimum(a[:, :1], a[:, 1:2], out=out)
    return np.minimum(m, a[:, 2:], out=m)


def _one_per_element(shape):
    """The shape of one value per element and component: (E, 1, ...)."""
    return shape[:1] + (1,) + shape[2:]


# Every function below that takes ``ws`` writes its element-sized
# temporaries and its element-sized result into buffers of that
# ``Workspace`` (``mesh.scratch``); without one they are fresh arrays.
# Inputs are never written. A result that lives in ``ws`` is valid until
# the next limiting call with the same ``ws``.

def _node_factors(f, fmin, fmax, tmp=None, out=None):
    """Per-node factors alpha_i in [0, 1]: fmax / f where f exceeds fmax,
    fmin / f where it falls below fmin, 1 elsewhere, for fmin <= fmax.
    ``tmp`` (the shape of f) takes an intermediate and ``out`` the factors
    when given.

    Both ratios are formed everywhere, so no masked ufunc runs. Where f
    lies within its bounds one of them is at least 1 or one is NaN (a zero
    bound over f = 0); where f leaves them the larger one is the factor.
    The NaN-propagating maximum keeps the NaN, which ``fmin`` turns into 1.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        alpha_i = np.divide(fmax, f, out=out)
        below = np.divide(fmin, f, out=tmp)
    np.maximum(alpha_i, below, out=alpha_i)
    np.fmin(alpha_i, 1.0, out=alpha_i)
    return np.maximum(alpha_i, 0.0, out=alpha_i)


def scaling_limiter(f, fmin, fmax, ws=None, out=None):
    """Single per-element factor alpha = min_i alpha_i applied to all f_i.

    Returns (f_star, alpha_elem, alpha_nodes). Shapes: f, fmin, fmax (E, 3)
    or (E, 3, k), one factor per element and component. f_star goes into
    ``out`` (which may be ``f``) when given.
    """
    alpha_i = _node_factors(f, fmin, fmax, scratch(ws, "scale.tmp", f.shape),
                            scratch(ws, "scale.alpha_i", f.shape))
    alpha = _min3(alpha_i, scratch(ws, "scale.alpha",
                                   _one_per_element(f.shape)))
    if out is None:
        out = scratch(ws, "scale.f_star", f.shape)
    f_star = np.multiply(alpha, f, out=out)
    return f_star, alpha[:, 0], alpha_i


def clip_and_scale(f, fmin, fmax, ws=None, out=None):
    """Clip each f_i into its bounds, then rescale the positive or negative
    part to restore the zero sum. Returns f_star of the same shape, in
    ``out`` (which may be ``f``, ``fmin`` or ``fmax``) when given.

    The rescaling runs unmasked over the element block: each part is
    multiplied by a per-element factor, because ufuncs masked with a dense,
    scattered ``where=`` run several times slower than plain ones. With
    ``this`` and ``other`` the sizes of the two parts, a part's factor is
    ``min(other / max(this, TINY), 1)`` where it outweighs the other part
    and 1 elsewhere. That selection is a maximum with ``this <= other``
    taken as 0.0 or 1.0: the ratio alone is below 1 also where
    ``0 < this <= other < TINY``."""
    if out is None:
        out = scratch(ws, "cs.f_star", f.shape)
    # np.clip in two passes, which together cost about half of one np.clip
    ft = np.maximum(f, fmin, out=out)
    np.minimum(ft, fmax, out=ft)
    part = np.maximum(ft, 0.0, out=scratch(ws, "cs.part", f.shape))
    neg_part = np.minimum(ft, 0.0, out=ft)

    def buf(name):
        return scratch(ws, "cs." + name, _one_per_element(f.shape))

    pos = _sum3(part, buf("pos"))
    neg = _sum3(neg_part, buf("neg"))
    np.negative(neg, out=neg)                 # the size of the negative part
    q, kept = buf("q"), buf("kept")
    for side, this, other in ((part, pos, neg), (neg_part, neg, pos)):
        q = np.maximum(this, TINY, out=q)
        np.divide(other, q, out=q)
        np.minimum(q, 1.0, out=q)
        kept = np.less_equal(this, other, out=kept)
        side *= np.maximum(q, kept, out=q)
    neg_part += part
    return neg_part


def limit_scalar(kind: str, f, fmin, fmax, ws=None, out=None):
    """The scalar limiter ``kind`` ("scale" or "cs"): (f_star, the
    per-element factors (E,) or (E, k), or None for "cs")."""
    if kind == "scale":
        return scaling_limiter(f, fmin, fmax, ws, out)[:2]
    if kind == "cs":
        return clip_and_scale(f, fmin, fmax, ws, out), None
    raise ValueError(f"unknown scalar limiter {kind!r}")


def local_bounds(ms: MeshSystem, field: np.ndarray, elem_vals, mode: str,
                 extra_dofs=None, extra_vals=None, ws=None):
    """Per-DOF admissible range of one scalar quantity, or of every
    component at once.

    ``field`` (n_dofs,) or (n_dofs, m) is the per-DOF reference (u for MCL,
    the low-order predictor for FCT). Mode "barstate" takes the range of
    ``field`` and of the per-element-node candidates ``elem_vals`` (E, 3)
    or (E, 3, m), the bar states, at each DOF. Mode "stencil" takes the
    range of ``field`` over each DOF's nodal stencil, the DOFs it shares an
    element with, in one take through ``ms.stencil_table``
    (``MeshSystem.stencil_min_max``); it reads no ``elem_vals``, which may
    be None. ``extra_*`` injects boundary bar states, (B,) or (B, m).
    Returns fresh (lo, hi) shaped like ``field``, stored with the DOF index
    fastest. As with the scatters, a tie between -0.0 and +0.0 may keep
    either sign.
    """
    if mode == "barstate":
        lo, hi = ms.scatter_min_max(elem_vals, ws)
        np.minimum(field, lo, out=lo)
        np.maximum(field, hi, out=hi)
    elif mode == "stencil":
        # each DOF is in its own stencil, so the range holds field already
        lo, hi = ms.stencil_min_max(field, ws)
    else:
        raise ValueError(f"unknown bounds mode {mode!r}")
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
    per-DOF lo, hi (n_dofs,) or (n_dofs, k) and base (E, 3) or (E, 3, k);
    gamma broadcasts against base."""
    gaps = []
    for bound, name in ((lo, "gaps.fmin"), (hi, "gaps.fmax")):
        g = ms.gather(bound, out=scratch(ws, name, base.shape))
        g -= base
        g *= gamma
        gaps.append(g)
    return gaps


def limit_scalar_contributions(ms: MeshSystem, f, base, gamma, lo, hi,
                               kind: str, ws=None,
                               out=None) -> LimitResult:
    """Scalar-model limiting by the scalar limiter ``kind``: f, base are
    (E, 3), gamma (E, 3) or (E, 1); lo, hi per DOF. f_star goes into
    ``out`` when given, else into the buffer of the lower bound gap, which
    the limiter has used up."""
    fmin, fmax = _bound_gaps(ms, lo, hi, base, gamma, ws)
    f_star, alpha = limit_scalar(kind, f, fmin, fmax, ws,
                                 fmin if out is None else out)
    return LimitResult(f_star=f_star, alpha=alpha)


def product_rule_cs(ms: MeshSystem, f_rho_star, rho_bar_star, f_k, base_rho,
                    base_k, gamma, lo_k, hi_k, kind: str, ws=None,
                    out=None):
    """Sequential limiting of all product components rho*phi at once, given
    the limited density contributions ``f_rho_star``.

    One specific value per element and component, ``phibar = sum_i base_k_i
    / sum_i base_rho_i``, predicts ``phibar f_rho_star``, which sums to zero
    because ``f_rho_star`` does. R_S scales it (scaling keeps the zero sum)
    so that ``base_k + rs / gamma`` stays within ``lo_k``/``hi_k``. The
    remainder ``g = f_k - rs`` is limited by ``kind`` against the
    per-DOF range [phi_lo, phi_hi] of ``phi_eL = (base_k + rs / gamma) /
    rho_bar_star``; these bounds straddle zero, so ``f_k_star = rs +
    g_star`` sums to zero and keeps ``base_k + f_k_star / gamma`` within
    [rho_bar_star phi_lo, rho_bar_star phi_hi], with no repair step.

    f_k, base_k: (E, 3, m - 1); f_rho_star, rho_bar_star, base_rho: (E, 3);
    gamma: (E, 3) or (E, 1); lo_k, hi_k: (n_dofs, m - 1). ``rho_bar_star``
    must be positive (``limit_system_contributions`` checks it). Returns
    (f_k_star, phi_lo, phi_hi): f_k_star in ``out`` when given, and the
    per-DOF bounds (n_dofs, m - 1) on the specific values, stored with the
    DOF index fastest.
    """
    def buf(name, shape=f_k.shape):
        return scratch(ws, "product." + name, shape)

    gam, rho = gamma[..., None], rho_bar_star[..., None]
    # phibar (E, 1, m - 1); the density sums go where rs goes next
    per_element = _one_per_element(f_k.shape)
    phibar = _sum3(base_k, buf("phibar", per_element))
    phibar /= _sum3(base_rho, buf("rs", per_element[:2]))[..., None]
    rs = np.multiply(phibar, f_rho_star[..., None], out=buf("rs"))
    bmin, bmax = _bound_gaps(ms, lo_k, hi_k, base_k, gam, ws)
    np.minimum(bmin, 0.0, out=bmin)
    np.maximum(bmax, 0.0, out=bmax)
    # R_S: its per-element factor goes into the buffer of phibar (used up);
    # the buffers of g and phi_eL are free until they are written below
    phi = buf("phi_eL")
    rs *= _min3(_node_factors(rs, bmin, bmax, out, phi), phibar)

    g = np.subtract(f_k, rs, out=out)
    phi = np.divide(rs, gam, out=phi)
    phi += base_k
    phi /= rho                                # phi_eL
    phi_lo, phi_hi = ms.scatter_min_max(phi, ws)
    # g_min = gamma rho_bar_star (phi_lo - phi_eL) <= 0 and g_max >= 0, in the
    # gap buffers (used up); gamma rho_bar_star goes into the buffer of
    # phibar (used up)
    g_rho = np.multiply(gamma, rho_bar_star, out=buf(
        "phibar", rho_bar_star.shape))[..., None]
    for bound, gap in ((phi_lo, bmin), (phi_hi, bmax)):
        ms.gather(bound, out=gap)
        gap -= phi
        gap *= g_rho
    g_star = limit_scalar(kind, g, bmin, bmax, ws, out=g)[0]
    g_star += rs
    return g_star, phi_lo, phi_hi


def idp_fix(model, base, f_star, gamma, iters: int = 30, ws=None):
    """Largest per-element alpha in a bisection family keeping all candidate
    states base + alpha f_star / gamma admissible. base: (E, 3, m). The
    factors (E,) go into ``ws`` when given."""
    # the admissibility test's intermediates go into the buffer of the lower
    # bound gap, which the limiters before the fix have used up
    tmp = scratch(ws, "gaps.fmin", base.shape[:2] + (2,))
    if not np.all(model.admissible(base, 0.0, tmp)):
        raise AdmissibilityError("idp_fix called with inadmissible base states")
    cand = scratch(ws, "idp.cand", base.shape)
    gam = gamma[..., None]

    def ok(alpha=None):
        # base + alpha f_star / gamma, with f_star / gamma formed anew in
        # every pass instead of kept in a buffer of its own
        c = np.divide(f_star, gam, out=cand)
        if alpha is not None:
            c *= alpha[:, None, None]
        c += base
        adm = model.admissible(c, 0.0, tmp)
        return adm[:, 0] & adm[:, 1] & adm[:, 2]

    n_e = base.shape[0]
    alpha = scratch(ws, "idp.alpha", (n_e,))
    if alpha is None:
        alpha = np.empty(n_e)
    alpha.fill(1.0)
    search = ~ok()
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
                               bounds, kind: str, system: str,
                               ws=None) -> LimitResult:
    """System limiting (``system`` "sequential", by the scalar limiter
    ``kind``, or "synchronized", which does not read ``kind``) plus the IDP
    correction.

    f, base: (E, 3, m); gamma: (E, 3) or (E, 1); bounds: per-DOF (lo, hi),
    each (n_dofs, m).
    """
    lo, hi = bounds
    f_star = scratch(ws, "system.f_star", f.shape)
    if f_star is None:
        f_star = np.empty_like(f)
    if system == "sequential":
        f_rho_star = f_star[..., 0]
        limit_scalar_contributions(ms, f[..., 0], base[..., 0], gamma,
                                   lo[:, 0], hi[:, 0], kind, ws,
                                   out=f_rho_star)
        rho_bar_star = np.divide(f_rho_star, gamma, out=scratch(
            ws, "system.rho_bar_star", f_rho_star.shape))
        rho_bar_star = np.add(base[..., 0], rho_bar_star, out=rho_bar_star)
        if np.fmin.reduce(rho_bar_star, axis=None) <= 0:  # skips NaN
            raise AdmissibilityError(
                "nonpositive intermediate density in product rule")
        product_rule_cs(ms, f_rho_star, rho_bar_star, f[..., 1:],
                        base[..., 0], base[..., 1:], gamma, lo[:, 1:],
                        hi[:, 1:], kind, ws, out=f_star[..., 1:])
    elif system == "synchronized":
        # the smallest scaling factor of all components; f_star's buffer
        # takes an intermediate
        fmin, fmax = _bound_gaps(ms, lo, hi, base, gamma[..., None], ws)
        alpha = _min3(_node_factors(f, fmin, fmax, f_star, scratch(
            ws, "scale.alpha_i", f.shape)), scratch(
                ws, "scale.alpha", _one_per_element(f.shape)))
        alpha = np.min(alpha, axis=2, keepdims=True, out=scratch(
            ws, "system.alpha", alpha.shape[:2] + (1,)))
        f_star = np.multiply(alpha, f, out=f_star)
    else:
        raise ValueError(f"unknown system limiter {system!r}")

    alpha_phi = idp_fix(model, base, f_star, gamma, ws=ws)
    if alpha_phi.min() < 1.0:                 # some element was limited
        f_star *= alpha_phi[:, None, None]
    return LimitResult(f_star=f_star, alpha=alpha_phi)
