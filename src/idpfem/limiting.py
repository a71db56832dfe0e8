"""Element-based convex limiting of antidiffusive contributions.

All limiters enforce the two-sided nodal constraints together with the
per-element zero-sum condition. Array layouts: per-element-node values are
(E, 3) for scalars and (E, 3, m) for systems, stored with the element index
fastest, and one value per element is (E, 1, ...), as ``mesh.node_sum`` and
``mesh.node_min`` leave it; bounds live per DOF, gathered by ``ms.gather``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import MeshSystem, node_min, node_sum, scratch
from .models import TINY, AdmissibilityError


def _one_per_element(shape):
    """The shape of one value per element and component: (E, 1, ...)."""
    return shape[:1] + (1,) + shape[2:]


# Every function below that takes ``ws`` writes its element-sized
# temporaries and its element-sized result into buffers of that
# ``Workspace`` (``mesh.scratch``); without one they are fresh arrays.
# Inputs are not written, except the bound gaps a caller hands over,
# which are used up, and the contributions of the system limiter, which
# it limits in place. Temporaries borrow the buffers of the assembly's
# element blocks that are spent once ``f_anti`` is formed (``asm.r_rus``,
# ``asm.tmp``, ``asm.flux_loc``, ``asm.flux_bar`` and ``asm.ubar``; the
# table in ``schemes`` lists what each holds when), so no input may live
# in one of those. A result that lives in ``ws`` is valid until the next
# limiting call or assembly with the same ``ws``.

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

    Returns (f_star, alpha_elem). Shapes: f, fmin, fmax (E, 3) or (E, 3,
    k), one factor per element and component. f_star goes into ``out``
    (which may be ``f``) when given.
    """
    alpha_i = _node_factors(f, fmin, fmax, scratch(ws, "scale.tmp", f.shape),
                            scratch(ws, "scale.alpha_i", f.shape))
    alpha = node_min(alpha_i, scratch(ws, "scale.alpha",
                                      _one_per_element(f.shape)))
    if out is None:
        out = scratch(ws, "scale.f_star", f.shape)
    f_star = np.multiply(alpha, f, out=out)
    return f_star, alpha[:, 0]


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
    # the positive part goes into the buffer of the assembly's f(u_i) (used
    # up)
    part = np.maximum(ft, 0.0, out=scratch(ws, "asm.flux_loc", f.shape))
    neg_part = np.minimum(ft, 0.0, out=ft)

    def buf(name):
        return scratch(ws, "cs." + name, _one_per_element(f.shape))

    pos = node_sum(part, buf("pos"))
    neg = node_sum(neg_part, buf("neg"))
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


def local_bounds(ms: MeshSystem, field: np.ndarray, elem_vals, mode: str,
                 bwork=None, ws=None):
    """Per-DOF admissible range of one scalar quantity, or of every
    component at once.

    ``field`` (n_dofs,) or (n_dofs, m) is the per-DOF reference (u for MCL,
    the low-order predictor for FCT). Mode "barstate" takes the range of
    ``field`` and of the per-element-node candidates ``elem_vals`` (E, 3)
    or (E, 3, m), the bar states, at each DOF. Mode "stencil" takes the
    range of ``field`` over each DOF's nodal stencil, the DOFs it shares an
    element with, in one take through ``ms.stencil_table``
    (``MeshSystem.stencil_min_max``); it reads no ``elem_vals``, which may
    be None. ``bwork`` (an ``assembly.BoundaryWork``, or None) widens the
    range at its ``dofs`` to its ``bar_states``, (B,) or (B, m).
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
    if bwork is not None:
        # boundary dofs are unique, so plain fancy indexing suffices
        lo[bwork.dofs] = np.minimum(lo[bwork.dofs], bwork.bar_states)
        hi[bwork.dofs] = np.maximum(hi[bwork.dofs], bwork.bar_states)
    return lo, hi


@dataclass
class LimitResult:
    f_star: np.ndarray            # (E, 3) or (E, 3, m)
    alpha: np.ndarray | None      # per-element factors where defined


def _bound_gaps(ms: MeshSystem, lo, hi, base, gamma, ws):
    """gamma (lo - base) and gamma (hi - base) at the element nodes, for
    per-DOF lo, hi (n_dofs,) or (n_dofs, k) and base (E, 3) or (E, 3, k);
    gamma broadcasts against base. The lower gap goes into the buffer of
    the Rusanov residual, scattered by then, and the upper one into that of
    the viscous term, read last by f_anti."""
    gaps = []
    for bound, name in ((lo, "asm.r_rus"), (hi, "asm.tmp")):
        g = ms.gather(bound, out=scratch(ws, name, base.shape))
        g -= base
        g *= gamma
        gaps.append(g)
    return gaps


def limit_scalar_contributions(ms: MeshSystem, f, base, gamma, lo, hi,
                               kind: str, ws=None, out=None,
                               gaps=None) -> LimitResult:
    """The one entry of scalar limiting, by the limiter ``kind`` ("scale"
    or "cs"): f, base are (E, 3), or (E, 3, k) blocks as the product rule
    passes them; gamma broadcasts against base; lo, hi are per DOF.
    ``gaps`` are the bound gaps gamma (lo - base) and gamma (hi - base),
    shaped like f, when the caller has formed them. f_star goes into
    ``out`` when given, else into the lower bound gap, which the limiter
    has used up; alpha is None for "cs"."""
    fmin, fmax = (_bound_gaps(ms, lo, hi, base, gamma, ws) if gaps is None
                  else gaps)
    out = fmin if out is None else out
    if kind == "scale":
        return LimitResult(*scaling_limiter(f, fmin, fmax, ws, out))
    if kind == "cs":
        return LimitResult(clip_and_scale(f, fmin, fmax, ws, out), None)
    raise ValueError(f"unknown scalar limiter {kind!r}")


def product_rule_cs(ms: MeshSystem, f_rho_star, rho_bar_star, f_k, base_rho,
                    base_k, gamma, lo_k, hi_k, kind: str, ws=None,
                    out=None, gaps=None):
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
    must be positive (``limit_system_contributions`` checks it), and the
    bounds must hold the base, ``lo_k <= base_k <= hi_k`` at every element
    node, as those of both drivers do. ``gaps`` are the bound gaps gamma
    (lo_k - base_k) and gamma (hi_k - base_k), (E, 3, m - 1) each, when the
    caller has formed them; they are used up. Returns
    (f_k_star, phi_lo, phi_hi): f_k_star in ``out`` when given, which may
    be ``f_k`` itself, and the per-DOF bounds (n_dofs, m - 1) on the
    specific values, stored with the DOF index fastest.
    """
    def buf(name, shape=f_k.shape):
        return scratch(ws, name, shape)

    gam, rho = gamma[..., None], rho_bar_star[..., None]
    # phibar (E, 1, m - 1); the density sums go where rs goes next, into
    # the buffer of the assembly's f(ubar) (used up)
    per_element = _one_per_element(f_k.shape)
    phibar = node_sum(base_k, buf("product.phibar", per_element))
    phibar /= node_sum(base_rho,
                       buf("asm.flux_bar", per_element[:2]))[..., None]
    rs = np.multiply(phibar, f_rho_star[..., None], out=buf("asm.flux_bar"))
    # bmin <= 0 <= bmax, because the bounds hold the base
    bmin, bmax = (_bound_gaps(ms, lo_k, hi_k, base_k, gam, ws)
                  if gaps is None else gaps)
    # R_S: its per-element factor goes into the buffer of phibar (used up),
    # its node factors into that of phi_eL, free until phi_eL is written
    # below, and their intermediate into bmin, which they use up. phi_eL
    # goes into the buffer of the assembly's f(u_i) (used up).
    phi = buf("asm.flux_loc")
    rs *= node_min(_node_factors(rs, bmin, bmax, bmin, phi), phibar)

    g = np.subtract(f_k, rs, out=out)
    phi = np.divide(rs, gam, out=phi)
    phi += base_k
    phi /= rho                                # phi_eL
    phi_lo, phi_hi = ms.scatter_min_max(phi, ws)
    # g_min = gamma rho_bar_star (phi_lo - phi_eL) <= 0 and g_max >= 0, in the
    # gap buffers (used up); gamma rho_bar_star goes into the buffer of
    # phibar (used up)
    g_rho = np.multiply(gamma, rho_bar_star, out=buf(
        "product.phibar", rho_bar_star.shape))[..., None]
    g_star = limit_scalar_contributions(ms, g, phi, g_rho, phi_lo, phi_hi,
                                        kind, ws, out=g).f_star
    g_star += rs
    return g_star, phi_lo, phi_hi


def idp_fix(model, base, f_star, gamma, iters: int = 30, ws=None):
    """Largest per-element alpha in a bisection family keeping all candidate
    states base + alpha f_star / gamma admissible. base: (E, 3, m). The
    factors (E,) go into ``ws`` when given."""
    # the admissibility test's intermediates go into the buffer of the
    # Rusanov residual and the candidate states into that of the viscous
    # term, where the bound gaps were, which the limiters before the fix
    # have used up
    tmp = scratch(ws, "asm.r_rus", base.shape[:2] + (2,))
    if not np.all(model.admissible(base, 0.0, tmp)):
        raise AdmissibilityError("idp_fix called with inadmissible base states")
    cand = scratch(ws, "asm.tmp", base.shape)
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
    each (n_dofs, m). ``f`` is limited in place: the result's ``f_star``
    is ``f``, which a stage hands over to be used up. The bound gaps of all
    components are formed in one pass; the sequential limiter takes the
    density's, then the products'.
    """
    lo, hi = bounds
    fmin, fmax = _bound_gaps(ms, lo, hi, base, gamma[..., None], ws)
    if system == "sequential":
        f_rho_star = limit_scalar_contributions(
            ms, f[..., 0], base[..., 0], gamma, lo[:, 0], hi[:, 0], kind, ws,
            out=f[..., 0], gaps=(fmin[..., 0], fmax[..., 0])).f_star
        # in the buffer of ubar (used up)
        rho_bar_star = np.divide(f_rho_star, gamma, out=scratch(
            ws, "asm.ubar", f_rho_star.shape))
        rho_bar_star = np.add(base[..., 0], rho_bar_star, out=rho_bar_star)
        if np.fmin.reduce(rho_bar_star, axis=None) <= 0:  # skips NaN
            raise AdmissibilityError(
                "nonpositive intermediate density in product rule")
        product_rule_cs(ms, f_rho_star, rho_bar_star, f[..., 1:],
                        base[..., 0], base[..., 1:], gamma, lo[:, 1:],
                        hi[:, 1:], kind, ws, out=f[..., 1:],
                        gaps=(fmin[..., 1:], fmax[..., 1:]))
    elif system == "synchronized":
        # the smallest scaling factor of all components; the node factors'
        # intermediate goes into fmin, which they use up
        alpha = node_min(_node_factors(f, fmin, fmax, fmin, scratch(
            ws, "scale.alpha_i", f.shape)), scratch(
                ws, "scale.alpha", _one_per_element(f.shape)))
        alpha = np.min(alpha, axis=2, keepdims=True, out=scratch(
            ws, "system.alpha", alpha.shape[:2] + (1,)))
        np.multiply(alpha, f, out=f)
    else:
        raise ValueError(f"unknown system limiter {system!r}")

    alpha_phi = idp_fix(model, base, f, gamma, ws=ws)
    if alpha_phi.min() < 1.0:                 # some element was limited
        f *= alpha_phi[:, None, None]
    return LimitResult(f_star=f, alpha=alpha_phi)
