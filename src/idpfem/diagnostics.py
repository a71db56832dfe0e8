"""Auditing and diagnostics: invariant checks per step, the residual split
and residual-distribution weights, product-rule defects, error norms and
the CSV trace.

Audits recompute everything from the state; they never read scheme internals,
so running them cannot perturb the solver trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .assembly import ElementWork, assemble
from .mesh import MeshSystem
from .models import TINY


class AuditError(Exception):
    pass


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

    No scheme reads the split, so all but f_anti is recomputed here; f_anti
    is that of a fresh ``assemble``, the contributions the limiters see.
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
class StepReport:
    t: float
    dt: float
    comp_min: np.ndarray
    comp_max: np.ndarray
    totals: np.ndarray            # sum_i m_i u_i per component
    bound_violation: float
    bound_node: int
    zerosum_defect: float
    zerosum_element: int
    admissible: bool
    alpha_mean: float
    alpha_min: float

    def csv_row(self) -> str:
        # Python floats format faster than numpy scalars, to the same text.
        vals = [self.t, self.dt, *self.comp_min.tolist(), *self.comp_max.tolist(),
                *self.totals.tolist(), self.bound_violation, self.zerosum_defect,
                self.alpha_mean]
        return ",".join(f"{v:.17g}" for v in vals)


def csv_header(m: int) -> str:
    cols = ["t", "dt"]
    cols += [f"min_u{k}" for k in range(m)]
    cols += [f"max_u{k}" for k in range(m)]
    cols += [f"total_u{k}" for k in range(m)]
    cols += ["bound_violation", "zerosum_defect", "alpha_mean"]
    return ",".join(cols)


def lumped_totals(ms: MeshSystem, u: np.ndarray) -> np.ndarray:
    """sum_i m_i u_i per component, summed row by row (the order numpy takes
    for a C-ordered u) whatever the memory order of u."""
    return (ms.lumped_mass[:, None] * np.ascontiguousarray(u)).sum(axis=0)


def audit_step(ms: MeshSystem, model, u: np.ndarray, t: float, dt: float,
               bounds: Optional[list] = None,
               f_star: Optional[np.ndarray] = None,
               alpha: Optional[np.ndarray] = None,
               bound_tol: float = 1e-10,
               conservation_ref: Optional[np.ndarray] = None,
               conservation_tol: float = 1e-10,
               raise_on_failure: bool = True,
               check_admissibility: bool = True) -> StepReport:
    """Recompute all audited quantities from the state and optional context.

    ``bounds`` is a per-component list of per-DOF (lo, hi) to check the state
    against; ``f_star`` (E, 3, m) is checked for the per-element zero sum;
    ``conservation_ref`` triggers a relative drift check of the totals.
    The report is the same for a C- and a Fortran-ordered ``u``: every
    reduction runs over its C-ordered form.
    """
    u = np.ascontiguousarray(u)
    if not np.all(np.isfinite(u)):
        raise AuditError(f"non-finite state at t = {t:g}")
    totals = lumped_totals(ms, u)

    worst_violation = 0.0
    worst_node = -1
    if bounds is not None:
        for k, (lo, hi) in enumerate(bounds):
            over = np.maximum(u[:, k] - hi, lo - u[:, k])
            node = int(np.argmax(over))
            if over[node] > worst_violation:
                worst_violation = float(over[node])
                worst_node = node

    worst_zerosum = 0.0
    worst_elem = -1
    if f_star is not None and f_star.size:
        defect = np.abs(f_star.sum(axis=1)).max(axis=-1)
        worst_elem = int(np.argmax(defect))
        worst_zerosum = float(defect[worst_elem])

    admissible = bool(np.all(model.admissible(u, bound_tol)))

    alpha_mean = float(np.mean(alpha)) if alpha is not None else float("nan")
    alpha_min = float(np.min(alpha)) if alpha is not None else float("nan")

    report = StepReport(t=t, dt=dt, comp_min=u.min(axis=0), comp_max=u.max(axis=0),
                        totals=totals, bound_violation=worst_violation,
                        bound_node=worst_node, zerosum_defect=worst_zerosum,
                        zerosum_element=worst_elem, admissible=admissible,
                        alpha_mean=alpha_mean, alpha_min=alpha_min)

    if raise_on_failure:
        if worst_violation > bound_tol:
            raise AuditError(
                f"bound violation {worst_violation:g} at node {worst_node}, t = {t:g}")
        if conservation_ref is not None:
            scale = np.maximum(np.abs(conservation_ref), 1e-300)
            drift = np.abs(totals - conservation_ref) / scale
            if drift.max() > conservation_tol:
                k = int(np.argmax(drift))
                raise AuditError(
                    f"conservation drift {drift[k]:g} in component {k}, t = {t:g}")
        if check_admissibility and not admissible:
            raise AuditError(f"inadmissible state at t = {t:g}")
    return report


def product_rule_defects(args, result):
    """(zero-sum defect, bound defect) of one ``limiting.product_rule_cs``
    call, from its positional arguments and its result, each relative: the
    largest element sum of f_k_star over max(|f_k|, 1), and the largest
    distance of ``base_k + f_k_star / gamma`` outside ``[rho_bar_star
    phi_lo, rho_bar_star phi_hi]`` over the largest ``|base_k|`` of its
    component. Both are 0 up to rounding."""
    ms, _, rho_bar_star, f_k, _, base_k, gamma = args[:7]
    f_k_star, phi_lo, phi_hi = result
    zero_sum = np.abs(f_k_star.sum(axis=1)).max() / max(np.abs(f_k).max(), 1.0)
    state = base_k + f_k_star / gamma[..., None]
    lo = rho_bar_star[..., None] * ms.gather(phi_lo)
    hi = rho_bar_star[..., None] * ms.gather(phi_hi)
    outside = np.maximum(np.maximum(lo - state, state - hi), 0.0)
    scale = np.maximum(np.abs(base_k).max(axis=(0, 1)), TINY)
    return zero_sum, (outside / scale).max()


def error_norms(ms: MeshSystem, u: np.ndarray,
                exact: Callable[[np.ndarray, float], np.ndarray],
                t: float) -> dict:
    """Lumped-mass L1/L2/Linf nodal error norms against an exact solution."""
    diff = np.abs(u - exact(ms.dof_coords, t))
    w = ms.lumped_mass[:, None]
    return {
        "l1": (w * diff).sum(axis=0),
        "l2": np.sqrt((w * diff ** 2).sum(axis=0)),
        "linf": diff.max(axis=0),
    }
