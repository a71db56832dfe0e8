"""Auditing and diagnostics: invariant checks per step, product-rule
defects, error norms and the CSV trace.

Audits recompute everything from the state; they never read scheme internals,
so running them cannot perturb the solver trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import MeshSystem
from .models import TINY


class AuditError(Exception):
    pass


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
