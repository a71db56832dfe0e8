"""Auditing and diagnostics: invariant checks per step, the defects of a
limited stage, error norms and the CSV trace.

Audits recompute everything from the state, apart from ``alpha_mean``, which
reads the limiter factors the scheme kept (``scheme.record.alpha``); they
only read, so running them cannot perturb the solver trajectory.
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
    alpha_mean: float

    def csv_row(self) -> str:
        # Python floats format faster than numpy scalars, to the same text.
        vals = [self.t, self.dt, *self.comp_min.tolist(), *self.comp_max.tolist(),
                *self.totals.tolist(), self.bound_violation, self.alpha_mean]
        return ",".join(f"{v:.17g}" for v in vals)


def csv_header(m: int) -> str:
    cols = ["t", "dt"]
    cols += [f"min_u{k}" for k in range(m)]
    cols += [f"max_u{k}" for k in range(m)]
    cols += [f"total_u{k}" for k in range(m)]
    cols += ["bound_violation", "alpha_mean"]
    return ",".join(cols)


def lumped_totals(ms: MeshSystem, u: np.ndarray) -> np.ndarray:
    """sum_i m_i u_i per component, summed row by row (the order numpy takes
    for a C-ordered u) whatever the memory order of u."""
    return (ms.lumped_mass[:, None] * np.ascontiguousarray(u)).sum(axis=0)


def audit_step(ms: MeshSystem, model, u: np.ndarray, t: float, dt: float,
               alpha: Optional[np.ndarray] = None,
               bound_tol: float = 1e-10,
               conservation_ref: Optional[np.ndarray] = None,
               conservation_tol: float = 1e-10,
               check_admissibility: bool = True) -> StepReport:
    """Recompute all audited quantities from the state and optional context.

    The state is checked against the model's invariant set: the bound
    violation is how far the smallest of ``model.phi_values`` falls below
    zero (the global interval of a scalar model; density and internal
    energy density for Euler). With ``check_admissibility`` a violation
    above ``bound_tol`` raises ``AuditError``, naming the node;
    ``conservation_ref`` adds a check of the totals' drift relative to the
    lumped L1 norm of ``u`` (which a zero total does not void), raising as
    well. The report is the same for a C- and a Fortran-ordered ``u``:
    every reduction runs over its C-ordered form.
    """
    u = np.ascontiguousarray(u)
    if not np.all(np.isfinite(u)):
        raise AuditError(f"non-finite state at t = {t:g}")
    totals = lumped_totals(ms, u)

    phi = model.phi_values(u)
    worst = int(np.argmin(phi))
    worst_violation = max(0.0, -float(phi.flat[worst]))
    if check_admissibility and worst_violation > bound_tol:
        raise AuditError(f"bound violation {worst_violation:g} at node "
                         f"{worst // phi.shape[-1]}, t = {t:g}")
    if conservation_ref is not None:
        # only gates the check, so its order of summation does not matter
        scale = np.maximum(ms.lumped_mass @ np.abs(u), 1e-300)
        drift = np.abs(totals - conservation_ref) / scale
        if drift.max() > conservation_tol:
            k = int(np.argmax(drift))
            raise AuditError(
                f"conservation drift {drift[k]:g} in component {k}, t = {t:g}")

    alpha_mean = float(np.mean(alpha)) if alpha is not None else float("nan")
    return StepReport(t=t, dt=dt, comp_min=u.min(axis=0), comp_max=u.max(axis=0),
                      totals=totals, bound_violation=worst_violation,
                      alpha_mean=alpha_mean)


def stage_defects(record):
    """(zero-sum defect, bound defect) of a ``schemes.StageRecord``, each
    relative and 0 up to rounding: the largest element sum of f_star over
    max(|f_star|, 1); the largest distance of a candidate ``base + f_star /
    gamma`` outside its bounds over the largest |base| of its component.
    The bounds are [lo, hi]; for a sequential product rho phi, rho [phi_lo,
    phi_hi], taking in phi(base) over the DOF's elements where alpha < 1."""
    ms, f = record.ms, record.f_star
    zero_sum = np.abs(f.sum(axis=1)).max() / max(np.abs(f).max(), 1.0)
    base = record.base if record.base.ndim == 3 else ms.gather(record.base)
    cand = base + f / record.gamma[..., None]
    lo, hi = (ms.gather(b) for b in record.bounds)
    if record.phi_lo is not None:
        fixed = (record.alpha < 1.0)[:, None, None]
        phi_base = ms.scatter_min_max(base[..., 1:] / base[..., :1])
        for b, phi, kept, hull in zip((lo, hi), (record.phi_lo, record.phi_hi),
                                      phi_base, (np.minimum, np.maximum)):
            phi = ms.gather(phi)
            hull(phi, ms.gather(kept), out=phi, where=fixed)
            b[..., 1:] = cand[..., :1] * phi
    outside = np.maximum(np.maximum(lo - cand, cand - hi), 0.0)
    scale = np.maximum(np.abs(base).max(axis=(0, 1)), TINY)
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
