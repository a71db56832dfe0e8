"""SSP Runge-Kutta drivers with CFL-based adaptive step control.

Every stage is a convex combination of forward-Euler results, so per-stage
invariant-domain properties of the spatial operator carry over to the full
step. FCT schemes plug in their complete two-stage map as the stage map.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


class TimeSteppingError(Exception):
    pass


RK_SCHEMES = ("euler", "ssp2", "ssp3")


@dataclass
class TimeControls:
    cfl: float = 0.5
    t_end: float = 1.0
    scheme: str = "ssp2"          # one of RK_SCHEMES
    dt_max: Optional[float] = None

    def __post_init__(self):
        if not 0.0 < self.cfl <= 1.0:
            raise TimeSteppingError("cfl must lie in (0, 1]")
        if self.scheme not in RK_SCHEMES:
            raise TimeSteppingError(f"unknown rk scheme {self.scheme!r}")


def compute_dt(dt_idp: float, cfl: float, t: float, t_end: float,
               dt_max: Optional[float] = None) -> float:
    """Pick the step: cfl * (IDP bound), capped by dt_max and by t_end - t."""
    dt = cfl * dt_idp
    if dt_max is not None:
        dt = min(dt, dt_max)
    if not np.isfinite(dt):
        if dt_max is None:
            raise TimeSteppingError("zero wave speeds everywhere and no dt_max set")
        dt = dt_max
    dt = min(dt, t_end - t)
    if dt <= 0.0:
        raise TimeSteppingError(f"nonpositive time step {dt:g} at t = {t:g}")
    return dt


def ssp_rk_step(scheme: str, stage: Callable, u: np.ndarray, t: float,
                dt: float, on_stage: Optional[Callable] = None) -> np.ndarray:
    """Advance one step with the given forward-Euler stage map.

    ``stage(u, t, dt)`` performs one forward-Euler (sub)step; ``on_stage`` is
    called with each intermediate state (audit hook).
    """

    def run(uu, tt):
        out = stage(uu, tt, dt)
        if not np.all(np.isfinite(out)):
            raise TimeSteppingError(
                f"non-finite state after stage at t = {tt:g}, dt = {dt:g}")
        if on_stage is not None:
            on_stage(out)
        return out

    if scheme == "euler":
        return run(u, t)
    if scheme == "ssp2":
        u1 = run(u, t)
        u2 = run(u1, t + dt)
        return 0.5 * u + 0.5 * u2
    if scheme == "ssp3":
        u1 = run(u, t)
        u2 = 0.75 * u + 0.25 * run(u1, t + dt)
        u3 = u / 3.0 + (2.0 / 3.0) * run(u2, t + 0.5 * dt)
        return u3
    raise TimeSteppingError(f"unknown rk scheme {scheme!r}")
