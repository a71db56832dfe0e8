"""The benchmark workloads and how a seed varies them.

All three use 8192 elements, ``rk = ssp2`` and ``cfl = 0.5``, so element-stage
updates per second compare across them. Why each was chosen, and what each
per-layer metric is predicted to move, is recorded in ``rationale.json``.

Seed 0 gives exactly the configurations below. Another seed changes only the
advection direction ``(vx, vy)`` of the ``advect-*`` workloads: it draws
``(1, b)`` or ``(b, 1)`` with ``b`` in ``[0, 1)``, possibly negated. The
structured mesh splits every cell along its (1, 1) diagonal, so the element
viscosity ``max_i |v . c_i|`` is ``h / 2`` for every member of that family:
the time step and the step count do not depend on the seed, only the
direction of travel and the answer do. ``dmr-mcl`` is a fixed problem and
ignores the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

# End time of the advected Gaussian: 77 steps of dt = 1/768. Chosen so that
# t_end / dt is not close to a whole number, which would make the length of
# the last step, and so the step count, hang on roundoff.
ADVECT_T_END = 0.1
# DMR end time: 21 steps; snapshots at ten evenly spaced times.
DMR_T_END = 0.002

# Smoke mode: the same configurations on a tiny mesh, a few steps each.
SMOKE = {"advect_h": 1 / 8, "advect_t_end": 0.05,
         "dmr_h": 1 / 4, "dmr_t_end": 0.003}


@dataclass(frozen=True)
class Workload:
    name: str
    limiter: str
    euler: bool
    # Largest accepted lumped L1 error at t_end, (full size, smoke). About
    # 1.2 times the largest error measured over the seed's direction family.
    l1_reference: Optional[tuple] = None

    def config(self, seed: int, smoke: bool = False) -> dict:
        """``RunConfig`` keywords for this workload and seed."""
        common = {"limiter": self.limiter, "rk": "ssp2", "cfl": 0.5}
        if self.euler:
            t_end = SMOKE["dmr_t_end"] if smoke else DMR_T_END
            # Like scripts/run_dmr.py, with the audit every 50 steps.
            return {**common, "benchmark": "dmr",
                    "h": SMOKE["dmr_h"] if smoke else 1 / 32,
                    "system_limiter": "sequential", "t_end": t_end,
                    "audit_every": 50, "output_every_t": t_end / 10}
        vx, vy = advect_velocity(seed)
        return {**common, "benchmark": "advected_gaussian",
                "h": SMOKE["advect_h"] if smoke else 1 / 64,
                "velocity": "translation", "vx": vx, "vy": vy,
                "t_end": SMOKE["advect_t_end"] if smoke else ADVECT_T_END,
                "audit_every": 1}


def advect_velocity(seed: int) -> tuple:
    if seed == 0:
        return 1.0, 1.0
    rng = random.Random(seed)
    b = rng.random()
    v = (1.0, b) if rng.random() < 0.5 else (b, 1.0)
    sign = 1.0 if rng.random() < 0.5 else -1.0
    return sign * v[0], sign * v[1]


WORKLOADS = {w.name: w for w in (
    Workload("advect-mcl", "mcl.cs", euler=False,
             l1_reference=(1.6e-4, 1.4e-2)),
    Workload("advect-fct", "fct.cs", euler=False,
             l1_reference=(1.5e-4, 1.7e-2)),
    Workload("dmr-mcl", "mcl.cs", euler=True),
)}
