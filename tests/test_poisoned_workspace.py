"""No stage reads a workspace buffer before writing it.

Every view ``mesh.scratch`` hands out is filled with NaN first, in each
module that takes buffers from a scheme's workspace. A stage that read
what a buffer held from an earlier use (a stale value, or one the code
assumed was still there) would then carry a NaN, or at least other bits,
into the state. A few SSP2 steps must give byte-identical states with and
without the poison.
"""

import numpy as np
import pytest

import idpfem.assembly as assembly_mod
import idpfem.limiting as limiting_mod
import idpfem.mesh as mesh_mod
import idpfem.schemes as schemes_mod
from idpfem.config import RunConfig
from idpfem.runner import setup
from idpfem.schemes import SCHEME_KEYS
from idpfem.timestepping import TimeSteppingError, ssp_rk_step

STEPS = 3

PROBLEMS = {
    "translation": dict(benchmark="advected_gaussian", velocity="translation",
                        vx=1.0, vy=0.5),
    "rotation": dict(benchmark="advected_gaussian", velocity="rotation"),
    "burgers": dict(benchmark="burgers_riemann"),
    "dmr-sequential": dict(benchmark="dmr", system_limiter="sequential"),
    "dmr-synchronized": dict(benchmark="dmr", system_limiter="synchronized"),
}


def _stage_outputs(problem, limiter):
    """The bytes of every stage's result over ``STEPS`` SSP2 steps at cfl
    0.5, and the message of the error that ended them early, if one did
    (the unlimited ``none`` does not keep the DMR states admissible)."""
    _, _, _, scheme, u = setup(RunConfig(h=1 / 16, limiter=limiter,
                                         rk="ssp2", **PROBLEMS[problem]))
    scheme_stage = scheme.stage_map()
    outputs = []

    def stage(u, t, dt):
        v = scheme_stage(u, t, dt)
        outputs.append(v.tobytes())
        return v

    t = 0.0
    try:
        for _ in range(STEPS):
            dt = 0.5 * scheme.dt_bound(u, t)
            u = ssp_rk_step("ssp2", stage, u, t, dt)
            t += dt
    except TimeSteppingError as err:
        outputs.append(str(err))
    return outputs


# the unlimited scheme's DMR states reach negative pressures
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("limiter", SCHEME_KEYS)
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_nan_filled_buffers_change_no_bit(monkeypatch, problem, limiter):
    clean = _stage_outputs(problem, limiter)
    finished = len(clean) == 2 * STEPS and isinstance(clean[-1], bytes)
    assert finished or (limiter == "none" and problem.startswith("dmr"))

    original = mesh_mod.scratch
    handed_out = []

    def poisoned(ws, name, shape):
        view = original(ws, name, shape)
        if view is not None:
            view.fill(np.nan)
            handed_out.append(name)
        return view

    for module in (mesh_mod, assembly_mod, limiting_mod, schemes_mod):
        monkeypatch.setattr(module, "scratch", poisoned)
    got = _stage_outputs(problem, limiter)
    assert handed_out
    assert got == clean
