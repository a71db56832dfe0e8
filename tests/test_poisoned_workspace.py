"""No stage reads a workspace buffer before writing it, and no stage
overwrites a buffer it still reads.

Every view ``mesh.scratch`` hands out is filled with NaN first, in each
module that takes buffers from a scheme's workspace. A stage that read
what a buffer held from an earlier use (a stale value, or one the code
assumed was still there) would then carry a NaN, or at least other bits,
into the state. A few SSP2 steps must give byte-identical states with and
without the poison.

The limiters keep their temporaries in the assembly's spent buffers (see
``schemes``). A temporary put in a buffer that still holds a live block
would change that block; without a workspace every block is a fresh
array, so the same steps must give the same bytes with ``ws = None``.
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
from idpfem.timestepping import ssp_rk_step

STEPS = 3

PROBLEMS = {
    "translation": dict(benchmark="advected_gaussian", velocity="translation",
                        vx=1.0, vy=0.5),
    "rotation": dict(benchmark="advected_gaussian", velocity="rotation"),
    "burgers": dict(benchmark="burgers_riemann"),
    "dmr-sequential": dict(benchmark="dmr", system_limiter="sequential"),
    "dmr-synchronized": dict(benchmark="dmr", system_limiter="synchronized"),
}


def _stage_outputs(problem, limiter, workspace=True):
    """The bytes of every stage's result over ``STEPS`` SSP2 steps at cfl
    0.5, and the name and message of the error that ended them early, if
    one did (the unlimited ``none`` does not keep the DMR states
    admissible). Without ``workspace`` the scheme runs with ``ws = None``,
    so every element block is a fresh array."""
    _, _, _, scheme, u = setup(RunConfig(h=1 / 16, limiter=limiter,
                                         rk="ssp2", **PROBLEMS[problem]))
    if not workspace:
        scheme.ws = None
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
    except Exception as err:
        outputs.append(f"{type(err).__name__}: {err}")
    return outputs


# the unlimited scheme's DMR states reach negative pressures
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("limiter", SCHEME_KEYS)
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_nan_filled_buffers_change_no_bit(monkeypatch, problem, limiter):
    clean = _stage_outputs(problem, limiter)
    finished = len(clean) == 2 * STEPS and isinstance(clean[-1], bytes)
    assert finished or (limiter == "none" and problem.startswith("dmr")
                        and clean[-1].startswith("TimeSteppingError: "))

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


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("limiter", SCHEME_KEYS)
@pytest.mark.parametrize("problem", sorted(PROBLEMS))
def test_workspace_changes_no_bit(problem, limiter):
    """Every stage gives the same bytes with the scheme's workspace as with
    fresh arrays; an error on one side only is a mismatch."""
    assert _stage_outputs(problem, limiter) == \
        _stage_outputs(problem, limiter, workspace=False)
