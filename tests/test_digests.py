"""The benchmark workloads still give their recorded bytes.

Each seed-0 workload of ``perfbench/workloads.py`` runs at full size through
``runner.run``, and the sha256 prefixes of its final state and of its
``diagnostics.csv`` must equal the ones ``perfbench/run.py`` reports. A
change that is meant to keep the output byte-identical is checked here; one
that moves bits on purpose records the new digests in CHANGES.md and here.
"""

import hashlib

import pytest

from conftest import perfbench_workloads
from idpfem.config import RunConfig
from idpfem.runner import run

DIGESTS = {
    "advect-mcl": "8132b5c723b57dea/087b188df8f98bf6",
    "advect-fct": "58d8e7a7b4b74c06/14b4ae7db9cd79f9",
    "dmr-mcl": "db9a27e3aa5041b8/f7b29a09376eaa98",
}
STEPS = {"advect-mcl": 77, "advect-fct": 77, "dmr-mcl": 21}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_digest(tmp_path, name):
    cfg = RunConfig(**perfbench_workloads().WORKLOADS[name].config(0))
    result = run(cfg, out_dir=tmp_path)
    state = hashlib.sha256(result.u.tobytes()).hexdigest()[:16]
    csv = hashlib.sha256((tmp_path / "diagnostics.csv").read_bytes())
    assert result.steps == STEPS[name]
    assert f"{state}/{csv.hexdigest()[:16]}" == DIGESTS[name]


# Short runs of the paths that no workload takes: the boundary terms of a
# linear flux (solid-body rotation), ``low``, Burgers (``mcl.cs``, ``fct.cs``
# and ``none``, antidiffusion without bar states), and the synchronized and
# the sequential ``.scale`` system limiters. Each row: (RunConfig keywords,
# steps, state/CSV digest).
PATH_PINS = {
    "rotation-slotted-mcl": (
        {"benchmark": "solid_body_rotation", "body": "slotted", "h": 1 / 16,
         "t_end": 0.05, "limiter": "mcl.cs"},
        63, "208675d1f6e58405/a6a92154a29011c3"),
    "rotation-slotted-fct": (
        {"benchmark": "solid_body_rotation", "body": "slotted", "h": 1 / 16,
         "t_end": 0.05, "limiter": "fct.cs"},
        63, "9a971e939f550869/78f4dd280c8b1fb5"),
    "rotation-low": (
        {"benchmark": "solid_body_rotation", "h": 1 / 16, "t_end": 0.05,
         "limiter": "low"},
        63, "497a3c0a5a0b0bbb/6ca6b77b9051a22c"),
    "burgers-mcl": (
        {"benchmark": "burgers_riemann", "h": 1 / 16, "t_end": 0.05,
         "limiter": "mcl.cs"},
        8, "6ce60e5d20a19e6a/316336ed404128b8"),
    "dmr-fct-synchronized": (
        {"benchmark": "dmr", "h": 1 / 8, "t_end": 0.005,
         "limiter": "fct.scale", "system_limiter": "synchronized"},
        13, "8052c49b4bd5649b/6143bd4f3c5fba17"),
    "burgers-none": (
        {"benchmark": "burgers_riemann", "h": 1 / 16, "t_end": 0.05,
         "limiter": "none"},
        8, "23ad14dbbe1b84ea/40fd7b1de9052ae4"),
    "burgers-fct": (
        {"benchmark": "burgers_riemann", "h": 1 / 16, "t_end": 0.05,
         "limiter": "fct.cs"},
        8, "8ef95ad2fcbfb044/39f0995842522bf8"),
    "dmr-mcl-scale": (
        {"benchmark": "dmr", "h": 1 / 8, "t_end": 0.005,
         "limiter": "mcl.scale"},
        13, "c70c2cbfffc38891/6b8798fe05e406e1"),
}


def _digest(cfg, out_dir):
    result = run(cfg, out_dir=out_dir)
    state = hashlib.sha256(result.u.tobytes()).hexdigest()[:16]
    csv = hashlib.sha256((out_dir / "diagnostics.csv").read_bytes())
    return result.steps, f"{state}/{csv.hexdigest()[:16]}"


@pytest.mark.parametrize("name", sorted(PATH_PINS))
def test_path_digest(tmp_path, name):
    kwargs, steps, digest = PATH_PINS[name]
    assert _digest(RunConfig(**kwargs), tmp_path) == (steps, digest)
