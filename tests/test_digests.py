"""The benchmark workloads still give their recorded bytes.

Each seed-0 workload of ``perfbench/workloads.py`` runs at full size through
``runner.run``, and the sha256 prefixes of its final state and of its
``diagnostics.csv`` must equal the ones ``perfbench/run.py`` reports. A
change that is meant to keep the output byte-identical is checked here; one
that moves bits on purpose records the new digests in CHANGES.md and here.
The two halves are checked apart, so a change to the CSV alone (a column
added or dropped) fails only the CSV half.

The CSV halves last moved when the always-zero ``zerosum_defect`` column was
dropped; ``burgers-none``'s also moved because the audit now reports the
overshoot of the unlimited scheme in ``bound_violation``.
"""

import hashlib

import pytest

from conftest import perfbench_workloads
from idpfem.config import RunConfig
from idpfem.runner import run

DIGESTS = {
    "advect-mcl": "8132b5c723b57dea/f787523b81a574d1",
    "advect-fct": "58d8e7a7b4b74c06/f9b9549e1822f104",
    "dmr-mcl": "db9a27e3aa5041b8/19b90c8e869bdf8b",
}
STEPS = {"advect-mcl": 77, "advect-fct": 77, "dmr-mcl": 21}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_digest(tmp_path, name):
    cfg = RunConfig(**perfbench_workloads().WORKLOADS[name].config(0))
    _check_digest(cfg, tmp_path, STEPS[name], DIGESTS[name])


# Short runs of the paths that no workload takes: the boundary terms of a
# linear flux (solid-body rotation), ``low``, Burgers (``mcl.cs``, ``fct.cs``
# and ``none``, antidiffusion without bar states), and the synchronized and
# the sequential ``.scale`` system limiters, Euler ``fct.cs`` with its
# stencil bounds of all components, and ``mcl.cs`` synchronized. Each row:
# (RunConfig keywords, steps, state/CSV digest).
PATH_PINS = {
    "rotation-slotted-mcl": (
        {"benchmark": "solid_body_rotation", "body": "slotted", "h": 1 / 16,
         "t_end": 0.05, "limiter": "mcl.cs"},
        63, "208675d1f6e58405/1d6c34521b6e6b45"),
    "rotation-slotted-fct": (
        {"benchmark": "solid_body_rotation", "body": "slotted", "h": 1 / 16,
         "t_end": 0.05, "limiter": "fct.cs"},
        63, "9a971e939f550869/d56eb73687f98880"),
    "rotation-low": (
        {"benchmark": "solid_body_rotation", "h": 1 / 16, "t_end": 0.05,
         "limiter": "low"},
        63, "497a3c0a5a0b0bbb/3163024831c72043"),
    "burgers-mcl": (
        {"benchmark": "burgers_riemann", "h": 1 / 16, "t_end": 0.05,
         "limiter": "mcl.cs"},
        8, "6ce60e5d20a19e6a/e56d1f12b207454f"),
    "dmr-fct-synchronized": (
        {"benchmark": "dmr", "h": 1 / 8, "t_end": 0.005,
         "limiter": "fct.scale", "system_limiter": "synchronized"},
        13, "8052c49b4bd5649b/455f0ee6e3dba2bd"),
    "burgers-none": (
        {"benchmark": "burgers_riemann", "h": 1 / 16, "t_end": 0.05,
         "limiter": "none"},
        8, "23ad14dbbe1b84ea/028472026a531d59"),
    "burgers-fct": (
        {"benchmark": "burgers_riemann", "h": 1 / 16, "t_end": 0.05,
         "limiter": "fct.cs"},
        8, "8ef95ad2fcbfb044/5cc00b80e1afb02a"),
    "dmr-mcl-scale": (
        {"benchmark": "dmr", "h": 1 / 8, "t_end": 0.005,
         "limiter": "mcl.scale"},
        13, "c70c2cbfffc38891/efbb2673a281c60f"),
    "dmr-fct": (
        {"benchmark": "dmr", "h": 1 / 8, "t_end": 0.005,
         "limiter": "fct.cs"},
        13, "cd2e55d3b6624112/05e2657c84fe2542"),
    "dmr-mcl-synchronized": (
        {"benchmark": "dmr", "h": 1 / 8, "t_end": 0.005,
         "limiter": "mcl.cs", "system_limiter": "synchronized"},
        13, "743aaa9da401598d/cd7610b51b8b8fbb"),
}


def _check_digest(cfg, out_dir, steps, digest):
    """Run ``cfg`` and compare its steps, then its state and its CSV halves
    of ``digest``, each on its own."""
    result = run(cfg, out_dir=out_dir)
    state = hashlib.sha256(result.u.tobytes()).hexdigest()[:16]
    csv = hashlib.sha256((out_dir / "diagnostics.csv").read_bytes())
    want_state, want_csv = digest.split("/")
    assert result.steps == steps, "step count moved"
    assert state == want_state, "state half moved: the final state changed"
    assert csv.hexdigest()[:16] == want_csv, \
        "CSV half moved: diagnostics.csv changed"


@pytest.mark.parametrize("name", sorted(PATH_PINS))
def test_path_digest(tmp_path, name):
    kwargs, steps, digest = PATH_PINS[name]
    _check_digest(RunConfig(**kwargs), tmp_path, steps, digest)
