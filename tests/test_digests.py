"""The benchmark workloads still give their recorded bytes.

Each seed-0 workload of ``perfbench/workloads.py`` runs at full size through
``runner.run``, and the sha256 prefixes of its final state and of its
``diagnostics.csv`` must equal the ones ``perfbench/run.py`` reports. A
change that is meant to keep the output byte-identical is checked here; one
that moves bits on purpose records the new digests in CHANGES.md and here.
"""

import hashlib
import importlib.util
import pathlib
import sys

import pytest

from idpfem.config import RunConfig
from idpfem.runner import run

ROOT = pathlib.Path(__file__).resolve().parents[1]

DIGESTS = {
    "advect-mcl": "d923bdf37fa10ff6/73748a7ff1f65d19",
    "advect-fct": "58d8e7a7b4b74c06/14b4ae7db9cd79f9",
    "dmr-mcl": "31cb5ac2e74aa03d/f7b29a09376eaa98",
}
STEPS = {"advect-mcl": 77, "advect-fct": 77, "dmr-mcl": 21}


def _workloads():
    """``perfbench/workloads.py``, imported by path and left unchanged."""
    name = "perfbench_workloads"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            name, ROOT / "perfbench" / "workloads.py")
        # registered first: its dataclass looks the module up by name
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name].WORKLOADS


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_workload_digest(tmp_path, name):
    cfg = RunConfig(**_workloads()[name].config(0))
    result = run(cfg, out_dir=tmp_path)
    state = hashlib.sha256(result.u.tobytes()).hexdigest()[:16]
    csv = hashlib.sha256((tmp_path / "diagnostics.csv").read_bytes())
    assert result.steps == STEPS[name]
    assert f"{state}/{csv.hexdigest()[:16]}" == DIGESTS[name]
