"""Smoke tests of the experiment scripts on tiny inputs."""

import importlib.util
import json
import math
import pathlib

import pytest

from idpfem.schemes import SCHEME_KEYS
from idpfem.vtk_io import read_vtk_point_data

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def table_rows(out):
    """Output lines after the title and the column header."""
    return out.splitlines()[2:]


def test_convergence_study(capsys):
    main = load_script("convergence_study").main
    assert main(["--levels", "3", "4", "--t-end", "0.05"]) == 0
    rows = table_rows(capsys.readouterr().out)
    assert len(rows) == 4 * 2          # default schemes x levels
    for row in rows:
        assert math.isfinite(float(row.split()[2]))


def test_scheme_comparison(capsys):
    main = load_script("scheme_comparison").main
    assert main(["--h", "1/8", "--t-end", "0.05"]) == 0
    rows = table_rows(capsys.readouterr().out)
    assert [row.split()[0] for row in rows] == list(SCHEME_KEYS)
    for row in rows:
        assert all(math.isfinite(float(v)) for v in row.split()[1:])


def test_run_dmr(tmp_path, capsys):
    main = load_script("run_dmr").main
    out = tmp_path / "dmr"
    assert main(["--h", "1/4", "--t-end", "0.003", "--out", str(out)]) == 0
    assert "finished at t = 0.0030" in capsys.readouterr().out
    snapshots = sorted(out.glob("state_*.vtk"))
    assert len(snapshots) >= 2
    _, fields = read_vtk_point_data(snapshots[-1])
    assert fields["rho"].min() > 0.0
    assert fields["pressure"].min() > 0.0


def test_run_dmr_rejects_an_unknown_limiter(tmp_path, capsys):
    main = load_script("run_dmr").main
    out = tmp_path / "dmr"
    with pytest.raises(SystemExit) as exc:
        main(["--limiter", "mcl.banana", "--out", str(out)])
    assert exc.value.code == 2                 # argparse's usage error
    assert "invalid choice: 'mcl.banana'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("workload", ["advect-mcl", "advect-fct", "dmr-mcl"])
def test_ab_run_of_one_checkout_against_itself(capsys, workload):
    main = load_script("ab_run").main
    assert main(["--parent", str(ROOT), "--change", str(ROOT), "--workload",
                 workload, "--smoke", "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[:2] for ln in lines[:-1]] == [["pair", "1"],
                                                     ["pair", "2"]]
    summary = json.loads(lines[-1])
    assert summary["workload"] == workload and summary["pairs"] == 2
    assert summary["states_equal"] is True
    for side in ("parent", "change"):
        assert summary[f"{side}_ms_per_step_median"] > 0.0
        assert len(summary[f"{side}_ms_per_step_quartiles"]) == 3
    assert summary["median_ratio"] > 0.0
    assert summary["change_wins"] in ("0/2", "1/2", "2/2")
