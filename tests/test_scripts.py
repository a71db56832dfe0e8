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
        for metric in ("ms_per_step", "setup_ms", "cpu_ms_per_step"):
            assert summary[f"{side}_{metric}_median"] > 0.0
            assert len(summary[f"{side}_{metric}_quartiles"]) == 3
        # a warm run may make no page fault
        assert summary[f"{side}_minor_faults_median"] >= 0
        assert len(summary[f"{side}_minor_faults_quartiles"]) == 3
        assert summary[f"{side}_traced_peak_mb"] > 0.0
    for prefix in ("", "setup_", "cpu_"):
        assert summary[f"{prefix}median_ratio"] > 0.0
    assert isinstance(summary["faults_median_difference"], (int, float))
    for prefix in ("", "setup_", "cpu_", "faults_"):
        assert summary[f"{prefix}change_wins"] in ("0/2", "1/2", "2/2")
    # each pair line ends with both sides' set-up times, CPU times and
    # minor faults
    for line in lines[:-1]:
        setup = line.split("setup")[1].split()
        assert setup[1] == "/" and setup[3] == "ms"
        assert float(setup[0]) > 0.0 and float(setup[2]) > 0.0
        cpu = line.split(" cpu ")[1].split()
        assert cpu[1] == "/" and cpu[3] == "ms"
        assert float(cpu[0]) > 0.0 and float(cpu[2]) > 0.0
        faults = line.split(" faults ")[1].split()
        assert len(faults) == 3 and faults[1] == "/"
        assert int(faults[0]) >= 0 and int(faults[2]) >= 0
