import numpy as np
import pytest

import idpfem.limiting as limiting_mod
import idpfem.runner as runner_mod
import idpfem.vtk_io as vtk_mod
from idpfem.cli import CHECK_CASES, main
from idpfem.config import RunConfig
from idpfem.diagnostics import AuditError
from idpfem.mesh import build_system, read_mesh, structured_rect
from idpfem.models import AdmissibilityError, Euler
from idpfem.runner import run
from idpfem.timestepping import TimeControls
from idpfem.vtk_io import read_vtk_point_data, vtk_bytes, vtk_grid, write_vtk

from conftest import single_triangle_system


CONSTANT_CFG = """\
benchmark = constant
h = 1/8
limiter = mcl.cs
t_end = 0.2
"""


# A snapshot in the ASCII layout that earlier versions wrote.
ASCII_SNAPSHOT = """\
# vtk DataFile Version 3.0
idpfem state
ASCII
DATASET UNSTRUCTURED_GRID
POINTS 3 double
0 0 0
1 0 0
0 1 0
CELLS 1 4
3 0 1 2
CELL_TYPES 1
5
POINT_DATA 3
SCALARS u double 1
LOOKUP_TABLE default
0.1
0.2
0.3
"""

EULER_NAMES = ["rho", "mom_x", "mom_y", "E", "pressure", "vel_x", "vel_y"]


def binary_block(data, header, dtype, count):
    """The ``count`` values of ``dtype`` that follow the line ``header``;
    the block must end with a newline."""
    start = data.index(header + b"\n") + len(header) + 1
    values = np.frombuffer(data, dtype, count, start)
    assert data[start + values.nbytes:start + values.nbytes + 1] == b"\n"
    return values


class TestVtk:
    def test_single_triangle_format(self):
        ms = single_triangle_system([[0, 0], [1, 0], [0, 1]])
        data = vtk_bytes(ms, np.array([[0.1], [0.2], [0.3]]))
        assert data.startswith(b"# vtk DataFile Version 3.0\nidpfem state\n"
                               b"BINARY\nDATASET UNSTRUCTURED_GRID\n"
                               b"POINTS 3 double\n")
        assert b"\nCELLS 1 4\n" in data
        assert b"\nCELL_TYPES 1\n" in data
        assert b"\nPOINT_DATA 3\nSCALARS u double 1\nLOOKUP_TABLE default\n" \
            in data
        u = binary_block(data, b"LOOKUP_TABLE default", ">f8", 3)
        assert np.array_equal(u, [0.1, 0.2, 0.3])
        assert data.endswith(u.tobytes() + b"\n")

    def test_grid_blocks_decode(self):
        ms = build_system(structured_rect(3, 3))
        mesh = ms.mesh
        data = vtk_bytes(ms, np.zeros((ms.n_dofs, 1)))
        n, n_el = mesh.n_nodes, mesh.n_elements
        cells = binary_block(data, b"CELLS %d %d" % (n_el, 4 * n_el), ">i4",
                             4 * n_el).reshape(n_el, 4)
        assert np.array_equal(cells[:, 0], np.full(n_el, 3))
        assert np.array_equal(cells[:, 1:], mesh.triangles)
        types = binary_block(data, b"CELL_TYPES %d" % n_el, ">i4", n_el)
        assert np.array_equal(types, np.full(n_el, 5))
        points = binary_block(data, b"POINTS %d double" % n, ">f8",
                              3 * n).reshape(n, 3)
        assert np.array_equal(points[:, :2], mesh.nodes)
        assert np.array_equal(points[:, 2], np.zeros(n))

    def test_euler_fields_present(self, tmp_path, rng):
        """All seven Euler fields, in order, round-trip bit for bit."""
        ms = build_system(structured_rect(3, 3))
        model = Euler()
        u = model.conserved(rng.uniform(0.5, 2.0, ms.n_dofs),
                            rng.uniform(-1.0, 1.0, (ms.n_dofs, 2)),
                            rng.uniform(0.5, 2.0, ms.n_dofs))
        path = tmp_path / "s.vtk"
        write_vtk(path, ms, u, model)
        data = path.read_bytes()
        offsets = [data.index(f"SCALARS {name} double 1\n".encode())
                   for name in EULER_NAMES]
        assert offsets == sorted(offsets)
        points, fields = read_vtk_point_data(path)
        assert list(fields) == EULER_NAMES
        nodal = u[ms.dof_of_node]
        _, v, p, _ = model.primitives(nodal)
        expected = [*nodal.T, p, v[:, 0], v[:, 1]]
        for name, want in zip(EULER_NAMES, expected):
            assert np.array_equal(fields[name], want), name
        assert np.array_equal(points, ms.mesh.nodes)

    def test_byte_stable(self, rng):
        ms = build_system(structured_rect(3, 3))
        u = rng.uniform(size=(ms.n_dofs, 1))
        assert vtk_bytes(ms, u) == vtk_bytes(ms, u.copy())

    def test_kept_grid_changes_no_byte(self, rng):
        ms = build_system(structured_rect(3, 3))
        model = Euler()
        u = model.conserved(rng.uniform(0.5, 2.0, ms.n_dofs),
                            rng.uniform(-1.0, 1.0, (ms.n_dofs, 2)),
                            rng.uniform(0.5, 2.0, ms.n_dofs))
        grid = vtk_grid(ms)
        data = vtk_bytes(ms, u, model, grid)
        assert data == vtk_bytes(ms, u, model)
        assert data.startswith(grid) and grid.endswith(b"POINT_DATA 16\n")

    def test_run_forms_the_grid_once(self, tmp_path, monkeypatch):
        """Every snapshot of a run shares one ``vtk_grid`` and has the bytes
        of a snapshot rendered on its own."""
        calls = []
        original = vtk_mod.vtk_grid

        def counted(ms):
            calls.append(ms)
            return original(ms)

        monkeypatch.setattr(vtk_mod, "vtk_grid", counted)
        result = run(RunConfig(benchmark="dmr", h=1 / 8, t_end=0.004,
                               output_every_t=0.001), out_dir=tmp_path)
        snapshots = sorted(tmp_path.glob("state_*.vtk"))
        assert len(snapshots) >= 4 and len(calls) == 1
        assert snapshots[-1].read_bytes() == vtk_bytes(
            result.ms, result.u, result.model)

    def test_roundtrip_through_reader(self, tmp_path, rng):
        ms = build_system(structured_rect(3, 3))
        u = rng.uniform(size=(ms.n_dofs, 1))
        path = tmp_path / "s.vtk"
        write_vtk(path, ms, u)
        points, fields = read_vtk_point_data(path)
        assert np.array_equal(points, ms.mesh.nodes)
        assert np.array_equal(fields["u"], u[ms.dof_of_node, 0])

    def test_reader_rejects_ascii(self, tmp_path):
        path = tmp_path / "old.vtk"
        path.write_text(ASCII_SNAPSHOT)
        with pytest.raises(ValueError, match="ASCII"):
            read_vtk_point_data(path)


class TestRunner:
    def test_constant_benchmark_artifacts(self, tmp_path):
        cfg = RunConfig(benchmark="constant", h=1 / 8, t_end=0.2,
                        out=str(tmp_path / "out"))
        result = run(cfg)
        assert np.allclose(result.u, 1.0, atol=1e-12)
        out = tmp_path / "out"
        assert (out / "config.txt").exists()
        assert (out / "diagnostics.csv").exists()
        assert (out / "summary.txt").exists()
        assert (out / "state_000000.vtk").exists()
        rows = (out / "diagnostics.csv").read_text().splitlines()
        assert rows[0].startswith("t,dt,min_u0")
        assert len(rows) == result.steps + 2  # header + initial + per step
        for rep in result.reports:
            assert rep.bound_violation <= 1e-10

    def test_low_order_less_accurate_than_mcl(self, tmp_path):
        norms = {}
        for lim in ("low", "mcl.cs"):
            cfg = RunConfig(benchmark="solid_body_rotation", h=1 / 16,
                            t_end=0.25, limiter=lim, body="smooth",
                            out=str(tmp_path / lim))
            norms[lim] = run(cfg).norms["l1"][0]
        assert norms["mcl.cs"] < norms["low"]

    @pytest.mark.parametrize("audit_every", [1, 5])
    def test_inadmissible_state_checked_once_per_step(self, tmp_path,
                                                      monkeypatch,
                                                      audit_every):
        """A state made inadmissible after step 2 stops the run, on an
        audited step (audit_every = 1) and on an unaudited one; every step
        makes one admissibility pass."""
        calls, per_step = [], []
        original = runner_mod.integrate

        def integrate(scheme, u, controls, t=0.0, on_step=None):
            model = scheme.model
            check = model.admissible

            def counted(v, slack=0.0):
                calls.append(v.shape)
                return check(v, slack)

            model.admissible = counted

            def inject(v, t, dt, step):
                if step == 2:
                    v = v.copy()
                    v[0, 0] = model.u_max + 1.0
                before = len(calls)
                try:
                    on_step(v, t, dt, step)
                finally:
                    per_step.append(len(calls) - before)

            return original(scheme, u, controls, t, inject)

        monkeypatch.setattr(runner_mod, "integrate", integrate)
        cfg = RunConfig(benchmark="constant", h=1 / 8, t_end=0.2,
                        audit_every=audit_every, out=str(tmp_path / "out"))
        with pytest.raises(AuditError) as err:
            run(cfg)
        assert per_step == [1, 1]
        if audit_every != 1:
            assert "inadmissible state after step 2" in str(err.value)

    def test_output_cadence(self, tmp_path):
        cfg = RunConfig(benchmark="constant", h=1 / 8, t_end=0.2,
                        output_every_t=0.05, out=str(tmp_path / "out"))
        result = run(cfg)
        snaps = sorted((tmp_path / "out").glob("state_*.vtk"))
        # initial + 4 cadence snapshots; the last one, at t_end, is not
        # written a second time as the final snapshot
        assert len(snaps) == 5
        _, fields = read_vtk_point_data(snaps[-1])
        assert np.array_equal(fields["u"], result.u[result.ms.dof_of_node, 0])

    def test_final_snapshot_off_cadence(self, tmp_path):
        cfg = RunConfig(benchmark="advected_gaussian", h=1 / 8, t_end=0.2,
                        output_every_t=0.08, out=str(tmp_path / "out"))
        result = run(cfg)
        snaps = sorted((tmp_path / "out").glob("state_*.vtk"))
        # initial + cadence snapshots at 0.08 and 0.16 + final at 0.2
        assert len(snaps) == 4
        _, fields = read_vtk_point_data(snaps[-1])
        assert np.array_equal(fields["u"], result.u[result.ms.dof_of_node, 0])
        assert snaps[-1].read_bytes() != snaps[-2].read_bytes()


class TestCliCommands:
    def test_solve_exit_zero(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(CONSTANT_CFG)
        code = main(["solve", str(cfgfile), "--out", str(tmp_path / "o"),
                     "--quiet"])
        assert code == 0
        assert (tmp_path / "o" / "summary.txt").exists()

    def test_solve_bad_config_exit_one(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text("limiter = banana\n")
        assert main(["solve", str(cfgfile)]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("h = 1/0", "line 1: bad number '1/0' for h"),
        ("h = nan", "line 1: bad number 'nan' for h"),
        ("output_every_t = -0.01", "output_every_t must be >= 0")])
    def test_solve_bad_number_exit_one(self, tmp_path, capsys, line, message):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(line + "\n")
        out = tmp_path / "o"
        assert main(["solve", str(cfgfile), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: " + message)
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", "missing.cfg"], "No such file or directory: 'missing.cfg'"),
        (["solve", "mesh.cfg"], "No such file or directory: 'missing.msh'"),
        (["norms", "c.cfg", "missing.vtk", "--t", "0"],
         "No such file or directory: 'missing.vtk'"),
        (["mesh-gen", "--nx", "2", "--ny", "2", "--out", "nodir/x.msh"],
         "No such file or directory: 'nodir/x.msh'"),
        (["solve", "c.cfg", "--out", "c.cfg", "--quiet"],
         "File exists: 'c.cfg'"),
        (["solve", "."], "Is a directory: '.'")],
        ids=["missing-config", "missing-mesh", "missing-snapshot",
             "mesh-gen-missing-dir", "out-is-a-file", "config-is-a-dir"])
    def test_file_error_exit_one(self, tmp_path, monkeypatch, capsys, argv,
                                 message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.cfg").write_text(CONSTANT_CFG)
        (tmp_path / "mesh.cfg").write_text(CONSTANT_CFG
                                           + "mesh = missing.msh\n")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ")
        assert err.endswith(f"] {message}\n")

    def test_mesh_gen_and_reuse(self, tmp_path, capsys):
        meshfile = tmp_path / "m.mesh"
        code = main(["mesh-gen", "--nx", "4", "--ny", "4", "--periodic",
                     "--out", str(meshfile)])
        assert code == 0
        mesh = read_mesh(meshfile.read_text())
        assert mesh.n_elements == 32
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(f"benchmark = constant\nmesh = {meshfile}\n"
                           f"t_end = 0.1\nout = {tmp_path / 'o'}\n")
        assert main(["solve", str(cfgfile), "--quiet"]) == 0

    @pytest.mark.parametrize("extent", [["--x0", "0.5", "--x1", "0.5"],
                                        ["--y0", "1", "--y1", "1"]])
    def test_mesh_gen_rejects_zero_extent(self, tmp_path, capsys, extent):
        meshfile = tmp_path / "m.mesh"
        assert main(["mesh-gen", "--nx", "4", "--ny", "4", *extent,
                     "--out", str(meshfile)]) == 1
        assert capsys.readouterr().err.startswith(
            "error: structured_rect needs nx, ny >= 1 and nondegenerate")
        assert not meshfile.exists()

    def test_check_passes(self, capsys):
        assert main(["check", "--seed", "0", "--trials", "50"]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "FAIL" not in out
        assert "PASS  product rule keeps the element zero sum" in out
        assert "PASS  product rule respects its bounds" in out

    def test_check_reports_every_failing_case(self, monkeypatch, capsys):
        """An unclipped clip-and-scale limiter fails the audited runs that
        use it and the product-rule bounds, and the cases after a failure
        still run."""

        def unclipped(f, fmin, fmax, ws=None, out=None):
            if out is None:
                return f.copy()
            np.copyto(out, f)
            return out

        monkeypatch.setattr(limiting_mod, "clip_and_scale", unclipped)
        product_rule = limiting_mod.product_rule_cs
        assert main(["check"]) == 1
        assert limiting_mod.product_rule_cs is product_rule
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == len(CHECK_CASES) + 2
        assert "FAIL  advected_gaussian mcl.cs: AuditError: bound violation" \
            in captured.out
        assert "FAIL  dmr mcl.cs sequential: AdmissibilityError: " \
            in captured.out
        assert "FAIL  product rule respects its bounds: " in captured.out
        assert "PASS  product rule keeps the element zero sum" in lines
        assert [ln for ln in lines if ln.endswith(" low")] == [
            "PASS  advected_gaussian low",
            "PASS  solid_body_rotation slotted low",
            "PASS  burgers_riemann low", "PASS  dmr low"]
        failed = sum(ln.startswith("FAIL") for ln in lines)
        assert captured.err == f"{failed} check(s) failed\n"

    def test_check_reports_any_exception_and_goes_on(self, monkeypatch,
                                                     capsys):
        def run(cfg, out_dir=None, quiet=True):
            if cfg.limiter == "low":
                raise ValueError("broken scheme")

        monkeypatch.setattr(runner_mod, "run", run)
        assert main(["check", "--trials", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "PASS  advected_gaussian none",
            "FAIL  advected_gaussian low: ValueError: broken scheme",
            "PASS  advected_gaussian fct.scale"]
        assert captured.err == "1 check(s) failed\n"

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_check_rejects_fewer_than_one_trial(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--trials", trials])
        assert exc.value.code == 2
        assert "--trials must be at least 1" in capsys.readouterr().err

    def test_solve_admissibility_error_exit_one(self, tmp_path, monkeypatch,
                                                capsys):
        def inadmissible(*args, **kwargs):
            raise AdmissibilityError("nonpositive intermediate density")

        monkeypatch.setattr(runner_mod, "run", inadmissible)
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(CONSTANT_CFG)
        assert main(["solve", str(cfgfile), "--quiet"]) == 1
        assert capsys.readouterr().err == \
            "error: nonpositive intermediate density\n"

    def test_norms_subcommand(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(CONSTANT_CFG + f"out = {tmp_path / 'o'}\n")
        assert main(["solve", str(cfgfile), "--quiet"]) == 0
        snap = sorted((tmp_path / "o").glob("state_*.vtk"))[-1]
        code = main(["norms", str(cfgfile), str(snap), "--t", "0.2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "l1 = 0.000000e+00" in out

    def test_norms_rejects_ascii_snapshot(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(CONSTANT_CFG)
        snap = tmp_path / "old.vtk"
        snap.write_text(ASCII_SNAPSHOT)
        assert main(["norms", str(cfgfile), str(snap), "--t", "0.2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "BINARY" in err

    @pytest.mark.parametrize("body, message", [
        (b"", "no POINTS"),
        (b"POINT_DATA 3\nSCALARS u double 1\nLOOKUP_TABLE default\n",
         "LOOKUP_TABLE before POINTS or SCALARS"),
        (b"SCALARS\n", "malformed line 'SCALARS'"),
        (b"POINTS\n", "malformed line 'POINTS'"),
        (b"CELLS\n", "malformed line 'CELLS'"),
        (b"POINTS 3.5 double\n", "malformed line 'POINTS 3.5 double'"),
        (b"POINTS 3 double\n" + bytes(40),
         "data block after 'POINTS 3 double' is cut short")],
        ids=["header-only", "no-points", "bare-scalars", "bare-points",
             "bare-cells", "non-integer-count", "truncated-block"])
    def test_norms_rejects_malformed_binary_snapshot(self, tmp_path, capsys,
                                                     body, message):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(CONSTANT_CFG)
        snap = tmp_path / "bad.vtk"
        snap.write_bytes(vtk_mod.HEADER + body)
        assert main(["norms", str(cfgfile), str(snap), "--t", "0.2"]) == 1
        assert capsys.readouterr().err == f"error: {snap}: {message}\n"

    def test_norms_rejects_snapshot_of_another_model(self, tmp_path, capsys):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(CONSTANT_CFG + f"out = {tmp_path / 'o'}\n")
        assert main(["solve", str(cfgfile), "--quiet"]) == 0
        snap = sorted((tmp_path / "o").glob("state_*.vtk"))[-1]
        cfgfile.write_text(CONSTANT_CFG + "model = euler\n")
        assert main(["norms", str(cfgfile), str(snap), "--t", "0.2"]) == 1
        assert capsys.readouterr().err == \
            "error: snapshot has no field 'rho'\n"

    def test_audit_every_override(self, tmp_path):
        cfgfile = tmp_path / "c.txt"
        cfgfile.write_text(CONSTANT_CFG + f"out = {tmp_path / 'o'}\n")
        assert main(["solve", str(cfgfile), "--quiet",
                     "--audit-every", "0"]) == 0
        rows = (tmp_path / "o" / "diagnostics.csv").read_text().splitlines()
        assert len(rows) == 2  # header + initial audit only


class TestDeterminism:
    def test_identical_runs_byte_identical_outputs(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            cfg = RunConfig(benchmark="burgers_riemann", h=1 / 8, t_end=0.1,
                            limiter="fct.cs", out=str(tmp_path / name))
            run(cfg)
            csv = (tmp_path / name / "diagnostics.csv").read_bytes()
            vtk = sorted((tmp_path / name).glob("state_*.vtk"))[-1].read_bytes()
            texts.append((csv, vtk))
        assert texts[0] == texts[1]


def _check_scheme(case):
    """What a `check` case runs: its full configuration, with the `.cs`
    keys of the synchronized mode (which reads no scalar limiter kind)
    read as `.scale`."""
    cfg = RunConfig(**case)
    if cfg.system_limiter == "synchronized":
        cfg.limiter = cfg.limiter.replace(".cs", ".scale")
    return cfg.effective_text()


def test_no_two_check_cases_run_the_same_scheme():
    schemes = [_check_scheme(case) for case in CHECK_CASES]
    assert len(set(schemes)) == len(CHECK_CASES) == 23


@pytest.mark.parametrize("system", ["synchronized", "sequential"])
@pytest.mark.parametrize("driver", ["mcl", "fct"])
def test_only_the_synchronized_mode_ignores_the_limiter_kind(driver, system):
    states = []
    for kind in ("cs", "scale"):
        _, _, _, scheme, u0 = runner_mod.setup(RunConfig(
            benchmark="dmr", h=1 / 4, limiter=f"{driver}.{kind}",
            system_limiter=system))
        u, _, steps = runner_mod.integrate(
            scheme, u0, TimeControls(cfl=0.5, t_end=0.01))
        assert steps > 1
        states.append(u.tobytes())
    assert (states[0] == states[1]) == (system == "synchronized")
