"""Self-tests of the benchmark, on a tiny mesh and a few steps per run.

Run from the root of the repository:

    python3 perfbench/selftest.py

It checks that every metric of ``BENCHMARK.json`` is printed with its unit,
traced and untraced, on every workload; that ``rationale.json`` covers every
workload and per-layer metric; that a traced run puts every wrapped attribute
back, also when the run fails; that a deliberately failing run is counted as
failed without stopping the benchmark; and that the benchmark refuses to run
without the program's sources. Exits 0 when all pass.
"""

import dataclasses
import importlib
import json
import pathlib
import pkgutil
import shutil
import subprocess
import sys

import run  # pins the thread count before numpy is imported
import spans
from workloads import WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
TIMEOUT_S = 180


def bench_cli(*args, cwd=run.ROOT):
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd, HERE.name, "run.py")), *args],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_metrics_printed(spec):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            proc = bench_cli("--workload", name, "--seed", "7", "--seconds",
                             "0.3", "--trace", str(trace), "--smoke")
            assert proc.returncode == 0, proc.stderr
            last = json.loads(proc.stdout.splitlines()[-1])
            assert set(last) == {"correct", "attempted", "failed", "metrics"}
            assert last["correct"] and last["failed"] == 0, last
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == want, (name, trace, set(got) ^ set(want))
            for k, v in last["metrics"].items():
                assert isinstance(v["value"], (int, float)), (k, v)


def check_rationale(spec):
    rationale = json.loads((HERE / "rationale.json").read_text())
    assert set(rationale["workloads"]) == set(WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert set(rationale["per_layer"]) == {m["name"] for m in spec["per_layer"]}
    assert set(rationale["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}


def attribute_snapshot():
    """Identity of every attribute of every idpfem module and class."""
    import idpfem

    for info in pkgutil.iter_modules(idpfem.__path__):
        importlib.import_module(f"idpfem.{info.name}")
    snap = {}
    for modname, mod in sorted(sys.modules.items()):
        if not modname.startswith("idpfem"):
            continue
        for attr, value in vars(mod).items():
            snap[(modname, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    snap[(modname, attr, cattr)] = id(cvalue)
    return snap


def check_restore(out_dir):
    from idpfem import schemes

    original = schemes.assemble
    before = attribute_snapshot()
    tracer = spans.Tracer()
    spans.install_full(tracer)
    assert schemes.assemble is not original, "install_full wrapped nothing"
    tracer.restore()
    after = attribute_snapshot()
    assert after == before, {k for k in before if after.get(k) != before[k]}

    for name, workload in WORKLOADS.items():
        bench = run.Bench(workload, 0, smoke=True, out_dir=out_dir)
        rec = bench.solve(traced=True)
        assert rec.ok and rec.layers, (name, rec.error)
        assert attribute_snapshot() == before, name
    bench.cfg = dataclasses.replace(bench.cfg, audit_bound_tol=-1.0)
    assert not bench.solve(traced=True).ok
    assert attribute_snapshot() == before, "not restored after a failed run"


def check_failure_counted(out_dir):
    bench = run.Bench(WORKLOADS["advect-mcl"], 0, smoke=True, out_dir=out_dir)
    good = bench.solve(traced=False)
    # A negative tolerance makes the first audit report a bound violation.
    bench.cfg = dataclasses.replace(bench.cfg, audit_bound_tol=-1.0)
    bad, _ = run.measure_untraced(bench, 0.1)
    assert all(r.error and r.error.startswith("AuditError") for r in bad), bad
    result = run.verdict([good] + bad)
    assert result == {"correct": False, "attempted": 1 + len(bad),
                      "failed": len(bad)}, result
    assert run.verdict([good])["correct"]


def check_refuses_without_sources(scratch):
    bare = scratch / "bare"
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_cli("--workload", "advect-mcl", "--seed", "0", "--seconds",
                     "1", "--trace", "0", cwd=bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    spec = run.benchmark_spec()
    run.import_program()
    scratch = run.ROOT / ".bench_run" / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        check_rationale(spec)
        check_metrics_printed(spec)
        check_restore(scratch / "out")
        check_failure_counted(scratch / "out")
        check_refuses_without_sources(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("perfbench selftest: all checks passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
