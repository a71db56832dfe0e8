"""Benchmark of idpfem: time to solution on 8192-element workloads.

Run from the root of the repository:

    python3 perfbench/run.py --workload advect-mcl --seed 0 --seconds 30 --trace 0

It imports the package from ``src/`` beside this directory and repeats the
user path, ``idpfem.runner.run(RunConfig)``, until ``--seconds`` are spent
(at least three times). Every run is checked: it raised nothing, its state is
finite, the advected Gaussian's L1 error is below the reference in
``workloads.py``, DMR density and pressure stay positive, and the final state
and ``diagnostics.csv`` are byte-identical across all runs.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json`` from
untraced runs. ``--trace 1`` alternates untraced and traced runs (see
``spans.py``) and reports the per-layer metrics. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it give the environment, each
run's check values and the spread of the timings. ``--smoke`` runs the same
workloads on a tiny mesh for the self-tests in ``selftest.py``.
"""

import os

# One BLAS/OpenMP thread, set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from typing import Optional  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STAGES = {"euler": 1, "ssp2": 2, "ssp3": 3}
MIN_RUNS = 3                # untraced runs, or untraced/traced pairs: 2
MAX_RUNS = 200
SETUP_REPEATS = 20          # stand-alone set-ups for setup_s


def import_program():
    """Import ``idpfem`` from this checkout's ``src/``, nowhere else."""
    init = SRC / "idpfem" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no idpfem sources at {init}")
    sys.path.insert(0, str(SRC))
    import idpfem
    if pathlib.Path(idpfem.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported idpfem from {idpfem.__file__}, "
                         f"not {init}")


@dataclass
class Record:
    """One ``runner.run`` call."""
    traced: bool
    error: Optional[str] = None
    setup_s: float = 0.0
    solve_s: float = 0.0
    steps: int = 0
    elements: int = 0
    checks: dict = field(default_factory=dict)
    digest: str = ""
    layers: dict = field(default_factory=dict)
    step_ms: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None


class Bench:
    def __init__(self, workload, seed: int, smoke: bool, out_dir: pathlib.Path):
        from idpfem import diagnostics, models, schemes, timestepping
        from idpfem.config import RunConfig

        self.workload = workload
        self.cfg = RunConfig(out=str(out_dir),
                             **workload.config(seed, smoke=smoke))
        self.smoke = smoke
        self.failures = (diagnostics.AuditError, timestepping.TimeSteppingError,
                         models.AdmissibilityError, schemes.CFLError)

    def check(self, result) -> tuple:
        """Check values of one result, and the problems found."""
        u = result.u
        checks, problems = {}, []
        if not np.all(np.isfinite(u)):
            problems.append("non-finite state")
        if self.workload.l1_reference is not None:
            ref = self.workload.l1_reference[1 if self.smoke else 0]
            checks["l1_error"] = float(result.norms["l1"][0])
            if not checks["l1_error"] <= ref:
                problems.append(f"l1_error {checks['l1_error']:.6e} above "
                                f"reference {ref:.6e}")
        if self.workload.euler:
            checks["rho_min"] = float(u[:, 0].min())
            checks["p_min"] = float(result.model.pressure(u).min())
            for key in ("rho_min", "p_min"):
                if not checks[key] > 0.0:
                    problems.append(f"{key} = {checks[key]:g} is not positive")
        return checks, problems

    def solve(self, traced: bool) -> Record:
        """One ``runner.run`` call, fully traced or with only its set-up
        timed."""
        from idpfem import runner

        rec = Record(traced=traced)
        tracer = spans.Tracer()
        install = spans.install_full if traced else spans.install_setup_timer
        install(tracer)
        try:
            result = tracer.call("runner.run", runner.run, self.cfg)
        except self.failures as exc:
            rec.error = f"{type(exc).__name__}: {exc}"
            return rec
        finally:
            tracer.restore()
        root = tracer.spans[0]
        setup = next(s for s in tracer.spans if s.name == "runner.setup")
        rec.setup_s = setup.end - setup.start
        rec.solve_s = (root.end - root.start) - rec.setup_s
        rec.steps = result.steps
        rec.elements = result.ms.n_elements
        rec.checks, problems = self.check(result)
        if problems:
            rec.error = "; ".join(problems)
        state = hashlib.sha256(result.u.tobytes()).hexdigest()
        csv = pathlib.Path(self.cfg.out, "diagnostics.csv").read_bytes()
        rec.digest = state[:16] + "/" + hashlib.sha256(csv).hexdigest()[:16]
        if traced:
            rec.layers = spans.layer_metrics(tracer)
            rec.step_ms = spans.step_times_ms(tracer)
        return rec

    def setup_times(self, n: int) -> list:
        from idpfem import runner

        out = []
        for _ in range(n):
            t0 = time.perf_counter()
            runner.setup(self.cfg)
            out.append(time.perf_counter() - t0)
        return out


def repeat(seconds: float, min_runs: int, one) -> list:
    """Call ``one()`` until ``seconds`` are spent, at least ``min_runs``
    times. A run is not started if the median run would overshoot."""
    start = time.perf_counter()
    out, durations = [], []
    while len(out) < MAX_RUNS:
        elapsed = time.perf_counter() - start
        if len(out) >= min_runs and elapsed + statistics.median(durations) > seconds:
            break
        t0 = time.perf_counter()
        out.append(one())
        durations.append(time.perf_counter() - t0)
    return out


def measure_untraced(bench: Bench, seconds: float):
    """Stand-alone set-ups, then runs for the rest of ``seconds``."""
    setups = bench.setup_times(SETUP_REPEATS)
    records = repeat(seconds - sum(setups), MIN_RUNS,
                     lambda: bench.solve(traced=False))
    return records, setups + [r.setup_s for r in records if r.ok]


def measure_traced(bench: Bench, seconds: float) -> list:
    """Alternate untraced and traced runs, for the tracing overhead."""
    def pair():
        return [bench.solve(traced=False), bench.solve(traced=True)]

    return [r for p in repeat(seconds, MIN_RUNS - 1, pair) for r in p]


def end_to_end(records: list, setups: list, stages: int) -> dict:
    ok = [r for r in records if r.ok]
    med = statistics.median
    return {
        "setup_s": (med(setups), "s"),
        "solve_s": (med(r.solve_s for r in ok), "s"),
        "ms_per_step": (med(1e3 * r.solve_s / r.steps for r in ok), "ms"),
        "elem_stage_updates_per_s": (
            med(r.elements * stages * r.steps / r.solve_s for r in ok), "1/s"),
        "steps": (med(r.steps for r in ok), "count"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(records: list, units: dict) -> dict:
    traced = [r for r in records if r.ok and r.traced]
    plain = [r for r in records if r.ok and not r.traced]
    values = spans.median_dicts([r.layers for r in traced])
    values.update(spans.step_percentiles(
        [ms for r in traced for ms in r.step_ms]))
    values["trace.overhead_frac"] = (
        statistics.median(r.solve_s for r in traced)
        / statistics.median(r.solve_s for r in plain) - 1.0)
    return {k: (values[k], units[k]) for k in units}


def git_commit() -> Optional[str]:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    src = hashlib.sha256()
    for path in sorted((SRC / "idpfem").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode())
        src.update(path.read_bytes())
    cpu = None
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        scipy = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy = None
    return {
        "git_commit": git_commit(),
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def verdict(records: list) -> dict:
    """Correct when no run failed and all runs gave the same bytes."""
    ok = [r for r in records if r.ok]
    digests = sorted({r.digest for r in ok})
    if len(digests) > 1:
        print(f"perfbench: outputs differ between runs: {digests}")
    failed = len(records) - len(ok)
    return {"correct": failed == 0 and len(digests) == 1,
            "attempted": len(records), "failed": failed}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny mesh and a few steps, for the self-tests")
    args = ap.parse_args(argv)

    spec = benchmark_spec()
    import_program()
    out_dir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    try:
        bench = Bench(WORKLOADS[args.workload], args.seed, args.smoke, out_dir)
        print(json.dumps({"env": environment(), "workload": args.workload,
                          "seed": args.seed, "config": bench.cfg.effective_text()
                          .strip().splitlines()}))
        if args.trace:
            records = measure_traced(bench, args.seconds)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            records, setups = measure_untraced(bench, args.seconds)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for r in records:
        print(json.dumps({"run": "traced" if r.traced else "untraced",
                          "error": r.error, "setup_s": r.setup_s,
                          "solve_s": r.solve_s, "steps": r.steps,
                          "digest": r.digest, **r.checks}))
    result = verdict(records)
    ok = [r for r in records if r.ok]
    metrics = {}
    # Needs a good untraced run, and with --trace 1 a good traced one too.
    if {r.traced for r in ok} == {False, bool(args.trace)}:
        values = (per_layer(records, units) if args.trace
                  else end_to_end(records, setups, STAGES[bench.cfg.rk]))
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    solves = [r.solve_s for r in ok if not r.traced]
    print(json.dumps({"solve_s_quartiles": quartiles(solves),
                      "solve_samples": len(solves),
                      "failed_frac": result["failed"] / result["attempted"]}))
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
