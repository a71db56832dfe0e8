"""In-process A/B timing of two checkouts of idpfem.

Loads ``src/idpfem`` of the ``--parent`` and of the ``--change`` checkout
as two distinct packages, ``idpfem_parent`` and ``idpfem_change``, in one
process, and runs the seed-0 configuration of one workload of
``perfbench/workloads.py`` (that of this repository) through each side's
``runner.run``. Each side first runs once unrecorded, which pays the
one-time costs of a first run. Then pair k runs the parent first for odd k
and the change first for even k, so drift of the machine falls on both
sides alike.

Usage, from the root of the repository:

    python3 scripts/ab_run.py --parent ../parent --change . \\
        --workload dmr-mcl --pairs 30

Prints one line per pair with each side's ms per step (the wall time of
the whole ``runner.run`` call, set-up and output included, over its
steps) and their ratio, each side's set-up time (its ``runner.setup``
call inside that run), its CPU ms per step (``time.process_time``) and
the minor page faults of its run (``resource.getrusage``). After the
pairs each side makes one more run under ``tracemalloc``. Then one JSON
line: per side the median and the quartiles of each of the four
measures and the traced peak in MB; the median of the per-pair
change/parent ratios of each time and of the per-pair change - parent
differences of the faults (a run may make none); the pairs the change
won on each; and whether the two sides' final states were byte-equal in
every pair. ``--smoke`` runs the workload's tiny-mesh configuration.
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import resource
import statistics
import sys
import tempfile
import time
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
# One BLAS/OpenMP thread, as in perfbench/run.py; set before numpy is first
# imported when run as a script.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SIDES = ("parent", "change")
# Each measure of a run, with the prefix of its comparison and wins keys
# in the summary; a count is compared by difference, a time by ratio.
METRICS = {"ms_per_step": "", "setup_ms": "setup_",
           "cpu_ms_per_step": "cpu_", "minor_faults": "faults_"}
COUNTS = {"minor_faults"}


def load_package(checkout, name: str):
    """Import ``checkout/src/idpfem`` as the package ``name``, dropping any
    earlier import under that name."""
    init = pathlib.Path(checkout).resolve() / "src" / "idpfem" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"ab_run: no idpfem sources at {init}")
    for key in [k for k in sys.modules
                if k == name or k.startswith(name + ".")]:
        del sys.modules[key]
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


class Side:
    """One checkout: its ``runner.run`` on the workload's configuration,
    with the ``runner.setup`` that the run looks up wrapped in a timer."""

    def __init__(self, name: str, checkout, config: dict, out_dir):
        package = load_package(checkout, f"idpfem_{name}").__name__
        self.runner = importlib.import_module(package + ".runner")
        run_config = importlib.import_module(package + ".config").RunConfig
        self.cfg = run_config(**config)
        self.out = pathlib.Path(out_dir) / name
        self.setup_s = 0.0
        setup = self.runner.setup

        def timed_setup(*args, **kwargs):
            start = time.perf_counter()
            try:
                return setup(*args, **kwargs)
            finally:
                self.setup_s = time.perf_counter() - start

        self.runner.setup = timed_setup

    def run(self) -> tuple:
        """(ms per step, set-up ms, CPU ms per step, minor faults, sha256 of
        the final state) of one whole run."""
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start, cpu = time.perf_counter(), time.process_time()
        result = self.runner.run(self.cfg, out_dir=self.out)
        elapsed = time.perf_counter() - start
        cpu = time.process_time() - cpu
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        return (1e3 * elapsed / result.steps, 1e3 * self.setup_s,
                1e3 * cpu / result.steps, faults,
                hashlib.sha256(result.u.tobytes()).hexdigest())

    def traced_peak_mb(self) -> float:
        """The ``tracemalloc`` peak of one whole run, in MB."""
        tracemalloc.start()
        try:
            self.runner.run(self.cfg, out_dir=self.out)
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()


def quartiles(values: list) -> list:
    if len(values) < 2:
        return values * 3
    return statistics.quantiles(values, n=4)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="changed checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=30)
    ap.add_argument("--smoke", action="store_true",
                    help="the workload's tiny-mesh configuration")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; valid: "
                 f"{', '.join(sorted(WORKLOADS))}")
    config = WORKLOADS[args.workload].config(0, smoke=args.smoke)

    times = {(metric, side): [] for metric in METRICS for side in SIDES}
    equal = True
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Side(side, getattr(args, side), config, tmp)
                 for side in SIDES}
        for side in SIDES:
            sides[side].run()
        for k in range(1, args.pairs + 1):
            order = SIDES if k % 2 else SIDES[::-1]
            digests = {}
            for side in order:
                *values, digests[side] = sides[side].run()
                for metric, value in zip(METRICS, values):
                    times[metric, side].append(value)
            equal &= digests["parent"] == digests["change"]
            ms, setup, cpu, faults = (
                {side: times[metric, side][-1] for side in SIDES}
                for metric in METRICS)
            print(f"pair {k:3d}  parent {ms['parent']:9.3f} ms  "
                  f"change {ms['change']:9.3f} ms  "
                  f"ratio {ms['change'] / ms['parent']:.4f}  "
                  f"setup {setup['parent']:7.3f} / {setup['change']:7.3f} ms"
                  f"  cpu {cpu['parent']:9.3f} / {cpu['change']:9.3f} ms"
                  f"  faults {faults['parent']} / {faults['change']}",
                  flush=True)
        peaks = {side: sides[side].traced_peak_mb() for side in SIDES}

    summary = {"workload": args.workload, "smoke": args.smoke,
               "pairs": args.pairs}
    for metric, prefix in METRICS.items():
        for side in SIDES:
            summary[f"{side}_{metric}_median"] = statistics.median(
                times[metric, side])
            summary[f"{side}_{metric}_quartiles"] = quartiles(
                times[metric, side])
        pairs = list(zip(times[metric, "parent"], times[metric, "change"]))
        if metric in COUNTS:
            summary[f"{prefix}median_difference"] = statistics.median(
                c - p for p, c in pairs)
        else:
            summary[f"{prefix}median_ratio"] = statistics.median(
                c / p for p, c in pairs)
        summary[f"{prefix}change_wins"] = \
            f"{sum(c < p for p, c in pairs)}/{args.pairs}"
    for side in SIDES:
        summary[f"{side}_traced_peak_mb"] = peaks[side]
    summary["states_equal"] = equal
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    raise SystemExit(main())
