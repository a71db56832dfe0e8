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
steps) and their ratio, then one JSON line: per side the median and the
quartiles of ms per step, the median of the per-pair change/parent
ratios, the pairs the change won, and whether the two sides' final states
were byte-equal in every pair. ``--smoke`` runs the workload's tiny-mesh
configuration.
"""

import argparse
import hashlib
import importlib
import importlib.util
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
# One BLAS/OpenMP thread, as in perfbench/run.py; set before numpy is first
# imported when run as a script.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SIDES = ("parent", "change")


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
    """One checkout: its ``runner.run`` on the workload's configuration."""

    def __init__(self, name: str, checkout, config: dict, out_dir):
        package = load_package(checkout, f"idpfem_{name}").__name__
        self.runner = importlib.import_module(package + ".runner")
        run_config = importlib.import_module(package + ".config").RunConfig
        self.cfg = run_config(**config)
        self.out = pathlib.Path(out_dir) / name

    def run(self) -> tuple:
        """(ms per step, sha256 of the final state) of one whole run."""
        start = time.perf_counter()
        result = self.runner.run(self.cfg, out_dir=self.out)
        elapsed = time.perf_counter() - start
        return (1e3 * elapsed / result.steps,
                hashlib.sha256(result.u.tobytes()).hexdigest())


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

    ms = {side: [] for side in SIDES}
    ratios, equal = [], True
    with tempfile.TemporaryDirectory() as tmp:
        sides = {side: Side(side, getattr(args, side), config, tmp)
                 for side in SIDES}
        for side in SIDES:
            sides[side].run()
        for k in range(1, args.pairs + 1):
            order = SIDES if k % 2 else SIDES[::-1]
            digests = {}
            for side in order:
                ms_per_step, digests[side] = sides[side].run()
                ms[side].append(ms_per_step)
            equal &= digests["parent"] == digests["change"]
            ratios.append(ms["change"][-1] / ms["parent"][-1])
            print(f"pair {k:3d}  parent {ms['parent'][-1]:9.3f} ms  "
                  f"change {ms['change'][-1]:9.3f} ms  "
                  f"ratio {ratios[-1]:.4f}", flush=True)

    summary = {"workload": args.workload, "smoke": args.smoke,
               "pairs": args.pairs}
    for side in SIDES:
        summary[f"{side}_ms_per_step_median"] = statistics.median(ms[side])
        summary[f"{side}_ms_per_step_quartiles"] = quartiles(ms[side])
    summary["median_ratio"] = statistics.median(ratios)
    summary["change_wins"] = f"{sum(r < 1.0 for r in ratios)}/{args.pairs}"
    summary["states_equal"] = equal
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    for var in THREAD_VARS:
        os.environ[var] = "1"
    raise SystemExit(main())
