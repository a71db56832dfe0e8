"""Span tracing from outside the program.

A :class:`Tracer` replaces public functions and methods of ``idpfem`` at the
names where their callers look them up (``idpfem.schemes.assemble``,
``SpatialScheme.dt_bound``, ``Euler.flux``, ...) with wrappers that record
nested spans in memory, then puts every original back. The wrappers pass
arguments and results through untouched, so a traced run computes the same
bytes as an untraced one.

:func:`layer_metrics` turns the spans of one ``runner.run`` call into the
per-layer numbers named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import os
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# Span names of the calls that make one solver stage.
STAGE_SPANS = ("schemes.rhs", "schemes.step")
LIMITER_SPANS = ("limiting.limit_scalar", "limiting.limit_system")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int                   # index into Tracer.spans, -1 for a root


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    stack: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    saved: list = field(default_factory=list)   # (owner, attr, original)

    def count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def inside(self, names) -> bool:
        """True if an open span has one of ``names``."""
        return any(self.spans[i].name in names for i in self.stack)

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = Span(name, time.perf_counter(), 0.0, parent)
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            # After the span closed, so the hook's own cost lands in the
            # caller's self time, not in the traced layer.
            if on_result is not None:
                on_result(self, args, out)
            return out
        return traced

    def patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = vars(owner)[attr]
        self.saved.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


# --- hooks that count work at the layer boundary --------------------------

def _work_bytes(tracer, args, out):
    """Bytes of the distinct arrays ``assemble`` returns, from their sizes."""
    seen = {}
    for part in out:
        if part is None:
            continue
        for value in vars(part).values():
            if isinstance(value, np.ndarray):
                seen[id(value)] = value.nbytes
    tracer.count("assemble_bytes", sum(seen.values()))


def _limited(f_index):
    def hook(tracer, args, out):
        if tracer.inside(LIMITER_SPANS):
            return                # counted by the enclosing limiter call
        f = args[f_index]
        tracer.count("limited", int(np.count_nonzero(out.f_star != f)))
        tracer.count("contributions", f.size)
    return hook


def _idp_active(tracer, args, out):
    tracer.count("idp_active", int(np.count_nonzero(out < 1.0)))
    tracer.count("idp_passed", out.size)


def _vtk_bytes(tracer, args, out):
    tracer.count("vtk_bytes", os.path.getsize(args[0]))


def install_full(tracer: Tracer) -> None:
    """Wrap every traced layer of the ``idpfem`` package."""
    from idpfem import assembly, limiting, models, runner, schemes, vtk_io

    patch = tracer.patch
    patch(runner, "setup", "runner.setup")
    patch(runner, "make_benchmark", "benchmarks.make_benchmark")
    patch(runner, "build_system", "mesh.build_system")
    patch(runner, "ssp_rk_step", "timestepping.ssp_rk_step")
    patch(runner, "compute_dt", "timestepping.compute_dt")
    patch(runner, "audit_step", "diagnostics.audit_step")
    patch(runner, "error_norms", "diagnostics.error_norms")
    patch(vtk_io, "write_vtk", "vtk_io.write_vtk", _vtk_bytes)
    patch(schemes, "assemble", "assembly.assemble", _work_bytes)
    patch(assembly, "boundary_terms", "assembly.boundary_terms")
    patch(schemes.SpatialScheme, "dt_bound", "schemes.dt_bound")
    patch(schemes.SpatialScheme, "rhs", "schemes.rhs")
    patch(schemes.SpatialScheme, "step", "schemes.step")
    patch(schemes, "local_bounds", "limiting.local_bounds")
    patch(schemes, "limit_scalar_contributions", "limiting.limit_scalar",
          _limited(1))
    patch(limiting, "limit_scalar_contributions", "limiting.limit_scalar",
          _limited(1))
    patch(schemes, "limit_system_contributions", "limiting.limit_system",
          _limited(2))
    patch(limiting, "product_rule_cs", "limiting.product_rule")
    patch(limiting, "idp_fix", "limiting.idp_fix", _idp_active)
    for cls in (models.LinearAdvection, models.Euler):
        patch(cls, "flux", "models.flux")
        patch(cls, "max_wave_speed", "models.max_wave_speed")
        patch(cls, "admissible", "models.admissible")


def install_setup_timer(tracer: Tracer) -> None:
    """The untraced run: only ``runner.setup`` is timed, to split set-up
    from the solve."""
    from idpfem import runner

    tracer.patch(runner, "setup", "runner.setup")


# --- per-layer metrics ----------------------------------------------------

def _times(spans):
    """Per name: (outermost total, self time, calls)."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    total, self_t, calls = {}, {}, {}
    for i, s in enumerate(spans):
        dur = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        self_t[s.name] = self_t.get(s.name, 0.0) + dur - child[i]
        p = s.parent
        while p >= 0 and spans[p].name != s.name:
            p = spans[p].parent
        if p < 0:
            total[s.name] = total.get(s.name, 0.0) + dur
    return total, self_t, calls


def step_times_ms(tracer: Tracer) -> list:
    return [1e3 * (s.end - s.start) for s in tracer.spans
            if s.name == "timestepping.ssp_rk_step"]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced ``runner.run`` call (its spans only)."""
    total, self_t, calls = _times(tracer.spans)
    c = tracer.counts

    def t(name):
        return total.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = calls.get("timestepping.ssp_rk_step", 0)
    solve = t("runner.run") - t("runner.setup")
    loop_self = self_t.get("runner.run", 0.0)
    return {
        "assembly.assemble_s": t("assembly.assemble"),
        "assembly.assemble_self_s": self_t.get("assembly.assemble", 0.0),
        "assembly.calls_per_step": ratio(calls.get("assembly.assemble", 0), steps),
        "assembly.boundary_terms_s": t("assembly.boundary_terms"),
        "assembly.work_bytes": ratio(c.get("assemble_bytes", 0),
                                     calls.get("assembly.assemble", 0)),
        "schemes.dt_bound_s": t("schemes.dt_bound"),
        "schemes.stage_self_s": sum(self_t.get(n, 0.0) for n in STAGE_SPANS),
        "limiting.local_bounds_s": t("limiting.local_bounds"),
        "limiting.limit_scalar_s": t("limiting.limit_scalar"),
        "limiting.limit_system_s": t("limiting.limit_system"),
        "limiting.product_rule_s": t("limiting.product_rule"),
        "limiting.idp_fix_s": t("limiting.idp_fix"),
        "limiting.idp_fix_active_frac": ratio(c.get("idp_active", 0),
                                              c.get("idp_passed", 0)),
        "limiting.limited_frac": ratio(c.get("limited", 0),
                                       c.get("contributions", 0)),
        "models.flux_s": t("models.flux"),
        "models.max_wave_speed_s": t("models.max_wave_speed"),
        "models.admissible_s": t("models.admissible"),
        "timestepping.stages_per_step": ratio(
            sum(calls.get(n, 0) for n in STAGE_SPANS), steps),
        "diagnostics.audit_s": t("diagnostics.audit_step"),
        "diagnostics.audits": calls.get("diagnostics.audit_step", 0),
        "vtk_io.write_s": t("vtk_io.write_vtk"),
        "vtk_io.bytes": c.get("vtk_bytes", 0),
        "vtk_io.snapshots": calls.get("vtk_io.write_vtk", 0),
        "mesh.build_system_s": t("mesh.build_system"),
        "benchmarks.make_benchmark_s": t("benchmarks.make_benchmark"),
        "runner.loop_self_s": loop_self,
        "trace.coverage_frac": ratio(solve - loop_self, solve),
    }


TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def step_percentiles(samples_ms: list) -> dict:
    """Median step time and the highest percentile of ``TAIL_LADDER`` that
    leaves at least ten samples beyond it (the median if none does)."""
    n = len(samples_ms)
    tail_pct = next((p for p in TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0),
                    50.0)
    arr = np.asarray(samples_ms)
    return {
        "timestepping.step_ms_p50": float(np.percentile(arr, 50.0)),
        "timestepping.step_ms_tail": float(np.percentile(arr, tail_pct)),
        "timestepping.step_tail_pct": tail_pct,
        "timestepping.step_samples": n,
    }


def median_dicts(rows: list) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}
