"""Flat ``key = value`` run configuration with strict validation."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Optional

from .models import MODEL_NAMES, VELOCITY_FIELDS
from .schemes import SCHEME_KEYS, SYSTEM_MODES
from .timestepping import RK_SCHEMES


class ConfigError(Exception):
    pass


BENCHMARK_IDS = ("constant", "advected_gaussian", "solid_body_rotation",
                 "burgers_riemann", "dmr")
_ENUMS = {
    "model": MODEL_NAMES,
    "velocity": tuple(VELOCITY_FIELDS),
    "limiter": SCHEME_KEYS,
    "system_limiter": SYSTEM_MODES,
    "rk": RK_SCHEMES,
    "benchmark": BENCHMARK_IDS,
    "body": ("smooth", "slotted"),
}


@dataclass
class RunConfig:
    benchmark: str = "constant"
    mesh: Optional[str] = None           # mesh file path; None -> generated
    h: Optional[float] = None            # target cell size for generated meshes
    model: Optional[str] = None          # None -> benchmark default
    gamma: float = 1.4
    velocity: Optional[str] = None
    vx: Optional[float] = None           # translation advection only; None -> 1
    vy: Optional[float] = None           # translation advection only; None -> 1
    body: Optional[str] = None           # solid_body_rotation only; None -> smooth
    limiter: str = "mcl.cs"
    system_limiter: str = "sequential"
    cfl: float = 0.5
    t_end: Optional[float] = None        # None -> benchmark default
    rk: str = "ssp2"
    dt_max: Optional[float] = None
    out: str = "out"
    output_every_t: Optional[float] = None
    audit_every: int = 1
    audit_bound_tol: float = 1e-10
    audit_cons_tol: float = 1e-10

    def effective_text(self) -> str:
        lines = []
        for f in fields(self):
            v = getattr(self, f.name)
            if v is None:
                continue
            lines.append(f"{f.name} = {v}")
        return "\n".join(lines) + "\n"


_FLOAT_KEYS = {"h", "gamma", "vx", "vy", "cfl", "t_end", "dt_max",
               "output_every_t", "audit_bound_tol", "audit_cons_tol"}
_INT_KEYS = {"audit_every"}
_STR_KEYS = {"mesh", "out"}


def parse_config(text: str) -> RunConfig:
    """Parse and validate the flat configuration format.

    Unknown keys and malformed or out-of-range values are hard errors.
    """
    known = {f.name for f in fields(RunConfig)}
    values = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {ln}: expected 'key = value', got {body!r}")
        key, _, val = body.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in known:
            raise ConfigError(f"line {ln}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {ln}: duplicate key {key!r}")
        if not val:
            raise ConfigError(f"line {ln}: empty value for {key!r}")
        if key in _ENUMS:
            if val not in _ENUMS[key]:
                raise ConfigError(
                    f"line {ln}: invalid {key} = {val!r}; "
                    f"valid values: {', '.join(_ENUMS[key])}")
            values[key] = val
        elif key in _FLOAT_KEYS:
            try:
                values[key] = eval_fraction(val)
            except ValueError:
                raise ConfigError(f"line {ln}: bad number {val!r} for {key}") from None
        elif key in _INT_KEYS:
            try:
                values[key] = int(val)
            except ValueError:
                raise ConfigError(f"line {ln}: bad integer {val!r} for {key}") from None
        elif key in _STR_KEYS:
            values[key] = val
        else:
            raise ConfigError(f"line {ln}: key {key!r} is not settable")

    cfg = RunConfig(**values)
    if not 0.0 < cfg.cfl <= 1.0:
        raise ConfigError("cfl must lie in (0, 1]")
    if cfg.gamma <= 1.0:
        raise ConfigError("gamma must exceed 1")
    for key in ("h", "t_end", "dt_max"):
        if getattr(cfg, key) is not None and getattr(cfg, key) <= 0:
            raise ConfigError(f"{key} must be positive")
    # output_every_t = 0 is off
    for key in ("audit_every", "output_every_t", "audit_bound_tol",
                "audit_cons_tol"):
        if (getattr(cfg, key) or 0) < 0:
            raise ConfigError(f"{key} must be >= 0")
    return cfg


def eval_fraction(val: str) -> float:
    """Accept finite plain floats and simple fractions like ``1/32``;
    anything else raises ValueError."""
    num, slash, den = val.partition("/")
    try:
        x = float(num) / float(den) if slash else float(val)
    except ZeroDivisionError:
        raise ValueError(f"division by zero in {val!r}") from None
    if not math.isfinite(x):
        raise ValueError(f"{val!r} is not finite")
    return x
