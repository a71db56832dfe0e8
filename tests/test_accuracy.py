"""Accuracy floors of the limited schemes: the L1 order of convergence (EOC)
on the finest pair of meshes, h = 1/32 -> 1/64, with SSP2 and cfl 0.5. An
accuracy loss otherwise shows only as a moved digest.

- Scalar: the advected Gaussian at t = 0.25 with v = (1, 1), the path of
  acceptance criterion 7.
- Euler: a density wave on the periodic unit square, rho = 1 + 0.2 sin(2 pi
  (x + y - 2t)), v = (1, 1), p = 1, whose exact solution is a translation,
  at t = 0.1, on rho and E.
"""

import numpy as np
import pytest

from idpfem.diagnostics import error_norms
from idpfem.mesh import build_system, structured_rect
from idpfem.models import Euler
from idpfem.runner import integrate
from idpfem.schemes import SpatialScheme
from idpfem.timestepping import TimeControls
from test_acceptance import _gaussian_l1

# Measured EOCs: mcl.cs 2.72, mcl.scale 2.53, fct.cs 2.81, fct.scale 2.80;
# each floor sits about 0.2 below its scheme's.
FLOORS = {"mcl.cs": 2.5, "mcl.scale": 2.3, "fct.cs": 2.6, "fct.scale": 2.6}


@pytest.mark.parametrize("limiter", FLOORS)
def test_limited_gaussian_converges_at_second_order(limiter):
    coarse, fine = (_gaussian_l1(limiter, h, 0.25) for h in (1 / 32, 1 / 64))
    assert np.log2(coarse / fine) >= FLOORS[limiter]


# (limiter, system mode) -> (rho, E) floors. Measured rho/E EOCs: mcl.cs
# sequential 2.02/1.78, mcl.scale synchronized 1.99/1.99, fct.scale
# synchronized 2.21/2.21; each floor sits about 0.2 below. The other
# sequential schemes do not converge at second order yet.
EULER_FLOORS = {
    ("mcl.cs", "sequential"): (1.8, 1.55),
    ("mcl.scale", "synchronized"): (1.8, 1.8),
    ("fct.scale", "synchronized"): (2.0, 2.0),
}


def _density_wave(x, t):
    rho = 1.0 + 0.2 * np.sin(2 * np.pi * (x[:, 0] + x[:, 1] - 2.0 * t))
    return Euler().conserved(rho, np.ones((len(x), 2)), np.ones(len(x)))


def _density_wave_l1(limiter, system, n, t_end=0.1):
    ms = build_system(structured_rect(n, n, periodic=True))
    scheme = SpatialScheme(ms=ms, model=Euler(), limiter=limiter,
                           system=system)
    controls = TimeControls(cfl=0.5, t_end=t_end, scheme="ssp2")
    u, t, _ = integrate(scheme, _density_wave(ms.dof_coords, 0.0), controls)
    return error_norms(ms, u, _density_wave, t)["l1"]


@pytest.mark.parametrize("limiter, system", EULER_FLOORS)
def test_euler_density_wave_converges_at_second_order(limiter, system):
    coarse, fine = (_density_wave_l1(limiter, system, n) for n in (32, 64))
    eoc = np.log2(coarse / fine)
    rho_floor, e_floor = EULER_FLOORS[limiter, system]
    assert eoc[0] >= rho_floor and eoc[3] >= e_floor, eoc
