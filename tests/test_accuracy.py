"""Accuracy floors of the limited scalar schemes: the L1 order of
convergence (EOC) of the advected Gaussian on the finest pair of meshes,
h = 1/32 -> 1/64, at t = 0.25 with v = (1, 1), SSP2 and cfl 0.5 (the path
of acceptance criterion 7). An accuracy loss otherwise shows only as a
moved digest."""

import numpy as np
import pytest

from test_acceptance import _gaussian_l1

# Measured EOCs: mcl.cs 2.72, mcl.scale 2.53, fct.cs 2.81, fct.scale 2.80;
# each floor sits about 0.2 below its scheme's.
FLOORS = {"mcl.cs": 2.5, "mcl.scale": 2.3, "fct.cs": 2.6, "fct.scale": 2.6}


@pytest.mark.parametrize("limiter", FLOORS)
def test_limited_gaussian_converges_at_second_order(limiter):
    coarse, fine = (_gaussian_l1(limiter, h, 0.25) for h in (1 / 32, 1 / 64))
    assert np.log2(coarse / fine) >= FLOORS[limiter]
