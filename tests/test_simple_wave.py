"""Closed-form oracle for the nonlinear solver: 1-D simple waves.

Without damping the 1-D system has the Riemann invariants r = u + v and
s = u - v, which ride the characteristics of speed u + c and u - c with
c = 1 + (gamma-1)/2 v.  On a simple wave, s = 0, so u = v = r/2 and

    r_t + (1 + (gamma+1)/4 r) r_x = 0:

r0 is carried along straight characteristics, r(x, t) = r0(xi) with

    xi + (1 + (gamma+1)/4 r0(xi)) t = x,

until they cross at the breaking time T* = 4 / ((gamma+1) max(-r0')).
The characteristic solver here takes that equation to Newton from the
closed-form profile and its derivative.  It uses nothing of eulerlab
but its data classes, so it shares no code with the products, the
propagator or the stepper that it checks.
"""

import math

import numpy as np
import pytest

from eulerlab.euler import EulerState, SolverConfig, run
from eulerlab.grids import Grid, SpectralOps
from eulerlab.params import DampingLaw, GasLaw
from conftest import Outputs

AMPLITUDE = 0.1          # of v = u = r/2
WIDTH = 2.0
CENTRE = -12.0
L, N = 32.0, 2048


def _r0(x):
    """r at t = 0, a Gaussian of height 2 AMPLITUDE, and its derivative."""
    z = (x - CENTRE) / WIDTH
    r = 2.0 * AMPLITUDE * np.exp(-0.5 * z * z)
    return r, -z / WIDTH * r


def _breaking_time(gamma):
    # -r0' peaks one width ahead of the centre
    steepest = 2.0 * AMPLITUDE / (WIDTH * math.sqrt(math.e))
    return 4.0 / ((gamma + 1.0) * steepest)


def _characteristic_r(x, t, gamma):
    """r(x, t) by Newton on xi + (1 + (gamma+1)/4 r0(xi)) t = x."""
    kappa = (gamma + 1.0) / 4.0
    xi = x - t
    for _ in range(50):
        r, dr = _r0(xi)
        step = (xi + (1.0 + kappa * r) * t - x) / (1.0 + kappa * dr * t)
        xi = xi - step
        if np.max(np.abs(step)) <= 1e-15 * L:
            break
    r, _ = _r0(xi)
    assert np.max(np.abs(xi + (1.0 + kappa * r) * t - x)) <= 1e-12
    return r


@pytest.mark.parametrize("gamma", [1.4, 2.0, 3.0])
def test_simple_wave_follows_its_characteristics(gamma):
    # bound: 1e-6 of the amplitude at N = 2048, against a nonlinear shift
    # of the profile above 1e-2 of it; the controller picks the steps
    grid = Grid(1, L, N)
    x = -L + grid.dx * np.arange(N)
    r0, _ = _r0(x)
    st0 = EulerState(0.0, 0.5 * r0, np.stack([0.5 * r0]))
    t_star = _breaking_time(gamma)
    times = (t_star / 4.0, t_star / 2.0)
    cfg = SolverConfig(t_final=times[-1], snapshot_times=times)
    outs = Outputs()
    res = run(st0, DampingLaw(lam=0.5, mu=0.0), GasLaw(gamma=gamma),
              SpectralOps(grid), cfg, on_snapshot=outs)
    assert res.verdict == "completed"
    for snap, t in zip(outs[1:], times):
        assert snap.t == pytest.approx(t, abs=1e-12)
        half_r = 0.5 * _characteristic_r(x, t, gamma)
        misfit = max(np.max(np.abs(snap.v - half_r)),
                     np.max(np.abs(snap.u[0] - half_r)))
        assert misfit <= 1e-6 * AMPLITUDE
        # the linear wave alone, r0(x - t), is far off
        shift = np.max(np.abs(0.5 * _r0(x - t)[0] - half_r))
        assert shift >= 1e-2 * AMPLITUDE
