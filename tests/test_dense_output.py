"""Outputs read inside steps from the continuous extension of the
Lawson pair.

Without friction the extension carries nothing back with growth, so a
step passes over every output and the trajectory is the one a solve with
t_final alone takes.  With strong friction the growth bound makes every
step land.  The 1-D simple wave of test_simple_wave.py, solved along its
characteristics by code that shares nothing with the stepper, checks the
states the extension gives inside steps.
"""

import math

import numpy as np
import pytest

from eulerlab import euler
from eulerlab.euler import DENSE_GROWTH_MAX, EulerState, SolverConfig, initial_bump, run
from eulerlab.grids import Grid, SpectralOps
from eulerlab.params import DampingLaw, GasLaw, integrating_factor
from conftest import Outputs, march
from test_simple_wave import AMPLITUDE, L, N, _breaking_time, _characteristic_r, _r0

GAS = GasLaw()
GRID = Grid(1, 20.0, 256)
T_FINAL = 20.0
INTERIOR = tuple(np.linspace(0.0, T_FINAL, 10)[1:-1])   # 8 outputs


_STEP = euler.step


def _solve(mu, snaps, monkeypatch, st0=None, grid=GRID, gas=GAS,
           t_final=T_FINAL, allow_stop=False):
    """run with every output kept and every step's (t, h) recorded."""
    steps = []

    def recorded(t, w, x, f, h, law, floor=np.inf, **kw):
        out = _STEP(t, w, x, f, h, law, floor, **kw)
        steps.append((t, out[0]))
        return out

    monkeypatch.setattr(euler, "step", recorded)
    ops = SpectralOps(grid)
    st0 = initial_bump(ops, 4.0, 0.0011566234202668385) if st0 is None else st0
    cfg = SolverConfig(t_final=t_final, snapshot_times=snaps)
    outs = Outputs()
    res = run(st0, DampingLaw(lam=0.5, mu=mu), gas, ops, cfg, on_snapshot=outs)
    assert allow_stop or res.verdict == "completed"
    return res, outs, steps


def test_without_friction_outputs_leave_the_trajectory_alone(monkeypatch):
    # the bound always holds at mu = 0: the solve with 8 outputs inside its
    # steps takes the steps of the solve with t_final alone, and ends on
    # the same bits
    res, outs, steps = _solve(0.0, INTERIOR, monkeypatch)
    alone, alone_outs, alone_steps = _solve(0.0, (), monkeypatch)
    assert res.dense_outputs == 8 and res.dense_growth_max == 1.0
    assert alone.dense_outputs == 0 and alone.dense_growth_max is None
    assert steps == alone_steps
    assert np.array_equal(outs[-1].v, alone_outs[-1].v)
    assert np.array_equal(outs[-1].u, alone_outs[-1].u)
    assert [s.t for s in outs] == [0.0, *INTERIOR, T_FINAL]


def test_with_strong_friction_every_output_lands(monkeypatch):
    # at mu = 1000 a product carried back over more than a sliver of a
    # step grows past the bound, so every output is the end of a step
    res, _, steps = _solve(1000.0, INTERIOR, monkeypatch)
    assert res.dense_outputs == 0 and res.dense_growth_max is None
    ends = [t + h for t, h in steps]
    for s in INTERIOR:
        assert min(abs(e - s) for e in ends) <= 1e-12 * s


def test_the_growth_used_is_counted_and_bounded(monkeypatch):
    # with moderate friction outputs fall inside steps, each carried back
    # by integrating_factor(output, end of its step) <= DENSE_GROWTH_MAX
    res, _, steps = _solve(2.0, INTERIOR, monkeypatch)
    ends = [t + h for t, h in steps]
    inside = [s for s in INTERIOR if min(abs(e - s) for e in ends) > 1e-12 * s]
    assert res.dense_outputs == len(inside) > 0
    want = max(integrating_factor(s, min(e for e in ends if e > s), DampingLaw(0.5, 2.0))
               for s in inside)
    assert res.dense_growth_max == pytest.approx(want, rel=1e-12)
    assert 1.0 < res.dense_growth_max <= DENSE_GROWTH_MAX


def test_outputs_inside_steps_converge_like_landed_ones(monkeypatch):
    # against fixed steps of s/200 that land on s: bound stated before
    # measuring, 1e-6 of the state's size.  The controller's own solve to
    # s is off by 2e-8 to 8e-8 there, the extension by 2e-8 to 2e-7; an
    # extension without the products' weights would be off by about 1e-2
    _, outs, steps = _solve(2.0, INTERIOR, monkeypatch)
    ends = [t + h for t, h in steps]
    inside = [snap for snap in outs[1:-1]
              if min(abs(e - snap.t) for e in ends) > 1e-12 * snap.t]
    assert len(inside) >= 3
    ops = SpectralOps(GRID)
    st0 = initial_bump(ops, 4.0, 0.0011566234202668385)
    for snap in inside[:3]:
        ref, = march(st0, DampingLaw(0.5, 2.0), GAS, ops, snap.t / 200, (snap.t,))
        scale = max(np.max(np.abs(ref.v)), np.max(np.abs(ref.u)))
        misfit = max(np.max(np.abs(snap.v - ref.v)), np.max(np.abs(snap.u - ref.u)))
        assert misfit <= 1e-6 * scale


@pytest.mark.parametrize("gamma", [1.4, 3.0])
def test_simple_wave_inside_steps(gamma, monkeypatch):
    # eight outputs strictly inside (0, T*/2), each read from the
    # extension, within the 1e-6-of-the-amplitude bound of the landed
    # outputs in test_simple_wave.py
    grid = Grid(1, L, N)
    x = -L + grid.dx * np.arange(N)
    r0, _ = _r0(x)
    st0 = EulerState(0.0, 0.5 * r0, np.stack([0.5 * r0]))
    half = 0.5 * _breaking_time(gamma)
    times = tuple(half * j / 9.0 for j in range(1, 9))
    res, outs, _ = _solve(0.0, times, monkeypatch, st0=st0, grid=grid,
                          gas=GasLaw(gamma=gamma), t_final=half)
    assert res.dense_outputs == 8
    for snap, t in zip(outs[1:], times):
        assert snap.t == t
        half_r = 0.5 * _characteristic_r(x, t, gamma)
        misfit = max(np.max(np.abs(snap.v - half_r)),
                     np.max(np.abs(snap.u[0] - half_r)))
        assert misfit <= 1e-6 * AMPLITUDE
    # the schedule of test_simple_wave.py reads its T*/4 output the same way
    quarter, _, _ = _solve(0.0, (0.5 * half, half), monkeypatch, st0=st0,
                           grid=grid, gas=GasLaw(gamma=gamma), t_final=half)
    assert quarter.dense_outputs == 1


def test_step_rule_spreads_and_bounds():
    # the rule itself, on plain numbers: without outputs in reach the step
    # is h spread over the way to t_final; an output inside is passed while
    # the growth to the step's end is within the bound, the step is cut
    # where the growth reaches it if that carries as far past the output as
    # the output lies ahead, and it lands on the output otherwise
    d = DampingLaw(lam=0.5, mu=1.0)
    assert euler._step_length(0.0, 3.0, 50.0, 50.0, d) == pytest.approx(50.0 / 17)
    assert euler._step_length(10.0, 4.0, 11.0, 50.0, d) == pytest.approx(40.0 / 10)
    cut = euler._step_length(10.0, 10.0, 11.0, 50.0, d)
    assert integrating_factor(11.0, 10.0 + cut, d) == pytest.approx(DENSE_GROWTH_MAX)
    assert 12.0 <= 10.0 + cut < 20.0
    assert euler._step_length(10.0, 10.0, 12.0, 50.0, DampingLaw(0.5, 30.0)) == 2.0
    assert math.isinf(euler._growth_end(3.0, DampingLaw(0.5, 0.0)))


def test_step_rule_compares_the_growth_in_its_exponent():
    # a step of 1e3 past an output at lam = 0, mu = 5 grows products by
    # e^5000, past the largest float: an output out of reach is approached
    # as a landing target, one in reach is landed on or the step is cut
    # where the growth reaches the bound
    d = DampingLaw(lam=0.0, mu=5.0)
    assert euler._log_growth(2e3, 3e3, d) == pytest.approx(5e3)
    assert euler._step_length(10.0, 1e3, 2e3, 5e3, d) == 995.0
    assert euler._step_length(10.0, 1e3, 11.0, 5e3, d) == 1.0
    assert euler._step_length(10.0, 1e3, 10.2, 5e3, d) == pytest.approx(
        0.2 + math.log(DENSE_GROWTH_MAX) / 5.0)


def test_a_monitor_that_trips_inside_a_step_ends_the_run_there(monkeypatch):
    # blowup-scout's data steepen without friction; the tail monitor
    # trips at an output that the extension gives, and the run reports
    # that output's time, not the end of the step
    grid = Grid(1, 40.0, 512)
    st0 = initial_bump(SpectralOps(grid), 2.0, 0.456004240068952)
    snaps = tuple(float(s) for s in range(1, 21))
    res, _, steps = _solve(0.0, snaps, monkeypatch, st0=st0, grid=grid,
                           t_final=20.0, allow_stop=True)
    assert res.verdict == "blowup-tail"
    assert res.t_end in snaps
    assert min(abs(t + h - res.t_end) for t, h in steps) > 1e-9
    assert res.dense_outputs >= 1
