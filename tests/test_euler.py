"""Unit tests for the nonlinear solver: change of variables, right-hand
side against a hand-built symbolic oracle, exact transport of simple
waves, monitors, and the initial-data constructors."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import CountingOps, Outputs, march, on_band, tracked_ops
from eulerlab import euler
from eulerlab.euler import (
    EulerState, SolverConfig, VacuumError,
    bump_profile, initial_bump, potential_bump,
    rhs, rotational_bump, run, nonlinear_wave_source,
)
from eulerlab.grids import Grid, SpectralOps
from eulerlab.linear import AliasingWarning
from eulerlab.params import DampingLaw, GasLaw, damping_coeff
from reference import (convective_products, curl, dealias, div,
                       from_symmetric, laplacian, mol_reference_solve,
                       to_symmetric)

GAS = GasLaw()
D_HALF = DampingLaw(lam=0.5, mu=2.0)
D_FREE = DampingLaw(lam=0.5, mu=0.0)


# ---------------------------------------------------------------------
#  Change of variables
# ---------------------------------------------------------------------

def test_symmetric_round_trip():
    grid = Grid(1, 10.0, 64)
    x = grid.axis()
    rho = 1.0 + 0.3 * np.sin(math.pi * x / 10.0)
    u = np.stack([0.1 * np.cos(math.pi * x / 10.0)])
    st = EulerState(1.5, to_symmetric(rho, GAS), u)
    assert np.max(np.abs(from_symmetric(st, GAS) - rho)) <= 1e-13
    # the rest state maps to v = 0
    rest = to_symmetric(np.ones_like(rho), GAS)
    assert np.max(np.abs(rest)) <= 1e-15


def test_vacuum_rejection():
    grid = Grid(1, 10.0, 64)
    shape = grid.shape
    with pytest.raises(VacuumError):
        to_symmetric(np.zeros(shape), GAS)
    bad = EulerState(0.0, -5.0 * np.ones(shape), np.zeros((1,) + shape))
    with pytest.raises(VacuumError):
        from_symmetric(bad, GAS)


# ---------------------------------------------------------------------
#  Right-hand side against the symbolic oracle
# ---------------------------------------------------------------------

def test_rhs_symbolic_oracle_1d():
    grid = Grid(1, math.pi, 64)
    ops = SpectralOps(grid)
    x = grid.axis()
    t = 2.5
    b = damping_coeff(t, D_HALF)
    v = 0.3 * np.sin(x)
    u = np.stack([0.2 * np.cos(x)])

    dv, du = rhs(t, v, u, D_HALF, GAS, ops)
    dv_ref = 0.2 * np.sin(x) - 0.06 * np.cos(x) ** 2 + 0.03 * np.sin(x) ** 2
    du_ref = -(0.3 + 0.2 * b) * np.cos(x) - 0.005 * np.sin(x) * np.cos(x)
    assert np.max(np.abs(dv - dv_ref)) <= 1e-12
    assert np.max(np.abs(du[0] - du_ref)) <= 1e-12


def test_rhs_symbolic_oracle_2d():
    grid = Grid(2, math.pi, 32)
    ops = SpectralOps(grid)
    x, y = grid.mesh()
    t = 1.0
    b = damping_coeff(t, D_HALF)
    sl = GAS.slope
    v = 0.1 * np.sin(x) * np.cos(y)
    u1 = 0.05 * np.cos(x)
    u2 = 0.04 * np.sin(y)
    u = np.stack([u1, u2])

    vx = 0.1 * np.cos(x) * np.cos(y)
    vy = -0.1 * np.sin(x) * np.sin(y)
    div_u = -0.05 * np.sin(x) + 0.04 * np.cos(y)

    dv_ref = -div_u - (u1 * vx + u2 * vy) - sl * v * div_u
    du1_ref = -vx - b * u1 - u1 * (-0.05 * np.sin(x)) - sl * v * vx
    du2_ref = -vy - b * u2 - u2 * (0.04 * np.cos(y)) - sl * v * vy

    dv, du = rhs(t, v, u, D_HALF, GAS, ops)
    assert np.max(np.abs(dv - dv_ref)) <= 1e-12
    assert np.max(np.abs(du[0] - du1_ref)) <= 1e-12
    assert np.max(np.abs(du[1] - du2_ref)) <= 1e-12


def _cross_term_fields(grid):
    """v, u and their first partials written out by hand, as (v, dv, u,
    du) with dv[j] = d_j v and du[i][j] = d_j u_i, on a 2-D or 3-D grid
    of box [-pi, pi).  Every u_i depends on every coordinate, so no
    cross term u_j d_j u_i (j != i) vanishes."""
    X = grid.mesh()
    s, c = np.sin(X), np.cos(X)
    if grid.n == 2:
        a, b, e = 0.05, 0.04, 0.1
        v = e * c[0] * c[1]
        dv = [-e * s[0] * c[1], -e * c[0] * s[1]]
        u = [a * c[0] * s[1], b * s[0] * c[1]]
        du = [[-a * s[0] * s[1], a * c[0] * c[1]],
              [b * c[0] * c[1], -b * s[0] * s[1]]]
        return v, dv, u, du
    a, b, e, q = 0.05, 0.04, 0.03, 0.1
    v = q * s[0] * c[1] * c[2]
    dv = [q * c[0] * c[1] * c[2], -q * s[0] * s[1] * c[2],
          -q * s[0] * c[1] * s[2]]
    u = [a * c[0] * s[1] * c[2], b * s[0] * c[1] * s[2],
         e * c[0] * s[1] * s[2]]
    du = [[-a * s[0] * s[1] * c[2], a * c[0] * c[1] * c[2],
           -a * c[0] * s[1] * s[2]],
          [b * c[0] * c[1] * s[2], -b * s[0] * s[1] * s[2],
           b * s[0] * c[1] * c[2]],
          [-e * s[0] * s[1] * s[2], e * c[0] * c[1] * s[2],
           e * c[0] * s[1] * c[2]]]
    return v, dv, u, du


@pytest.mark.parametrize("n", [2, 3])
def test_rhs_symbolic_oracle_cross_terms(n):
    # the system written out from the hand-made partials:
    #   v_t   = -div u - u_j d_j v - sl v div u
    #   u_i,t = -d_i v - b u_i - u_j d_j u_i - sl v d_i v
    grid = Grid(n, math.pi, 32 if n == 2 else 16)
    v, dv, u, du = _cross_term_fields(grid)
    t = 1.5
    b = damping_coeff(t, D_HALF)
    sl = GAS.slope
    div_u = sum(du[i][i] for i in range(n))
    dv_ref = -div_u - sum(u[j] * dv[j] for j in range(n)) - sl * v * div_u
    cross = [sum(u[j] * du[i][j] for j in range(n) if j != i) for i in range(n)]
    assert min(np.max(np.abs(c)) for c in cross) > 1e-4

    got_v, got_u = rhs(t, v, np.stack(u), D_HALF, GAS, SpectralOps(grid))
    assert np.max(np.abs(got_v - dv_ref)) <= 1e-12
    for i in range(n):
        du_ref = (-dv[i] - b * u[i] - u[i] * du[i][i] - cross[i]
                  - sl * v * dv[i])
        assert np.max(np.abs(got_u[i] - du_ref)) <= 1e-12


# ---------------------------------------------------------------------
#  Exact simple-wave transport
# ---------------------------------------------------------------------

def test_simple_wave_transport():
    # equal diagonal data rides the right characteristic at speed
    # 1 + (1 + gamma) w / 2 while the damping is off; the run keeps the
    # diagonal identity u = v to machine precision
    grid = Grid(1, 20.0, 1024)
    ops = SpectralOps(grid)
    x = grid.axis()
    w0 = 0.05 * np.exp(-x * x / 4.0)
    st0 = EulerState(0.0, w0.copy(), np.stack([w0.copy()]))
    t_end = 2.0
    cfg = SolverConfig(t_final=t_end, snapshot_times=(t_end,))
    outs = Outputs()
    res = run(st0, D_FREE, GAS, ops, cfg, on_snapshot=outs)
    assert res.verdict == "completed"
    st = outs[-1]

    xs = x + (1.0 + 1.5 * w0) * t_end
    ref = np.interp(x, xs, w0, period=40.0)
    rel = ops.l2(st.v - ref) / ops.l2(ref)
    assert rel <= 1e-3
    assert np.max(np.abs(st.u[0] - st.v)) <= 1e-12


# ---------------------------------------------------------------------
#  Monitors and run control
# ---------------------------------------------------------------------

def _steepening_setup():
    ops = SpectralOps(Grid(1, 40.0, 512))
    st0 = initial_bump(ops, 2.0, 0.456004240068952)
    return ops, st0


def test_blowup_detected_without_damping():
    ops, st0 = _steepening_setup()
    cfg = SolverConfig(t_final=20.0, snapshot_times=tuple(range(1, 21)))
    res = run(st0, D_FREE, GAS, ops, cfg)
    assert res.verdict == "blowup-tail"
    assert 0.0 < res.t_end < 20.0


@pytest.mark.parametrize("n", [1, 2])
def test_monitor_check_transforms_only_for_the_tail(n, monkeypatch):
    # the tail check reads the held band spectrum of the state, so a
    # check costs no transform at all: checking after every step instead
    # of only at the outputs moves no count, full or band
    grid = Grid(n, 16.0, 64)
    st0 = initial_bump(SpectralOps(grid), 5.0, 0.0016504585653992147)
    cfg = SolverConfig(t_final=2.0, snapshot_times=(1.0,))
    counts, steps = [], []
    for every in (1e9, 1e-9):
        monkeypatch.setattr(euler, "CHECK_EVERY", every)
        ops, made = tracked_ops(grid)
        res = run(st0, D_HALF, GAS, ops, cfg)
        assert res.verdict == "completed"
        full, band = made
        assert band.band and not full.band
        counts.append((ops.fwd_calls, ops.inv_calls, band.fwd_calls,
                       band.inv_calls))
        steps.append(res.steps)
    assert steps[0] == steps[1] > 2
    assert counts[1] == counts[0]
    assert counts[0][1] == 0


def _band_state(law, st):
    """The band state of st, its physical rows and their products."""
    w = np.stack([law.ops.fwd(st.v)] + [law.ops.fwd(f) for f in st.u])
    x = law.physical(w)
    return w, x, law.products(w, x)


# (forward, inverse) band transforms of one products call
PRODUCTS_CALLS = {1: (2, 2), 2: (4, 4), 3: (5, 7)}


@pytest.mark.parametrize("n, fwd_calls, inv_calls",
                         [(1, 8, 16), (2, 16, 28), (3, 20, 44)])
def test_lawson_step_transforms_only_the_band(n, fwd_calls, inv_calls):
    # the products of stages two to four and of the new state, which are
    # the next step's first stage, each with its n + 1 state rows: 6, 11
    # and 16 transforms a stage in 1-, 2- and 3-D.  None of them is
    # full-size
    grid = Grid(n, 8.0, 16)
    ops = CountingOps(grid)
    law = euler._Lawson(D_HALF, GAS, ops)
    band = law.ops
    st0 = initial_bump(SpectralOps(grid), 3.0, 0.0037643532494625147)
    w, x, f = _band_state(law, st0)
    band.fwd_calls = band.inv_calls = 0
    assert euler.step(0.0, w, x, f, 0.1, law)[0] == 0.1
    assert (band.fwd_calls, band.inv_calls) == (fwd_calls, inv_calls)
    per_call = PRODUCTS_CALLS[n]
    assert (fwd_calls, inv_calls) == (4 * per_call[0], 4 * (per_call[1] + n + 1))
    assert ops.fwd_calls == ops.inv_calls == 0
    assert w.shape == f.shape == (n + 1,) + band.k2.shape
    assert band.k2.size < ops.k2.size


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_dense_output_forms_the_v_row_alone(n):
    # an output inside a step: its physical rows, grad v, div u and the v
    # row of the products, 2n + 2 inverse and 1 forward transforms.  The
    # v row and grad v are the bits of a whole products call there, and
    # div u those of the band view's
    grid = Grid(n, 8.0, 16)
    ops = CountingOps(grid)
    law = euler._Lawson(D_HALF, GAS, ops)
    band = law.ops
    st0 = initial_bump(SpectralOps(grid), 3.0, 0.0037643532494625147)
    w, x, f = _band_state(law, st0)
    h = euler.step(0.0, w, x, f, 0.1, law)[0]
    band.fwd_calls = band.inv_calls = 0
    (s, ws, fs, _), = law.extension(0.0, h, w, f, x, [0.5 * h])
    assert (band.fwd_calls, band.inv_calls) == (1, 2 * n + 2)
    assert ops.fwd_calls == ops.inv_calls == 0
    grad_v, pool = law.work()[:2]
    held = [a.copy() for a in (fs[0], grad_v, pool[0])]
    whole = law.products(ws.copy(), law.physical(ws))
    band.fwd_calls = band.inv_calls = 0
    div_u = euler.BandView(band, ws, whole, None).div_u
    assert (band.fwd_calls, band.inv_calls) == (0, 1)
    for a, b in zip(held, (whole[0], law.work()[0], div_u)):
        assert np.array_equal(_bits(a), _bits(b))


def _random_band_state(law, seed):
    """A band state of random coefficients of every wavevector, made
    real-consistent by a round trip through physical space, and its
    physical rows."""
    rng = np.random.default_rng(seed)
    shape = (law.ops.grid.n + 1,) + law.ops.kshape
    w = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    w = np.stack([law.ops.fwd(law.ops.inv(r)) for r in w])
    return w, law.physical(w)


@pytest.mark.parametrize("u_rows", [True, False])
@pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
def test_rotational_products_match_the_convective_reference(n, N, u_rows):
    # the rotational form against the convective one, from the n + n^2
    # first derivatives, on random band-limited states: under the 2/3
    # rule both give the same band coefficients up to rounding.  Bound
    # stated before measuring: 2e-15 of the largest coefficient
    law = euler._Lawson(D_HALF, GAS, CountingOps(Grid(n, 8.0, N)))
    band = law.ops
    for seed in range(3):
        w, x = _random_band_state(law, seed)
        want = convective_products(band, GAS, w, x, u_rows)
        band.fwd_calls = band.inv_calls = 0
        got = law.products(w, x, u_rows=u_rows)
        assert (band.fwd_calls, band.inv_calls) == (
            PRODUCTS_CALLS[n] if u_rows else (1, n + 1))
        rows = n + 1 if u_rows else 1
        err = np.max(np.abs(got[:rows] - want))
        assert err <= 2e-15 * np.max(np.abs(want))


NORM_PROBE = """
import numpy as np
from eulerlab import euler
rng = np.random.default_rng(5)
shape = (3, 171, 86)  # a 2-D band state at 256^2
a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
print(euler._norm(a, np.empty_like(a)).hex())
"""


def test_step_error_norm_has_the_same_bits_on_any_blas_thread_count():
    # the norm of the step's error estimate goes through no BLAS, whose
    # bits would depend on the size of its thread pool
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(euler.__file__).parents[1])]
        + [p for p in [env.get("PYTHONPATH")] if p])
    bits = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", NORM_PROBE], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        bits.append(proc.stdout)
    assert bits[0] == bits[1]


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _stage_state(n, N=16):
    """A band state with every product nonzero, and its physical rows."""
    ops = SpectralOps(Grid(n, 8.0, N))
    law = euler._Lawson(D_HALF, GAS, ops)
    st0 = initial_bump(ops, 3.0, 0.03266231294998106)
    u = 0.3 * np.stack([np.roll(st0.v, 1 + i, axis=i) for i in range(n)])
    if n > 1:
        u += rotational_bump(ops, 3.0, 0.03173721663525926).u
    w = np.stack([law.ops.fwd(st0.v)] + [law.ops.fwd(f) for f in u])
    return law, w, law.physical(w)


@pytest.mark.parametrize("n", [1, 2])
def test_fsal_products_are_the_products_at_the_new_state(n):
    # the step hands back the products of its new state (first same as
    # last), so the next step's first stage is the one a step that
    # formed it afresh would take, bit for bit, at fixed and at
    # controlled steps alike
    law, w, x = _stage_state(n)
    w *= 0.05
    x = law.physical(w)
    f = law.products(w, x)
    # the step forms each stage's products over the stage itself
    k = w.copy()
    assert law.products(k, x, out=k) is k
    assert np.array_equal(_bits(k), _bits(f))
    for t, h, floor in ((0.0, 0.1, np.inf), (0.1, 0.4, 0.0)):
        h, err = euler.step(t, w, x, f, h, law, floor)
        assert h > 0.0 and 0.0 < err <= (1.0 if floor == 0.0 else np.inf)
        assert np.array_equal(_bits(x), _bits(law.physical(w)))
        assert np.array_equal(_bits(f), _bits(law.products(w, x)))


def test_rejected_try_is_taken_again_from_the_same_state():
    # a try above the tolerance is taken again from t, with f formed
    # afresh, so the step it accepts is the fixed step of that length,
    # bit for bit
    law, w, x = _stage_state(2)
    f = law.products(w, x)
    fixed = (w.copy(), x.copy(), f.copy())
    h, err = euler.step(0.0, w, x, f, 0.5, law, floor=0.0)
    assert h < 0.5 / 2 and err <= 1.0
    assert euler.step(0.0, *fixed, h, law) == (h, err)
    for got, want in zip((w, x, f), fixed):
        assert np.array_equal(_bits(got), _bits(want))
    # a try at the floor is accepted whatever its estimate
    assert euler.step(h, w, x, f, 0.5, law, floor=0.5)[0] == 0.5


def test_product_row_is_the_expression_bit_for_bit():
    # the oracle is the plain numpy expression, signed zeros included
    rng = np.random.default_rng(3)
    shape = (32, 32)
    v, g = rng.standard_normal(shape), rng.standard_normal(shape)
    u = rng.standard_normal((2,) + shape)
    f = rng.standard_normal((2,) + shape)
    u[0, ::3], f[1, ::2], v[::5] = 0.0, -0.0, -0.0
    f[0, 1::4] = -0.0
    want = -sum(u[j] * f[j] for j in range(2)) - 0.2 * v * g
    got = euler._product_row(u, f, v, g, 0.2)
    assert np.array_equal(_bits(got), _bits(want))


def test_warm_lawson_step_allocates_no_grid_sized_work_arrays():
    # bound stated before it was measured: once warm, a 2-D step at 128^2
    # allocates at most six spectral states at its peak (the propagator's
    # tables and the row temporaries of its application); the products,
    # the stages, the error estimate, the transforms' passes and the
    # physical rows live in held buffers
    ops = SpectralOps(Grid(2, 20.0, 128))
    law = euler._Lawson(D_HALF, GAS, ops)
    w, x, f = _band_state(law, rotational_bump(ops, 6.0, 0.0012027360258994183))
    euler.step(0.0, w, x, f, 0.1, law)
    before = w.copy()
    tracemalloc.start()
    try:
        h, err = euler.step(0.1, w, x, f, 0.1, law)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * w.nbytes
    # the step writes the new state over the old one
    assert h == 0.1 and np.isfinite(err)
    assert not np.array_equal(w, before)
    assert np.array_equal(_bits(x), _bits(law.physical(w)))


def test_nonfinite_data_is_flagged():
    grid = Grid(1, 10.0, 64)
    v = np.zeros(grid.shape)
    v[3] = np.nan
    st0 = EulerState(0.0, v, np.zeros((1,) + grid.shape))
    res = run(st0, D_HALF, GAS, SpectralOps(grid), SolverConfig(t_final=1.0))
    assert res.verdict == "nonfinite"


def test_every_step_respects_the_advective_bound(monkeypatch):
    # the sound speed does not bound the step; the advection speed
    # a = |u|_inf + (gamma-1)/2 |v|_inf at its start does, h <= CFL dx / a.
    # A uniform flow u = 5 without friction makes that bound, not the
    # error control, the limit of nearly every step
    grid = Grid(1, 20.0, 256)
    ops = SpectralOps(grid)
    st0 = EulerState(0.0, 0.01 * bump_profile(grid, 4.0),
                     np.full((1,) + grid.shape, 5.0))
    ratios = []
    inner = euler.step

    def recorded(t, w, x, f, h, law, floor=np.inf):
        y = law.physical(w)
        a = np.max(np.abs(y[1:])) + GAS.slope * np.max(np.abs(y[0]))
        out = inner(t, w, x, f, h, law, floor)
        ratios.append(out[0] * a / (euler.CFL * grid.dx))
        return out

    monkeypatch.setattr(euler, "step", recorded)
    res = run(st0, D_FREE, GAS, ops, SolverConfig(t_final=5.0))
    assert res.verdict == "completed"
    assert len(ratios) == res.steps > 100
    assert max(ratios) <= 1.0


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(t_final=-1.0)
    with pytest.raises(ValueError):
        SolverConfig(t_final=0.0)


@pytest.mark.parametrize("field, kwargs", [
    ("t_final", {"t_final": math.nan}),
])
def test_solver_config_rejects_nan(field, kwargs):
    # without its own check, t_final=nan would run 0 steps and complete
    with pytest.raises(ValueError, match=f"^{field}: "):
        SolverConfig(**kwargs)


def test_snapshot_schedule_and_callback():
    ops = SpectralOps(Grid(1, 20.0, 256))
    st0 = initial_bump(ops, 4.0, 0.00011566234202668386)
    seen = Outputs()
    cfg = SolverConfig(t_final=2.0, snapshot_times=(1.5, 0.5, 3.0, 0.0))
    res = run(st0, D_HALF, GAS, ops, cfg, on_snapshot=seen)
    assert res.verdict == "completed"
    # the hook sees the start, then exactly the outputs after it
    assert cfg.outputs(0.0) == [0.5, 1.5, 2.0]
    assert [s.t for s in seen] == [0.0] + cfg.outputs(0.0)
    # a run restarted at t0 > 0 from a band-held state hands that state
    # to the hook, to rounding, then the requested times after t0 only
    start = seen[1]
    outs = Outputs()
    cfg = SolverConfig(t_final=2.0, snapshot_times=(0.25, 0.5, 1.5))
    res = run(start, D_HALF, GAS, ops, cfg, on_snapshot=outs)
    assert res.verdict == "completed"
    assert cfg.outputs(start.t) == [1.5, 2.0]
    assert [s.t for s in outs] == [start.t] + cfg.outputs(start.t)
    scale = np.max(np.abs(start.v))
    assert np.max(np.abs(outs[0].v - start.v)) <= 1e-12 * scale
    assert np.max(np.abs(outs[0].u - start.u)) <= 1e-12 * scale


def test_run_keeps_state_band_limited():
    grid = Grid(1, 10.0, 128)
    ops = SpectralOps(grid)
    x = grid.axis()
    kmax = math.pi / grid.dx
    v0 = bump_profile(grid, 2.0) + 0.01 * np.cos(0.8 * kmax * x)
    st0 = EulerState(0.0, v0, np.zeros((1,) + grid.shape))
    cfg = SolverConfig(t_final=0.1, snapshot_times=(0.1,))
    outs = Outputs()
    with pytest.warns(AliasingWarning):
        res = run(st0, D_HALF, GAS, ops, cfg, on_snapshot=outs)
    assert res.verdict == "completed"
    for snap in outs:
        assert ops.tail_fraction(snap.v) <= 1e-20


def test_run_warns_on_out_of_band_velocity():
    # rotational data hold v = 0, so only the velocity can carry a tail:
    # a bump's rotation plus a shear at |m| = 14, beyond the band's 10
    grid = Grid(2, 10.0, 32)
    ops = SpectralOps(grid)
    st0 = rotational_bump(ops, 4.0, 9.920593225730762e-05)
    y = grid.mesh()[1]
    st0.u[0] += 1e-4 * np.cos(14.0 * math.pi / grid.L * y)
    with pytest.warns(AliasingWarning, match="initial data"):
        run(st0, D_HALF, GAS, ops, SolverConfig(t_final=0.1))


def _plain_rk4(st0, d, ops, t_end, cfl=0.4):
    """Classical RK4 over euler.rhs at the acoustic CFL.  It shares the
    right-hand side, which the symbolic oracles above check, and none of
    the Lawson stepper's propagator or stage logic."""
    v, u = dealias(ops, st0.v), np.stack([dealias(ops, f) for f in st0.u])
    t = 0.0
    while t < t_end - 1e-12:
        speed = 1.0 + np.max(np.abs(u)) + GAS.slope * np.max(np.abs(v))
        h = min(cfl * ops.grid.dx / speed, t_end - t)
        k1 = rhs(t, v, u, d, GAS, ops)
        k2 = rhs(t + h / 2, v + h / 2 * k1[0], u + h / 2 * k1[1], d, GAS, ops)
        k3 = rhs(t + h / 2, v + h / 2 * k2[0], u + h / 2 * k2[1], d, GAS, ops)
        k4 = rhs(t + h, v + h * k3[0], u + h * k3[1], d, GAS, ops)
        v = v + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        u = u + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        t += h
    return v, u


def test_lawson_agrees_with_plain_rk4():
    ops = SpectralOps(Grid(1, 20.0, 256))
    st0 = initial_bump(ops, 4.0, 0.0011566234202668385)
    d = DampingLaw(lam=0.2, mu=3.0)
    cfg = SolverConfig(t_final=3.0, snapshot_times=(3.0,))
    outs = Outputs()
    res = run(st0, d, GAS, ops, cfg, on_snapshot=outs)
    assert res.verdict == "completed"
    v, u = _plain_rk4(st0, d, ops, 3.0)
    scale = ops.l2(v)
    assert ops.l2(outs[-1].v - v) <= 1e-5 * scale
    assert ops.l2(outs[-1].u[0] - u[0]) <= 1e-5 * scale


def test_lawson_agrees_with_plain_rk4_in_the_plane():
    # v, a rotational and a potential velocity together: the exact
    # propagator splits u into the part that rides the sound waves and
    # the transverse part that only the friction damps.  At 128^2 the
    # bumps hold under 1e-4 of their energy beyond the 2/3 band
    grid = Grid(2, 16.0, 128)
    ops = SpectralOps(grid)
    u = rotational_bump(ops, 7.0, 0.006547330974915258).u \
        + potential_bump(ops, 6.0, 0.0036064139129187963).u
    st0 = EulerState(0.0, initial_bump(ops, 7.0, 0.004960839780389944).v, u)
    d = DampingLaw(lam=0.2, mu=1.0)
    cfg = SolverConfig(t_final=3.0, snapshot_times=(3.0,))
    outs = Outputs()
    res = run(st0, d, GAS, ops, cfg, on_snapshot=outs)
    assert res.verdict == "completed"
    # plain RK4 at cfl 0.4 is itself 6e-4 off here; cfl 0.1 makes it the
    # finer of the two
    v, u = _plain_rk4(st0, d, ops, 3.0, cfl=0.1)
    scale = ops.l2(v)
    assert ops.l2(outs[-1].v - v) <= 1e-5 * scale
    for i in range(2):
        assert ops.l2(outs[-1].u[i] - u[i]) <= 1e-5 * scale


def test_linearized_run_matches_method_of_lines():
    # at eps = 1e-6 the run is the damped wave equation for v, which the
    # method-of-lines reference integrates with plain RK4 on the grid
    grid = Grid(1, 20.0, 256)
    ops = SpectralOps(grid)
    st0 = initial_bump(ops, 4.0, 1.1566234202668386e-07)
    times = (2.5, 5.0, 10.0)
    cfg = SolverConfig(t_final=10.0, snapshot_times=times)
    outs = Outputs()
    res = run(st0, D_HALF, GAS, ops, cfg, on_snapshot=outs)
    assert res.verdict == "completed"
    w0 = outs[0].v
    ref = mol_reference_solve(w0, np.zeros_like(w0), grid, D_HALF, times)
    for snap, w in zip(outs[1:], ref.w):
        assert ops.l2(snap.v - w) <= 1e-4 * ops.l2(w)


def test_step_controller_contract(monkeypatch):
    # every accepted step longer than the acoustic floor meets the
    # tolerance; the bound of 50 steps, half of what the former rule
    # LAWSON_STEP (1+t) allowed here, was stated before it was measured;
    # landing on the outputs leaves no sliver
    ops = SpectralOps(Grid(1, 20.0, 256))
    st0 = initial_bump(ops, 4.0, 0.00011566234202668386)
    snaps = (1.0, 10.0, 50.0)
    t_end = 100.0
    taken = []
    inner = euler.step

    def recorded(t, w, x, f, h, law, floor=np.inf, **kw):
        out = inner(t, w, x, f, h, law, floor, **kw)
        taken.append(out + (floor,))
        return out

    monkeypatch.setattr(euler, "step", recorded)
    cfg = SolverConfig(t_final=t_end, snapshot_times=snaps)
    res = run(st0, D_HALF, GAS, ops, cfg)
    assert res.verdict == "completed"
    assert len(taken) == res.steps <= 50
    assert all(err <= 1.0 for h, err, floor in taken if h > floor)
    assert sum(h for h, _, _ in taken) == pytest.approx(t_end, rel=1e-12)
    assert 0.0 < res.dt_min <= res.dt_median <= res.dt_max
    assert res.dt_min >= 1e-3 * res.dt_median


def test_mass_is_conserved():
    grid = Grid(1, 30.0, 256)
    ops = SpectralOps(grid)
    # a bump in v carries the excess mass q0 > 0, here near 0.02
    st0 = initial_bump(ops, 3.0, 5.5e-3)
    q0 = ops.quad(from_symmetric(st0, GAS) - 1.0)
    assert q0 > 0.0
    cfg = SolverConfig(t_final=5.0, snapshot_times=(5.0,))
    outs = Outputs()
    res = run(st0, D_HALF, GAS, ops, cfg, on_snapshot=outs)
    assert res.verdict == "completed"
    m_end = ops.quad(from_symmetric(outs[-1], GAS) - 1.0)
    # the marched variables are (v, u), so the density integral is
    # conserved to the accuracy of the time integration, not to rounding
    assert abs(m_end - q0) <= 1e-8 * q0


# ---------------------------------------------------------------------
#  Initial data
# ---------------------------------------------------------------------

def test_bump_profile_support_and_validation():
    grid = Grid(1, 10.0, 128)
    g = bump_profile(grid, 4.0)
    r = grid.radius()
    assert np.all(g[r >= 4.0] == 0.0)
    assert np.max(g) == pytest.approx(math.exp(-1.0), rel=1e-6)
    with pytest.raises(ValueError):
        bump_profile(grid, 0.0)
    with pytest.raises(ValueError):
        bump_profile(grid, 10.0)


def test_initial_bump_normalization_and_jitter():
    # eps is the height of the bump in v, which the jitter multiplies
    grid = Grid(1, 20.0, 256)
    ops = SpectralOps(grid)
    st = initial_bump(ops, 4.0, 1e-3)
    assert st.t == 0.0
    assert np.max(np.abs(st.u)) == 0.0
    assert np.array_equal(st.v, bump_profile(grid, 4.0) * (1e-3 / math.exp(-1.0)))

    j1 = initial_bump(ops, 4.0, 1e-3, jitter=0.1, seed=7)
    j2 = initial_bump(ops, 4.0, 1e-3, jitter=0.1, seed=7)
    j3 = initial_bump(ops, 4.0, 1e-3, jitter=0.1, seed=8)
    assert np.array_equal(j1.v, j2.v)
    assert not np.array_equal(j1.v, j3.v)
    assert 0.9e-3 <= np.max(np.abs(j1.v)) <= 1.1e-3


# the catalog box of nonlinear-decay and q-decay, its halved and doubled
# resolution and its doubled length, and two boxes in 2-D and 3-D
HEIGHT_GRIDS = [Grid(1, 256.0, 1024), Grid(1, 256.0, 2048), Grid(1, 256.0, 4096),
                Grid(1, 512.0, 2048), Grid(2, 68.0, 256), Grid(3, 40.0, 64)]


@pytest.mark.parametrize("grid", HEIGHT_GRIDS,
                         ids=[f"{g.n}d-L{g.L:g}-N{g.N}" for g in HEIGHT_GRIDS])
@pytest.mark.parametrize("eps", [3.61067966265402e-08, 1e-3])
def test_bump_height_is_eps_on_every_grid(grid, eps):
    # the bump peaks at exp(-1) at x = 0, a point of every grid, so the
    # sup of v is eps to an ulp whatever the resolution and the box
    assert np.max(bump_profile(grid, 4.0)) == math.exp(-1.0)
    v = initial_bump(SpectralOps(grid), 4.0, eps).v
    assert abs(np.max(np.abs(v)) - eps) <= np.spacing(eps)


@pytest.mark.parametrize("n", [2, 3])
def test_velocity_bumps_scale_the_curl_and_gradient_of_the_bump(n):
    # the stream function and the potential are bumps of height eps
    grid = Grid(n, 16.0, 32)
    ops = SpectralOps(grid)
    eps = 1e-3
    grad = ops.grad(bump_profile(grid, 5.0)) * (eps / math.exp(-1.0))
    rot = rotational_bump(ops, 5.0, eps).u
    assert np.array_equal(rot[0], grad[1]) and np.array_equal(rot[1], -grad[0])
    assert not np.any(rot[2:])
    assert np.array_equal(potential_bump(ops, 5.0, eps).u, grad)


def test_rotational_bump_is_divergence_free():
    grid = Grid(2, 16.0, 64)
    ops = SpectralOps(grid)
    st = rotational_bump(ops, 5.0, 0.0010929942709780832)
    assert np.max(np.abs(st.v)) == 0.0
    norm = math.sqrt(sum(ops.l2(st.u[i]) ** 2 for i in range(2)))
    assert ops.l2(div(ops, st.u)) <= 1e-12 * norm
    assert ops.l2(curl(ops, st.u)) > 1e-3 * norm
    with pytest.raises(ValueError):
        rotational_bump(SpectralOps(Grid(1, 16.0, 64)), 5.0, 1e-2)


@pytest.mark.parametrize("make", [rotational_bump, potential_bump])
def test_velocity_bumps_transform_each_field_once(make):
    # the gradient of the bump, one forward and 2 inverses: the height
    # scales it with no norm to take
    grid = Grid(2, 16.0, 64)
    ops, made = tracked_ops(grid)
    make(ops, 5.0, 9.137380667612242e-05)
    assert made == [ops]
    assert (ops.fwd_calls, ops.inv_calls) == (1, 2)


def test_potential_bump_is_curl_free():
    grid = Grid(2, 16.0, 64)
    ops = SpectralOps(grid)
    st = potential_bump(ops, 5.0, 0.0010929942709780832)
    norm = math.sqrt(sum(ops.l2(st.u[i]) ** 2 for i in range(2)))
    assert ops.l2(curl(ops, st.u)) <= 1e-12 * norm
    assert ops.l2(div(ops, st.u)) > 1e-3 * norm


# ---------------------------------------------------------------------
#  Wave-form source
# ---------------------------------------------------------------------

def test_wave_source_is_quadratic_in_amplitude():
    grid = Grid(1, 20.0, 256)
    ops = SpectralOps(grid)

    def source(eps):
        st = initial_bump(ops, 4.0, eps)
        return nonlinear_wave_source(on_band(st, D_HALF, GAS, ops), D_HALF, GAS)

    s1, s2 = source(1.1566234202668386e-06), source(2.313246840533677e-06)
    n1, n2 = ops.l2(s1), ops.l2(s2)
    assert n1 > 0.0
    # quadratic at leading order; the cubic remainder scales with the
    # amplitude, so at a height of 1.2e-6 it sits far below the test
    # tolerance
    assert n2 / n1 == pytest.approx(4.0, rel=1e-5)


def _wave_form_misfit(st0, ops, t0, h):
    """Relative L2 misfit of v_tt - Lap v + b v_t = Q at t0, with the
    time derivatives taken by central differences over t0 - h, t0, t0 + h
    of a solve restarted at t0 - h with fixed steps of h/8."""
    pre = Outputs()
    run(st0, D_HALF, GAS, ops, SolverConfig(t_final=t0 - h), on_snapshot=pre)
    before, mid, after = march(pre[-1], D_HALF, GAS, ops, h / 8.0,
                               (t0 - h, t0, t0 + h))
    v_tt = (after.v - 2.0 * mid.v + before.v) / h ** 2
    v_t = (after.v - before.v) / (2.0 * h)
    q = nonlinear_wave_source(on_band(mid, D_HALF, GAS, ops), D_HALF, GAS)
    resid = v_tt - laplacian(ops, mid.v) + damping_coeff(t0, D_HALF) * v_t - q
    return ops.l2(resid) / ops.l2(q)


@pytest.mark.parametrize("n", [1, 2])
def test_wave_source_matches_finite_differences_in_time(n):
    # Q is O(eps^2) while each term on the left is O(eps), so the central
    # differences' O(h^2) error shows in the misfit: it must fall by 4
    # per halving of h, down to the finite-difference floor
    if n == 1:
        grid = Grid(1, 20.0, 256)
        ops = SpectralOps(grid)
        st0 = initial_bump(ops, 4.0, 0.0011566234202668385)
    else:
        # band-limited at 128^2, as in the plane test above.  The misfit
        # goes like h^2 / eps, and the wider bump's Q is weaker against
        # the left-hand terms: at h = 1e-3 it is 1.2e-2 at half the
        # heights used here and 6.2e-3 at these
        grid = Grid(2, 16.0, 128)
        ops = SpectralOps(grid)
        st0 = EulerState(0.0, initial_bump(ops, 7.0, 0.0009110505169656251).v,
                         potential_bump(ops, 7.0, 0.0026189323899661033).u)
    misfits = [_wave_form_misfit(st0, ops, 1.0, h)
               for h in (2e-3, 1e-3, 5e-4)]
    assert misfits[1] <= 1e-2
    for coarse, fine in zip(misfits, misfits[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.5)
