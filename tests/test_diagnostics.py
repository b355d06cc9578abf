"""Unit tests for the measurement layer: weighted integrals, moment
functionals, decay fits, closed-form oracles, and the row recorder."""

import math

import numpy as np
import pytest

from conftest import CountingOps, Outputs, on_band, read_csv_columns, tracked_ops
from eulerlab.diagnostics import (
    DomainSizeError, EnergyRecorder, EnergyRow,
    FitQualityWarning, ball_volume, cauchy_schwarz_margin, convolution_oracle,
    decay_fit, lower_bound_margin, moment_inequality_margins, weighted_l2_sq,
)
from eulerlab import euler
from eulerlab.euler import EulerState, initial_bump, rotational_bump
from eulerlab.grids import Grid, SpectralOps
from eulerlab.params import DampingLaw, GasLaw, derive_constants, weight_eval
from reference import (curl, dealias, deriv, deriv_l2, from_symmetric,
                       mass_excess, momentum_moment, to_symmetric,
                       weighted_energy)

GAS = GasLaw()
D_HALF = DampingLaw(lam=0.5, mu=2.0)


# ---------------------------------------------------------------------
#  Weighted integrals
# ---------------------------------------------------------------------

def test_weighted_l2_sq_matches_direct_sum():
    grid = Grid(1, 10.0, 64)
    x = grid.axis()
    f = np.exp(-x * x)
    two_psi = 0.05 * x * x
    direct = float(np.sum(f * f * np.exp(two_psi))) * grid.cell
    assert weighted_l2_sq(f, two_psi, grid.cell) == pytest.approx(
        direct, rel=1e-13)


def test_weighted_l2_sq_overflow_guard_sees_the_integrand():
    grid = Grid(1, 10.0, 64)
    x = grid.axis()
    f = np.ones(grid.shape)
    big = np.where(x > 0.0, 701.0, 0.0)
    with pytest.raises(DomainSizeError):
        weighted_l2_sq(f, big, grid.cell)
    # a huge exponent where the field vanishes must not trip the guard
    f2 = np.where(x > 0.0, 0.0, 1.0)
    expect = float(np.sum(f2 * f2)) * grid.cell
    assert weighted_l2_sq(f2, big, grid.cell) == pytest.approx(expect,
                                                              rel=1e-13)


def test_weighted_energy_composition_and_cone_clip():
    grid = Grid(1, 10.0, 128)
    spec = derive_constants(D_HALF, 1)
    x = grid.mesh()
    f = np.exp(-np.abs(x[0]))
    t = 1.0
    we = weight_eval(t, x, spec)
    got = weighted_energy(t, f, spec, grid)
    assert got == pytest.approx(weighted_l2_sq(f, 2.0 * we.psi, grid.cell),
                                rel=1e-13)

    # support_R restricts to the cone |x| <= R + t + 2
    clipped = weighted_energy(t, f, spec, grid, support_R=2.0)
    inside = np.where(np.abs(x[0]) > 5.0, 0.0, f)
    assert clipped == pytest.approx(
        weighted_l2_sq(inside, 2.0 * we.psi, grid.cell), rel=1e-13)
    assert clipped < got


def test_ball_volume_closed_forms():
    assert ball_volume(1, 2.0) == pytest.approx(4.0, rel=1e-15)
    assert ball_volume(2, 3.0) == pytest.approx(9.0 * math.pi, rel=1e-15)
    assert ball_volume(3, 2.0) == pytest.approx(32.0 * math.pi / 3.0, rel=1e-15)
    arr = ball_volume(2, np.array([1.0, 2.0]))
    assert arr == pytest.approx([math.pi, 4.0 * math.pi])


# ---------------------------------------------------------------------
#  Moment functionals
# ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_mass_and_moment_match_reference_sums(n):
    # every velocity component nonzero and distinct, so that a moment
    # that dropped or repeated a component would miss the direct sum
    grid = Grid(n, 15.0, {1: 128, 2: 64, 3: 32}[n])
    ops = SpectralOps(grid)
    x = grid.mesh()
    r2 = np.sum(x * x, axis=0)
    rho = 1.0 + 0.1 * np.exp(-r2)
    u = np.stack([(0.05 + 0.02 * i) * np.exp(-r2 / 2.0) * (1.0 + 0.1 * x[i])
                  for i in range(n)])
    st = EulerState(0.5, to_symmetric(rho, GAS), u)

    cell = grid.dx ** n
    mass_ref = float(np.sum(rho - 1.0)) * cell
    mom_ref = sum(float(np.sum(x[i] * rho * u[i])) for i in range(n)) * cell
    assert mass_excess(st, GAS, ops) == pytest.approx(mass_ref, rel=1e-12)
    assert momentum_moment(st, GAS, ops) == pytest.approx(mom_ref, rel=1e-12)


# ---------------------------------------------------------------------
#  Decay fits
# ---------------------------------------------------------------------

def test_decay_fit_power_exact():
    times = np.geomspace(1.0, 1e3, 40)
    values = 3.0 * (1.0 + times) ** (-1.3)
    fit = decay_fit(times, values, 1.0, 1e3)
    assert fit.kind == "power"
    assert fit.slope == pytest.approx(-1.3, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log(3.0), rel=1e-12)
    assert fit.residual <= 1e-12
    assert fit.n_pts == 40
    assert fit.window == (1.0, 1e3)


def test_decay_fit_stretched_exact():
    times = np.linspace(0.0, 50.0, 60)
    values = 2.0 * np.exp(-0.7 * (1.0 + times) ** 0.4)
    fit = decay_fit(times, values, 0.0, 50.0, stretch_exponent=0.4)
    assert fit.kind == "stretched"
    assert fit.slope == pytest.approx(-0.7, rel=1e-12)
    assert fit.intercept == pytest.approx(math.log(2.0), rel=1e-10)


def test_decay_fit_window_filters_samples():
    times = np.geomspace(1.0, 1e3, 40)
    values = 3.0 * (1.0 + times) ** (-1.3)
    corrupted = values.copy()
    corrupted[times < 10.0] = 99.0
    fit = decay_fit(times, corrupted, 10.0, 1e3)
    assert fit.slope == pytest.approx(-1.3, rel=1e-10)
    assert fit.n_pts == int(np.sum(times >= 10.0))


def test_decay_fit_validation():
    times = np.geomspace(1.0, 1e3, 40)
    values = (1.0 + times) ** (-1.0)
    with pytest.raises(ValueError):
        decay_fit(times, values, 900.0, 1e3)          # too few samples
    with pytest.raises(ValueError):
        decay_fit(times, 0.0 * values, 1.0, 1e3)      # nonpositive values


def test_decay_fit_warns_on_large_residual():
    times = np.geomspace(1.0, 1e3, 40)
    wiggle = np.where(np.arange(40) % 2 == 0, 0.5, -0.5)
    values = (1.0 + times) ** (-1.0) * np.exp(wiggle)
    with pytest.warns(FitQualityWarning):
        fit = decay_fit(times, values, 1.0, 1e3)
    assert fit.residual > 0.1


# ---------------------------------------------------------------------
#  Closed-form oracles
# ---------------------------------------------------------------------

def test_convolution_oracle_frozen_value():
    # partial fractions at (a, b) = (2, 1), t = 1:
    #   int_0^1 (2-s)^-2 (1+s)^-1 ds = (2/9) log 2 + 1/6
    ratios = convolution_oracle(2.0, 1.0, [1.0])
    assert ratios[0] == pytest.approx(
        2.0 * (2.0 / 9.0 * math.log(2.0) + 1.0 / 6.0), rel=1e-9)


def test_convolution_oracle_bounded_ratios():
    ratios = convolution_oracle(2.0, 1.0, [1.0, 10.0, 1e2, 1e3, 1e4])
    assert np.all(ratios > 0.0)
    assert np.max(ratios) < 10.0


def test_convolution_oracle_rejects_failing_hypotheses():
    with pytest.raises(ValueError):
        convolution_oracle(1.0, 0.5, [1.0])
    with pytest.raises(ValueError):
        convolution_oracle(2.0, 0.0, [1.0])
    with pytest.raises(ValueError):
        convolution_oracle(2.0, 2.5, [1.0])


def test_cauchy_schwarz_margin_synthetic_equality():
    times = np.linspace(0.0, 100.0, 21)
    q0, R, n = 0.01, 4.0, 1
    rho_l2 = q0 / np.sqrt(ball_volume(n, R + times))
    m = cauchy_schwarz_margin(times, rho_l2, q0, R, n)
    assert m == pytest.approx(np.ones_like(times), rel=1e-13)
    with pytest.raises(ValueError):
        cauchy_schwarz_margin(times, rho_l2, 0.0, R, n)


def test_moment_inequality_margins_synthetic():
    # F = n q0 (1 - e^-t) with constant friction b = 1 gives
    # F' + b F = n q0 exactly, margin 1 up to finite-difference error
    d = DampingLaw(lam=0.0, mu=1.0)
    n, q0 = 1, 0.01
    times = np.arange(0.0, 10.0 + 1e-9, 0.25)
    F = n * q0 * (1.0 - np.exp(-times))
    m = moment_inequality_margins(times, F, q0, n, d)
    assert m.size == times.size - 2
    assert np.max(np.abs(m - 1.0)) <= 0.02
    with pytest.raises(ValueError):
        moment_inequality_margins(times[:2], F[:2], q0, n, d)


def test_lower_bound_margin_synthetic():
    q0, R, n = 0.01, 4.0, 1
    times = np.linspace(0.0, 100.0, 41)
    rho_l2 = 2.0 * q0 * (R + times) ** (-0.5 * n)
    u_l2 = 0.5 * q0 * (R + times) ** (-0.5 * (n + 2))
    out = lower_bound_margin(times, rho_l2, u_l2, q0, R, n, t0=10.0)
    assert out["m_rho"] == pytest.approx(2.0 * np.ones_like(times), rel=1e-13)
    assert out["m_u"] == pytest.approx(0.5 * np.ones_like(times), rel=1e-13)
    assert out["inf_rho"] == pytest.approx(2.0, rel=1e-13)
    assert out["inf_u"] == pytest.approx(0.5, rel=1e-13)

    # early-time garbage outside t >= t0 must not move the infima
    rho_bad = rho_l2.copy()
    rho_bad[0] *= 1e-3
    out2 = lower_bound_margin(times, rho_bad, u_l2, q0, R, n, t0=10.0)
    assert out2["inf_rho"] == pytest.approx(2.0, rel=1e-13)
    # nor late garbage beyond t1
    rho_bad = rho_l2.copy()
    rho_bad[-1] *= 1e-3
    out3 = lower_bound_margin(times, rho_bad, u_l2, q0, R, n, t0=10.0, t1=90.0)
    assert out3["inf_rho"] == pytest.approx(2.0, rel=1e-13)
    assert lower_bound_margin(times, rho_bad, u_l2, q0, R, n,
                              t0=10.0)["inf_rho"] < 0.01

    with pytest.raises(ValueError):
        lower_bound_margin(times, rho_l2, u_l2, 0.0, R, n, t0=10.0)
    with pytest.raises(ValueError):
        lower_bound_margin(times, rho_l2, u_l2, q0, R, n, t0=1e4)


# ---------------------------------------------------------------------
#  Row recorder
# ---------------------------------------------------------------------

EXPECTED_COLUMNS = [
    "t", "v_l2", "u_l2", "u_linf", "rho_l2", "rho_linf", "dv1_l2",
    "dv1_linf", "du1_l2", "vt_l2", "J_v", "J_u", "Jgrad_v", "Jgrad_u",
    "Jvt", "mon_low", "mon_high", "wmon_low", "wmon_high", "mass",
    "moment", "vort_l2", "src_l1",
]


def test_energy_row_column_contract():
    assert EnergyRow.columns() == EXPECTED_COLUMNS
    assert len(EXPECTED_COLUMNS) == 23


def test_energy_recorder_rows(tmp_path):
    grid = Grid(1, 30.0, 256)
    ops = SpectralOps(grid)
    spec = derive_constants(D_HALF, 1)
    rec = EnergyRecorder(ops, D_HALF, GAS, spec, support_R=4.0)

    st0 = initial_bump(ops, 4.0, 0.00012070772272910997)
    st1 = EulerState(1.0, 0.5 * st0.v, np.stack([0.1 * st0.v]))
    rec(on_band(st0, D_HALF, GAS, ops))
    rec(on_band(st1, D_HALF, GAS, ops))

    assert len(rec.rows) == 2
    assert rec.times == pytest.approx([0.0, 1.0])
    assert rec.series("v_l2")[0] == pytest.approx(ops.l2(st0.v), rel=1e-13)
    assert rec.series("v_l2")[1] == pytest.approx(0.5 * ops.l2(st0.v),
                                                 rel=1e-13)
    # v only moves through u, so at rest vt vanishes identically while
    # the quadratic source does not
    assert rec.series("u_l2")[0] == 0.0
    assert rec.series("vt_l2")[0] == 0.0
    assert rec.series("vt_l2")[1] > 0.0
    assert rec.series("src_l1")[0] > 0.0

    row = rec.rows[0]
    assert row.mon_low == pytest.approx(row.v_l2 ** 2 + row.u_l2 ** 2,
                                        rel=1e-13)
    gq = (1.0 + 0.0) ** (spec.B + 1.5)
    assert row.mon_high == pytest.approx(
        gq * (row.vt_l2 ** 2 + row.dv1_l2 ** 2 + row.du1_l2 ** 2), rel=1e-13)
    assert row.wmon_low == pytest.approx(row.J_v + row.J_u, rel=1e-13)
    assert row.mass == pytest.approx(mass_excess(st0, GAS, ops), rel=1e-13)
    assert row.J_v == pytest.approx(
        weighted_energy(0.0, st0.v, spec, grid, support_R=4.0), rel=1e-12)

    path = tmp_path / "rows.csv"
    rec.to_csv(path)
    cols = read_csv_columns(path)
    assert list(cols.keys()) == EXPECTED_COLUMNS
    for name in EXPECTED_COLUMNS:
        assert cols[name] == pytest.approx(rec.series(name), rel=0.0, abs=0.0)


def test_energy_recorder_optional_blocks():
    grid = Grid(1, 30.0, 128)
    ops = SpectralOps(grid)
    spec = derive_constants(D_HALF, 1)
    rec = EnergyRecorder(ops, D_HALF, GAS, spec, with_source=False,
                         with_weights=False, support_R=4.0)
    st0 = initial_bump(ops, 4.0, 0.00015174757282952896)
    rec(on_band(st0, D_HALF, GAS, ops))
    row = rec.rows[0]
    assert row.src_l1 == 0.0
    assert row.J_v == row.J_u == row.Jgrad_v == row.Jgrad_u == row.Jvt == 0.0
    assert row.wmon_low == row.wmon_high == 0.0
    assert row.v_l2 > 0.0


def test_energy_recorder_vorticity_column():
    grid = Grid(2, 16.0, 32)
    ops = SpectralOps(grid)
    spec = derive_constants(D_HALF, 2)
    rec = EnergyRecorder(ops, D_HALF, GAS, spec, with_source=False,
                         with_weights=False, support_R=5.0)
    st0 = rotational_bump(ops, 5.0, 0.0011578977547564166)
    rec(on_band(st0, D_HALF, GAS, ops))
    assert rec.rows[0].vort_l2 > 0.0
    assert rec.rows[0].mass == pytest.approx(0.0, abs=1e-15)


# ---------------------------------------------------------------------
#  Recorder columns against their definitions
# ---------------------------------------------------------------------

def column_definitions(rec: EnergyRecorder, st: EulerState) -> dict:
    """Every EnergyRow column of st, each formed on its own through the
    public helpers and the reference definitions (no shared transforms)."""
    ops, n, g, d, spec = rec.ops, rec.ops.grid.n, rec.g, rec.d, rec.spec
    grid, t, v, u = rec.ops.grid, st.t, st.v, st.u
    dv, _ = euler.rhs(t, v, u, d, g, ops)
    grad_v = ops.grad(v)
    grad_u = [deriv(ops, u[i], j) for i in range(n) for j in range(n)]
    col = {
        "t": t, "v_l2": ops.l2(v),
        "u_l2": math.sqrt(sum(ops.l2(u[i]) ** 2 for i in range(n))),
        "u_linf": max(ops.linf(u[i]) for i in range(n)),
        "dv1_l2": deriv_l2(ops, v, 1),
        "dv1_linf": max(ops.linf(gv) for gv in grad_v),
        "du1_l2": sum(deriv_l2(ops, u[i], 1) for i in range(n)),
        "vt_l2": ops.l2(dv),
        "mass": mass_excess(st, g, ops),
        "moment": momentum_moment(st, g, ops),
    }
    rho_dev = from_symmetric(st, g) - 1.0
    col["rho_l2"], col["rho_linf"] = ops.l2(rho_dev), ops.linf(rho_dev)

    col.update(dict.fromkeys(("J_v", "J_u", "Jgrad_v", "Jgrad_u", "Jvt"), 0.0))
    if rec.with_weights:
        def energy(f):
            return weighted_energy(t, f, spec, grid, support_R=rec.support_R)
        col["J_v"] = energy(v)
        col["J_u"] = sum(energy(u[i]) for i in range(n))
        col["Jgrad_v"] = sum(energy(gv) for gv in grad_v)
        col["Jgrad_u"] = sum(energy(gu) for gu in grad_u)
        col["Jvt"] = energy(dv)

    col["src_l1"] = 0.0
    if rec.with_source:
        src = euler.nonlinear_wave_source(on_band(st, d, g, ops), d, g)
        col["src_l1"] = ops.quad(np.abs(src))

    col["vort_l2"] = 0.0
    if n == 2:
        col["vort_l2"] = ops.l2(curl(ops, u))
    elif n == 3:
        w = curl(ops, u)
        col["vort_l2"] = math.sqrt(sum(ops.l2(w[i]) ** 2 for i in range(3)))

    gp = (1.0 + t) ** spec.B
    gq = (1.0 + t) ** (spec.B + 1.0 + d.lam)
    col["mon_low"] = gp * (col["v_l2"] ** 2 + col["u_l2"] ** 2)
    col["mon_high"] = gq * (col["vt_l2"] ** 2 + col["dv1_l2"] ** 2
                            + col["du1_l2"] ** 2)
    col["wmon_low"] = gp * (col["J_v"] + col["J_u"])
    col["wmon_high"] = gq * (col["Jvt"] + col["Jgrad_v"] + col["Jgrad_u"])
    return col


def sample_state(ops: SpectralOps) -> EulerState:
    """A band-limited state with every column nonzero: a jittered bump
    in v, cut to the 2/3 band, and a velocity with both a potential and
    (n >= 2) a rotational part."""
    v = initial_bump(ops, 4.0, 0.0033034540118606205, jitter=0.3, seed=1).v
    v = dealias(ops, v)
    u = 0.5 * ops.grad(v)
    if ops.grid.n >= 2:
        u[0] += 0.3 * deriv(ops, v, 1)
        u[1] -= 0.3 * deriv(ops, v, 0)
    return EulerState(0.7, v, u)


# columns of the physical state: bit-equal to their definitions
PHYSICAL_COLUMNS = ("t", "v_l2", "u_l2", "u_linf", "rho_l2", "rho_linf",
                    "J_v", "J_u", "mon_low", "wmon_low", "mass", "moment")
# the columns of derivatives come from the band spectrum, the
# definitions from the full one: the two differ by rounding.  Fixed
# before it was measured
BAND_RTOL = 1e-12


def assert_columns(row: EnergyRow, want: dict):
    assert sorted(want) == sorted(EXPECTED_COLUMNS)
    for name in EXPECTED_COLUMNS:
        if name in PHYSICAL_COLUMNS:
            assert getattr(row, name) == want[name], name
        else:
            assert getattr(row, name) == pytest.approx(
                want[name], rel=BAND_RTOL, abs=0.0), name


@pytest.mark.parametrize("n, N", [(1, 64), (2, 16), (3, 16)])
def test_energy_recorder_columns_equal_their_definitions(n, N):
    grid = Grid(n, 8.0, N)
    ops = SpectralOps(grid)
    rec = EnergyRecorder(ops, D_HALF, GAS, derive_constants(D_HALF, n),
                         support_R=1.5)
    st = sample_state(ops)
    rec(on_band(st, D_HALF, GAS, ops))
    row = rec.rows[0]
    assert row.vt_l2 > 0.0 and row.du1_l2 > 0.0
    assert row.Jgrad_u > 0.0 and row.src_l1 > 0.0
    if n >= 2:
        assert row.vort_l2 > 0.0
    assert_columns(row, column_definitions(rec, st))


@pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 32)])
def test_solver_snapshot_columns_equal_their_definitions(n, N):
    # the same columns from the stepper's view of its own states
    grid = Grid(n, 8.0, N)
    ops = SpectralOps(grid)
    rec = EnergyRecorder(ops, D_HALF, GAS, derive_constants(D_HALF, n),
                         support_R=1.5)
    st = sample_state(ops)
    cfg = euler.SolverConfig(t_final=0.5, snapshot_times=(0.25,))
    outs = Outputs()

    def hook(st):
        rec(st)
        outs(st)

    res = euler.run(EulerState(0.0, st.v, st.u), D_HALF, GAS, ops, cfg,
                    on_snapshot=hook)
    assert res.verdict == "completed"
    assert [r.t for r in rec.rows] == [s.t for s in outs]
    assert len(rec.rows) == 3
    for row, snap in zip(rec.rows, outs):
        assert snap.band is None
        assert_columns(row, column_definitions(rec, snap))


def _recorder_costs(n, with_source):
    """Transforms of each recorder call on a solver snapshot, counted on
    the run's band ops and on its full ops, as (band fwd, band inv, full
    fwd, full inv) per snapshot: at the start, at an output inside a
    step and at t_final, the end of a step."""
    grid = Grid(n, 8.0, 32)
    ops, made = tracked_ops(grid)
    rec = EnergyRecorder(ops, D_HALF, GAS, derive_constants(D_HALF, n),
                         with_source=with_source, with_weights=False,
                         support_R=1.5)
    costs = []

    def hook(st):
        before = [(o.fwd_calls, o.inv_calls) for o in made]
        rec(st)
        after = [(o.fwd_calls, o.inv_calls) for o in made]
        (ff, fi), (bf, bi) = [(a[0] - b[0], a[1] - b[1])
                              for a, b in zip(after, before)]
        costs.append((bf, bi, ff, fi))

    st = sample_state(SpectralOps(grid))
    cfg = euler.SolverConfig(t_final=0.5, snapshot_times=(0.25,))
    res = euler.run(EulerState(0.0, st.v, st.u), D_HALF, GAS, ops, cfg,
                    on_snapshot=hook)
    assert len(made) == 2 and made[1].band
    assert res.dense_outputs == 1 and len(costs) == 3
    return costs


@pytest.mark.parametrize("n", [1, 2, 3])
def test_energy_recorder_transforms_each_field_once(n):
    # a solver snapshot, landed or inside a step: no transform at all.
    # grad v is the stepper's, whose sup norm is a column, and the other
    # derivative norms come from their band spectra by Parseval
    assert _recorder_costs(n, False) == [(0, 0, 0, 0)] * 3


def test_energy_recorder_refuses_a_state_without_band_view():
    ops = SpectralOps(Grid(1, 8.0, 64))
    rec = EnergyRecorder(ops, D_HALF, GAS, derive_constants(D_HALF, 1),
                         support_R=4.0)
    with pytest.raises(ValueError, match="band view"):
        rec(initial_bump(ops, 4.0, 0.00012250376648329897))
    assert rec.rows == []


@pytest.mark.parametrize("n, fwd_calls, inv_calls", [
    (1, 2, 6), (2, 2, 8), (3, 2, 10)])
def test_wave_source_transform_count(n, fwd_calls, inv_calls):
    # the source from the band view, all on the band: forward the two v
    # products of d/dt N_v; inverse v_t and the n u_it, grad v_t, div u_t
    # and Q itself, and div u, one inverse of sum_i ik_i u_i.  grad v and
    # the products are the view's
    grid = Grid(n, 8.0, 16)
    ops, made = tracked_ops(grid)
    st = on_band(sample_state(SpectralOps(grid)), D_HALF, GAS, ops)
    full, band = made
    assert band is st.band.ops and band.band
    band.fwd_calls = band.inv_calls = 0
    euler.nonlinear_wave_source(st, D_HALF, GAS)
    assert (full.fwd_calls, full.inv_calls) == (0, 0)
    assert (band.fwd_calls, band.inv_calls) == (fwd_calls, inv_calls)
    assert inv_calls == 2 * n + 4
    # in the recorder, on a solver snapshot: the source's own transforms,
    # and inside a step, where the stepper formed only the v row of the
    # products, the products anew: (2, 2), (4, 4) or (5, 7)
    landed = (fwd_calls, inv_calls, 0, 0)
    products = {1: (2, 2), 2: (4, 4), 3: (5, 7)}[n]
    inside = (fwd_calls + products[0], inv_calls + products[1], 0, 0)
    assert _recorder_costs(n, True) == [landed, inside, landed]
