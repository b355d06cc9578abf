"""Unit tests for the mode engine, grid solver and zone diagnostics.

The two time-integration routes (the batched Magnus engine and the
adaptive scipy path) serve as each other's oracle; closed forms cover
the corner laws where the damped oscillator is solvable by hand.
"""

import math

import numpy as np
import pytest

from eulerlab import linear
from eulerlab.grids import Grid, SpectralOps
from eulerlab.params import DampingLaw, Zone, integrating_factor
from eulerlab.euler import bump_profile

D_HALF = DampingLaw(lam=0.5, mu=2.0)
D_FREE = DampingLaw(lam=0.5, mu=0.0, allow_free_wave=True)
D_CONST = DampingLaw(lam=0.0, mu=2.0)


# ---------------------------------------------------------------------
#  Propagators (scipy route) against closed forms
# ---------------------------------------------------------------------

def test_propagator_identity_and_ordering():
    assert np.allclose(linear.propagator_matrix(2.0, 2.0, 1.0, D_HALF),
                       np.eye(2))
    with pytest.raises(ValueError):
        linear.propagator_matrix(1.0, 2.0, 1.0, D_HALF)


def test_free_wave_closed_form():
    for r in (0.5, 1.0, 2.0):
        for t in (1.0, 5.0, 17.0):
            s = linear.fundamental_pair(t, r, D_FREE)
            assert s.phi1 == pytest.approx(math.cos(r * t), abs=1e-8)
            assert s.phi2 == pytest.approx(math.sin(r * t) / r, abs=1e-8)
            assert s.dphi1 == pytest.approx(-r * math.sin(r * t), abs=1e-7)


def test_critically_damped_closed_form():
    # lam = 0, mu = 2 at |xi| = 1: double root, (1+t)e^-t and t e^-t
    for t in (0.5, 2.0, 10.0):
        s = linear.fundamental_pair(t, 1.0, D_CONST)
        assert s.phi1 == pytest.approx((1.0 + t) * math.exp(-t), abs=1e-8)
        assert s.phi2 == pytest.approx(t * math.exp(-t), abs=1e-8)


def test_propagator_determinant_is_inverse_integrating_factor():
    # Abel's identity: det E(t, tau) = exp(-int_tau^t b)
    d = DampingLaw(lam=0.4, mu=1.5)
    tau, t, r = 0.5, 6.0, 0.8
    E = linear.propagator_matrix(t, tau, r, d)
    expected = 1.0 / integrating_factor(tau, t, d)
    assert float(np.linalg.det(E)) == pytest.approx(expected, rel=1e-7)


def test_two_time_composition():
    d = DampingLaw(lam=0.3, mu=1.5)
    r = 1.3
    full = linear.propagator_matrix(12.0, 0.7, r, d)
    late = linear.propagator_matrix(12.0, 3.0, r, d)
    early = linear.propagator_matrix(3.0, 0.7, r, d)
    assert np.max(np.abs(full - late @ early)) <= 1e-8


def test_propagator_sample_matrix_layout():
    s = linear.two_time_propagator(4.0, 1.0, 0.7, D_HALF)
    E = s.matrix
    assert E.shape == (2, 2)
    assert E[0, 0] == s.phi1 and E[0, 1] == s.phi2
    assert E[1, 0] == s.dphi1 and E[1, 1] == s.dphi2
    assert s.tau == 1.0 and s.xi == 0.7


# ---------------------------------------------------------------------
#  Magnus engine
# ---------------------------------------------------------------------

def test_evolve_modes_matches_scipy_route():
    d = DampingLaw(lam=0.4, mu=1.5)
    radii = np.array([0.3, 1.0, 2.7])
    times = np.array([1.0, 5.0, 20.0])
    tr = linear.evolve_modes(radii, d, times)
    for m, r in enumerate(radii):
        for j, t in enumerate(times):
            s = linear.fundamental_pair(t, r, d)
            assert tr[0, m, j] == pytest.approx(s.phi1, abs=2e-6)
            assert tr[2, m, j] == pytest.approx(s.phi2, abs=2e-6)


@pytest.mark.parametrize("lam", [0.0, 0.2, 0.5, 0.8])
def test_evolve_modes_matches_dop853_in_probe_regime(lam):
    # the radii and horizons kernel_decay_check probes, against the
    # independent single-mode DOP853 propagator
    d = DampingLaw(lam=lam, mu=2.0)
    radii = np.array([0.05, 0.3, 1.0, 2.0, 3.0, 4.0])
    times = np.array([1.0, 10.0, 100.0, 1e3])
    tr = linear.evolve_modes(radii, d, times)
    for m, r in enumerate(radii):
        for j, t in enumerate(times):
            if t > 100.0 and r > 1.0:
                continue
            E = linear.propagator_matrix(t, 0.0, r, d)
            assert tr[0, m, j] == pytest.approx(E[0, 0], abs=2e-6)
            assert tr[2, m, j] == pytest.approx(E[0, 1], abs=2e-6)


def test_evolve_modes_heavy_friction_stays_finite():
    # lam = 0 keeps the friction at mu while the step grows to ~200:
    # the step exponential must not overflow
    tr = linear.evolve_modes(np.array([0.0, 0.5, 1.0, 4.0]), D_CONST,
                             np.array([1e4]))
    assert np.all(np.isfinite(tr))
    assert abs(tr[0, 0, 0] - 1.0) <= 1e-12


def test_evolve_modes_zero_radius_is_exact():
    tr = linear.evolve_modes(np.array([0.0]), D_HALF,
                             np.array([1.0, 100.0, 1e4]))
    assert np.max(np.abs(tr[0, 0] - 1.0)) <= 1e-12
    assert np.max(np.abs(tr[1, 0])) <= 1e-12


def test_evolve_modes_zero_radius_slope_solution():
    # lam = 0: the slope response at r = 0 is (1 - e^(-mu t)) / mu
    tr = linear.evolve_modes(np.array([0.0]), D_CONST, np.array([1.0, 3.0]))
    for j, t in enumerate((1.0, 3.0)):
        assert tr[2, 0, j] == pytest.approx(
            0.5 * (1.0 - math.exp(-2.0 * t)), abs=1e-5)


def test_evolve_modes_restart_composition():
    # a run that lands on the restart time takes the same steps after it
    # as a fresh run resumed from that state, so the tails must agree to
    # rounding (the step schedule depends only on the current time)
    d = DampingLaw(lam=0.6, mu=1.0)
    radii = np.array([0.2, 1.4])
    direct = linear.evolve_modes(radii, d, np.array([2.0, 5.0]))
    resumed = linear.evolve_modes(radii, d, np.array([5.0]), t_start=2.0,
                                  y0=direct[:, :, 0])
    assert np.max(np.abs(direct[:, :, 1] - resumed[:, :, 0])) <= 1e-13


def test_evolve_modes_input_validation():
    with pytest.raises(ValueError):
        linear.evolve_modes(np.array([1.0]), D_HALF, np.array([2.0, 1.0]))
    with pytest.raises(ValueError):
        linear.evolve_modes(np.array([1.0]), D_HALF, np.array([1.0]),
                            t_start=2.0)
    with pytest.raises(ValueError):
        linear.evolve_modes(np.array([1.0, 2.0]), D_HALF, np.array([1.0]),
                            y0=np.zeros((4, 3)))


# ---------------------------------------------------------------------
#  Grid solver against the method-of-lines reference
# ---------------------------------------------------------------------

def test_linear_ivp_dual_route():
    grid = Grid(1, 15.0, 128)
    w0 = bump_profile(grid, 3.0)
    w1 = 0.2 * bump_profile(grid, 2.0)
    times = (1.0, 3.0, 7.0)
    sol = linear.solve_linear_ivp(w0, w1, grid, D_HALF, times)
    ref = linear.mol_reference_solve(w0, w1, grid, D_HALF, times)
    ops = SpectralOps(grid)
    assert np.allclose(sol.times, times)
    for j in range(3):
        assert sol.w[j].shape == grid.shape
        rel = ops.l2(sol.w[j] - ref.w[j]) / ops.l2(ref.w[j])
        assert rel <= 1e-5
        relt = ops.l2(sol.w_t[j] - ref.w_t[j]) / max(ops.l2(ref.w_t[j]), 1e-12)
        assert relt <= 1e-4


def test_linear_ivp_forced_duhamel_path():
    grid = Grid(1, 15.0, 128)
    ops = SpectralOps(grid)
    prof = bump_profile(grid, 3.0)
    zero = np.zeros(grid.shape)
    ft = np.round(np.arange(0.0, 7.0 + 1e-9, 0.05), 10)
    history = [prof / (1.0 + t) for t in ft]
    times = (1.0, 3.0, 7.0)
    sol = linear.solve_linear_ivp(zero, zero, grid, D_HALF, times,
                                  forcing=history, forcing_times=ft)
    ref = linear.mol_reference_solve(zero, zero, grid, D_HALF, times,
                                     forcing_fn=lambda t: prof / (1.0 + t))
    for j in range(3):
        rel = ops.l2(sol.w[j] - ref.w[j]) / ops.l2(ref.w[j])
        assert rel <= 2e-3


def test_linear_ivp_forcing_history_validation():
    grid = Grid(1, 15.0, 16 * 8)
    zero = np.zeros(grid.shape)
    with pytest.raises(ValueError):
        linear.solve_linear_ivp(zero, zero, grid, D_HALF, (1.0,),
                                forcing=[zero, zero],
                                forcing_times=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        linear.solve_linear_ivp(zero, zero, grid, D_HALF, (1.0,),
                                forcing=[zero, zero],
                                forcing_times=np.array([0.0, 0.5, 1.0]))


def test_linear_ivp_warns_on_rough_data():
    grid = Grid(1, 15.0, 128)
    x = grid.axis()
    kmax = math.pi / grid.dx
    rough = bump_profile(grid, 3.0) + 0.05 * np.cos(0.9 * kmax * x)
    with pytest.warns(linear.AliasingWarning):
        linear.solve_linear_ivp(rough, np.zeros(grid.shape), grid, D_HALF,
                                (0.5,))


# ---------------------------------------------------------------------
#  Zone integrals
# ---------------------------------------------------------------------

def test_zone_integral_initial_time_closed_forms():
    # at t = 0 the first kernel is identically 1, so every zone integral
    # reduces to an explicit power of the band radius mu/4; the request
    # is answered to the quadrature tolerance, so ask for a tight one
    d = D_HALF
    rb = 0.5
    tol = 1e-8

    def zi(i, alpha, zone, p, n):
        return linear.zone_integral(0.0, i, alpha, zone, p, d, n, tol=tol)

    assert zi(1, 0, Zone.Z1, 1, 1) == pytest.approx(2.0 * rb, rel=1e-7)
    assert zi(1, 2, Zone.Z1, 1, 1) == pytest.approx(2.0 * rb ** 3 / 3.0,
                                                    rel=1e-7)
    assert zi(1, 0, Zone.Z1, 2, 1) == pytest.approx(math.sqrt(2.0 * rb),
                                                    rel=1e-7)
    assert zi(1, 0, Zone.Z2, 1, 1) == pytest.approx(2.0 * (1.0 - rb),
                                                    rel=1e-7)
    # higher dimensions pick up the sphere area factor
    assert zi(1, 0, Zone.Z1, 1, 2) == pytest.approx(math.pi * rb ** 2,
                                                    rel=1e-7)
    assert zi(1, 0, Zone.Z1, 1, 3) == pytest.approx(
        4.0 * math.pi * rb ** 3 / 3.0, rel=1e-7)
    # the slope kernel starts from zero data
    assert zi(2, 0, Zone.Z1, 1, 1) == 0.0


def test_zone_integral_validation():
    d = D_HALF
    with pytest.raises(ValueError):
        linear.zone_integral(1.0, 3, 0, Zone.Z1, 1, d, 1)
    with pytest.raises(ValueError):
        linear.zone_integral(1.0, 1, 0, Zone.Z1, 3, d, 1)
    with pytest.raises(ValueError):
        linear.zone_integral(1.0, 1, 0, Zone.Z3, 1, d, 1)


def test_zone_integral_unreachable_tolerance():
    with pytest.raises(linear.QuadratureError):
        linear.zone_integral(10.0, 1, 0, Zone.Z1, 1, D_HALF, 1,
                             tol=0.0, max_refine=1)


# ---------------------------------------------------------------------
#  Zone envelopes
# ---------------------------------------------------------------------

def test_fit_zone_constant_and_bound_check():
    d = D_HALF
    pts = [(t, r) for t in (1.0, 4.0, 16.0) for r in (0.05, 0.1, 0.2)
           if r <= 0.25 * d.mu * (1.0 + t) ** (-d.lam)]
    assert len(pts) >= 5
    radii = np.unique([r for _, r in pts])
    times = np.unique([t for t, _ in pts])
    tr = linear.evolve_modes(radii, d, times)
    samples = []
    for (t, r) in pts:
        m = int(np.where(radii == r)[0][0])
        j = int(np.where(times == t)[0][0])
        samples.append((t, r, abs(float(tr[0, m, j]))))
    c0 = linear.fit_zone_constant(samples, d)
    assert c0 > 0.0
    ratios = [linear.zone_bound_check(t, r, p, c0, d).ratio
              for (t, r, p) in samples]
    assert all(np.isfinite(ratios))
    assert max(ratios) <= 10.0


def test_zone_bound_report_ratio():
    rep = linear.zone_bound_check(2.0, 0.1, 0.5, 1.0, D_HALF)
    assert rep.zone == Zone.Z1
    assert rep.ratio == pytest.approx(rep.observed / rep.envelope, rel=1e-14)


# ---------------------------------------------------------------------
#  Kernel decay series
# ---------------------------------------------------------------------

def test_kernel_decay_check_basics():
    grid = Grid(1, 60.0, 512)
    g = bump_profile(grid, 20.0)   # wide: sup norm carried by radii <= 1
    times = np.array([0.5, 2.0, 8.0, 32.0])
    ser = linear.kernel_decay_check(g, grid, D_HALF, times, k=0, p=np.inf)
    assert ser.observed.shape == times.shape
    assert np.all(ser.observed > 0.0)
    assert np.all(ser.tail_bound >= 0.0)
    # default comparison exponents for the two norms
    assert ser.envelope_exponent == pytest.approx(-0.25)
    ser2 = linear.kernel_decay_check(g, grid, D_HALF, times, k=1, p=2)
    assert ser2.envelope_exponent == pytest.approx(-0.5 * (0.25 + 0.5))
    # band reconstruction at early time reproduces the data sup norm
    early = linear.kernel_decay_check(g, grid, D_HALF, np.array([1e-4]))
    assert early.observed[0] == pytest.approx(float(np.max(g)), rel=1e-2)


def test_kernel_decay_check_validation_and_warning():
    grid = Grid(1, 60.0, 512)
    g = bump_profile(grid, 8.0)
    with pytest.raises(ValueError):
        linear.kernel_decay_check(g, grid, D_HALF, (1.0,), i=3)
    x = grid.axis()
    kmax = math.pi / grid.dx
    rough = g + 0.05 * np.cos(0.9 * kmax * x)
    with pytest.warns(linear.AliasingWarning):
        linear.kernel_decay_check(rough, grid, D_HALF, (1.0,))
