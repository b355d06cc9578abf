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
from reference import (mol_reference_solve, propagator_matrix, solve_linear_ivp,
                       zone_integral_refined_afresh)

D_HALF = DampingLaw(lam=0.5, mu=2.0)
D_FREE = DampingLaw(lam=0.5, mu=0.0)
D_CONST = DampingLaw(lam=0.0, mu=2.0)


# ---------------------------------------------------------------------
#  Propagators (scipy route) against closed forms
# ---------------------------------------------------------------------

def test_propagator_identity_and_ordering():
    assert np.allclose(propagator_matrix(2.0, 2.0, 1.0, D_HALF),
                       np.eye(2))
    with pytest.raises(ValueError):
        propagator_matrix(1.0, 2.0, 1.0, D_HALF)


def test_propagator_matrix_underflow_is_quiet():
    # heavy constant friction drives the solution into subnormals by
    # t = 1e3; the oracle must return the (tiny, finite) answer without
    # a floating-point warning
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = propagator_matrix(1e3, 0.0, 1.0, D_CONST)
    assert np.all(np.isfinite(E))
    assert np.max(np.abs(E)) <= 1e-300


def test_free_wave_closed_form():
    for r in (0.5, 1.0, 2.0):
        for t in (1.0, 5.0, 17.0):
            E = propagator_matrix(t, 0.0, r, D_FREE)
            assert E[0, 0] == pytest.approx(math.cos(r * t), abs=1e-8)
            assert E[0, 1] == pytest.approx(math.sin(r * t) / r, abs=1e-8)
            assert E[1, 0] == pytest.approx(-r * math.sin(r * t), abs=1e-7)


def test_critically_damped_closed_form():
    # lam = 0, mu = 2 at |xi| = 1: double root, (1+t)e^-t and t e^-t
    for t in (0.5, 2.0, 10.0):
        E = propagator_matrix(t, 0.0, 1.0, D_CONST)
        assert E[0, 0] == pytest.approx((1.0 + t) * math.exp(-t), abs=1e-8)
        assert E[0, 1] == pytest.approx(t * math.exp(-t), abs=1e-8)


def test_propagator_determinant_is_inverse_integrating_factor():
    # Abel's identity: det E(t, tau) = exp(-int_tau^t b)
    d = DampingLaw(lam=0.4, mu=1.5)
    tau, t, r = 0.5, 6.0, 0.8
    E = propagator_matrix(t, tau, r, d)
    expected = 1.0 / integrating_factor(tau, t, d)
    assert float(np.linalg.det(E)) == pytest.approx(expected, rel=1e-7)


def test_two_time_composition():
    d = DampingLaw(lam=0.3, mu=1.5)
    r = 1.3
    full = propagator_matrix(12.0, 0.7, r, d)
    late = propagator_matrix(12.0, 3.0, r, d)
    early = propagator_matrix(3.0, 0.7, r, d)
    assert np.max(np.abs(full - late @ early)) <= 1e-8


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
            E = propagator_matrix(t, 0.0, r, d)
            assert tr[0, m, j] == pytest.approx(E[0, 0], abs=2e-6)
            assert tr[2, m, j] == pytest.approx(E[0, 1], abs=2e-6)


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
            E = propagator_matrix(t, 0.0, r, d)
            assert tr[0, m, j] == pytest.approx(E[0, 0], abs=2e-6)
            assert tr[2, m, j] == pytest.approx(E[0, 1], abs=2e-6)


def _constant_friction_propagator(t: float, r: float, mu: float) -> np.ndarray:
    """E(t, 0) of W'' + mu W' + r^2 W = 0 in closed form:
    e^(-mu t/2) [[c + (mu/2) s, s], [-r^2 s, c - (mu/2) s]], with c and s
    the cos(w t) and sin(w t)/w of w^2 = r^2 - mu^2/4 above the critical
    radius mu/2, cosh and sinh below it, and 1 and t at it."""
    half = 0.5 * mu
    w2 = (r - half) * (r + half)
    if w2 > 0.0:
        w = math.sqrt(w2)
        c, s = math.cos(w * t), math.sin(w * t) / w
    elif w2 < 0.0:
        w = math.sqrt(-w2)
        c, s = math.cosh(w * t), math.sinh(w * t) / w
    else:
        c, s = 1.0, t
    return math.exp(-half * t) * np.array([[c + half * s, s],
                                           [-r * r * s, c - half * s]])


@pytest.mark.parametrize("mu", [0.0, 0.5, 2.0])
def test_evolve_modes_is_the_constant_friction_closed_form(mu):
    # at lam = 0 the friction is constant, the commutator term of the
    # Magnus exponent vanishes and each substep's exponent is h A: the
    # engine is exact up to rounding.  At mu = 2 the radii cover the
    # oscillating (r > 1), critical (r = 1) and overdamped (r < 1) regimes
    radii = np.array([0.05, 0.3, 0.999, 1.0, 1.001, 2.0, 4.0])
    times = np.array([1.0, 5.0, 17.0, 50.0])
    tr = linear.evolve_modes(radii, DampingLaw(lam=0.0, mu=mu), times)
    for m, r in enumerate(radii):
        for j, t in enumerate(times):
            E = _constant_friction_propagator(float(t), float(r), mu)
            got = np.array([[tr[0, m, j], tr[2, m, j]],
                            [tr[1, m, j], tr[3, m, j]]])
            assert np.max(np.abs(got - E)) <= 1e-12 * np.max(np.abs(E))


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
    resumed, _ = linear._magnus_advance(direct[:, :, 0].copy(), 2.0, 5.0,
                                        radii * radii, d)
    assert np.max(np.abs(direct[:, :, 1] - resumed)) <= 1e-13


def test_evolve_modes_input_validation():
    with pytest.raises(ValueError):
        linear.evolve_modes(np.array([1.0]), D_HALF, np.array([2.0, 1.0]))


def test_evolve_modes_phi1_only_is_the_first_pair():
    # the phi1 pair carried alone gets the bits it gets beside phi2
    radii = np.concatenate([np.linspace(0.0, 2.0, 700), [40.0, 0.0, 1e-3]])
    times = np.array([0.01, 0.5, 2.0, 30.0, 1e3])
    for d in (D_HALF, D_CONST, D_FREE):
        full = linear.evolve_modes(radii, d, times)
        one = linear.evolve_modes(radii, d, times, phi1_only=True)
        assert one.shape == (2,) + full.shape[1:]
        assert np.array_equal(one.view(np.int64), full[:2].view(np.int64))


def test_zone_and_kernel_checks_carry_phi1_alone(monkeypatch):
    kws = []
    evolve = linear.evolve_modes
    monkeypatch.setattr(linear, "evolve_modes",
                        lambda *a, **kw: kws.append(kw) or evolve(*a, **kw))
    linear.zone_integral(10.0, 0, Zone.Z1, D_HALF, 1)
    grid = Grid(1, 60.0, 512)
    linear.kernel_decay_check(bump_profile(grid, 20.0), grid, D_HALF, (1.0,))
    assert kws == [{"phi1_only": True}] * 2


# ---------------------------------------------------------------------
#  Grid solver against the method-of-lines reference
# ---------------------------------------------------------------------

def test_linear_ivp_dual_route():
    grid = Grid(1, 15.0, 128)
    w0 = bump_profile(grid, 3.0)
    w1 = 0.2 * bump_profile(grid, 2.0)
    times = (1.0, 3.0, 7.0)
    ops = SpectralOps(grid)
    sol = solve_linear_ivp(w0, w1, ops, D_HALF, times)
    ref = mol_reference_solve(w0, w1, grid, D_HALF, times)
    assert np.allclose(sol.times, times)
    for j in range(3):
        assert sol.w[j].shape == grid.shape
        rel = ops.l2(sol.w[j] - ref.w[j]) / ops.l2(ref.w[j])
        assert rel <= 1e-5
        relt = ops.l2(sol.w_t[j] - ref.w_t[j]) / max(ops.l2(ref.w_t[j]), 1e-12)
        assert relt <= 1e-4


def test_linear_ivp_warns_on_rough_data():
    grid = Grid(1, 15.0, 128)
    x = grid.axis()
    kmax = math.pi / grid.dx
    rough = bump_profile(grid, 3.0) + 0.05 * np.cos(0.9 * kmax * x)
    with pytest.warns(linear.AliasingWarning):
        solve_linear_ivp(rough, np.zeros(grid.shape), SpectralOps(grid),
                                D_HALF, (0.5,))


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

    def zi(alpha, zone, n):
        return linear.zone_integral(0.0, alpha, zone, d, n, tol=tol)

    assert zi(0, Zone.Z1, 1) == pytest.approx(2.0 * rb, rel=1e-7)
    assert zi(2, Zone.Z1, 1) == pytest.approx(2.0 * rb ** 3 / 3.0, rel=1e-7)
    assert zi(0, Zone.Z2, 1) == pytest.approx(2.0 * (1.0 - rb), rel=1e-7)
    # higher dimensions pick up the sphere area factor
    assert zi(0, Zone.Z1, 2) == pytest.approx(math.pi * rb ** 2, rel=1e-7)
    assert zi(0, Zone.Z1, 3) == pytest.approx(
        4.0 * math.pi * rb ** 3 / 3.0, rel=1e-7)


def test_zone_integral_validation():
    with pytest.raises(ValueError):
        linear.zone_integral(1.0, 0, Zone.Z3, D_HALF, 1)


def test_zone_integral_unreachable_tolerance():
    with pytest.raises(linear.QuadratureError):
        linear.zone_integral(10.0, 0, Zone.Z1, D_HALF, 1,
                             tol=0.0, max_refine=1)


def _evolved_sizes(monkeypatch) -> list:
    sizes = []
    evolve = linear.evolve_modes
    monkeypatch.setattr(
        linear, "evolve_modes",
        lambda r, *a, **kw: sizes.append(np.size(r)) or evolve(r, *a, **kw))
    return sizes


@pytest.mark.parametrize("t, alpha, zone, n, tol, passes", [
    # converged at the first doubling: one pass over 2m - 1 = 129 nodes
    (10.0, 0, Zone.Z1, 1, 1e-4, [129]),
    (1e3, 2, Zone.Z1, 1, 1e-4, [129]),
    # at a later one: then only the new midpoints of each doubling
    (10.0, 2, Zone.Z2, 2, 1e-4, [129, 128]),
    (10.0, 0, Zone.Z1, 1, 1e-8, [129, 128, 256, 512, 1024, 2048]),
], ids=["first", "first-late", "second-z2", "sixth"])
def test_zone_integral_is_the_refinement_afresh(monkeypatch, t, alpha, zone,
                                                n, tol, passes):
    want = zone_integral_refined_afresh(t, alpha, zone, D_HALF, n, tol=tol)
    sizes = _evolved_sizes(monkeypatch)
    got = linear.zone_integral(t, alpha, zone, D_HALF, n, tol=tol)
    assert got == want
    assert sizes == passes


def test_zone_integral_gives_up_where_the_refinement_afresh_does(monkeypatch):
    with pytest.raises(linear.QuadratureError,
                       match="after 3 doublings") as want:
        zone_integral_refined_afresh(10.0, 0, Zone.Z1, D_HALF, 1, tol=0.0,
                                     max_refine=3)
    sizes = _evolved_sizes(monkeypatch)
    with pytest.raises(linear.QuadratureError) as got:
        linear.zone_integral(10.0, 0, Zone.Z1, D_HALF, 1, tol=0.0,
                             max_refine=3)
    assert str(got.value) == str(want.value)
    assert sizes == [129, 128, 256]


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
    ratios = [p / linear.zone_envelope(t, r, c0, d) for (t, r, p) in samples]
    assert all(np.isfinite(ratios))
    assert max(ratios) <= 10.0


def test_zone_envelope_follows_the_zone():
    # (2, 0.1) lies in the overdamped band Z1, (2, 3) above |xi| = 1 in Z3
    assert linear.zone_envelope(2.0, 0.1, 1.0, D_HALF) == pytest.approx(
        math.exp(-0.01 * math.sqrt(3.0)), rel=1e-14)
    assert linear.zone_envelope(2.0, 3.0, 0.5, D_HALF) == pytest.approx(
        0.5 * math.exp(-0.5 * math.sqrt(3.0)), rel=1e-14)


# ---------------------------------------------------------------------
#  Kernel decay series
# ---------------------------------------------------------------------

def test_kernel_decay_check_basics():
    grid = Grid(1, 60.0, 512)
    g = bump_profile(grid, 20.0)   # wide: sup norm carried by radii <= 1
    times = np.array([0.5, 2.0, 8.0, 32.0])
    observed, tail_bound = linear.kernel_decay_check(g, grid, D_HALF, times,
                                                     k=(0,))
    assert observed.shape == tail_bound.shape == (1, times.size)
    assert np.all(observed > 0.0)
    assert np.all(tail_bound >= 0.0)
    # band reconstruction at early time reproduces the data sup norm
    early, _ = linear.kernel_decay_check(g, grid, D_HALF, np.array([1e-4]))
    assert early[0, 0] == pytest.approx(float(np.max(g)), rel=1e-2)


def test_kernel_decay_check_orders_share_propagators(monkeypatch):
    grid = Grid(1, 60.0, 512)
    g = bump_profile(grid, 20.0)
    times = np.array([0.5, 2.0, 8.0, 32.0])
    calls = []
    evolve = linear.evolve_modes
    monkeypatch.setattr(linear, "evolve_modes",
                        lambda *a, **kw: calls.append(1) or evolve(*a, **kw))
    observed, tail_bound = linear.kernel_decay_check(g, grid, D_HALF, times,
                                                     k=(0, 1))
    # one pass over the band and the probe radii, whatever the number of
    # orders
    assert len(calls) == 1
    assert observed.shape == tail_bound.shape == (2, times.size)
    # each row is the single-order call's, bit for bit
    for i, k in enumerate((0, 1)):
        one = linear.kernel_decay_check(g, grid, D_HALF, times, k=(k,))
        assert np.array_equal(observed[i], one[0][0])
        assert np.array_equal(tail_bound[i], one[1][0])


def test_kernel_decay_check_pass_is_the_band_and_probe_passes():
    # the one pass over the band and the probe radii gives each radius
    # the bits of a pass over its own set
    grid = Grid(1, 60.0, 512)
    times = np.array([0.5, 2.0, 8.0, 32.0])
    ops = SpectralOps(grid)
    r = np.round(ops.kmag, 12)
    # on a line the radii are the grid's mode table, increasing
    assert np.array_equal(r, linear._grid_mode_table(ops)[0])
    band = r[r <= linear.KERNEL_BAND]
    probes = np.array([1.0, 1.5, 2.0, 3.0, 4.0])
    assert r.max() >= probes.max()
    for d in (D_HALF, D_CONST):
        both = linear.evolve_modes(np.concatenate([band, probes]), d, times)
        assert np.array_equal(both[:, :band.size],
                              linear.evolve_modes(band, d, times))
        assert np.array_equal(both[:, band.size:],
                              linear.evolve_modes(probes, d, times))


def test_kernel_decay_check_works_on_a_line_only():
    grid = Grid(2, 10.0, 16)
    with pytest.raises(ValueError, match="works on a line, got n = 2"):
        linear.kernel_decay_check(np.zeros(grid.shape), grid, D_HALF, (1.0,))


def test_kernel_decay_check_validation_and_warning():
    grid = Grid(1, 60.0, 512)
    g = bump_profile(grid, 8.0)
    x = grid.axis()
    kmax = math.pi / grid.dx
    rough = g + 0.05 * np.cos(0.9 * kmax * x)
    with pytest.warns(linear.AliasingWarning):
        linear.kernel_decay_check(rough, grid, D_HALF, (1.0,))
