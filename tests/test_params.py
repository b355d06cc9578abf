"""Unit tests for the damping law, derived constants and weight algebra."""

import math

import numpy as np
import pytest

from eulerlab.params import (
    DELTA, DampingLaw, GasLaw, Zone, damping_coeff, derive_constants,
    integrating_factor, t_xi, weight_eval, zone_classify,
)


# ---------------------------------------------------------------------
#  Construction and validation
# ---------------------------------------------------------------------

def test_damping_law_rejects_bad_exponent():
    # NaN too: the range checks are accepting comparisons
    for lam in (-0.1, 1.0, math.nan):
        with pytest.raises(ValueError, match="^lam:"):
            DampingLaw(lam=lam, mu=1.0)


def test_damping_law_rejects_negative_strength():
    for mu in (-2.0, math.nan):
        with pytest.raises(ValueError, match="^mu:"):
            DampingLaw(lam=0.5, mu=mu)


def test_gas_law_gamma_range():
    for gamma in (1.0, math.nan):
        with pytest.raises(ValueError, match="^gamma:"):
            GasLaw(gamma=gamma)
    g = GasLaw()
    assert g.gamma == 2.0
    assert g.slope == 0.5
    assert 4.0 ** g.slope == pytest.approx(2.0, rel=1e-14)


# ---------------------------------------------------------------------
#  Coefficient and integrating factor
# ---------------------------------------------------------------------

def test_damping_coeff_closed_form():
    d = DampingLaw(lam=0.5, mu=2.0)
    assert damping_coeff(0.0, d) == pytest.approx(2.0, rel=1e-14)
    assert damping_coeff(3.0, d) == pytest.approx(1.0, rel=1e-14)
    # the compensated product is constant in time
    for t in (0.0, 0.7, 12.0, 4000.0):
        assert damping_coeff(t, d) * (1.0 + t) ** d.lam == pytest.approx(
            d.mu, rel=1e-13)


def test_damping_coeff_rejects_negative_time():
    d = DampingLaw(lam=0.5, mu=2.0)
    with pytest.raises(ValueError):
        damping_coeff(-0.1, d)


def test_damping_coeff_constant_when_exponent_zero():
    d = DampingLaw(lam=0.0, mu=1.7)
    ts = np.array([0.0, 1.0, 50.0])
    vals = [damping_coeff(t, d) for t in ts]
    assert np.allclose(vals, 1.7, rtol=1e-15)


def test_integrating_factor_frozen_values():
    # lam = 0: exp(mu (t1 - t0))
    d0 = DampingLaw(lam=0.0, mu=2.0)
    assert integrating_factor(0.0, 1.5, d0) == pytest.approx(
        20.085536923187668, rel=1e-13)
    # lam = 1/2, mu = 2: exp(4 (sqrt(1+t1) - sqrt(1+t0)))
    d1 = DampingLaw(lam=0.5, mu=2.0)
    assert integrating_factor(0.0, 3.0, d1) == pytest.approx(
        54.598150033144236, rel=1e-13)


def test_integrating_factor_is_multiplicative():
    d = DampingLaw(lam=0.3, mu=1.4)
    lhs = integrating_factor(0.2, 9.0, d)
    rhs = integrating_factor(0.2, 2.5, d) * integrating_factor(2.5, 9.0, d)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert integrating_factor(5.0, 5.0, d) == pytest.approx(1.0, rel=1e-15)


def test_integrating_factor_log_derivative_matches_coefficient():
    d = DampingLaw(lam=0.6, mu=0.9)
    t, h = 4.0, 1e-6
    num = (math.log(integrating_factor(0.0, t + h, d))
           - math.log(integrating_factor(0.0, t - h, d))) / (2.0 * h)
    assert num == pytest.approx(damping_coeff(t, d), rel=1e-8)


# ---------------------------------------------------------------------
#  Derived constants
# ---------------------------------------------------------------------

def test_default_delta_is_quarter_for_supported_dimensions():
    assert DELTA == 0.25
    for lam in (0.0, 0.3, 0.9):
        for n in (1, 2, 3):
            assert derive_constants(DampingLaw(lam=lam, mu=1.0), n).delta == DELTA


def test_derive_constants_frozen_case_1d():
    spec = derive_constants(DampingLaw(lam=0.5, mu=2.0), 1)
    assert spec.delta == pytest.approx(0.25)
    assert spec.B == pytest.approx(0.5, rel=1e-14)
    assert spec.a == pytest.approx(0.3125, rel=1e-14)
    assert spec.k_c == pytest.approx(4.0, rel=1e-14)


def test_derive_constants_frozen_case_2d():
    spec = derive_constants(DampingLaw(lam=0.2, mu=1.0), 2)
    assert spec.B == pytest.approx(0.95, rel=1e-13)
    assert spec.a == pytest.approx(0.134375, rel=1e-13)
    assert spec.k_c == pytest.approx(1.875, rel=1e-13)


def test_derive_constants_margin_range():
    d = DampingLaw(lam=0.5, mu=2.0)
    lim = 0.5 * 1.5 * 1
    for delta in (0.0, lim + 1e-9, math.nan):
        with pytest.raises(ValueError, match="^delta:"):
            derive_constants(d, 1, delta=delta)
    spec = derive_constants(d, 1, delta=lim)   # boundary is allowed
    assert spec.B == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        derive_constants(d, 4)


# ---------------------------------------------------------------------
#  Weight evaluation
# ---------------------------------------------------------------------

def test_weight_eval_identities_random_sample():
    rng = np.random.default_rng(42)
    for lam, mu, n in ((0.5, 2.0, 1), (0.3, 1.0, 2), (0.7, 4.0, 3)):
        spec = derive_constants(DampingLaw(lam=lam, mu=mu), n)
        t = float(10.0 ** rng.uniform(-1, 3))
        x = rng.uniform(-40.0, 40.0, size=(n, 500))
        we = weight_eval(t, x, spec)
        r2 = np.sum(x * x, axis=0)
        scale = np.max(np.abs(we.psi)) + 1e-300
        # time derivative relation
        assert np.max(np.abs(we.psi_t * (1.0 + t)
                             + (1.0 + lam) * we.psi)) <= 1e-12 * scale
        # Euler relation for the quadratic profile
        assert np.max(np.abs(np.sum(x * we.grad_psi, axis=0)
                             - 2.0 * we.psi)) <= 1e-12 * scale
        # Laplacian ties back to the profile through |x|^2
        assert np.max(np.abs(we.lap_psi * r2 - 2.0 * n * we.psi)) \
            <= 1e-11 * scale * n


def test_weight_eval_scalar_point():
    spec = derive_constants(DampingLaw(lam=0.5, mu=2.0), 1)
    we = weight_eval(3.0, np.array([2.0]), spec)
    # a |x|^2 / (1+t)^(3/2) with a = 0.3125
    assert we.psi == pytest.approx(0.3125 * 4.0 / 8.0, rel=1e-13)
    assert isinstance(we.psi, float)


def test_weight_eval_input_checks():
    spec = derive_constants(DampingLaw(lam=0.5, mu=2.0), 2)
    with pytest.raises(ValueError):
        weight_eval(-1.0, np.zeros((2, 3)), spec)
    with pytest.raises(ValueError):
        weight_eval(1.0, np.zeros((3, 3)), spec)


# ---------------------------------------------------------------------
#  Zones
# ---------------------------------------------------------------------

def test_zone_ordering():
    assert Zone.Z1 < Zone.Z2 < Zone.Z3


def test_zone_classify_boundaries():
    d = DampingLaw(lam=0.5, mu=2.0)
    # band radius at t = 3 is 0.5 * 4^(-1/2) = 0.25
    assert zone_classify(3.0, 0.2499, d) == Zone.Z1
    assert zone_classify(3.0, 0.25, d) == Zone.Z1      # tie goes low
    assert zone_classify(3.0, 0.2501, d) == Zone.Z2
    assert zone_classify(3.0, 1.0, d) == Zone.Z2       # tie goes low
    assert zone_classify(3.0, 1.0001, d) == Zone.Z3
    with pytest.raises(ValueError):
        zone_classify(-1.0, 0.5, d)


def test_t_xi_frozen_value_and_inverse():
    d = DampingLaw(lam=0.5, mu=2.0)
    assert t_xi(0.25, d) == pytest.approx(3.0, rel=1e-13)
    r = 0.2
    tc = t_xi(r, d)
    assert zone_classify(tc, r, d) == Zone.Z1          # on the boundary
    assert zone_classify(tc + 1e-6, r, d) == Zone.Z2   # just after crossing


def test_t_xi_domain():
    d = DampingLaw(lam=0.5, mu=2.0)
    with pytest.raises(ValueError):
        t_xi(0.0, d)
    with pytest.raises(ValueError):
        t_xi(0.51, d)      # above mu/4
    with pytest.raises(ValueError):
        t_xi(0.1, DampingLaw(lam=0.0, mu=2.0))
    free = DampingLaw(lam=0.5, mu=0.0)
    with pytest.raises(ValueError):
        t_xi(0.1, free)
