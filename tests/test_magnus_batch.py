"""The batched Magnus engine against its per-substep form, bit for bit.

_magnus_step and _advance below are the reference: the engine one
substep at a time, each new row stacked from two products and their
sum, and the oscillating exponentials formed from the tangent of the
half angle.  The batched linear._magnus_advance performs the same
operations on every element in the same order, so it must return the
same bits.
"""

import math

import numpy as np
import pytest

from eulerlab import linear
from eulerlab.params import DampingLaw

MAGNUS_STEP = 0.02
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_TAN_FLOOR = np.finfo(float).tiny


def _magnus_step(t: float, h: float, r2: np.ndarray, d: DampingLaw):
    """Entries (e00, e01, e10, e11) of the fourth-order Magnus propagator.

    With A(s) = [[0, 1], [-r^2, -b(s)]] sampled at the two Gauss nodes,
    Omega = h/2 (A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1] reduces to
    [[0, h + delta], [r^2 (delta - h), -h bbar]].  With m = tr(Omega)/2
    and N = Omega - m I (traceless, N^2 = q I) its exponential is
    C I + S N, where C and S carry the factor e^m.  For q <= 0 they are
    formed from tau = tan(s/2): cos s = (1 - tau)(1 + tau) / (1 + tau^2)
    and sin(s)/s = (tau / (s/2)) / (1 + tau^2).  For q > 0 they are
    formed from e^(m +- sqrt q), so heavy friction at late times cannot
    overflow a cosh.
    """
    b1 = d.mu * (1.0 + t + h * (0.5 - _GAUSS_OFFSET)) ** (-d.lam)
    b2 = d.mu * (1.0 + t + h * (0.5 + _GAUSS_OFFSET)) ** (-d.lam)
    delta = math.sqrt(3.0) * h * h * (b2 - b1) / 12.0
    m = -0.25 * h * (b1 + b2)
    n00 = -m
    n01 = h + delta
    n10 = r2 * (delta - h)
    q = n00 * n00 + n01 * n10
    s = np.sqrt(np.abs(q))

    # q <= 0: e^m cos(s) and e^m sin(s)/s from the tangent of the half
    # angle, floored where q = 0 so that tan(x) / x is 1, the limit q -> 0
    em = math.exp(m)
    x = np.maximum(s * 0.5, _TAN_FLOOR)
    tau = np.tan(x)
    g = em / (tau * tau + 1.0)
    C, S = g * (1.0 - tau) * (1.0 + tau), g * (tau / x)
    # q > 0: (e^(m+s) +- e^(m-s)) / 2, the difference divided by s and
    # taken through expm1 while s is small
    hyp = q > 0.0
    if np.any(hyp):
        sh = s[hyp]
        lo, hi = np.exp(m - sh), np.exp(m + sh)
        diff = np.where(sh <= 1.0, lo * np.expm1(2.0 * np.minimum(sh, 1.0)),
                        hi - lo)
        C[hyp] = 0.5 * (hi + lo)
        S[hyp] = diff / (2.0 * sh)
    return C + S * n00, S * n01, S * n10, C - S * n00


def _advance(y, t, target, r2, d):
    """The per-substep engine; returns (y, t, substeps taken)."""
    steps = 0
    while t < target - 1e-13 * max(1.0, target):
        h = min(MAGNUS_STEP * (1.0 + t), target - t)
        e00, e01, e10, e11 = _magnus_step(t, h, r2, d)
        y = np.stack([e00 * y[0] + e01 * y[1], e10 * y[0] + e11 * y[1],
                      e00 * y[2] + e01 * y[3], e10 * y[2] + e11 * y[3]])
        t += h
        steps += 1
    return y, t, steps


def _after(t: float, steps: int) -> float:
    """The time that the schedule from t reaches after full substeps."""
    for _ in range(steps):
        t += MAGNUS_STEP * (1.0 + t)
    return t


def _canonical(M: int) -> np.ndarray:
    y = np.zeros((4, M))
    y[0] = 1.0
    y[3] = 1.0
    return y


# radii 0 and below b/2, where q > 0 (overdamped) at early times, next to
# oscillating ones, padded to M radii: chunks of dozens of substeps, of a
# few and of one
FEW = np.array([0.0, 1e-9, 1e-3, 0.05, 0.3, 0.7, 0.999, 1.0, 1.001, 1.5,
                3.0, 40.0])


# radius sets that take one branch at every substep of these tests:
# well below b/2 (overdamped) and well above it (oscillating)
ONE_BRANCH = {"overdamped": (0.0, 0.1), "oscillating": (20.0, 40.0)}


def _radii(M: int) -> np.ndarray:
    return np.concatenate([FEW, np.linspace(0.0, 6.0, M - FEW.size)])


# chunks of 40 substeps, of exactly MAGNUS_CHUNK elements, of 3, and of
# one substep just above half the chunk and above the whole chunk
SIZES = [100, linear.MAGNUS_CHUNK // 4, 1300, linear.MAGNUS_CHUNK // 2 + 7,
         linear.MAGNUS_CHUNK + 7]
MANY = _radii(1300)
LAWS = [DampingLaw(lam=0.0, mu=2.0), DampingLaw(lam=0.5, mu=2.0),
        DampingLaw(lam=0.5, mu=30.0)]


def test_the_reference_keeps_the_engine_constants():
    assert linear.MAGNUS_STEP == MAGNUS_STEP
    assert linear._GAUSS_OFFSET == _GAUSS_OFFSET
    assert linear._TAN_FLOOR == _TAN_FLOOR
    assert not hasattr(linear, "_magnus_step")


def _check_advance(r: np.ndarray, d: DampingLaw, t0: float):
    M = r.size
    k = max(1, linear.MAGNUS_CHUNK // M)
    r2 = r * r
    y0 = np.random.default_rng(M).standard_normal((4, M))
    # one substep, one landing substep shorter than a full one, exactly
    # one chunk, one chunk and a short landing, several chunks and a part
    targets = {
        1: _after(t0, 1),
        0.4: t0 + 0.4 * MAGNUS_STEP * (1.0 + t0),
        k: _after(t0, k),
        k + 0.5: _after(t0, k) + 1e-3 * MAGNUS_STEP,
        3 * k + 1: _after(t0, 3 * k + 1),
    }
    for want, target in targets.items():
        for y in (_canonical(M), y0):
            ref, t_ref, steps = _advance(y, t0, target, r2, d)
            assert steps == math.ceil(want)
            rows = y.copy()
            got, t_got = linear._magnus_advance(rows, t0, target, r2, d)
            # the rows are carried in place
            assert got is rows
            assert t_got == t_ref
            assert np.array_equal(got, ref)


@pytest.mark.parametrize("d", LAWS, ids=lambda d: f"lam{d.lam}-mu{d.mu}")
@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("t0", [0.0, 3.7])
def test_batched_advance_is_the_per_substep_engine(M, d, t0):
    _check_advance(_radii(M), d, t0)


@pytest.mark.parametrize("d", LAWS, ids=lambda d: f"lam{d.lam}-mu{d.mu}")
@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("t0", [0.0, 3.7])
@pytest.mark.parametrize("kind", list(ONE_BRANCH))
def test_batched_advance_on_one_branch_is_the_per_substep_engine(M, d, t0,
                                                                 kind):
    _check_advance(np.linspace(*ONE_BRANCH[kind], M), d, t0)


@pytest.mark.parametrize("d", LAWS, ids=lambda d: f"lam{d.lam}-mu{d.mu}")
def test_the_radii_take_both_branches(d):
    # q = m^2 + (h + delta) r^2 (delta - h) of the first substep from 0:
    # positive (overdamped, the e^(m +- sqrt q) branch) at r = 0 and the
    # small radii, negative (oscillating) at the large ones
    h = MAGNUS_STEP
    b1 = d.mu * (1.0 + h * (0.5 - _GAUSS_OFFSET)) ** (-d.lam)
    b2 = d.mu * (1.0 + h * (0.5 + _GAUSS_OFFSET)) ** (-d.lam)
    delta = math.sqrt(3.0) * h * h * (b2 - b1) / 12.0
    m = -0.25 * h * (b1 + b2)
    q = m * m + (h + delta) * FEW * FEW * (delta - h)
    assert q[0] > 0.0 and np.sum(q > 0.0) >= 5 and q[-1] < 0.0


@pytest.mark.parametrize("d", LAWS, ids=lambda d: f"lam{d.lam}-mu{d.mu}")
def test_the_one_branch_sets_keep_their_branch(d):
    # q = n00^2 + n01 r^2 (delta - h) falls with r, so the largest radius
    # of the overdamped set and the smallest of the oscillating one decide;
    # checked over every substep of the longest target above
    k = linear.MAGNUS_CHUNK // SIZES[0]
    over, osc = ONE_BRANCH["overdamped"][1], ONE_BRANCH["oscillating"][0]
    for t0 in (0.0, 3.7):
        for n00, n01, dmh, nn, *_ in linear._substeps(
                t0, _after(t0, 3 * k + 1), d):
            assert nn + n01 * over * over * dmh > 0.0
            assert nn + n01 * osc * osc * dmh < 0.0


def test_advance_to_its_own_time_takes_no_substep():
    y = np.random.default_rng(1).standard_normal((4, FEW.size))
    before = y.copy()
    got, t = linear._magnus_advance(y, 2.0, 2.0, FEW * FEW, LAWS[1])
    assert t == 2.0 and got is y and np.array_equal(y, before)


@pytest.mark.parametrize("d", LAWS[:2], ids=lambda d: f"lam{d.lam}")
def test_evolve_modes_is_the_per_substep_engine(d):
    # evolve_modes carries its rows from output to output with
    # _magnus_advance, as the stepper's propagator does; here the rows
    # are random and start at t = 0.005
    t_out = np.array([0.01, 0.5, 2.0, 30.0, 1e3, 1.5e3])
    y0 = np.random.default_rng(3).standard_normal((4, MANY.size))
    got, s = y0.copy(), 0.005
    y, t = y0, 0.005
    for target in t_out:
        got, s = linear._magnus_advance(got, s, target, MANY * MANY, d)
        y, t, _ = _advance(y, t, target, MANY * MANY, d)
        assert np.array_equal(got, y)


def test_a_substep_past_the_range_is_shortened():
    # at lam = 0.5 and mu = 30 the substep's |delta| / h grows like
    # 5e-4 sqrt(1 + t) and passes 1.5 by t = 1e7, where the exponentials
    # would overflow; there every substep is shortened into the range,
    # and the substeps still tile the interval
    d = DampingLaw(lam=0.5, mu=30.0)
    t0, t1 = 1e7, 1.1e7
    subs = list(linear._substeps(t0, t1, d))
    h = np.array([0.5 * (n01 - dmh) for _, n01, dmh, *_ in subs])
    delta = np.array([0.5 * (n01 + dmh) for _, n01, dmh, *_ in subs])
    assert np.max(np.abs(delta) / h) <= linear.MAGNUS_RANGE
    assert np.all(h < 0.5 * MAGNUS_STEP * (1.0 + t0))
    assert subs[-1][-1] == pytest.approx(t1, rel=1e-13)
    # the damped oscillator loses energy: from (1, 0), r^2 W^2 + W'^2
    # stays at most r^2, and from (0, 1) at most 1
    y, t = linear._magnus_advance(_canonical(FEW.size), t0, t1, FEW * FEW, d)
    assert t == subs[-1][-1] and np.all(np.isfinite(y))
    r2 = FEW * FEW
    assert np.all(r2 * y[0] ** 2 + y[1] ** 2 <= r2 * (1.0 + 1e-9))
    assert np.all(r2 * y[2] ** 2 + y[3] ** 2 <= 1.0 + 1e-9)


def test_every_preset_stays_inside_the_engine_range():
    # the largest |delta| / h of each catalog preset's friction over the
    # substeps to max(t_final, 1e4): far below the limit
    from eulerlab import harness

    worst = 0.0
    for name in harness.PRESETS:
        cfg = harness.preset_config(name)
        d = DampingLaw(lam=cfg.lam, mu=cfg.mu)
        for n00, n01, dmh, *_ in linear._substeps(0.0, max(cfg.t_final, 1e4), d):
            delta = 0.5 * (n01 + dmh)
            worst = max(worst, abs(delta) / (0.5 * (n01 - dmh)))
    assert 0.0 < worst <= 0.004 < linear.MAGNUS_RANGE
