"""The batched Magnus engine against its per-substep form, bit for bit.

_magnus_step and _advance below are the reference: the engine one
substep at a time, each new row stacked from two products and their
sum.  The batched linear._magnus_advance performs the same operations
on every element in the same order, so it must return the same bits.
"""

import math

import numpy as np
import pytest

from eulerlab import linear
from eulerlab.params import DampingLaw

MAGNUS_STEP = 0.02
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0


def _magnus_step(t: float, h: float, r2: np.ndarray, d: DampingLaw):
    """Entries (e00, e01, e10, e11) of the fourth-order Magnus propagator.

    With A(s) = [[0, 1], [-r^2, -b(s)]] sampled at the two Gauss nodes,
    Omega = h/2 (A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1] reduces to
    [[0, h + delta], [r^2 (delta - h), -h bbar]].  With m = tr(Omega)/2
    and N = Omega - m I (traceless, N^2 = q I) its exponential is
    C I + S N, where C and S carry the factor e^m.  For q > 0 they are
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

    # q <= 0: e^m cos(s) and e^m sin(s)/s; sinc covers the limit q -> 0
    em = math.exp(m)
    C = em * np.cos(s)
    S = em * np.sinc(s / np.pi)
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


def _radii(M: int) -> np.ndarray:
    return np.concatenate([FEW, np.linspace(0.0, 6.0, M - FEW.size)])


SIZES = [100, 1300, linear.MAGNUS_CHUNK + 7]
MANY = _radii(SIZES[1])
LAWS = [DampingLaw(lam=0.0, mu=2.0), DampingLaw(lam=0.5, mu=2.0),
        DampingLaw(lam=0.5, mu=30.0)]


def test_the_reference_keeps_the_engine_constants():
    assert linear.MAGNUS_STEP == MAGNUS_STEP
    assert linear._GAUSS_OFFSET == _GAUSS_OFFSET
    assert not hasattr(linear, "_magnus_step")


@pytest.mark.parametrize("d", LAWS, ids=lambda d: f"lam{d.lam}-mu{d.mu}")
@pytest.mark.parametrize("M", SIZES)
@pytest.mark.parametrize("t0", [0.0, 3.7])
def test_batched_advance_is_the_per_substep_engine(M, d, t0):
    r = _radii(M)
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


def test_advance_to_its_own_time_takes_no_substep():
    y = np.random.default_rng(1).standard_normal((4, FEW.size))
    before = y.copy()
    got, t = linear._magnus_advance(y, 2.0, 2.0, FEW * FEW, LAWS[1])
    assert t == 2.0 and got is y and np.array_equal(y, before)


@pytest.mark.parametrize("d", LAWS[:2], ids=lambda d: f"lam{d.lam}")
def test_evolve_modes_is_the_per_substep_engine(d):
    t_out = np.array([0.01, 0.5, 2.0, 30.0, 1e3, 1.5e3])
    y0 = np.random.default_rng(3).standard_normal((4, MANY.size))
    got = linear.evolve_modes(MANY, d, t_out, t_start=0.005, y0=y0)
    y, t = y0, 0.005
    for j, target in enumerate(t_out):
        y, t, _ = _advance(y, t, target, MANY * MANY, d)
        assert np.array_equal(got[:, :, j], y)
