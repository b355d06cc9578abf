"""The batched Magnus engine over drawn batches, and its working memory.

hypothesis draws radius sets (unsorted, with r = 0 where the branch
allows it, overdamped at every substep, oscillating at every substep or
both), friction laws and intervals inside MAGNUS_RANGE.  The engine must
return the bits of the per-substep reference of test_magnus_batch.py,
carrying all four rows or the phi1 pair alone.  The peak of one call is
held to what the engine took before it formed the overdamped elements on
their own and carried both pairs in each call.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from eulerlab import linear
from eulerlab.params import DampingLaw
from test_magnus_batch import _advance


def _bits(a: np.ndarray) -> np.ndarray:
    return a.view(np.int64)


def _q(subs, r2: np.ndarray) -> np.ndarray:
    """q of every substep of subs over the radii, by the engine's
    operations: n00^2 + n01 (r^2 (delta - h))."""
    return np.array([nn + n01 * (r2 * dmh) for _, n01, dmh, nn, *_ in subs])


def _radii(kind: str, subs, M: int, rng) -> np.ndarray:
    """M radii in random order: below the smallest r at which some
    substep stops being overdamped, above the largest at which some
    substep still is, or spread over both; r = 0 is overdamped wherever
    n00^2 > 0, so it is among the overdamped and the mixed."""
    # q = n00^2 + n01 r^2 (delta - h) falls with r through zero at r^2 =
    # n00^2 / (n01 (h - delta))
    cuts = [nn / (n01 * -dmh) for _, n01, dmh, nn, *_ in subs] or [1.0]
    if kind == "oscillating":
        return np.sqrt(max(cuts)) * rng.uniform(1.01, 20.0, M) + 1e-3
    top = np.sqrt(min(cuts)) * 0.99 if kind == "overdamped" else 8.0
    r = rng.uniform(0.0, top, M)
    r[rng.integers(M)] = 0.0
    return r


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(lam=st.floats(0.0, 0.95), mu=st.floats(0.0, 60.0),
       t0=st.floats(0.0, 1e3), span=st.floats(0.0, 1.2),
       M=st.sampled_from([1, 3, 40, 341, 683, 2100, 4200]),
       kind=st.sampled_from(["mixed", "overdamped", "oscillating"]),
       canonical=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_engine_is_the_per_substep_reference(lam, mu, t0, span, M, kind,
                                             canonical, seed):
    d = DampingLaw(lam=lam, mu=mu)
    t1 = t0 + span * (1.0 + t0)
    # the drawn laws and intervals stay inside MAGNUS_RANGE (|delta| / h
    # is at most 0.21, at mu = 60, lam = 0.13 and t = 2201), so no
    # substep is shortened and the reference takes the engine's substeps
    subs = list(linear._substeps(t0, t1, d))
    # without friction no radius is overdamped, and under friction so weak
    # that n00^2 underflows (mu = 3.7e-301) neither is r = 0: every q is 0
    assume(kind != "overdamped" or mu > 0.0)
    assume(kind != "overdamped" or all(s[3] > 0.0 for s in subs))
    rng = np.random.default_rng(seed)
    r2 = _radii(kind, subs, M, rng) ** 2
    if subs and kind != "mixed":
        q = _q(subs, r2)
        assert np.all(q > 0.0) if kind == "overdamped" else np.all(q < 0.0)
    y = rng.standard_normal((4, M))
    if canonical:
        y[:] = 0.0
        y[0] = y[3] = 1.0

    ref, t_ref, steps = _advance(y, t0, t1, r2, d)
    assert steps == len(subs)
    got, t_got = linear._magnus_advance(y.copy(), t0, t1, r2, d)
    assert t_got == t_ref
    assert np.array_equal(_bits(got), _bits(ref))
    one, t_one = linear._magnus_advance(y[:2].copy(), t0, t1, r2, d)
    assert t_one == t_ref
    assert np.array_equal(_bits(one), _bits(ref[:2]))


# the tracemalloc peak of one _magnus_advance call above its start, in
# bytes, after a warm-up call, at lam = 0.5, mu = 2 and radii
# linspace(0, 1, M), of the engine at 4b96f27 (numpy 2.4.6, Python
# 3.11.7): nonlinear-decay's stepper propagator over 20 and over one
# substep, linear-decay's band and probes, u-extra-lambda's band
ENGINE_PEAKS = {
    (683, 100.0, 120.0): 230550,
    (683, 100.0, 101.0): 60518,
    (769, 0.0, 1e4): 258874,
    (342, 0.0, 140.0): 238772,
}


@pytest.mark.parametrize("rows", [4, 2], ids=["both-pairs", "phi1"])
@pytest.mark.parametrize("M, t0, t1", list(ENGINE_PEAKS),
                         ids=["683", "683-one-substep", "769", "342"])
def test_engine_working_memory_does_not_grow(M, t0, t1, rows):
    d = DampingLaw(lam=0.5, mu=2.0)
    r2 = np.linspace(0.0, 1.0, M) ** 2
    y = np.zeros((rows, M))
    linear._magnus_advance(y.copy(), t0, t1, r2, d)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        linear._magnus_advance(y, t0, t1, r2, d)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= ENGINE_PEAKS[M, t0, t1]
