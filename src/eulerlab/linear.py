"""Fourier-side analysis of the damped wave equation.

The second-order form of the linearized system is

    w_tt - Lap w + mu/(1+t)^lam w_t = 0,

so each Fourier mode obeys the non-autonomous oscillator

    W'' + r^2 W + mu/(1+t)^lam W' = 0,     r = |xi|.

Because the coefficient depends on t, the solution operator is a genuine
two-time propagator E(t, tau, r): a 2x2 matrix acting on (W, W') data
posed at time tau.  Its columns are the canonical solutions phi1
(value data) and phi2 (slope data).

This module computes them with a batched fourth-order Magnus engine
(evolve_modes, _magnus_advance), vectorized over a whole batch of radii,
whose step grows like MAGNUS_STEP (1+t) whatever the radii, shorter
only where the friction would take its exponential out of range.  The
exponentials of a chunk of substeps (up to MAGNUS_CHUNK elements over
substeps and radii) are formed in one vectorized pass, the oscillating
ones from the tangent of the half angle; the overdamped elements are
formed on their own, gathered into flat arrays, and scattered back.
The rows are carried through the chunk in order, both
canonical pairs in one call per product and sum, or the phi1 pair alone
where the caller reads nothing else.  So every element sees the
operations of a one-substep-at-a-time engine and gets its bits, whatever
the batch it is evolved in and whichever rows are carried.  It is the
one engine of the per-mode oscillator: the exact linear propagator of
the nonlinear stepper, the zone diagnostics and long-horizon decay
studies all run through _magnus_advance.

On top of the engine sit the zone diagnostics: the zone envelopes, L1
zone integrals of the first kernel by refining quadrature, and the
kernel decay check, which works on a line: it multiplies initial data
by the propagator in frequency space and measures sup norms of the
reconstructed field.  The
oracles live with the tests (tests/reference.py): the DOP853 mode
propagator, and the grid solver with its method-of-lines reference.
"""

from __future__ import annotations

import math
import warnings
from itertools import islice

import numpy as np

from .grids import Grid, SpectralOps
from .params import DampingLaw, Zone, t_xi, zone_classify

__all__ = [
    "AliasingWarning",
    "QuadratureError",
    "evolve_modes",
    "log_zone_envelope",
    "fit_zone_constant",
    "zone_integral",
    "kernel_decay_check",
]

# kernel_decay_check's band: |xi| <= 1 carries the polynomial-in-time decay
KERNEL_BAND = 1.0
# the aliasing limit: data warn past this share of energy beyond the band
_ALIAS_LIMIT = 1e-4


class AliasingWarning(UserWarning):
    """Initial data carries noticeable energy beyond the dealias band."""


class QuadratureError(RuntimeError):
    """Refining quadrature failed to converge to the requested tolerance."""


# =====================================================================
#  Batched Magnus engine
# =====================================================================

MAGNUS_STEP = 0.02
# largest |delta| / h of a substep: delta, the commutator term of Omega,
# grows like h^2 |b'| / 12 with h = MAGNUS_STEP (1+t).  Past about 1 the
# exponential of a substep overflows, so _substeps shortens a substep
# that would pass it; every catalog preset stays below 0.004 (checked to
# t = 1e4), so none of theirs is shortened
MAGNUS_RANGE = 0.25
# largest friction strength validate_config admits: a shortened substep
# is about sqrt(3 / |b'|) with |b'| <= lam mu, so the substep count grows
# like sqrt(lam mu).  At this bound the way to t = 1000 takes at most
# about 1.1e4 substeps, 30 times the 349 of catalog friction, none
# shorter than 1.5e-3
MAGNUS_MU_MAX = 1.0e6
# elements k M of one chunk: the exponentials of k substeps over M radii
# are formed together, in working arrays that one _magnus_advance holds
MAGNUS_CHUNK = 4096
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# the floor of the half-angle x = s/2 of an oscillating substep, where
# q = 0: tan(x) / x is then 1, the limit q -> 0, and every x > 0 (at
# least sqrt(5e-324)/2) is above it
_TAN_FLOOR = np.finfo(float).tiny


def evolve_modes(r, d: DampingLaw, t_out, *, phi1_only: bool = False) -> np.ndarray:
    """Integrate a batch of mode oscillators with a shared clock.

    r          -- radii, shape (M,)
    t_out      -- increasing output times, all >= 0
    phi1_only  -- carry the first canonical solution alone

    The rows (phi1, dphi1, phi2, dphi2) start from the canonical pair
    posed at t = 0; _magnus_advance carries other rows from other times.
    Returns an array of shape (4, M, len(t_out)), or (2, M, len(t_out))
    of (phi1, dphi1) alone with phi1_only, at half the carry's cost and
    with the same bits.  Fourth-order Magnus with step MAGNUS_STEP (1+t),
    landing exactly on each output time.  The exponential of each step
    is exact for frozen coefficients, so the step does not depend on
    the radii and late times cost only logarithmically many steps;
    under strong friction _substeps shortens the steps whose |delta|/h
    would pass MAGNUS_RANGE, and their count grows like sqrt(lam mu).
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t_out = np.atleast_1d(np.asarray(t_out, dtype=float))
    if np.any(np.diff(t_out) <= 0.0):
        raise ValueError("t_out must be strictly increasing")
    if t_out[0] < 0.0:
        raise ValueError("t_out must not be negative")
    M = r.size
    r2 = r * r
    y = np.zeros((2 if phi1_only else 4, M))
    y[0] = 1.0
    if not phi1_only:
        y[3] = 1.0

    out = np.empty(y.shape + (t_out.size,))
    t = 0.0
    for j, target in enumerate(t_out):
        y, t = _magnus_advance(y, t, target, r2, d)
        out[:, :, j] = y
    return out


def _substeps(t: float, target: float, d: DampingLaw):
    """The substeps of MAGNUS_STEP (1+t) from t, the last one cut to land
    on target: per substep, in Python floats, n00 = -m, n01 = h + delta,
    delta - h (that is n10 / r^2), n00^2, e^m, m and the time after it.
    A substep whose |delta| / h would pass MAGNUS_RANGE is shortened
    until it does not; |delta| / h grows like h^2."""
    while t < target - 1e-13 * max(1.0, target):
        h = min(MAGNUS_STEP * (1.0 + t), target - t)
        while True:
            b1 = d.mu * (1.0 + t + h * (0.5 - _GAUSS_OFFSET)) ** (-d.lam)
            b2 = d.mu * (1.0 + t + h * (0.5 + _GAUSS_OFFSET)) ** (-d.lam)
            delta = math.sqrt(3.0) * h * h * (b2 - b1) / 12.0
            if abs(delta) <= MAGNUS_RANGE * h:
                break
            h *= 0.9 * math.sqrt(MAGNUS_RANGE * h / abs(delta))
        m = -0.25 * h * (b1 + b2)
        n00 = -m
        t += h
        yield n00, h + delta, delta - h, n00 * n00, math.exp(m), m, t


def _carry(e: np.ndarray, cur: np.ndarray, nxt: np.ndarray):
    """Carry the rows cur through the substeps of e, the entries (e00,
    e01, e10, e11) of each, shape (4, j, M), taking turns with the rows
    nxt; returns (cur, nxt) as they then stand.

    At each substep W <- e00 W + e01 W' and W' <- e10 W + e11 W', each
    new row the sum of two products, over every pair (W, W') at once:
    (phi1, dphi1) as (M,) rows, or both canonical pairs as (2, M)
    strided views.  e01 W' goes to the new W' rows and e10 W over the
    old W' rows once e11 W' has left them, so no third set of rows is
    needed.
    """
    def pairs(rows):
        return (rows[0], rows[1]) if len(rows) == 2 else (rows[0::2], rows[1::2])

    (W, V), (nW, nV) = pairs(cur), pairs(nxt)
    for a, b, c, f in zip(*e):
        np.multiply(b, V, out=nV)
        np.add(np.multiply(a, W, out=nW), nV, out=nW)
        np.multiply(f, V, out=nV)
        np.add(np.multiply(c, W, out=V), nV, out=nV)
        (W, V), (nW, nV) = (nW, nV), (W, V)
        cur, nxt = nxt, cur
    return cur, nxt


def _magnus_advance(y: np.ndarray, t: float, target: float, r2: np.ndarray,
                    d: DampingLaw):
    """Carry the rows y from t to target, in place; returns (y, t).

    y holds (phi1, dphi1, phi2, dphi2), shape (4, M), or (phi1, dphi1)
    alone, shape (2, M).  Fourth-order Magnus substeps (_substeps; Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470, 2009).  Started from the canonical
    pair, the rows are the entries of the interval propagator
    E(target, t).

    With A(s) = [[0, 1], [-r^2, -b(s)]] sampled at the two Gauss nodes,
    Omega = h/2 (A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1] reduces to
    [[0, h + delta], [r^2 (delta - h), -h bbar]].  With m = tr(Omega)/2
    and N = Omega - m I (traceless, N^2 = q I) its exponential is
    C I + S N, where C and S carry the factor e^m.  For q <= 0, C =
    e^m cos(s) and S = e^m sin(s)/s with s = sqrt(-q) are formed from
    the tangent of the half angle s/2, one vectorized numpy call where
    cos and sin are scalar loops.  For q > 0 they are formed from
    e^(m +- sqrt q), so heavy friction at late times cannot overflow a
    cosh.

    The scalars of a substep come from its (t, h) alone, so the
    exponentials of a chunk of k substeps, k M <= MAGNUS_CHUNK, are
    formed as (k, M) arrays in one pass, in working arrays held for the
    call: the q <= 0 formulas over the whole chunk, unless no element
    has q <= 0, and then the q > 0 elements on their own, gathered into
    flat arrays and scattered back over the chunk's C and S.  The rows
    are carried through the chunk in order (_carry), both pairs in each
    call.  Every element sees the operations of the
    per-substep engine, in its order, and so its bits, whatever the
    other radii of the batch and whichever rows are carried.
    """
    M = r2.size
    steps = _substeps(t, target, d)
    rows = list(islice(steps, max(1, MAGNUS_CHUNK // max(M, 1))))
    if not rows:
        return y, t
    k = len(rows)
    # the entries e_00, e_01, e_10, e_11 of each substep, one scratch
    # array (q, then sqrt|q|, then the half angle x and S, then S n00)
    # and the q > 0 and s <= 1 masks
    e, w = np.empty((4, k, M)), np.empty((k, M))
    hyp, near = np.empty((2, k, M), dtype=bool)
    # the rows carried between y and a second set
    cur, nxt = y, np.empty_like(y)

    while rows:
        t = rows[-1][-1]
        n00, n01, dmh, nn, em, m = np.array(rows).T[:6, :, None]
        j = len(rows)
        e00, e01, e10, e11 = e[:, :j]
        s, hj, nj = w[:j], hyp[:j], near[:j]
        n10 = np.multiply(r2, dmh, out=e10)
        q = np.add(nn, np.multiply(n01, n10, out=s), out=s)
        np.greater(q, 0.0, out=hj)
        np.sqrt(np.abs(q, out=s), out=s)
        C, S = e11, s
        # the q > 0 elements of s, gathered before s turns into x and S
        sh = s[hj] if hj.any() else None
        # q <= 0: e^m cos(s) and e^m sin(s)/s from tau = tan(x), x = s/2
        # (floored at _TAN_FLOOR where q = 0) and g = e^m / (1 + tau^2):
        # C = g (1 - tau)(1 + tau) and S = g (tau / x), with tau in e01 and
        # g in e00.  A chunk with q > 0 everywhere skips this: the gathered
        # branch below overwrites all of it
        if not hj.all():
            x = np.maximum(np.multiply(s, 0.5, out=s), _TAN_FLOOR, out=s)
            tau = np.tan(x, out=e01)
            g = np.divide(em, np.add(np.multiply(tau, tau, out=e00), 1.0,
                                     out=e00), out=e00)
            np.multiply(g, np.subtract(1.0, tau, out=C), out=C)
            np.multiply(g, np.divide(tau, x, out=S), out=S)
            np.multiply(C, np.add(1.0, tau, out=e01), out=C)
        # q > 0: (e^(m+s) +- e^(m-s)) / 2, the difference divided by s and
        # taken through expm1 where s <= 1, on the gathered elements: s,
        # gathered above, and m, gathered from e00, then e^(m+s), in two
        # gathered arrays, e^(m-s) at the start of e01, the difference at
        # the start of e00 and s <= 1 at the start of nj.  The two go
        # before the column products below, whose buffers would otherwise
        # stack on them
        if sh is not None:
            np.copyto(e00, m)
            hi = e00[hj]
            lo, diff = e01.reshape(-1)[:sh.size], e00.reshape(-1)[:sh.size]
            close = np.less_equal(sh, 1.0, out=nj.reshape(-1)[:sh.size])
            np.exp(np.subtract(hi, sh, out=lo), out=lo)
            np.exp(np.add(hi, sh, out=hi), out=hi)
            np.subtract(hi, lo, out=diff)
            np.place(C, hj, np.multiply(0.5, np.add(hi, lo, out=hi), out=hi))
            # 2 min(s, 1) is min(2 s, 2) to the bit
            np.multiply(2.0, sh, out=sh)
            np.expm1(np.minimum(sh, 2.0, out=hi), out=hi)
            np.putmask(diff, close, np.multiply(lo, hi, out=hi))
            np.place(S, hj, np.divide(diff, sh, out=diff))
            del sh, hi
        np.multiply(S, n01, out=e01)
        np.multiply(S, n10, out=e10)
        SN = np.multiply(S, n00, out=s)
        np.add(C, SN, out=e00)
        np.subtract(C, SN, out=e11)
        cur, nxt = _carry(e[:, :j], cur, nxt)
        rows = list(islice(steps, k))
    if cur is not y:
        y[...] = cur
    return y, t


# =====================================================================
#  Radius tables of a grid
# =====================================================================

def _grid_mode_table(ops: SpectralOps):
    """Unique radii of the rfft lattice and the scatter-back indices."""
    kflat = ops.kmag.ravel()
    uniq, inverse = np.unique(np.round(kflat, 12), return_inverse=True)
    return uniq, inverse


def _check_band_limited(ops: SpectralOps, fields, what: str):
    for f in fields:
        frac = ops.tail_fraction(f)
        if frac > _ALIAS_LIMIT:
            warnings.warn(
                f"{what}: {frac:.2e} of the spectral energy sits beyond the "
                "dealias band; results are resolution-limited", AliasingWarning)


# =====================================================================
#  Zone diagnostics
# =====================================================================

def log_zone_envelope(t: float, r: float, C0: float, d: DampingLaw) -> float:
    """The logarithm of the envelope with constant C0 that bounds |phi|
    at (t, r = |xi|) in the zone that (t, r) falls in: finite where the
    envelope itself underflows, as at long horizons or under strong
    friction."""
    one_m = 1.0 - d.lam
    zone = zone_classify(t, r, d)
    if zone == Zone.Z1:
        return math.log(C0) - C0 * r * r * (1.0 + t) ** one_m
    if zone == Zone.Z2:
        # at most log C0, since t >= t_xi: the two terms apart overflow
        # and underflow an exponential at long horizons
        tx = t_xi(r, d)
        return math.log(C0) + C0 * ((1.0 - r * r) * (1.0 + tx) ** one_m
                                    - (1.0 + t) ** one_m)
    return math.log(C0) - C0 * (1.0 + t) ** one_m


def fit_zone_constant(samples, d: DampingLaw) -> float:
    """Pick the envelope constant minimizing the worst log-ratio.

    samples: iterable of (t, r, |phi|).  The envelope shape depends on
    C0 both in amplitude and in the exponent, so a log-spaced scan is
    the simplest robust fit; no constant is ever assumed a priori.
    """
    samples = list(samples)
    best_c, best_val = None, np.inf
    for c in np.geomspace(1e-3, 10.0, 60):
        worst = 0.0
        for t, r, obs in samples:
            if obs <= 0.0:
                continue
            # in logarithms: the envelope underflows and the quotient
            # overflows under strong friction and at long horizons
            worst = max(worst, abs(math.log(obs) - log_zone_envelope(t, r, c, d)))
        if worst < best_val:
            best_val, best_c = worst, c
    return float(best_c)


def _sphere_area(n: int) -> float:
    """|S^(n-1)|: 2, 2 pi, 4 pi for n = 1, 2, 3."""
    return {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[n]


def zone_integral(t: float, alpha: int, zone: Zone, d: DampingLaw, n: int, *,
                  tol: float = 1e-4, max_refine: int = 9) -> float:
    """L1 norm of |xi|^alpha phi_1 over one frequency zone at time t.

    The angular measure is handled analytically (the integrand is
    radial), leaving a 1-D radial integral evaluated by composite
    trapezoid with node doubling until successive refinements agree to
    the requested relative tolerance.  The first pass evolves the first
    two node sets at once, and each later doubling only its new
    midpoints; the sums are those of evolving every node set afresh.

    The integrand near the band boundary oscillates on a scale set by
    the elapsed time, so refinement starts from a deliberately fine
    node count at late times.
    """
    rb = 0.25 * d.mu * (1.0 + t) ** (-d.lam)
    if zone == Zone.Z1:
        lo, hi = 0.0, rb
    elif zone == Zone.Z2:
        lo, hi = rb, 1.0
    else:
        raise ValueError("zone integrals are taken over Z1 or Z2")
    if hi <= lo:
        return 0.0

    pw = alpha + n - 1

    def kernel(r: np.ndarray) -> np.ndarray:
        return np.abs(evolve_modes(r, d, np.array([t]), phi1_only=True)[0, :, 0])

    def quad(r: np.ndarray, g: np.ndarray) -> float:
        return float(np.trapezoid(r ** pw * g, r)) * _sphere_area(n)

    # np.linspace puts every other node of 2m - 1 at the bits of the m
    # nodes, so each doubling evolves only its new midpoints
    m = max(65, int(min(4096, 16 + (hi - lo) * (1.0 + t) / 2.0)) | 1)
    r = np.linspace(lo, hi, 2 * m - 1)
    g = kernel(r)
    prev = quad(r[::2], g[::2])
    for i in range(max_refine):
        if i:
            r = np.linspace(lo, hi, 2 * r.size - 1)
            g = np.insert(g, np.arange(1, g.size), kernel(r[1::2]))
        cur = quad(r, g)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"zone integral did not converge to {tol:g} after {max_refine} doublings")


# =====================================================================
#  Kernel decay check
# =====================================================================

def kernel_decay_check(g: np.ndarray, grid: Grid, d: DampingLaw, times, *,
                       k: tuple = (0,)) -> tuple:
    """Propagate data g on a line through the first kernel and record the
    decay of its sup norm.

    The reconstruction keeps radii <= KERNEL_BAND (the band that carries
    the polynomial-in-time behavior); higher radii share a single
    exponential-type envelope which is fitted on sparse probe modes and
    reported separately as a bound, never mixed into the observed norms.

    k is a tuple of derivative orders: the propagators do not depend on
    k, so they are evolved once.  Returns (observed, tail_bound), each of
    shape (len(k), len(times)): per order, the sup norm of the band
    reconstruction at each time, and the bound on the high-band rest.
    """
    if grid.n != 1:
        raise ValueError(f"kernel_decay_check works on a line, got n = {grid.n}")
    ops = SpectralOps(grid)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_band_limited(ops, (g,), "kernel data")

    G = ops.fwd(g)
    # _grid_mode_table's radii on a line, increasing: the band is radii[:nb]
    radii = np.round(ops.kmag, 12)
    nb = int(np.searchsorted(radii, KERNEL_BAND, side="right"))

    # the kernel's row of the propagators, (M, T), of the band and of the
    # probe radii that the high-band envelope is fitted on, in one pass
    probes = np.array([x for x in (1.0, 1.5, 2.0, 3.0, 4.0)
                       if KERNEL_BAND <= x <= radii[-1]] or [KERNEL_BAND])
    band_phi, probe_phi = np.split(
        evolve_modes(np.concatenate([radii[:nb], probes]), d, times,
                     phi1_only=True)[0], [nb])

    one_m = 1.0 - d.lam
    shape = np.exp(-(d.mu / (2.0 * one_m)) * ((1.0 + times) ** one_m - 1.0)) \
        if d.mu > 0 else np.ones_like(times)
    # fit the constant only where the envelope is representable; past its
    # underflow point the true bound sits below the smallest double and
    # the reported bound clamps to zero
    ok_t = shape > 1e-280
    if ok_t.any():
        c_fit = float(np.max(np.abs(probe_phi[:, ok_t]) / shape[None, ok_t]))
    else:
        c_fit = 1.0

    observed = np.empty((len(k), times.size))
    tail_bound = np.empty_like(observed)
    # the spectrum of the reconstruction: its band entries are filled at
    # each time, the rest stay zero
    W = np.zeros_like(G)
    band = W[:nb]
    for i, kk in enumerate(k):
        ik = (1j * ops.k[-1][:nb]) ** kk
        for j in range(times.size):
            np.multiply(G[:nb], band_phi[:, j], out=band)
            if kk:
                band *= ik
            observed[i, j] = ops.linf(ops.inv(W))
        # band zeros kept: the pairwise sum groups terms by array position
        tail = np.abs(G) * radii ** kk
        tail[:nb] = 0.0
        tail_bound[i] = 2.0 * c_fit * shape * (float(np.sum(tail)) / grid.N)
    return observed, tail_bound
