"""Fourier-side analysis of the damped wave equation.

The second-order form of the linearized system is

    w_tt - Lap w + mu/(1+t)^lam w_t = 0,

so each Fourier mode obeys the non-autonomous oscillator

    W'' + r^2 W + mu/(1+t)^lam W' = 0,     r = |xi|.

Because the coefficient depends on t, the solution operator is a genuine
two-time propagator E(t, tau, r): a 2x2 matrix acting on (W, W') data
posed at time tau.  Its columns are the canonical solutions phi1
(value data) and phi2 (slope data).  This module computes them two
independent ways:

  * a batched fourth-order Magnus engine (evolve_modes), vectorized over
    a whole batch of radii, whose step grows like MAGNUS_STEP (1+t)
    whatever the radii.  The exponentials of a chunk of substeps (up to
    MAGNUS_CHUNK elements over substeps and radii) are formed in one
    vectorized pass, the overdamped elements under a mask over the whole
    chunk, and the rows are carried through them in order, so every
    element sees the operations of a one-substep-at-a-time engine and
    gets its bits, whatever the batch it is evolved in.  It is the one
    engine of the per-mode oscillator: the grid solver, the exact linear
    propagator of the nonlinear stepper, the zone diagnostics and
    long-horizon decay studies all run through _magnus_advance;
  * scipy's DOP853 on single modes at tight tolerance (propagator_matrix,
    the cross-check oracle).  scipy.integrate is imported on the
    oracle's first call, so the presets, which never call it, run
    without it.

On top of the propagators sit the grid solver (solve_linear_ivp) and the
zone diagnostics: the zone envelopes, L1 zone integrals of the first kernel
by refining quadrature, and the kernel decay check that multiplies
initial data by the propagator in frequency space and measures norms of
the reconstructed field.  The method-of-lines reference solver, the grid
solver's independent oracle, lives with the tests (tests/reference.py).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .grids import Grid, SpectralOps
from .params import DampingLaw, Zone, t_xi, zone_classify

__all__ = [
    "KernelDecaySeries",
    "AliasingWarning",
    "QuadratureError",
    "propagator_matrix",
    "evolve_modes",
    "solve_linear_ivp",
    "zone_envelope",
    "fit_zone_constant",
    "zone_integral",
    "kernel_decay_check",
]

MODE_RTOL = 1e-10
# kernel_decay_check's band: |xi| <= 1 carries the polynomial-in-time decay
KERNEL_BAND = 1.0


class AliasingWarning(UserWarning):
    """Initial data carries noticeable energy beyond the dealias band."""


class QuadratureError(RuntimeError):
    """Refining quadrature failed to converge to the requested tolerance."""


# =====================================================================
#  Propagators: scipy reference path
# =====================================================================

def propagator_matrix(t: float, tau: float, r: float, d: DampingLaw,
                      tol: float = MODE_RTOL) -> np.ndarray:
    """2x2 solution matrix E(t, tau) of the mode of radius r = |xi|, by
    DOP853.

    Column 0 is phi1, posed at tau with (W, W') = (1, 0), and column 1
    is phi2, posed with (0, 1); row 1 holds their time derivatives at t.
    Integrates both canonical columns at once.  The step cap 0.1/r keeps
    the oscillatory phase resolved for large radii.
    """
    if t < tau:
        raise ValueError(f"propagator needs t >= tau, got t={t}, tau={tau}")
    if t == tau:
        return np.eye(2)
    from scipy.integrate import solve_ivp

    lam, mu = d.lam, d.mu
    r2 = r * r

    def rhs(s, y):
        b = mu * (1.0 + s) ** (-lam)
        return (y[1], -r2 * y[0] - b * y[1],
                y[3], -r2 * y[2] - b * y[3])

    max_step = 0.1 / r if r > 0 else np.inf
    # once the solution underflows to subnormals the step-size control
    # divides 0 by 0; the result is still right, so only a non-finite
    # matrix counts as a failure
    with np.errstate(invalid="ignore"):
        sol = solve_ivp(rhs, (tau, t), (1.0, 0.0, 0.0, 1.0), method="DOP853",
                        rtol=tol, atol=tol * 1e-2, max_step=max_step)
    if not sol.success:
        raise RuntimeError(f"mode integration failed: {sol.message}")
    y = sol.y[:, -1]
    if not np.all(np.isfinite(y)):
        raise RuntimeError(f"mode integration returned non-finite values at t={t}")
    return np.array([[y[0], y[2]], [y[1], y[3]]])


# =====================================================================
#  Batched Magnus engine
# =====================================================================

MAGNUS_STEP = 0.02
# largest |delta| / h of a substep: delta, the commutator term of Omega,
# grows like h^2 |b'| / 12 with h = MAGNUS_STEP (1+t).  Past about 1 the
# exponential of a substep overflows; every catalog preset stays below
# 0.004 (checked to t = 1e4)
MAGNUS_RANGE = 0.25
# elements k M of one chunk: the exponentials of k substeps over M radii
# are formed together, in working arrays that one _magnus_advance holds
MAGNUS_CHUNK = 4096
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
# what np.sinc puts in place of x = 0
_SINC_EPS = np.finfo(float).eps


def evolve_modes(r, d: DampingLaw, t_out) -> np.ndarray:
    """Integrate a batch of mode oscillators with a shared clock.

    r      -- radii, shape (M,)
    t_out  -- increasing output times, all >= 0

    The rows (phi1, dphi1, phi2, dphi2) start from the canonical pair
    posed at t = 0; _magnus_advance carries other rows from other times.
    Returns an array of shape (4, M, len(t_out)).  Fourth-order Magnus
    with step MAGNUS_STEP (1+t), landing exactly on each output time.
    The exponential of each step is exact for frozen coefficients, so
    the step does not depend on the radii and late times cost only
    logarithmically many steps.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    t_out = np.atleast_1d(np.asarray(t_out, dtype=float))
    if np.any(np.diff(t_out) <= 0.0):
        raise ValueError("t_out must be strictly increasing")
    if t_out[0] < 0.0:
        raise ValueError("t_out must not be negative")
    M = r.size
    r2 = r * r
    y = np.zeros((4, M))
    y[0] = 1.0
    y[3] = 1.0

    out = np.empty((4, M, t_out.size))
    t = 0.0
    for j, target in enumerate(t_out):
        y, t = _magnus_advance(y, t, target, r2, d)
        out[:, :, j] = y
    return out


def _substeps(t: float, target: float, d: DampingLaw):
    """The substeps of MAGNUS_STEP (1+t) from t, the last one cut to land
    on target: per substep, in Python floats, n00 = -m, n01 = h + delta,
    delta - h (that is n10 / r^2), n00^2, e^m, m and the time after it.
    A substep with |delta| / h above MAGNUS_RANGE raises ValueError."""
    while t < target - 1e-13 * max(1.0, target):
        h = min(MAGNUS_STEP * (1.0 + t), target - t)
        b1 = d.mu * (1.0 + t + h * (0.5 - _GAUSS_OFFSET)) ** (-d.lam)
        b2 = d.mu * (1.0 + t + h * (0.5 + _GAUSS_OFFSET)) ** (-d.lam)
        delta = math.sqrt(3.0) * h * h * (b2 - b1) / 12.0
        if abs(delta) > MAGNUS_RANGE * h:
            raise ValueError(
                f"Magnus engine out of range at t={t:g} (lam={d.lam:g}, "
                f"mu={d.mu:g}): |delta|/h = {abs(delta) / h:.3g} exceeds "
                f"MAGNUS_RANGE = {MAGNUS_RANGE:g}")
        m = -0.25 * h * (b1 + b2)
        n00 = -m
        t += h
        yield n00, h + delta, delta - h, n00 * n00, math.exp(m), m, t


def _magnus_advance(y: np.ndarray, t: float, target: float, r2: np.ndarray,
                    d: DampingLaw):
    """Carry the (4, M) rows y from t to target, in place; returns (y, t).

    Fourth-order Magnus substeps (_substeps).  Started from the canonical
    pair, the rows are the entries of the interval propagator
    E(target, t).

    With A(s) = [[0, 1], [-r^2, -b(s)]] sampled at the two Gauss nodes,
    Omega = h/2 (A1 + A2) + (sqrt(3) h^2 / 12) [A2, A1] reduces to
    [[0, h + delta], [r^2 (delta - h), -h bbar]].  With m = tr(Omega)/2
    and N = Omega - m I (traceless, N^2 = q I) its exponential is
    C I + S N, where C and S carry the factor e^m.  For q > 0 they are
    formed from e^(m +- sqrt q), so heavy friction at late times cannot
    overflow a cosh.

    The scalars of a substep come from its (t, h) alone, so the
    exponentials of a chunk of k substeps, k M <= MAGNUS_CHUNK, are
    formed as (k, M) arrays in one pass, in working arrays held for the
    call; the q > 0 elements are formed over the whole chunk under a
    mask, in the slots of those arrays.  The rows are then carried
    through them in order, each new row the sum of two products.  Every
    element sees the operations of the per-substep engine, in its order,
    and so its bits, whatever the other radii of the batch.
    """
    M = r2.size
    steps = _substeps(t, target, d)
    rows = list(islice(steps, max(1, MAGNUS_CHUNK // max(M, 1))))
    if not rows:
        return y, t
    k = len(rows)
    # the entries e_00, e_01, e_10, e_11 of each substep, one scratch
    # array (q, then sqrt|q|, then S n00) and the q > 0 and x == 0 masks
    e, w = np.empty((4, k, M)), np.empty((k, M))
    hyp, zero = np.empty((2, k, M), dtype=bool)
    # the rows carried between y and nxt, and one product
    cur, nxt, prod = y, np.empty((4, M)), np.empty(M)

    while rows:
        t = rows[-1][-1]
        n00, n01, dmh, nn, em, m = np.array(rows).T[:6, :, None]
        j = len(rows)
        e00, e01, e10, e11 = e[:, :j]
        s, hj, zj = w[:j], hyp[:j], zero[:j]
        n10 = np.multiply(r2, dmh, out=e10)
        q = np.add(nn, np.multiply(n01, n10, out=s), out=s)
        np.greater(q, 0.0, out=hj)
        np.sqrt(np.abs(q, out=s), out=s)
        # q <= 0: e^m cos(s) and e^m sin(s)/s; sinc covers the limit q -> 0.
        # S is np.sinc(s / pi) by np.sinc's own operations, x = pi (s / pi),
        # eps where x == 0, then sin(x) / x, in held arrays: S in e00 and
        # sin(x) in e01
        C = np.multiply(em, np.cos(s, out=e11), out=e11)
        S = np.multiply(np.pi, np.divide(s, np.pi, out=e00), out=e00)
        np.copyto(S, _SINC_EPS, where=np.equal(S, 0.0, out=zj))
        np.multiply(em, np.divide(np.sin(S, out=e01), S, out=S), out=S)
        # q > 0: (e^(m+s) +- e^(m-s)) / 2, the difference divided by s and
        # taken through expm1 where s <= 1.  Over the chunk under the mask:
        # e^(m-s) in S, e^(m+s) in C and the difference in e01
        if hj.any():
            lo, hi, diff = S, C, e01
            np.exp(np.subtract(m, s, out=lo, where=hj), out=lo, where=hj)
            np.exp(np.add(m, s, out=hi, where=hj), out=hi, where=hj)
            np.subtract(hi, lo, out=diff, where=hj)
            near = np.logical_and(hj, np.less_equal(s, 1.0, out=zj), out=zj)
            np.expm1(np.multiply(2.0, s, out=diff, where=near), out=diff,
                     where=near)
            np.multiply(lo, diff, out=diff, where=near)
            np.multiply(0.5, np.add(hi, lo, out=hi, where=hj), out=hi,
                        where=hj)
            np.divide(diff, np.multiply(2.0, s, out=lo, where=hj), out=lo,
                      where=hj)
        SN = np.multiply(S, n00, out=s)
        np.multiply(S, n01, out=e01)
        np.multiply(S, n10, out=e10)
        np.add(C, SN, out=e00)
        np.subtract(C, SN, out=e11)
        # rows (0, 1) and (2, 3) are two pairs (W, W'):
        # W <- e00 W + e01 W' and W' <- e10 W + e11 W'
        for i in range(j):
            for a, b in ((0, 1), (2, 3)):
                np.add(np.multiply(e00[i], cur[a], out=nxt[a]),
                       np.multiply(e01[i], cur[b], out=prod), out=nxt[a])
                np.add(np.multiply(e10[i], cur[a], out=nxt[b]),
                       np.multiply(e11[i], cur[b], out=prod), out=nxt[b])
            cur, nxt = nxt, cur
        rows = list(islice(steps, k))
    if cur is not y:
        y[...] = cur
    return y, t


# =====================================================================
#  Linear initial-value solver on a grid
# =====================================================================

def _grid_mode_table(ops: SpectralOps):
    """Unique radii of the rfft lattice and the scatter-back indices."""
    kflat = ops.kmag.ravel()
    uniq, inverse = np.unique(np.round(kflat, 12), return_inverse=True)
    return uniq, inverse


def _check_band_limited(ops: SpectralOps, fields, what: str, limit: float = 1e-4):
    for f in fields:
        frac = ops.tail_fraction(f)
        if frac > limit:
            warnings.warn(
                f"{what}: {frac:.2e} of the spectral energy sits beyond the "
                "dealias band; results are resolution-limited", AliasingWarning)


@dataclass
class LinearSolution:
    """Field history of the linear solver: w and w_t at the output times."""

    times: np.ndarray
    w: list[np.ndarray]
    w_t: list[np.ndarray]


def solve_linear_ivp(w0: np.ndarray, w1: np.ndarray, ops: SpectralOps,
                     d: DampingLaw, t_out) -> LinearSolution:
    """Solve the damped wave equation on the periodic grid of ops, mode
    by mode.

    Each mode is  W = phi1 W0 + phi2 W1.
    """
    t_out = np.atleast_1d(np.asarray(t_out, dtype=float))
    _check_band_limited(ops, (w0, w1), "linear initial data")
    uniq, inverse = _grid_mode_table(ops)

    W0 = ops.fwd(w0).ravel()
    W1 = ops.fwd(w1).ravel()
    tr = evolve_modes(uniq, d, t_out)
    w_list, wt_list = [], []
    for j in range(t_out.size):
        Wt = W0 * tr[0, inverse, j] + W1 * tr[2, inverse, j]
        Vt = W0 * tr[1, inverse, j] + W1 * tr[3, inverse, j]
        w_list.append(ops.inv(Wt.reshape(ops.kshape)))
        wt_list.append(ops.inv(Vt.reshape(ops.kshape)))
    return LinearSolution(times=t_out, w=w_list, w_t=wt_list)


# =====================================================================
#  Zone diagnostics
# =====================================================================

def zone_envelope(t: float, r: float, C0: float, d: DampingLaw) -> float:
    """The envelope with constant C0 that bounds |phi| at (t, r = |xi|)
    in the zone that (t, r) falls in."""
    one_m = 1.0 - d.lam
    zone = zone_classify(t, r, d)
    if zone == Zone.Z1:
        return C0 * math.exp(-C0 * r * r * (1.0 + t) ** one_m)
    if zone == Zone.Z2:
        tx = t_xi(r, d)
        return C0 * math.exp(-C0 * (1.0 + t) ** one_m) \
            * math.exp(C0 * (1.0 - r * r) * (1.0 + tx) ** one_m)
    return C0 * math.exp(-C0 * (1.0 + t) ** one_m)


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
            env = zone_envelope(t, r, c, d)
            if env <= 0.0 or obs <= 0.0:
                continue
            worst = max(worst, abs(math.log(obs / env)))
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
        return np.abs(evolve_modes(r, d, np.array([t]))[0, :, 0])

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

@dataclass
class KernelDecaySeries:
    """Norms of the propagated field, split into band and tail parts.

    observed[j] is the sup norm of the band reconstruction at times[j];
    tail_bound[j] is an empirically anchored bound on the neglected
    high-band contribution (envelope fitted from probe modes, times the
    spectral mass above the cut).
    """

    times: np.ndarray
    k: int
    observed: np.ndarray
    tail_bound: np.ndarray
    envelope_exponent: float


def kernel_decay_check(g: np.ndarray, grid: Grid, d: DampingLaw, times, *,
                       k: tuple = (0,)) -> tuple:
    """Propagate data g through the first kernel and record the decay of
    its sup norm.

    The reconstruction keeps radii <= KERNEL_BAND (the band that carries
    the polynomial-in-time behavior); higher radii share a single
    exponential-type envelope which is fitted on sparse probe modes and
    reported separately as a bound, never mixed into the observed norms.

    k is a tuple of derivative orders: the propagators do not depend on
    k, so they are evolved once and one series per order comes back, in
    a tuple.  Each series carries the polynomial rate it is compared
    against, -(1-lam)(n+k)/2.
    """
    ops = SpectralOps(grid)
    times = np.atleast_1d(np.asarray(times, dtype=float))
    _check_band_limited(ops, (g,), "kernel data")

    G = ops.fwd(g).ravel()
    uniq, inverse = _grid_mode_table(ops)
    in_band = uniq <= KERNEL_BAND
    band_r = uniq[in_band]

    # the kernel's row of the propagators, (M, T), of the band and of the
    # probe radii that the high-band envelope is fitted on, in one pass;
    # the loop below scatters the band onto the unique radii one time at
    # a time
    probes = np.array([x for x in (1.0, 1.5, 2.0, 3.0, 4.0)
                       if KERNEL_BAND <= x <= np.max(uniq)] or [KERNEL_BAND])
    band_phi, probe_phi = np.split(
        evolve_modes(np.concatenate([band_r, probes]), d, times)[0].copy(),
        [band_r.size])
    phi = np.zeros(uniq.size)

    mode_mask = in_band[inverse]
    kshape = ops.kshape

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

    out = []
    for kk in k:
        if kk:
            ik = (1j * ops.k[-1].ravel() if grid.n == 1
                  else 1j * ops.kmag.ravel()) ** kk
        observed = np.empty(times.size)
        for j in range(times.size):
            phi[in_band] = band_phi[:, j]
            W = G * phi[inverse] * mode_mask
            if kk:
                W = W * ik
            fld = ops.inv(W.reshape(kshape))
            observed[j] = ops.linf(fld)

        tail_mass = float(np.sum(np.abs(G) * (~mode_mask)
                                 * (np.where(mode_mask, 0.0, uniq[inverse]) ** kk))) \
            / (grid.N ** grid.n)
        tail_bound = 2.0 * c_fit * shape * tail_mass

        exponent = -one_m * (grid.n + kk) / 2.0
        out.append(KernelDecaySeries(times=times, k=kk, observed=observed,
                                     tail_bound=tail_bound,
                                     envelope_exponent=float(exponent)))
    return tuple(out)
