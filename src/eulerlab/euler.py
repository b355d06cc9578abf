"""Pseudo-spectral solver for the damped compressible Euler system.

The solver works in the symmetrized variables (v, u):

    v_t + div u = -u . grad v - (gamma-1)/2 v div u
    u_t + grad v + mu/(1+t)^lam u = -(u . grad) u - (gamma-1)/2 v grad v

where v = 2/(gamma-1) (rho^((gamma-1)/2) - 1) measures the deviation of
the sound speed from its background value 1.  Space derivatives are
spectral on a periodic box sized so that nothing reaches the boundary
within the run (finite speed of propagation), quadratic products are
dealiased by the 2/3 rule, and time stepping is Lawson RK4: the linear
damped-wave part is integrated exactly, mode by mode, with the Magnus
propagator of linear.py, so only the quadratic products go through the
stages and the step is bounded by the advection speed, not the sound
speed.  An embedded third-order companion that reuses the products at
the new state (first same as last, so no extra products per step)
estimates each step's error, and a PI controller keeps that estimate
within STEP_TOL of the state, taking no step shorter than the acoustic
CFL step.

The stepper's state is the stack (v, u_1, .., u_n) twice over: w, its
transform on the compact 2/3 band, shape (n+1, *band) with band =
(2 (N//3) + 1, .., N//3 + 1) (SpectralOps(grid, band=True), held by
_Lawson), and x, the same state in physical space, (n+1, *grid.shape).
Outside the band the state is zero for the whole run, so w stores
none of it; the band transforms still pass over every row of its
last-axis columns (grids.py).  The initial data work on the full
spectrum of the ops they are given.  rhs and nonlinear_wave_source work
on the band, and their quadratic terms are the stepper's own,
_Lawson.products: the products have one home.

Also here: the initial data (bumps of height eps, in v, as a stream
function or potential of u, or of given mass), the nonlinear source of the
second-order wave form of the continuity equation, and the blow-up
monitor, the spectral tail of the state, used by steepening scouting
runs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, SpectralOps
from .linear import _check_band_limited, _grid_mode_table, _magnus_advance
from .params import DampingLaw, GasLaw, damping_coeff, integrating_factor

__all__ = [
    "EulerState",
    "SolverConfig",
    "RunResult",
    "VacuumError",
    "to_symmetric",
    "density",
    "bump_profile",
    "initial_bump",
    "mass_bump",
    "rotational_bump",
    "potential_bump",
    "CFL",
    "STEP_TOL",
    "DENSE_GROWTH_MAX",
    "rhs",
    "step",
    "run",
    "nonlinear_wave_source",
]


class VacuumError(ValueError):
    """The symmetric state left the positive-density region."""


class BandView:
    """EulerState.band of run's snapshots, in the stepper's buffers, which
    the next step overwrites: the band ops, the band spectrum w (v, then
    the u_i), the v row f_v of the products at the state and grad v in
    physical space, as the products form it.  What else a hook reads is
    formed on first use, so that it pays only for what it records:
    products(), every row of the products, which at an output inside a
    step the stepper has not formed beyond f_v, and div u, the trace of
    the velocity gradient, n inverse transforms."""

    def __init__(self, ops, w, f, grad_v, complete=None):
        self.ops, self.w, self.f_v, self.grad_v = ops, w, f[0], grad_v
        self._f, self._complete, self._div_u = f, complete, None

    def products(self) -> np.ndarray:
        if self._complete is not None:
            self._f, self._complete = self._complete(), None
        return self._f

    @property
    def div_u(self) -> np.ndarray:
        # summed as products sums it
        if self._div_u is None:
            ik, w = self.ops.ik, self.w
            self._div_u = sum(self.ops.inv(ik[i] * w[1 + i])
                              for i in range(len(ik)))
        return self._div_u


@dataclass
class EulerState:
    """Symmetric variables at one instant; u has shape (n, *grid.shape)."""

    t: float
    v: np.ndarray
    u: np.ndarray
    band: BandView | None = field(default=None, repr=False, compare=False)

    def copy(self) -> "EulerState":
        return EulerState(self.t, self.v.copy(), self.u.copy())  # no band


def to_symmetric(rho: np.ndarray, g: GasLaw) -> np.ndarray:
    """v = 2/(gamma-1) (rho^((gamma-1)/2) - 1), the inverse of density;
    rejects vacuum states."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise VacuumError("density must be positive")
    return (rho ** g.slope - 1.0) / g.slope


def density(v: np.ndarray, g: GasLaw) -> np.ndarray:
    """rho of the symmetric variable v; rejects vacuum states."""
    base = 1.0 + g.slope * np.asarray(v, dtype=float)
    if np.any(base <= 0.0):
        raise VacuumError("state corresponds to nonpositive density")
    return base ** (1.0 / g.slope)


# =====================================================================
#  Initial data
# =====================================================================

_BUMP_PEAK = math.exp(-1.0)  # bump_profile's height, at x = 0


def bump_profile(grid: Grid, R: float) -> np.ndarray:
    """exp(-1/(1 - (|x|/R)^2)) inside |x| < R, identically zero outside.
    It peaks at x = 0, a point of every grid, at exp(-1)."""
    if R <= 0.0 or R >= grid.L:
        raise ValueError(f"bump radius must satisfy 0 < R < L, got R={R}, L={grid.L}")
    s2 = (grid.radius() / R) ** 2
    out = np.zeros(grid.shape)
    inside = s2 < 1.0
    with np.errstate(divide="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - s2[inside]))
    return out


def _jitter(grid: Grid, amplitude: float, seed) -> np.ndarray:
    """Smooth multiplicative perturbation from a few low wavenumbers."""
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    pert = np.zeros(grid.shape)
    for _ in range(4):
        kvec = rng.integers(1, 4, size=grid.n) * np.pi / grid.L
        phase = rng.uniform(0.0, 2.0 * np.pi)
        pert += np.cos(np.tensordot(kvec, mesh, axes=1) + phase)
    return 1.0 + amplitude * pert / 4.0


def initial_bump(ops: SpectralOps, R: float, eps: float, *,
                 jitter: float = 0.0, seed=None) -> EulerState:
    """v a bump of height eps, times the jitter if any; zero velocity."""
    grid = ops.grid
    prof = bump_profile(grid, R)
    if jitter:
        prof = prof * _jitter(grid, jitter, seed)
    v = prof * (eps / _BUMP_PEAK)
    return EulerState(t=0.0, v=v, u=np.zeros((grid.n,) + grid.shape))


def mass_bump(ops: SpectralOps, g: GasLaw, R: float, q0: float) -> EulerState:
    """Bump in the density excess with integral exactly q0; zero velocity."""
    grid = ops.grid
    prof = bump_profile(grid, R)
    rho = 1.0 + prof * (q0 / ops.quad(prof))
    return EulerState(t=0.0, v=to_symmetric(rho, g),
                      u=np.zeros((grid.n,) + grid.shape))


def rotational_bump(ops: SpectralOps, R: float, eps: float) -> EulerState:
    """Divergence-free u = (d_2 phi, -d_1 phi, 0), phi a bump of height eps; v = 0."""
    grid = ops.grid
    if grid.n < 2:
        raise ValueError("rotational data needs n >= 2")
    gp = ops.grad(bump_profile(grid, R))
    u = np.zeros((grid.n,) + grid.shape)
    u[0], u[1] = gp[1], -gp[0]
    u *= eps / _BUMP_PEAK
    return EulerState(t=0.0, v=np.zeros(grid.shape), u=u)


def potential_bump(ops: SpectralOps, R: float, eps: float) -> EulerState:
    """Curl-free u = grad(phi), phi a bump of height eps; v = 0."""
    u = ops.grad(bump_profile(ops.grid, R))
    u *= eps / _BUMP_PEAK
    return EulerState(t=0.0, v=np.zeros(ops.grid.shape), u=u)


# =====================================================================
#  Right-hand side and time stepping
# =====================================================================

# Courant number of the advective bound and of the acoustic floor of
# every step (run)
CFL = 0.4
# relative tolerance of the embedded pair: the step's error estimate
# against STEP_TOL times the new state, both in the Euclidean norm of the
# band coefficients
STEP_TOL = 1e-9
# blow-up monitor: spectral tail fraction of the state (v and u
# together), and the simulated time between checks in units of the
# acoustic step CFL dx
TAIL_LIMIT = 0.01
CHECK_EVERY = 25
# the continuous extension carries products from the end of a step back
# to an output inside it, and the friction makes them grow by up to
# integrating_factor(output, end) on the way; a step passes over an
# output only while that factor stays within DENSE_GROWTH_MAX.  Measured
# on nonlinear-decay's recorder columns against outputs that all land:
# e and e^2 move them by 1.3e-8 and 1.5e-8 (the controller's own level),
# e^3 by 5e-6
DENSE_GROWTH_MAX = math.exp(2.0)
_LOG_GROWTH_MAX = math.log(DENSE_GROWTH_MAX)


@dataclass
class SolverConfig:
    """The horizon of a nonlinear run and the times it hands out."""

    t_final: float
    snapshot_times: tuple = ()

    def __post_init__(self):
        # an accepting comparison, so that NaN is refused too
        if not self.t_final > 0.0:
            raise ValueError(f"t_final: must be positive, got {self.t_final}")

    def outputs(self, t0: float) -> list:
        """Every snapshot time in (t0, t_final], and t_final, in order."""
        return sorted({float(s) for s in self.snapshot_times
                       if t0 < s <= self.t_final} | {self.t_final})


def _product_row(u, fs, v, g, sl: float, acc=None, tmp=None) -> np.ndarray:
    """acc = -sum(u[j] * f_j) - sl * v * g, by that expression's own
    operations, for the fields f_j that fs yields in turn.  tmp is
    scratch, and fs may put each f_j there; both are made if not given."""
    acc = np.empty_like(v) if acc is None else acc
    tmp = np.empty_like(v) if tmp is None else tmp
    for j, f in enumerate(fs):
        np.multiply(u[j], f, out=tmp)
        np.add(acc if j else 0, tmp, out=acc)
    np.negative(acc, out=acc)
    np.multiply(sl, v, out=tmp)
    np.multiply(tmp, g, out=tmp)
    return np.subtract(acc, tmp, out=acc)


def _linear(vh, uh, b: float, ops: SpectralOps):
    """Linear part of the system in spectral space, row by row like the
    state: -div u, then -d_i v - b u_i.  A generator, so that a caller
    who wants v_t alone forms nothing of u_t."""
    ik = ops.ik
    yield -sum(ik[i] * uh[i] for i in range(ops.grid.n))
    for i in range(ops.grid.n):
        yield -(ik[i] * vh) - b * uh[i]


def rhs(t: float, v: np.ndarray, u: np.ndarray, d: DampingLaw, g: GasLaw,
        ops: SpectralOps):
    """Time derivative (dv, du) of the symmetric system at time t, as the
    stepper forms it: on the 2/3 band of ops, with its products."""
    law, x = _Lawson(d, g, ops), np.stack([v, *u])
    w = np.stack([law.ops.fwd(f) for f in x])
    lin = _linear(w[0], w[1:], damping_coeff(t, d), law.ops)
    dw = [law.ops.inv(a + p) for a, p in zip(lin, law.products(w, x))]
    return dw[0], np.stack(dw[1:])


class _Lawson:
    """What every step of one run shares: the laws, the band SpectralOps,
    the wavevector tables of the exact linear propagator and the work
    buffers of the products and the stages.

    Per wavevector k of the band with r = |k| and s = k.u / r, the
    linear part couples (v, s) as the damped oscillator of linear.py
    with W = v, W' = -i r s, and leaves the transverse velocity
    u - k s / r to the friction alone.
    """

    def __init__(self, d: DampingLaw, g: GasLaw, ops: SpectralOps):
        self.d, self.sl = d, g.slope
        # the band instance is of the caller's class, so that a subclass
        # which watches the transforms sees the stepper's as well
        self.ops = type(ops)(ops.grid, band=True)
        k, r = self.ops.k, self.ops.kmag
        self.khat = np.divide(k, r, out=np.zeros_like(k), where=r > 0.0)
        if ops.grid.n == 1:
            # the radii of a line are distinct already
            self.radii, self.index = r, None
        else:
            # the propagator is formed per distinct radius, and apply
            # spreads it over the band by index
            self.radii, index = _grid_mode_table(self.ops)
            self.index = index.reshape(r.shape)
        self._phys = self._band = self._held = self.halves = None

    def release(self, band: bool = True):
        """Let the work buffers go; their next use makes them again.  run
        releases them at each output, so that the monitor check and the
        snapshot hook take that memory instead of adding to it.  Between
        the outputs read inside one step, band=False keeps the spectral
        ones, which hold the continuous extension."""
        self._phys = None
        if band:
            self._band = self._held = None

    def work(self):
        """The work buffers of products and step, made on first use: grad
        v, div u, one entry of the velocity gradient (also the scratch of
        each term) and the sum being formed, in physical space; one band
        row, the scratch of apply and of step, and of products for one
        derivative's spectrum; and two spectral states, step's P1 w and
        its running sum."""
        n, shape = self.ops.grid.n, self.ops.grid.shape
        if self._phys is None:
            self._phys = (np.empty((n,) + shape), np.empty(shape),
                          np.empty(shape), np.empty(shape))
        return self._phys + self.spectral_work()

    def spectral_work(self):
        """The spectral part of work(), made on first use without the
        physical part, which apply and the extension do not need."""
        if self._band is None:
            n, band = self.ops.grid.n, self.ops.kshape
            self._band = (np.empty(band, dtype=complex),
                          np.empty((n + 1,) + band, dtype=complex),
                          np.empty((n + 1,) + band, dtype=complex))
        return self._band

    def held(self, count: int = 1):
        """The first count of the two spectral buffers of the continuous
        extension, made on first use: the products at the start of a step
        (then the same products carried to its end), which step holds, and
        two band rows, which only the extension needs: the scratch of
        apply, then the v row of the products at an output."""
        rows = (self.ops.grid.n + 1, 2)
        held = self._held or ()
        while len(held) < count:
            shape = (rows[len(held)],) + self.ops.kshape
            held += (np.empty(shape, dtype=complex),)
        self._held = held
        return held[:count]

    def propagator(self, t0: float, t1: float):
        """Coefficients (a, b, c, e - f, f) of the exact linear propagator
        from t0 to t1, as apply takes them: a, b, c and e - f per distinct
        radius, f a number."""
        r = self.radii
        y = np.zeros((4, r.size))
        y[0] = 1.0
        y[3] = 1.0
        (e00, e10, e01, e11), _ = _magnus_advance(y, t0, t1, r * r, self.d)
        e00 = e00.copy()  # lets y go with the other rows
        e00[r == 0.0] = 1.0
        e01 = e01 * r
        e10 = np.divide(e10, r, out=np.zeros_like(e10), where=r > 0.0)
        # strong friction overflows the factor over a long step: f = 0
        with np.errstate(over="ignore"):
            f = 1.0 / integrating_factor(t0, t1, self.d)
        return e00, e01, e10, e11 - f, f

    def apply(self, P, w: np.ndarray, out: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
        """P applied to the spectral state w (v first, then u), into out,
        which may be w itself.  With s = sum_i khat_i w_i,

            out_0 = a w_0 - i (b s),
            out_i = f w_i + khat_i (i (c w_0) + (e - f) s),

        each evaluated in that order, a row at a time.  s and the bracket
        go into the first two rows of scratch, a spectral state that
        neither w nor out may share, the rest into the held band row of
        work().  Each of a, b, c and e - f is spread over the band as
        x + 0j into the row its product goes to, or into the held row:
        numpy multiplies a real array into a complex one as that complex
        array, so the bits are those of the real coefficient.
        """
        a, b, c, e_f, f = P
        s, q = scratch[:2]
        tmp = self.spectral_work()[0]

        def spread(x, row):
            if self.index is None:
                return x
            np.take(x, self.index, out=row.real, mode="clip")
            row.imag[...] = 0.0
            return row

        np.multiply(self.khat[0], w[1], out=s)
        for i in range(1, w.shape[0] - 1):
            s += np.multiply(self.khat[i], w[1 + i], out=tmp)
        np.multiply(spread(c, q), w[0], out=q)
        np.multiply(1j, q, out=q)
        q += np.multiply(spread(e_f, tmp), s, out=tmp)
        for i in range(w.shape[0] - 1):
            np.multiply(f, w[1 + i], out=out[1 + i])
            out[1 + i] += np.multiply(self.khat[i], q, out=tmp)
        np.multiply(spread(a, tmp), w[0], out=out[0])
        out[0] -= np.multiply(1j, np.multiply(spread(b, tmp), s, out=tmp), out=tmp)
        return out

    def physical(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((w.shape[0],) + self.ops.grid.shape)
        for i in range(w.shape[0]):
            self.ops.inv(w[i], out=out[i])
        return out

    def products(self, w: np.ndarray, x: np.ndarray,
                 out: np.ndarray | None = None,
                 u_rows: bool = True) -> np.ndarray:
        """The quadratic terms of the system at the stage w with physical
        rows x, on the band and stacked like w, into out, which may be w
        itself: each row of w is read before the same row of out is
        written.  They are -u.grad v - sl v div u for v and
        -(u.grad) u - sl v grad v for u; div u is the trace of the
        velocity gradient, formed an entry at a time, and grad v and
        div u stay in the first two buffers of work().  n + 1 forward
        and n + n^2 inverse transforms.  With u_rows=False only the v
        row of out is written, and of the velocity gradient only its
        diagonal is formed: 1 forward and 2n inverse transforms.
        """
        ops, sl, n = self.ops, self.sl, self.ops.grid.n
        grad_v, div, d, acc, dh = self.work()[:5]
        out = np.empty_like(w) if out is None else out
        v, u = x[0], x[1:]

        def deriv(j, F, dst):
            ops.inv(np.multiply(ops.ik[j], F, out=dh), out=dst)

        def row(i):
            # d_j u_i, one at a time in d, adding d_i u_i to div u
            for j in range(n) if u_rows else (i,):
                deriv(j, w[1 + i], d)
                if j == i:
                    np.add(div if i else 0.0, d, out=div)
                yield d

        for j in range(n):
            deriv(j, w[0], grad_v[j])
        for i in range(n):
            if u_rows:
                ops.fwd(_product_row(u, row(i), v, grad_v[i], sl, acc, d),
                        out=out[1 + i])
            else:
                next(row(i))  # d_i u_i alone, for div u
        ops.fwd(_product_row(u, grad_v, v, div, sl, acc, d), out=out[0])
        return out

    def extension(self, t: float, h: float, w: np.ndarray, f: np.ndarray,
                  x: np.ndarray, times):
        """The continuous extension of the step from t to t + h that step
        has just taken, read at each of times, in (t, t + h) and in order.
        w and f are the state and the products at t + h.  Yields, per
        time s, the spectral state at s, its products and the factor
        integrating_factor(s, t + h) by which the extension carried a
        product back to s; x is overwritten with the physical state.  Of
        the products only the v row is formed (products with
        u_rows=False), and grad v and div u at s are in the first two
        buffers of work(): 1 forward and 3n + 1 inverse transforms per
        time, with physical.  The held buffers of one yield are
        overwritten by the next.

        With U(r) = P(t + h, r) w(r) - P(t + h, t) w(t), the Duhamel term
        in the frame of t + h, U(t) = 0, U'(t) = B = P(t + h, t) f(t),
        U(t + h) = w - A with A = P(t + h, t) w(t), and U'(t + h) = f.  Its
        cubic Hermite interpolant at theta = (s - t) / h gives

            w(s) = P(s, t + h) [A + H_b (w - A) + h H_a B + h H_c f],
            H_a = theta (1 - theta)^2,  H_b = theta^2 (3 - 2 theta),
            H_c = theta^2 (theta - 1),

        with the backward propagator P(s, t + h).  Without products it
        is P(s, t + h) P(t + h, t) w(t) = P(s, t) w(t): the linear part is
        exact through the propagator.  As a continuous Runge-Kutta
        extension, the stage and FSAL products carry the weights
        H_a + H_b b_1 on k1, H_b b_i on k2..k4 and H_c on k5, with
        b = (1/6, 1/3, 1/3, 1/6) the RK4 weights.  It is of order 3: with U4 the largest fourth derivative
        of U over the step, the interpolation error of U is at most
        h^4 theta^2 (1 - theta)^2 / 24 U4, h^4 / 384 U4 at theta = 1/2,
        and the propagator carries it back to s with a growth of at most
        integrating_factor(s, t + h).
        """
        tmp, pw, acc = self.spectral_work()
        f0 = self.held()[0]
        # P(t + h, t) is the step's own P2 P1.  P(t + h, s) is P2 after
        # P(t + h/2, s) below the midpoint, and formed directly above it:
        # each engine pass runs back from the midpoint or from t + h over
        # the outputs on its side, a segment at a time
        p2, p1 = self.halves
        self.halves = None
        p = _compose(p2, p1)
        self.apply(p, acc, acc, pw)
        self.apply(p, f0, f0, pw)
        del p1
        mid, back = t + 0.5 * h, {}
        for end in (mid, t + h):
            p, p2 = p2, None  # P2 heads the outputs below the midpoint
            for s in reversed([s for s in times if (s < mid) == (end == mid)]):
                seg = self.propagator(s, end)
                p = back[s] = seg if p is None else _compose(p, seg)
                end = s
        del p, seg
        fo = self.held(2)[1]
        for s in times:
            th = (s - t) / h
            hb = th * th * (3.0 - 2.0 * th)
            ha, hc = h * th * (1.0 - th) ** 2, h * th * th * (th - 1.0)
            for o, a, b, wr, fr in zip(pw, acc, f0, w, f):
                np.multiply(1.0 - hb, a, out=o)
                o += np.multiply(hb, wr, out=tmp)
                o += np.multiply(ha, b, out=tmp)
                o += np.multiply(hc, fr, out=tmp)
            self.apply(_inverse(back.pop(s)), pw, pw, fo)
            self.products(pw, self.physical(pw, out=x), out=fo, u_rows=False)
            yield s, pw, fo, math.exp(_log_growth(s, t + h, self.d))


def step(t: float, w: np.ndarray, x: np.ndarray, f: np.ndarray, h: float,
         law: _Lawson, floor: float = np.inf):
    """One accepted step of the embedded Lawson RK4(3) pair from t;
    returns (h, err), the step taken and its error estimate.

    w is the spectral state on law's band (v, u_1..u_n stacked), x the
    same state in physical space and f = law.products(w, x); all three
    are overwritten with their values at t + h.  The linear part is
    integrated exactly through the two half-step propagators P1 and P2
    (their product is the full-step one); only the quadratic products go
    through the four stages k1..k4 of Lawson RK4, k1 being P1 f.  The
    products at the new state, k5, are the next step's f (first same as
    last), so an accepted step makes four products calls.  The
    third-order companion, weights (1/6, 1/3, 1/3, 1/15, 1/10) on
    k1..k5, differs from the new state by E = (h/10) (k4 - k5), and

        err = |E|_2 / (STEP_TOL |w(t + h)|_2)

    over the band coefficients.  A try with err > 1 is taken again from
    t, shorter by _step_factor but not shorter than floor; a try of at
    most floor is accepted whatever its estimate.  The default floor
    accepts every try: fixed steps.

    The step also keeps what its continuous extension (_Lawson.extension)
    reads: the state at t in law's running-sum buffer, the products at t
    in law.held()[0] and the half-step propagators as law.halves.
    """
    # the stages live in law's held states pw = P1 w and acc, the running
    # sum, and in f: it takes k1 = P1 f, then each stage and its
    # products.  k5 goes into pw once the last stage has read it, and the
    # propagators take their scratch from whichever of acc and pw is not
    # in use.  A try that is taken again forms f afresh, one products
    # call more
    tmp, pw, acc = law.work()[4:]
    while True:
        th = t + 0.5 * h
        p1 = law.propagator(t, th)
        # a try taken again has formed f afresh, to the same bits
        np.copyto(law.held()[0], f)
        law.apply(p1, w, pw, acc)
        k = law.apply(p1, f, f, acc)
        _scaled(h / 6.0, k, out=acc, plus=pw)
        for _ in range(2):
            _scaled(0.5 * h, k, out=k, plus=pw)
            law.products(k, law.physical(k, out=x), out=k)
            _add_scaled(acc, h / 3.0, k, tmp)
        _scaled(h, k, out=k, plus=pw)
        p2 = law.propagator(th, t + h)
        law.apply(p2, k, k, pw)
        law.apply(p2, acc, acc, pw)
        law.halves = (p2, p1)
        law.products(k, law.physical(k, out=x), out=k)
        _add_scaled(acc, h / 6.0, k, tmp)
        k5 = law.products(acc, law.physical(acc, out=x), out=pw)
        # k, that is f, is free until k5 goes into it: the norms' scratch
        e = 0.1 * h * _norm(np.subtract(k, k5, out=k), k)
        err = e / (STEP_TOL * _norm(acc, k)) if e else 0.0
        # a NaN estimate is accepted: run flags the state that made it
        if not err > 1.0 or h <= floor:
            break
        h = max(floor, h * _step_factor(err))
        law.products(w, law.physical(w, out=x), out=f)
    # w and acc trade places, a row at a time through tmp
    for a, b in zip(w, acc):
        np.copyto(tmp, a)
        np.copyto(a, b)
        np.copyto(b, tmp)
    f[...] = k5
    return h, err


def _step_factor(err: float, err_prev: float = 1.0) -> float:
    """Factor of the next step after a step with error estimate err: the
    PI controller of Gustafsson (1991) for an estimate of order 4,
    err^(-0.7/4) err_prev^(0.4/4), with a safety factor of 0.9 and held
    in [0.2, 5].  err_prev is the previous accepted step's estimate; the
    default 1 leaves the controller proportional, as for a retry."""
    err, err_prev = max(err, 1e-10), max(err_prev, 1e-10)
    return min(5.0, max(0.2, 0.9 * err ** -0.175 * err_prev ** 0.1))


def _norm(a: np.ndarray, out: np.ndarray) -> float:
    """Euclidean norm of the coefficients of a, a contiguous complex
    array: the squares of its real view, formed in out (of a's shape,
    and it may be a), summed by numpy's pairwise add.reduce.  No BLAS:
    np.dot's thread pool would take a second core on a 2-D band state,
    and its bits depend on its thread count.  Nor np.einsum, whose code
    nothing else in a run touches: mapping it raised a 1-D preset's
    peak memory by about 0.1 MiB."""
    re = a.reshape(-1).view(float)
    return math.sqrt(np.add.reduce(
        np.multiply(re, re, out=out.reshape(-1).view(float))))


def _scaled(c: float, k: np.ndarray, out: np.ndarray, plus: np.ndarray) -> np.ndarray:
    """plus + c k into out, which may be k: the expression's own
    operations."""
    np.multiply(c, k, out=out)
    return np.add(plus, out, out=out)


def _add_scaled(acc: np.ndarray, c: float, k: np.ndarray, tmp: np.ndarray):
    """acc += c k a row at a time, with c k of each row in tmp: the bits
    of the whole-array expression, without a temporary of its size."""
    for a, r in zip(acc, k):
        a += np.multiply(c, r, out=tmp)


def _compose(P2, P1):
    """The coefficients of P2 after P1, both as _Lawson.apply takes
    them: the 2x2 blocks [[a, -i b], [i c, e]] multiply, and so do the
    transverse factors f."""
    a2, b2, c2, e2, f2 = P2
    a1, b1, c1, e1, f1 = P1
    e1, e2 = e1 + f1, e2 + f2
    f = f2 * f1
    return (a2 * a1 + b2 * c1, a2 * b1 + b2 * e1, c2 * a1 + e2 * c1,
            c2 * b1 + e2 * e1 - f, f)


def _inverse(P):
    """The coefficients of the inverse of P, as _Lawson.apply takes
    them: the block [[a, -i b], [i c, e]] has the determinant f of the
    transverse factor (Liouville), so its inverse is
    [[e, i b], [-i c, a]] / f, and the transverse factor is 1 / f."""
    a, b, c, e_f, f = P
    g = 1.0 / f
    return (e_f + f) * g, -b * g, -c * g, (a - 1.0) * g, g


def _spread(t: float, target: float, h: float) -> float:
    """A step of at most h that divides the way from t to target evenly,
    so that no sliver of a step is left before target."""
    return (target - t) / max(1, math.ceil((target - t) / h - 1e-9))


def _log_growth(s: float, e: float, d: DampingLaw) -> float:
    """The logarithm of integrating_factor(s, e, d) in Python floats, for
    the step rule, which asks it once or twice a step and compares it
    with _LOG_GROWTH_MAX: under strong friction the factor itself
    overflows a float over a long step."""
    om = 1.0 - d.lam
    return d.mu / om * ((1.0 + e) ** om - (1.0 + s) ** om)


def _growth_end(s: float, d: DampingLaw) -> float:
    """The time after s at which _log_growth(s, ., d) reaches
    _LOG_GROWTH_MAX (a hair below it); infinite without friction."""
    if d.mu == 0.0:
        return math.inf
    om = 1.0 - d.lam
    grow = _LOG_GROWTH_MAX * (1.0 - 1e-12)
    return ((1.0 + s) ** om + om * grow / d.mu) ** (1.0 / om) - 1.0


def _step_length(t: float, h: float, out: float, t_final: float,
                 d: DampingLaw) -> float:
    """The step from t for the controller's step h, where out is the next
    output (t_final last).

    The step is h spread evenly over the way to t_final, as if there were
    no outputs, and it passes over out while a product carried back from
    its end to out grows by at most DENSE_GROWTH_MAX.  Where it would grow
    more, the step ends where the growth reaches DENSE_GROWTH_MAX if that
    still takes it as far past out as out lies ahead, and lands on out
    otherwise.  An out that the step does not reach, and that a step of h
    from out could not pass over, is approached as a landing target:
    spread evenly, so that no sliver of a step is left before it.
    """
    hp = _spread(t, t_final, h)
    if out >= t_final:
        return hp
    tol = 1e-12 * max(1.0, out)
    if t + hp < out - tol:
        if _log_growth(out, min(out + h, t_final), d) > _LOG_GROWTH_MAX:
            return _spread(t, out, h)
        return hp
    if t + hp <= out + tol or _log_growth(out, t + hp, d) <= _LOG_GROWTH_MAX:
        return hp
    end = _growth_end(out, d)
    return end - t if end - out >= out - t else out - t


@dataclass
class RunResult:
    """Outcome of a nonlinear run."""

    verdict: str                  # completed | blowup-tail | nonfinite
    t_end: float
    steps: int
    dt_min: float | None = None   # smallest, median and largest step taken
    dt_median: float | None = None
    dt_max: float | None = None
    # outputs read from the continuous extension, and the largest factor
    # integrating_factor(output, end of its step) it carried a product by
    dense_outputs: int = 0
    dense_growth_max: float | None = None


def run(st0: EulerState, d: DampingLaw, g: GasLaw, ops: SpectralOps,
        cfg: SolverConfig, on_snapshot=None) -> RunResult:
    """March the system from st0.t to cfg.t_final on the grid of ops,
    with an output at each of cfg.outputs(st0.t).

    Steps are those of the embedded Lawson pair (see step).  The
    controller's step is

        h = min(CFL dx / a, max(h_ctrl, CFL dx / (1 + a))),
        a = |u|_inf + (gamma-1)/2 |v|_inf,

    so the advection speed a bounds the step and the sound speed does
    not.  h_ctrl is the PI controller's proposal (_step_factor), from
    the acoustic step CFL dx / (1 + a) at the start.  That acoustic step
    is also the floor: a step there is accepted whatever its estimate,
    a longer one only with err <= 1.  The step goes toward t_final, spread
    evenly so that no sliver is left, and an output inside it is read
    from the step's continuous extension (_Lawson.extension) while the
    trajectory goes on as if no output had been asked for.  The extension
    carries products back from the end of the step, so a step passes
    over an output only while that growth stays within DENSE_GROWTH_MAX;
    otherwise it is shortened or lands on the output (_step_length).
    Every step is counted once, however many tries it took.

    A state leaves the run only through on_snapshot(state), which fires
    at the start, whatever its time, and then at each output.  The state
    lives in the run's buffers, which the next step overwrites, so a hook
    that keeps it keeps a copy.
    Every output but the start passes the checks before the hook sees
    it.
    Blow-up monitoring: non-finite values every step; the spectral tail
    fraction of the band state at every output and at the first step
    past each multiple of CHECK_EVERY CFL dx of simulated time, so the
    checks do not depend on how many steps the controller takes.  A
    triggered check ends the run with the corresponding verdict, at the
    output where it tripped.
    """
    _check_band_limited(ops, (st0.v, *st0.u), "initial data")
    law = _Lawson(d, g, ops)
    band = law.ops
    # the state lives on the band: the 2/3 rule only removes aliasing
    # from products whose factors already live inside it
    w = np.stack([band.fwd(st0.v)] + [band.fwd(f) for f in st0.u])
    t = t0 = st0.t
    del st0  # frees the initial fields when the caller keeps no name
    x = law.physical(w)
    f = law.products(w, x)

    snaps = cfg.outputs(t0)
    dts = []
    result = RunResult(verdict="completed", t_end=cfg.t_final, steps=0)
    every = CHECK_EVERY * CFL * ops.grid.dx
    next_check = t0 + every
    h_ctrl, err_prev = 0.0, 1.0

    def speed() -> float:
        return max(ops.linf(x[i]) for i in range(1, ops.grid.n + 1)) \
            + g.slope * ops.linf(x[0])

    def tripped(ws, physical: bool = True) -> str | None:
        # the state at the end of a step whose outputs took x has been
        # checked for non-finite values by speed() already
        if physical and not np.isfinite(x).all():
            return "nonfinite"
        # watch the upper half of the retained band, over the held band
        # spectrum of v and u together: no transform, and v alone, which
        # rotational and potential data keep near zero, is only noise
        if band.spectral_tail(ws, cut=0.5) > TAIL_LIMIT:
            return "blowup-tail"
        return None

    def output(ts, ws, fs, check: bool = True, complete=None,
               grad_v=None) -> str | None:
        # the hook gets grad v, given or else in law's work buffers, which
        # law lets go first, so that the check and the hook take the rest
        # of that memory; an output inside a step (complete forms all its
        # products) keeps the spectral ones, which hold the extension
        if grad_v is None:
            grad_v = law.work()[0]
        view = BandView(band, ws, fs, grad_v, complete)
        law.release(band=complete is None)
        # the checks first: an output where one trips is not handed on
        why = tripped(ws) if check else None
        if not why and on_snapshot is not None:
            on_snapshot(EulerState(ts, x[0], x[1:], band=view))
        return why

    def finish(why: str | None, t_end: float) -> RunResult:
        result.steps = len(dts)
        result.t_end = t_end
        if dts:
            srt, mid = sorted(dts), len(dts) // 2
            result.dt_min, result.dt_max = srt[0], srt[-1]
            result.dt_median = srt[mid] if len(srt) % 2 \
                else 0.5 * (srt[mid - 1] + srt[mid])
        if why:
            result.verdict = why
        return result

    def reached(s: float) -> bool:
        return t >= s - 1e-12 * max(1.0, s)

    output(t, w, f, check=False)

    j = 0  # the next output
    a = speed()
    while j < len(snaps):
        if not np.isfinite(a):
            return finish("nonfinite", t)
        h_adv = CFL * ops.grid.dx / a if a > 0.0 else np.inf
        floor = CFL * ops.grid.dx / (1.0 + a)
        h = _step_length(t, min(h_adv, max(h_ctrl, floor)), snaps[j],
                         cfg.t_final, d)
        h, err = step(t, w, x, f, h, law, floor)
        h_ctrl, err_prev = h * _step_factor(err, err_prev), err
        t_start, t = t, t + h
        dts.append(h)
        a = speed()
        # the outputs the step passed over; a try taken again may have
        # left some of them ahead
        inside = []
        while j < len(snaps) and t > snaps[j] + 1e-12 * max(1.0, snaps[j]):
            inside.append(snaps[j])
            j += 1
        if inside:
            law.release(band=False)
            for s, ws, fs, grow in law.extension(t_start, h, w, f, x, inside):
                result.dense_outputs += 1
                result.dense_growth_max = max(grow, result.dense_growth_max or grow)
                why = output(s, ws, fs, complete=functools.partial(
                    law.products, ws, x))
                if why:
                    return finish(why, s)
            del ws, fs  # the extension's buffers go with law's
            law.release()
            if j < len(snaps) and reached(snaps[j]):
                law.physical(w, out=x)  # the landed output reads it
        landed = j < len(snaps) and reached(snaps[j])
        if t >= next_check:
            next_check = t0 + every * (math.floor((t - t0) / every) + 1)
            # a step that lands on the output is checked there
            why = None if landed else tripped(w, physical=not inside)
            if why:
                return finish(why, t)
        if landed:
            j += 1
            # the extension overwrote grad v of the state, if it ran
            why = output(t, w, f,
                         grad_v=band.grad_hat(w[0]) if inside else None)
            if why:
                return finish(why, t)
    return finish(None, t)


# =====================================================================
#  Derived fields
# =====================================================================

def nonlinear_wave_source(st: EulerState, d: DampingLaw,
                          g: GasLaw) -> np.ndarray:
    """Source of the second-order wave form of the continuity equation.

    Eliminating u_t between the two evolution equations yields

        v_tt - Lap v + b(t) v_t = Q,
        Q = -b (u.grad v + c v div u) - d/dt (u.grad v + c v div u)
            + div( (u.grad) u + c v grad v ),          c = (gamma-1)/2,

    that is Q = b N_v + d/dt N_v - div N_u for the solver's products
    N = (N_v, N_u).  Q is assembled on the 2/3 band from st's band view
    (BandView, as euler.run hands it to a snapshot hook): the band
    spectrum w, the products N, grad v and div u.  (v_t, u_t) is
    _linear plus N, and, by bilinearity, d/dt N_v is two v rows of the
    products, with (v_t, u_t) in the factor slots and grad v_t, div u_t
    in the derivative slots: 2 forward and 2n + 3 inverse transforms,
    besides the n inverses of div u and, where the view has formed only
    the v row of N, the products anew.
    """
    band = st.band
    ops, n, sl = band.ops, band.ops.grid.n, g.slope
    b = damping_coeff(st.t, d)
    v, u = st.v, st.u
    w, nl, grad_v, div_u = band.w, band.products(), band.grad_v, band.div_u
    ik = ops.ik
    dwh = [a + p for a, p in zip(_linear(w[0], w[1:], b, ops), nl)]
    dw = [ops.inv(row) for row in dwh]
    div_du = ops.inv(sum(ik[i] * dwh[1 + i] for i in range(n)))
    qh = (b * nl[0]
          + ops.fwd(_product_row(dw[1:], grad_v, dw[0], div_u, sl))
          + ops.fwd(_product_row(u, ops.grad_hat(dwh[0]), v, div_du, sl))
          - sum(ik[i] * nl[1 + i] for i in range(n)))
    return ops.inv(qh)
