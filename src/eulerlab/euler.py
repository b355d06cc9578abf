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
last-axis columns (grids.py).  rhs and the initial data work on the
full spectrum of the ops they are given, nonlinear_wave_source on the
ops it is given (in the recorder, the band).

Also here: the initial-data factory (compactly supported bump profiles,
optionally mass-normalized or rotational), the nonlinear source of the
second-order wave form of the continuity equation, and the blow-up
monitor used by vacuum/steepening scouting runs.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .grids import Grid, SpectralOps
from .linear import _check_band_limited, _magnus_advance
from .params import DampingLaw, GasLaw, damping_coeff, integrating_factor

__all__ = [
    "EulerState",
    "PhysicalState",
    "SolverConfig",
    "RunResult",
    "VacuumError",
    "to_symmetric",
    "from_symmetric",
    "bump_profile",
    "initial_bump",
    "mass_bump",
    "rotational_bump",
    "potential_bump",
    "STEP_TOL",
    "rhs",
    "step",
    "run",
    "nonlinear_wave_source",
]


class VacuumError(ValueError):
    """The symmetric state left the positive-density region."""


# EulerState.band of run's snapshots: band ops, band spectrum w (v, then
# the u_i) and the products f at the state, overwritten by the next step
BandView = namedtuple("BandView", "ops w f")


@dataclass
class EulerState:
    """Symmetric variables at one instant; u has shape (n, *grid.shape)."""

    t: float
    v: np.ndarray
    u: np.ndarray
    band: BandView | None = field(default=None, repr=False, compare=False)

    def copy(self) -> "EulerState":
        return EulerState(self.t, self.v.copy(), self.u.copy())  # no band


@dataclass
class PhysicalState:
    """Density / velocity description of the same instant."""

    t: float
    rho: np.ndarray
    u: np.ndarray


def to_symmetric(ph: PhysicalState, g: GasLaw) -> EulerState:
    """v = 2/(gamma-1) (rho^((gamma-1)/2) - 1); velocity is shared."""
    rho = np.asarray(ph.rho, dtype=float)
    if np.any(rho <= 0.0):
        raise VacuumError("density must be positive")
    c = rho ** g.slope
    v = (c - 1.0) / g.slope
    return EulerState(t=ph.t, v=v, u=np.array(ph.u, dtype=float, copy=True))


def from_symmetric(st: EulerState, g: GasLaw) -> PhysicalState:
    """Invert the sound-speed change of variables; rejects vacuum states."""
    base = 1.0 + g.slope * np.asarray(st.v, dtype=float)
    if np.any(base <= 0.0):
        raise VacuumError("state corresponds to nonpositive density")
    rho = base ** (1.0 / g.slope)
    return PhysicalState(t=st.t, rho=rho, u=np.array(st.u, dtype=float, copy=True))


# =====================================================================
#  Initial data
# =====================================================================

def bump_profile(grid: Grid, R: float) -> np.ndarray:
    """exp(-1/(1 - (|x|/R)^2)) inside |x| < R, identically zero outside."""
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


def initial_bump(grid: Grid, R: float, eps: float, order: int, *,
                 jitter: float = 0.0, seed=None,
                 ops: SpectralOps | None = None) -> EulerState:
    """Bump in v, zero velocity, scaled so the H^order norm equals eps."""
    ops = ops or SpectralOps(grid)
    prof = bump_profile(grid, R)
    if jitter:
        prof = prof * _jitter(grid, jitter, seed)
    nrm = ops.sobolev(prof, order)
    v = prof * (eps / nrm)
    return EulerState(t=0.0, v=v, u=np.zeros((grid.n,) + grid.shape))


def mass_bump(grid: Grid, g: GasLaw, R: float, q0: float,
              ops: SpectralOps | None = None) -> EulerState:
    """Bump in the density excess with integral exactly q0; zero velocity."""
    ops = ops or SpectralOps(grid)
    prof = bump_profile(grid, R)
    rho = 1.0 + prof * (q0 / ops.quad(prof))
    ph = PhysicalState(t=0.0, rho=rho, u=np.zeros((grid.n,) + grid.shape))
    return to_symmetric(ph, g)


def rotational_bump(grid: Grid, R: float, eps: float, order: int = 1, *,
                    ops: SpectralOps | None = None) -> EulerState:
    """Divergence-free velocity from a bump stream function; v = 0 (n >= 2)."""
    if grid.n < 2:
        raise ValueError("rotational data needs n >= 2")
    ops = ops or SpectralOps(grid)
    phi = bump_profile(grid, R)
    gp = ops.grad(phi)
    u = np.zeros((grid.n,) + grid.shape)
    u[0] = gp[1]
    u[1] = -gp[0]
    nrm = ops.sobolev_fields(list(u), order)
    u *= eps / nrm
    return EulerState(t=0.0, v=np.zeros(grid.shape), u=u)


def potential_bump(grid: Grid, R: float, eps: float, order: int = 1, *,
                   ops: SpectralOps | None = None) -> EulerState:
    """Curl-free velocity u = grad(bump); v = 0.  Companion of the above."""
    ops = ops or SpectralOps(grid)
    u = ops.grad(bump_profile(grid, R))
    nrm = ops.sobolev_fields(list(u), order)
    u *= eps / nrm
    return EulerState(t=0.0, v=np.zeros(grid.shape), u=u)


# =====================================================================
#  Right-hand side and time stepping
# =====================================================================

# relative tolerance of the embedded pair: the step's error estimate
# against STEP_TOL times the new state, both in the Euclidean norm of the
# band coefficients
STEP_TOL = 1e-9
# blow-up monitors: spectral tail fraction of the state (v and u
# together), growth factor of the largest gradient, and the simulated
# time between checks in units of the acoustic step cfl dx
TAIL_LIMIT = 0.01
GRAD_FACTOR = 100.0
CHECK_EVERY = 25


@dataclass
class SolverConfig:
    """Knobs of the nonlinear run."""

    t_final: float
    cfl: float = 0.4
    dt_override: float | None = None
    snapshot_times: tuple = ()
    store_snapshots: bool = False

    def __post_init__(self):
        # accepting comparisons, so that NaN is refused too
        if not self.t_final > 0.0:
            raise ValueError(f"t_final: must be positive, got {self.t_final}")
        if not 0.0 < self.cfl <= 0.5:
            raise ValueError(f"cfl: must lie in (0, 0.5], got {self.cfl}")
        if self.dt_override is not None and not self.dt_override > 0.0:
            raise ValueError(f"dt_override: must be positive, got {self.dt_override}")


def _products(v, u, vh, uh, sl: float, ops: SpectralOps):
    """Quadratic terms of the system, 2/3-rule masked, in spectral space.

    v, u are the physical fields and vh, uh their transforms.  Returns
    the transforms of -u.grad v - sl v div u and -(u.grad) u - sl v grad v
    stacked like the state: v first, then the n velocity components;
    and, for a caller that needs them too, the physical grad v and
    div u.  div u is the trace of the velocity gradient, not a transform
    of its own; the gradient is formed one row at a time.
    """
    n = ops.grid.n
    grad_v = ops.grad_hat(vh)
    out = np.empty((n + 1,) + vh.shape, dtype=complex)
    div_u = 0.0
    for i in range(n):
        du_i = ops.grad_hat(uh[i])
        div_u = div_u + du_i[i]
        out[1 + i] = ops.fwd_dealiased(_product_row(u, du_i, v, grad_v[i], sl))
    out[0] = _v_product(v, u, grad_v, div_u, sl, ops)
    return out, grad_v, div_u


def _v_product(v, u, grad_v, div_u, sl: float, ops: SpectralOps) -> np.ndarray:
    """The v row of _products from the physical grad v and div u."""
    return ops.fwd_dealiased(_product_row(u, grad_v, v, div_u, sl))


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
    """Time derivative (dv, du) of the symmetric system at time t."""
    vh = ops.fwd(v)
    uh = [ops.fwd(u[i]) for i in range(ops.grid.n)]
    nl = _products(v, u, vh, uh, g.slope, ops)[0]
    lin = _linear(vh, uh, damping_coeff(t, d), ops)
    dw = [ops.inv(a + p) for a, p in zip(lin, nl)]
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
            self.radii, self.index = r, slice(None)
        else:
            self.radii, index = np.unique(np.round(r, 12), return_inverse=True)
            self.index = index.reshape(r.shape)
        self._work = None

    def release(self):
        """Let the work buffers go; their next use makes them again.  run
        releases them at each output, so that the monitor check and the
        snapshot hook take that memory instead of adding to it."""
        self._work = None

    def work(self):
        """The work buffers of products and step, made on first use: grad
        v, div u, one entry of the velocity gradient (also the scratch of
        each term) and the sum being formed, in physical space; one band
        row, the scratch of apply and of step, and of products for one
        derivative's spectrum; and two spectral states, step's P1 w and
        its running sum."""
        if self._work is None:
            n, shape, band = self.ops.grid.n, self.ops.grid.shape, self.ops.k2.shape
            self._work = (np.empty((n,) + shape), np.empty(shape),
                          np.empty(shape), np.empty(shape),
                          np.empty(band, dtype=complex),
                          np.empty((n + 1,) + band, dtype=complex),
                          np.empty((n + 1,) + band, dtype=complex))
        return self._work

    def propagator(self, t0: float, t1: float):
        """Coefficients (a, b, c, e - f, f) of the exact linear propagator
        from t0 to t1, as apply takes them."""
        r = self.radii
        y = np.zeros((4, r.size))
        y[0] = 1.0
        y[3] = 1.0
        (e00, e10, e01, e11), _ = _magnus_advance(y, t0, t1, r * r, self.d)
        e00[r == 0.0] = 1.0
        e01 = e01 * r
        e10 = np.divide(e10, r, out=np.zeros_like(e10), where=r > 0.0)
        f = 1.0 / integrating_factor(t0, t1, self.d)
        ix = self.index
        return e00[ix], e01[ix], e10[ix], (e11 - f)[ix], f

    def apply(self, P, w: np.ndarray, out: np.ndarray,
              scratch: np.ndarray) -> np.ndarray:
        """P applied to the spectral state w (v first, then u), into out,
        which may be w itself.  With s = sum_i khat_i w_i,

            out_0 = a w_0 - i (b s),
            out_i = f w_i + khat_i (i (c w_0) + (e - f) s),

        each evaluated in that order, a row at a time.  s and the bracket
        go into the first two rows of scratch, a spectral state that
        neither w nor out may share, the rest into the held band row of
        work().
        """
        a, b, c, e_f, f = P
        s, q = scratch[:2]
        tmp = self.work()[4]
        np.multiply(self.khat[0], w[1], out=s)
        for i in range(1, w.shape[0] - 1):
            s += np.multiply(self.khat[i], w[1 + i], out=tmp)
        np.multiply(c, w[0], out=q)
        np.multiply(1j, q, out=q)
        q += np.multiply(e_f, s, out=tmp)
        for i in range(w.shape[0] - 1):
            np.multiply(f, w[1 + i], out=out[1 + i])
            out[1 + i] += np.multiply(self.khat[i], q, out=tmp)
        np.multiply(a, w[0], out=out[0])
        out[0] -= np.multiply(1j, np.multiply(b, s, out=tmp), out=tmp)
        return out

    def physical(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if out is None:
            out = np.empty((w.shape[0],) + self.ops.grid.shape)
        for i in range(w.shape[0]):
            self.ops.inv(w[i], out=out[i])
        return out

    def products(self, w: np.ndarray, x: np.ndarray,
                 out: np.ndarray | None = None, watch: bool = False) -> np.ndarray:
        """_products(...)[0] of the stage w with physical rows x, into
        out, which may be w itself: each row of w is read before the
        same row of out is written.  The same operations in the same
        order, so the same bits, but every grid-sized intermediate goes
        into a held buffer.  With watch, grad_sup keeps the largest sup
        norm of the first derivatives formed, for run's gradient monitor.
        """
        ops, sl, n = self.ops, self.sl, self.ops.grid.n
        grad_v, div, d, acc, dh = self.work()[:5]
        out = np.empty_like(w) if out is None else out
        v, u = x[0], x[1:]
        sup = []

        def deriv(j, F, dst):
            ops.inv(np.multiply(ops.ik[j], F, out=dh), out=dst)
            if watch:
                sup.append(max(dst.max(), -dst.min()))

        def row(i):
            # d_j u_i, one at a time in d, adding d_i u_i to div u
            for j in range(n):
                deriv(j, w[1 + i], d)
                if j == i:
                    np.add(div if i else 0.0, d, out=div)
                yield d

        for j in range(n):
            deriv(j, w[0], grad_v[j])
        for i in range(n):
            ops.fwd(_product_row(u, row(i), v, grad_v[i], sl, acc, d),
                    out=out[1 + i])
        ops.fwd(_product_row(u, grad_v, v, div, sl, acc, d), out=out[0])
        if watch:
            self.grad_sup = float(max(sup))
        return out


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
        p = law.propagator(t, th)
        law.apply(p, w, pw, acc)
        k = law.apply(p, f, f, acc)
        del p
        _scaled(h / 6.0, k, out=acc, plus=pw)
        for _ in range(2):
            _scaled(0.5 * h, k, out=k, plus=pw)
            law.products(k, law.physical(k, out=x), out=k)
            _add_scaled(acc, h / 3.0, k, tmp)
        _scaled(h, k, out=k, plus=pw)
        p = law.propagator(th, t + h)
        law.apply(p, k, k, pw)
        law.apply(p, acc, acc, pw)
        del p
        law.products(k, law.physical(k, out=x), out=k)
        _add_scaled(acc, h / 6.0, k, tmp)
        k5 = law.products(acc, law.physical(acc, out=x), out=pw, watch=True)
        e = 0.1 * h * _norm(np.subtract(k, k5, out=k))
        err = e / (STEP_TOL * _norm(acc)) if e else 0.0
        # a NaN estimate is accepted: run flags the state that made it
        if not err > 1.0 or h <= floor:
            break
        h = max(floor, h * _step_factor(err))
        law.products(w, law.physical(w, out=x), out=f)
    w[...] = acc
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


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of the coefficients of a, a contiguous complex
    array: the dot product of its real view with itself, so no
    temporary."""
    re = a.reshape(-1).view(float)
    return math.sqrt(np.dot(re, re))


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


@dataclass
class RunResult:
    """Outcome of a nonlinear run."""

    verdict: str                  # completed | blowup-gradient | blowup-tail | nonfinite
    t_end: float
    steps: int
    dt_min: float | None = None   # smallest, median and largest step taken
    dt_median: float | None = None
    dt_max: float | None = None
    snapshots: list = field(default_factory=list)


def run(st0: EulerState, d: DampingLaw, g: GasLaw, grid: Grid,
        cfg: SolverConfig, on_snapshot=None,
        ops: SpectralOps | None = None) -> RunResult:
    """March the system to cfg.t_final, landing on every snapshot time.

    Steps are those of the embedded Lawson pair (see step), of length

        h = min(cfl dx / a, max(h_ctrl, cfl dx / (1 + a))),
        a = |u|_inf + (gamma-1)/2 |v|_inf,

    so the advection speed a bounds the step and the sound speed does
    not.  h_ctrl is the PI controller's proposal (_step_factor), from
    the acoustic step cfl dx / (1 + a) at the start.  That acoustic step
    is also the floor: a step there is accepted whatever its estimate,
    a longer one only with err <= 1.  The distance to the next output
    is spread evenly over ceil((output - t) / h) steps, so no sliver of
    a step is left before an output.  A dt_override takes fixed steps,
    cut only to land on outputs, and must respect the advective bound.
    Every step is counted once, however many tries it took.

    on_snapshot(state) fires at each requested time (and at t_final).
    Blow-up monitoring: non-finite values every step; gradient growth and
    spectral tail fraction at every output and at the first step past
    each multiple of CHECK_EVERY cfl dx of simulated time, so the checks
    do not depend on how many steps the controller takes (the gradient
    check reads law.grad_sup, the tail check the band state w).  A
    triggered monitor ends the run with the corresponding verdict.
    """
    ops = ops or SpectralOps(grid)
    _check_band_limited(ops, (st0.v, *st0.u), "initial data")
    law = _Lawson(d, g, ops)
    band = law.ops
    # the state lives on the band: the 2/3 rule only removes aliasing
    # from products whose factors already live inside it
    w = np.stack([band.fwd(st0.v)] + [band.fwd(f) for f in st0.u])
    t = t0 = st0.t
    del st0  # frees the initial fields when the caller keeps no name
    x = law.physical(w)
    f = law.products(w, x, watch=True)
    g0 = max(law.grad_sup, 1e-300)

    snaps = sorted(set(float(s) for s in cfg.snapshot_times
                       if 0.0 < s <= cfg.t_final) | {cfg.t_final})
    dts = []
    result = RunResult(verdict="completed", t_end=cfg.t_final, steps=0)
    every = CHECK_EVERY * cfg.cfl * grid.dx
    next_check = t0 + every
    h_ctrl, err_prev = 0.0, 1.0

    def output(hook):
        st = EulerState(t, x[0], x[1:], band=BandView(band, w, f))
        if hook is not None:
            hook(st)
        if cfg.store_snapshots:
            result.snapshots.append(st.copy())

    law.release()
    output(on_snapshot if t == 0.0 else None)

    def tripped() -> str | None:
        if not np.isfinite(x).all():
            return "nonfinite"
        if law.grad_sup > GRAD_FACTOR * g0:
            return "blowup-gradient"
        # watch the upper half of the retained band, over the held band
        # spectrum of v and u together: no transform, and v alone, which
        # rotational and potential data keep near zero, is only noise
        if band.spectral_tail(w, cut=0.5) > TAIL_LIMIT:
            return "blowup-tail"
        return None

    def finish(why: str | None) -> RunResult:
        result.steps = len(dts)
        result.t_end = t
        if dts:
            srt, mid = sorted(dts), len(dts) // 2
            result.dt_min, result.dt_max = srt[0], srt[-1]
            result.dt_median = srt[mid] if len(srt) % 2 \
                else 0.5 * (srt[mid - 1] + srt[mid])
        if why:
            result.verdict = why
        return result

    for target in snaps:
        tol = 1e-12 * max(1.0, target)
        while t < target - tol:
            speed = max(ops.linf(x[i]) for i in range(1, grid.n + 1)) \
                + g.slope * ops.linf(x[0])
            if not np.isfinite(speed):
                return finish("nonfinite")
            h_adv = cfg.cfl * grid.dx / speed if speed > 0.0 else np.inf
            if cfg.dt_override is not None:
                if cfg.dt_override > h_adv * (1.0 + 1e-9):
                    raise ValueError(
                        f"dt_override {cfg.dt_override:g} violates the "
                        f"advective CFL bound {h_adv:g}")
                h, floor = min(cfg.dt_override, target - t), np.inf
            else:
                floor = cfg.cfl * grid.dx / (1.0 + speed)
                h = min(h_adv, max(h_ctrl, floor))
                h = (target - t) / max(1, math.ceil((target - t) / h - 1e-9))
            h, err = step(t, w, x, f, h, law, floor)
            h_ctrl, err_prev = h * _step_factor(err, err_prev), err
            t += h
            dts.append(h)
            if t >= next_check:
                next_check = t0 + every * (math.floor((t - t0) / every) + 1)
                # a step that lands on the output is checked there
                why = tripped() if t < target - tol else None
                if why:
                    return finish(why)
        law.release()
        why = tripped()
        if why:
            return finish(why)
        output(on_snapshot)
    return finish(None)


# =====================================================================
#  Derived fields
# =====================================================================

def nonlinear_wave_source(st: EulerState, d: DampingLaw, g: GasLaw,
                          ops: SpectralOps, held=None) -> np.ndarray:
    """Source of the second-order wave form of the continuity equation.

    Eliminating u_t between the two evolution equations yields

        v_tt - Lap v + b(t) v_t = Q,
        Q = -b (u.grad v + c v div u) - d/dt (u.grad v + c v div u)
            + div( (u.grad) u + c v grad v ),          c = (gamma-1)/2,

    that is Q = b N_v + d/dt N_v - div N_u for the solver's products
    N = (N_v, N_u).  Q is assembled in spectral space from the state's
    transform w and N, as _products forms them on ops unless the caller
    holds them as held = (w, N, grad v, div u): (v_t, u_t) from _linear
    plus N, and, by bilinearity, d/dt N_v as two _v_product calls, with
    (v_t, u_t) in the factor slots and grad v_t, div u_t in the
    derivative slots.  With held, 2 forward and 2n + 3 inverse
    transforms.
    """
    n, ik, sl = ops.grid.n, ops.ik, g.slope
    b = damping_coeff(st.t, d)
    v, u = st.v, st.u
    if held is None:
        w = [ops.fwd(v)] + [ops.fwd(u[i]) for i in range(n)]
        held = (w,) + _products(v, u, w[0], w[1:], sl, ops)
    w, nl, grad_v, div_u = held
    dwh = [a + p for a, p in zip(_linear(w[0], w[1:], b, ops), nl)]
    dw = [ops.inv(row) for row in dwh]
    div_du = ops.inv(sum(ik[i] * dwh[1 + i] for i in range(n)))
    qh = (b * nl[0]
          + _v_product(dw[0], dw[1:], grad_v, div_u, sl, ops)
          + _v_product(v, u, ops.grad_hat(dwh[0]), div_du, sl, ops)
          - sum(ik[i] * nl[1 + i] for i in range(n)))
    return ops.inv(qh)
