"""Reference definitions that only the tests use.

No preset runs these.  They are the plain, one-field-at-a-time
definitions that the tests compare the package's fused or band-limited
forms with: spectral derivatives, divergence, Laplacian, curl, the
sums of derivative L2 norms, the 2/3-rule dealias projection and the
stepper's products in convective form on a SpectralOps, the inverse
change of variables and its inverse, the weighted energy, mass excess and momentum
moment of one state, the friction's integrating factor, and the
method-of-lines solver that is the grid solver's independent oracle.  Each takes the SpectralOps (or Grid) it works on
as an argument.  The recorder's columns of the physical state equal
these definitions bit for bit, so a rewrite here must keep their
operations and their order.  So does the zone integral's refinement
loop that evolves every node set afresh, which linear.zone_integral
equals bit for bit.

Two oracles live here as well, out of the package they check: the
DOP853 mode propagator (propagator_matrix), the Magnus engine's oracle,
which imports scipy.integrate on its first call, and the grid solver
(solve_linear_ivp) that runs mode by mode on evolve_modes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from eulerlab import diagnostics, euler
from eulerlab.grids import Grid, SpectralOps
from eulerlab.linear import (QuadratureError, _check_band_limited,
                             _grid_mode_table, _sphere_area, evolve_modes)
from eulerlab.params import DampingLaw, GasLaw, WeightSpec, Zone, weight_eval


# ---------------------------------------------------------------------
#  Spectral operators
# ---------------------------------------------------------------------

def deriv(ops: SpectralOps, f: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
    """order-th spectral derivative along one axis (physical in/out)."""
    return ops.inv(ops.ik[axis] ** order * ops.fwd(f))


def div(ops: SpectralOps, u: np.ndarray) -> np.ndarray:
    out = np.zeros(ops.grid.shape)
    for i in range(ops.grid.n):
        out += ops.inv(ops.ik[i] * ops.fwd(u[i]))
    return out


def laplacian(ops: SpectralOps, f: np.ndarray) -> np.ndarray:
    return ops.inv(-ops.k2 * ops.fwd(f))


def curl(ops: SpectralOps, u: np.ndarray) -> np.ndarray:
    """Vorticity: scalar in 2-D, vector in 3-D, from the velocity
    gradient G[i][j] = d_j u_i."""
    n = ops.grid.n
    if n not in (2, 3):
        raise ValueError("curl is defined for n = 2 or 3")
    G = [ops.grad_hat(ops.fwd(u[i])) for i in range(n)]
    if n == 2:
        return G[1][0] - G[0][1]
    return np.stack([G[2][1] - G[1][2],
                     G[0][2] - G[2][0],
                     G[1][0] - G[0][1]])


def deriv_l2(ops: SpectralOps, f: np.ndarray, order: int) -> float:
    """Sum of the L2 norms of all derivatives of f of exactly this order,
    one inverse transform per derivative multi-index; the L2 norm of f
    at order 0."""
    if order == 0:
        return ops.l2(f)
    n, F = ops.grid.n, ops.fwd(f)
    total = 0.0
    for axes in itertools.combinations_with_replacement(range(n), order):
        G = F
        for ax in range(n):
            if axes.count(ax):
                G = ops.ik[ax] ** axes.count(ax) * G
        total += ops.l2(ops.inv(G))
    return total


def dealias_mask(ops: SpectralOps) -> np.ndarray:
    """The wavevectors of ops's spectra that the 2/3 rule keeps, |k_i| <=
    2/3 kmax on every axis, in broadcast form: all of a band instance's."""
    kmax = np.pi / ops.grid.dx
    cut = 2.0 / 3.0 * kmax
    return functools.reduce(np.logical_and, np.meshgrid(
        *[np.abs(a) <= cut for a in ops._axes], indexing="ij", sparse=True))


def dealias(ops: SpectralOps, f: np.ndarray) -> np.ndarray:
    """Project a physical field onto the 2/3 wavenumber band; a band
    instance holds nothing outside the band, so it needs no mask."""
    F = ops.fwd(f)
    if not ops.band:
        np.multiply(dealias_mask(ops), F, out=F)
    return ops.inv(F)


def convective_products(ops: SpectralOps, g: GasLaw, w: np.ndarray,
                        x: np.ndarray, u_rows: bool = True) -> np.ndarray:
    """The quadratic terms of the symmetric system in convective form,
    -u.grad v - sl v div u and -(u.grad) u - sl v grad v, on the band
    spectrum w of (v, u) of a band SpectralOps with physical rows x,
    from the n first derivatives of v and the n^2 of u: n + n^2 inverse
    transforms, one field at a time.  With u_rows=False, the v row
    alone."""
    n, ik, sl = ops.grid.n, ops.ik, g.slope
    v, u = x[0], x[1:]
    dv = [ops.inv(ik[j] * w[0]) for j in range(n)]
    du = [[ops.inv(ik[j] * w[1 + i]) for j in range(n)] for i in range(n)]
    div_u = sum(du[i][i] for i in range(n))
    rows = [-sum(u[j] * dv[j] for j in range(n)) - sl * v * div_u]
    if u_rows:
        rows += [-sum(u[j] * du[i][j] for j in range(n)) - sl * v * dv[i]
                 for i in range(n)]
    return np.stack([ops.fwd(r) for r in rows])


# ---------------------------------------------------------------------
#  Functionals of one state
# ---------------------------------------------------------------------

def to_symmetric(rho: np.ndarray, g: GasLaw) -> np.ndarray:
    """v = 2/(gamma-1) (rho^((gamma-1)/2) - 1), the inverse of density;
    rejects vacuum states."""
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise euler.VacuumError("density must be positive")
    return (rho ** g.slope - 1.0) / g.slope


def from_symmetric(st: euler.EulerState, g: GasLaw) -> np.ndarray:
    """The density of st: the sound-speed change of variables inverted;
    rejects vacuum states."""
    return euler.density(st.v, g)


def weighted_energy(t: float, f: np.ndarray, spec: WeightSpec, grid: Grid,
                    support_R: float | None = None) -> float:
    """J = integral of e^(2 psi) f^2 of one field.

    With support_R set, integration is restricted to the propagation cone
    |x| <= support_R + t + 2: the continuum field vanishes outside it, and
    what the grid carries there is transform ringing.  Without the
    restriction the weight on the silent far field would overflow any
    finite exponent budget.
    """
    mesh = grid.mesh()
    two_psi = 2.0 * weight_eval(t, mesh, spec).psi
    if support_R is not None:
        rad = np.sqrt(np.sum(mesh * mesh, axis=0))
        f = np.where(rad > support_R + t + 2.0, 0.0, f)
    return diagnostics.weighted_l2_sq(f, two_psi, grid.cell)


def mass_excess(st: euler.EulerState, g: GasLaw, ops: SpectralOps) -> float:
    """M = integral of (rho - 1); conserved exactly by the flow."""
    return ops.quad(from_symmetric(st, g) - 1.0)


def momentum_moment(st: euler.EulerState, g: GasLaw, ops: SpectralOps) -> float:
    """F = integral of x . (rho u), by the recorder's own _moment: a test
    that compares the recorder's moment column with it checks the wiring
    (the fields and the mesh the recorder passes), not the sum."""
    return diagnostics._moment(from_symmetric(st, g), st.u, ops,
                               ops.grid.mesh())


# ---------------------------------------------------------------------
#  The friction's integrating factor
# ---------------------------------------------------------------------

def integrating_factor(t0, t1, d: DampingLaw):
    """exp( mu/(1-lam) * ((1+t1)^(1-lam) - (1+t0)^(1-lam)) ).

    This is the exact integrating factor of w' + mu/(1+t)^lam w = 0
    between times t0 and t1; it is multiplicative over concatenated
    intervals and reduces to exp(mu (t1 - t0)) at lam = 0.  The stepper
    takes its logarithm, euler._log_growth, in Python floats.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    if np.any(t0 < 0.0) or np.any(t1 < 0.0):
        raise ValueError("integrating_factor requires t0, t1 >= 0")
    om = 1.0 - d.lam
    out = np.exp(d.mu / om * ((1.0 + t1) ** om - (1.0 + t0) ** om))
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------
#  The DOP853 mode propagator: the Magnus engine's oracle
# ---------------------------------------------------------------------

MODE_RTOL = 1e-10


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


# ---------------------------------------------------------------------
#  The linear grid solver, mode by mode on evolve_modes
# ---------------------------------------------------------------------

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


# ---------------------------------------------------------------------
#  Method-of-lines reference solver
# ---------------------------------------------------------------------

def mol_reference_solve(w0: np.ndarray, w1: np.ndarray, grid: Grid, d: DampingLaw,
                        t_out, *, dt: float = None) -> LinearSolution:
    """Method-of-lines reference: RK4 time stepping of the full grid system.

    Independent of the per-mode route (same spatial transform, different
    time integration), used as the dual-route oracle for solve_linear_ivp.
    """
    ops = SpectralOps(grid)
    t_out = np.atleast_1d(np.asarray(t_out, dtype=float))
    if dt is None:
        kmax = np.pi / grid.dx
        dt = 0.2 / kmax
    lam, mu = d.lam, d.mu

    def rhs(t, w, wt):
        b = mu * (1.0 + t) ** (-lam)
        return wt, laplacian(ops, w) - b * wt

    w = np.array(w0, dtype=float, copy=True)
    wt = np.array(w1, dtype=float, copy=True)
    t = 0.0
    w_list, wt_list = [], []
    for target in t_out:
        while t < target - 1e-13 * max(1.0, target):
            h = min(dt, target - t)
            a1, b1 = rhs(t, w, wt)
            a2, b2 = rhs(t + 0.5 * h, w + 0.5 * h * a1, wt + 0.5 * h * b1)
            a3, b3 = rhs(t + 0.5 * h, w + 0.5 * h * a2, wt + 0.5 * h * b2)
            a4, b4 = rhs(t + h, w + h * a3, wt + h * b3)
            w = w + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4)
            wt = wt + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4)
            t += h
        w_list.append(w.copy())
        wt_list.append(wt.copy())
    return LinearSolution(times=t_out, w=w_list, w_t=wt_list)


# ---------------------------------------------------------------------
#  Zone integral: the refinement loop evolving every node set afresh
# ---------------------------------------------------------------------

def zone_integral_refined_afresh(t: float, alpha: int, zone: Zone,
                                 d: DampingLaw, n: int, *, tol: float = 1e-4,
                                 max_refine: int = 9) -> float:
    """linear.zone_integral as each pass evolves all of its nodes: the
    m-node trapezoid, then 2m - 1 nodes and so on until two successive
    sums agree to tol, QuadratureError after max_refine doublings."""
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

    def quad_on(m: int) -> float:
        r = np.linspace(lo, hi, m)
        tr = evolve_modes(r, d, np.array([t]))
        g = np.abs(tr[0, :, 0])
        vals = r ** pw * g
        return float(np.trapezoid(vals, r)) * _sphere_area(n)

    m = max(65, int(min(4096, 16 + (hi - lo) * (1.0 + t) / 2.0)) | 1)
    prev = quad_on(m)
    for _ in range(max_refine):
        m = 2 * m - 1
        cur = quad_on(m)
        if abs(cur - prev) <= tol * max(abs(cur), 1e-300):
            return cur
        prev = cur
    raise QuadratureError(
        f"zone integral did not converge to {tol:g} after {max_refine} doublings")
