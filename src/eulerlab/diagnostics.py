"""Norm histories, decay fits and closed-form oracles.

The recorder walks alongside a nonlinear run and reduces each snapshot
to one EnergyRow of scalars: Sobolev norms of (v, u), the weighted
energies J built from the Gaussian space-time weight, the conserved
mass excess M, the momentum moment F, the vorticity norm and the L1
norm of the wave-form source.  The one-field definitions of J, M and F
that the tests compare its columns with live in tests/reference.py.  On
top of the histories sit the fitting utilities (power-law and
stretched-exponential least squares on a log ordinate) and the
closed-form oracles: the convolution inequality check and the
finite-propagation lower-bound margins.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, fields as dc_fields

import numpy as np

from . import euler
from .grids import SpectralOps
from .params import DampingLaw, GasLaw, WeightSpec, damping_coeff, weight_eval

__all__ = [
    "EnergyRow",
    "EnergyRecorder",
    "FitResult",
    "FitQualityWarning",
    "DomainSizeError",
    "weighted_l2_sq",
    "ball_volume",
    "decay_fit",
    "convolution_oracle",
    "cauchy_schwarz_margin",
    "moment_inequality_margins",
    "lower_bound_margin",
    "write_csv",
]


class DomainSizeError(RuntimeError):
    """The weight exponent overflowed on the active support of a field."""


class FitQualityWarning(UserWarning):
    """A decay fit has a large residual; the window may be pre-asymptotic."""


# =====================================================================
#  Weighted energies
# =====================================================================

def weighted_l2_sq(f: np.ndarray, two_psi: np.ndarray, cell: float) -> float:
    """integral of e^(2 psi) f^2.

    Evaluated in log space so that huge weight values on the silent part
    of the grid cannot overflow: the guard rejects only combinations
    where the *integrand* itself would overflow.
    """
    with np.errstate(divide="ignore"):
        logf2 = 2.0 * np.log(np.abs(f))
    logterm = two_psi + logf2
    if np.any(logterm > 700.0):
        raise DomainSizeError(
            "weight exponent overflows on the active support; "
            "enlarge the box or shorten the run")
    return float(np.sum(np.exp(logterm))) * cell


# =====================================================================
#  Moment functionals
# =====================================================================

def ball_volume(n: int, r) -> np.ndarray | float:
    """Volume of the ball of radius r: 2r, pi r^2, 4/3 pi r^3."""
    r = np.asarray(r, dtype=float)
    out = {1: 2.0 * r, 2: np.pi * r ** 2, 3: 4.0 / 3.0 * np.pi * r ** 3}[n]
    return float(out) if out.ndim == 0 else out


# elements of the scratch slab in which _moment forms each term
_SLAB = 2 ** 13


def _moment(rho: np.ndarray, u: np.ndarray, ops: SpectralOps,
            mesh: np.ndarray) -> float:
    """quad of sum_i mesh[i] * rho * u[i], by that sum's own operations
    (from 0, term by term) in one grid-sized array: each term is formed a
    slab of leading rows at a time, about _SLAB elements, so that the
    recorder, whose snapshot holds the stepper's grad v, holds no more
    than rho and the sum here.  mesh is the coordinates, dense or in
    broadcast form."""
    acc = np.empty_like(rho)
    rows = max(1, _SLAB * rho.shape[0] // rho.size)
    for a in range(0, rho.shape[0], rows):
        cut, tmp = slice(a, a + rows), None
        out = acc[cut]
        for i in range(ops.grid.n):
            m = mesh[i] if mesh[i].shape[0] == 1 else mesh[i][cut]
            tmp = np.multiply(m, rho[cut], out=tmp)
            np.multiply(tmp, u[i][cut], out=tmp)
            np.add(out if i else 0, tmp, out=out)
    return ops.quad(acc)


# =====================================================================
#  Row recorder
# =====================================================================

@dataclass
class EnergyRow:
    """One snapshot reduced to scalars.  Column order is field order."""

    t: float
    v_l2: float
    u_l2: float
    u_linf: float
    rho_l2: float
    rho_linf: float
    dv1_l2: float
    dv1_linf: float
    du1_l2: float
    vt_l2: float
    J_v: float
    J_u: float
    Jgrad_v: float
    Jgrad_u: float
    Jvt: float
    mon_low: float
    mon_high: float
    wmon_low: float
    wmon_high: float
    mass: float
    moment: float
    vort_l2: float
    src_l1: float

    @classmethod
    def columns(cls):
        return [f.name for f in dc_fields(cls)]


class EnergyRecorder:
    """Callable snapshot hook that accumulates EnergyRows.

    Each snapshot reads the band view that a state from euler.run carries
    (euler.BandView): the band spectrum w of the state, the v row f_v of
    the products at it and the stepper's grad v there; a state without
    that view is refused.  The L2 norms of the velocity gradient,
    of v_t = -div u + f_v and of the vorticity come from their band spectra
    by Parseval (SpectralOps.l2_hat), and grad v, whose sup norm is a
    column, is the stepper's: no transform at all.  Columns of the
    physical state are bit-equal to their reference definitions
    (tests/reference.py), those of derivatives equal to rounding for a
    band-limited state.  In a
    rotational solve the v-side columns (v_l2, rho_l2, rho_linf, dv1_l2,
    dv1_linf, vt_l2) are accurate only to about 1e-2 of their size: v is of
    second order there, and the step control bounds the error of the whole
    band state, which u dominates.

    The weighted energies are taken on the propagation cone of the
    data's support radius support_R, as in the reference definition
    weighted_energy (tests/reference.py), and form
    the velocity gradient and v_t: n^2 + 1 more inverses.  The
    wave-form source starts from the view and forms div u: 2 forward and
    2n + 4 inverse transforms more, and at an output inside a step the
    products anew, for their u rows: 2, 4 and 5 forward and 2, 4 and 7
    inverse in 1-, 2- and 3-D.
    with_source and with_weights are facts of the preset: on only where
    a verdict reads their columns (q-decay and weighted-energy-bounded);
    off, those columns hold zeros.
    """

    def __init__(self, ops: SpectralOps, d: DampingLaw, g: GasLaw,
                 spec: WeightSpec, *, support_R: float,
                 with_source: bool = True, with_weights: bool = True):
        self.ops = ops
        self.d = d
        self.g = g
        self.spec = spec
        self.with_source = with_source
        self.with_weights = with_weights
        self.support_R = support_R
        # the coordinates in broadcast form, one axis each: the moment
        # needs no more, and the weighted block forms the mesh itself
        self.coords = np.meshgrid(*([ops.grid.axis()] * ops.grid.n),
                                  indexing="ij", sparse=True)
        self.rows: list[EnergyRow] = []

    def __call__(self, st: euler.EulerState):
        if st.band is None:
            raise ValueError("EnergyRecorder: the state has no band view "
                             "(EulerState.band); record the states that "
                             "euler.run hands its snapshot hook")
        ops, n = self.ops, self.ops.grid.n
        v, u = st.v, st.u
        band, w, grad_v = st.band.ops, st.band.w, st.band.grad_v
        ik = band.ik
        dv1_l2 = sum(ops.l2(gv) for gv in grad_v)
        dv1_linf = max(ops.linf(gv) for gv in grad_v)
        du1_l2 = sum(band.l2_hat(ik[j] * w[1 + i])
                     for i in range(n) for j in range(n))
        dvh = next(euler._linear(None, w[1:], 0.0, band)) + st.band.f_v
        vt_l2 = band.l2_hat(dvh)
        # the vorticity as its components d_j u_i - d_i u_j, j < i
        vort_l2 = band.l2_hat(np.stack(
            [ik[j] * w[1 + i] - ik[i] * w[1 + j]
             for i in range(n) for j in range(i)])) if n > 1 else 0.0

        J_v = J_u = Jgrad_v = Jgrad_u = Jvt = 0.0
        if self.with_weights:
            mesh = ops.grid.mesh()
            two_psi = 2.0 * weight_eval(st.t, mesh, self.spec).psi
            rad = np.sqrt(np.sum(mesh * mesh, axis=0))
            del mesh
            outside = rad > self.support_R + st.t + 2.0
            del rad

            def J(f):
                return weighted_l2_sq(np.where(outside, 0.0, f), two_psi,
                                      ops.grid.cell)

            J_v, J_u = J(v), sum(J(u[i]) for i in range(n))
            Jgrad_v = sum(J(gv) for gv in grad_v)
            # the velocity gradient d_j u_i one entry at a time
            Jgrad_u = sum(J(band.inv(ik[j] * w[1 + i]))
                          for i in range(n) for j in range(n))
            Jvt = J(band.inv(dvh))
            del two_psi, outside
        src_l1 = 0.0
        if self.with_source:
            src_l1 = ops.quad(np.abs(euler.nonlinear_wave_source(
                st, self.d, self.g)))

        u_l2 = math.sqrt(sum(ops.l2(u[i]) ** 2 for i in range(n)))
        u_linf = max(ops.linf(u[i]) for i in range(n))

        # the density without a copy of u; the moment reads it before it
        # becomes rho - 1 in place
        rho = euler.density(v, self.g)
        moment = _moment(rho, u, ops, self.coords)
        rho_dev = np.subtract(rho, 1.0, out=rho)
        B = self.spec.B
        gp = (1.0 + st.t) ** B
        gq = (1.0 + st.t) ** (B + 1.0 + self.d.lam)
        v_l2 = ops.l2(v)
        row = EnergyRow(
            t=st.t, v_l2=v_l2, u_l2=u_l2, u_linf=u_linf,
            rho_l2=ops.l2(rho_dev), rho_linf=ops.linf(rho_dev),
            dv1_l2=dv1_l2, dv1_linf=dv1_linf, du1_l2=du1_l2, vt_l2=vt_l2,
            J_v=J_v, J_u=J_u, Jgrad_v=Jgrad_v, Jgrad_u=Jgrad_u, Jvt=Jvt,
            mon_low=gp * (v_l2 ** 2 + u_l2 ** 2),
            mon_high=gq * (vt_l2 ** 2 + dv1_l2 ** 2 + du1_l2 ** 2),
            wmon_low=gp * (J_v + J_u),
            wmon_high=gq * (Jvt + Jgrad_v + Jgrad_u),
            mass=ops.quad(rho_dev),
            moment=moment,
            vort_l2=vort_l2, src_l1=src_l1)
        self.rows.append(row)

    def series(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    @property
    def times(self) -> np.ndarray:
        return self.series("t")

    def to_csv(self, path):
        cols = EnergyRow.columns()
        write_csv(path, cols, [self.series(c) for c in cols])


def write_csv(path, header, columns):
    """A CSV of the header and the columns, one row per entry, each cell
    the repr of a float: it reads back to the same bits."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in zip(*columns):
            wr.writerow([repr(float(x)) for x in row])


# =====================================================================
#  Decay fits
# =====================================================================

@dataclass(frozen=True)
class FitResult:
    """Least-squares line through (abscissa, log value)."""

    slope: float
    intercept: float
    residual: float
    n_pts: int
    window: tuple
    kind: str


# fewest samples a decay fit accepts in its window
FIT_MIN_PTS = 8


def decay_fit(times, values, t_lo: float, t_hi: float, *,
              stretch_exponent: float | None = None) -> FitResult:
    """Fit log(values) against log(1+t) or (1+t)^stretch_exponent.

    Without stretch_exponent, a "power" fit: the slope is the polynomial
    decay exponent.  With it, a "stretched" fit on the abscissa (1+t)^e:
    the slope is the stretched-exponential rate (e.g. -mu/(1-lam) for
    pure-friction decay with e = 1-lam).
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    sel = (times >= t_lo) & (times <= t_hi)
    if int(np.sum(sel)) < FIT_MIN_PTS:
        raise ValueError(
            f"need at least {FIT_MIN_PTS} samples in [{t_lo}, {t_hi}], "
            f"found {int(np.sum(sel))}")
    tt, yy = times[sel], values[sel]
    if np.any(yy <= 0.0):
        raise ValueError("decay_fit needs strictly positive values")
    if stretch_exponent is None:
        kind, x = "power", np.log1p(tt)
    else:
        kind, x = "stretched", (1.0 + tt) ** stretch_exponent
    y = np.log(yy)
    coef = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - np.polyval(coef, x)) ** 2)))
    if resid > 0.1:
        warnings.warn(f"decay fit residual {resid:.3f} exceeds 0.1; "
                      "window may be pre-asymptotic", FitQualityWarning)
    return FitResult(slope=float(coef[0]), intercept=float(coef[1]),
                     residual=resid, n_pts=int(tt.size),
                     window=(float(t_lo), float(t_hi)), kind=kind)


# =====================================================================
#  Closed-form oracles
# =====================================================================

def convolution_oracle(a: float, b: float, times) -> np.ndarray:
    """The ratios of int_0^t (1+t-s)^-a (1+s)^-b ds to (1+t)^-b at the
    given times, by quadrature; the convolution bound says they stay
    below a constant C.

    Hypotheses a > 1 and 0 < b <= a are enforced; outside them the bound
    genuinely fails and the request is rejected.
    """
    if not a > 1.0:
        raise ValueError(f"convolution bound needs a > 1, got a={a}")
    if not 0.0 < b <= a:
        raise ValueError(f"convolution bound needs 0 < b <= a, got b={b}")
    from scipy.integrate import quad
    times = np.asarray(times, dtype=float)
    ratios = np.empty(times.size)
    for j, t in enumerate(times):
        def f(s):
            return (1.0 + t - s) ** (-a) * (1.0 + s) ** (-b)
        mid = 0.5 * t
        val = quad(f, 0.0, mid, limit=200)[0] + quad(f, mid, t, limit=200)[0]
        ratios[j] = val * (1.0 + t) ** b
    return ratios


def cauchy_schwarz_margin(times, rho_l2, q0: float, R: float, n: int) -> np.ndarray:
    """margin(t) = ||rho-1||_L2 * sqrt(vol(R+t)) / q0, predicted >= 1."""
    times = np.asarray(times, dtype=float)
    rho_l2 = np.asarray(rho_l2, dtype=float)
    if q0 <= 0.0:
        raise ValueError("cauchy_schwarz_margin needs q0 > 0")
    return rho_l2 * np.sqrt(ball_volume(n, R + times)) / q0


def moment_inequality_margins(times, F, q0: float, n: int,
                              d: DampingLaw) -> np.ndarray:
    """(F' + b F) / (n q0) at interior sample times, predicted >= 1.

    F' by centered differences on the (possibly non-uniform) snapshot
    times; returns one margin per interior sample.
    """
    times = np.asarray(times, dtype=float)
    F = np.asarray(F, dtype=float)
    if times.size < 3:
        raise ValueError("need at least 3 samples for the centered difference")
    tm, t0, tp = times[:-2], times[1:-1], times[2:]
    dF = (F[2:] - F[:-2]) / (tp - tm)
    b = damping_coeff(t0, d)
    return (dF + b * F[1:-1]) / (n * q0)


def lower_bound_margin(times, rho_l2, u_l2, q0: float, R: float, n: int,
                       t0: float, t1: float = np.inf) -> dict:
    """Scaled lower-bound margins for density excess and velocity.

    m_rho = ||rho-1|| (R+t)^(n/2) / q0,  m_u = ||u|| (R+t)^((n+2)/2) / q0,
    with infima taken over t0 <= t <= t1.  Positive infima are the
    desk-scale expression of the polynomial lower bounds.
    """
    times = np.asarray(times, dtype=float)
    rho_l2 = np.asarray(rho_l2, dtype=float)
    u_l2 = np.asarray(u_l2, dtype=float)
    if q0 <= 0.0:
        raise ValueError("lower_bound_margin needs q0 > 0")
    m_rho = rho_l2 * (R + times) ** (0.5 * n) / q0
    m_u = u_l2 * (R + times) ** (0.5 * (n + 2)) / q0
    sel = (times >= t0) & (times <= t1)
    if not np.any(sel):
        raise ValueError(f"no samples in [t0, t1] = [{t0}, {t1}]")
    return {
        "m_rho": m_rho, "m_u": m_u,
        "inf_rho": float(np.min(m_rho[sel])),
        "inf_u": float(np.min(m_u[sel])),
    }
