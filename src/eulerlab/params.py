"""Parameter algebra for the damped-Euler laboratory.

Everything in this module is closed-form: the damping coefficient
mu/(1+t)^lam, the exact integrating factor of the pure-damping ODE,
the Gaussian-in-space weight

    psi(t, x) = a |x|^2 / (1+t)^(1+lam)

with its derivative identities, the derived constants (a, B, k_c) that
control the weighted-energy bookkeeping, and the frequency-zone
classifier used by the linear mode analysis.  No numerics beyond
ordinary floating point happens here, which makes this module the
natural oracle for everything downstream.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DampingLaw",
    "GasLaw",
    "WeightSpec",
    "WeightEval",
    "Zone",
    "damping_coeff",
    "integrating_factor",
    "DELTA",
    "derive_constants",
    "weight_eval",
    "zone_classify",
    "t_xi",
]


@dataclass(frozen=True)
class DampingLaw:
    """Friction coefficient mu/(1+t)^lam.

    The production regime is 0 < lam < 1 and mu > 0.  Two degenerate
    settings are admitted for cross-validation: lam = 0 (constant-in-time
    damping, which anchors closed-form oscillator solutions) and mu = 0
    (the free wave).
    """

    lam: float
    mu: float

    def __post_init__(self):
        # accepting comparisons, so that NaN is refused too
        if not 0.0 <= self.lam < 1.0:
            raise ValueError(f"lam: decay exponent must lie in [0, 1), got {self.lam}")
        if not self.mu >= 0.0:
            raise ValueError(f"mu: friction strength must be nonnegative, got {self.mu}")


@dataclass(frozen=True)
class GasLaw:
    """Polytropic pressure p(rho) = rho^gamma / gamma with gamma > 1."""

    gamma: float = 2.0

    def __post_init__(self):
        if not self.gamma > 1.0:
            raise ValueError(f"gamma: adiabatic index must exceed 1, got {self.gamma}")

    @property
    def slope(self) -> float:
        """(gamma - 1)/2, the coefficient in front of the coupling terms."""
        return 0.5 * (self.gamma - 1.0)


def damping_coeff(t, d: DampingLaw):
    """The coefficient mu/(1+t)^lam; accepts scalars or arrays, t >= 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("damping_coeff is defined for t >= 0 only")
    out = d.mu * (1.0 + t) ** (-d.lam)
    return float(out) if out.ndim == 0 else out


def integrating_factor(t0, t1, d: DampingLaw):
    """exp( mu/(1-lam) * ((1+t1)^(1-lam) - (1+t0)^(1-lam)) ).

    This is the exact integrating factor of w' + mu/(1+t)^lam w = 0
    between times t0 and t1; it is multiplicative over concatenated
    intervals and reduces to exp(mu (t1 - t0)) at lam = 0.
    """
    t0 = np.asarray(t0, dtype=float)
    t1 = np.asarray(t1, dtype=float)
    if np.any(t0 < 0.0) or np.any(t1 < 0.0):
        raise ValueError("integrating_factor requires t0, t1 >= 0")
    om = 1.0 - d.lam
    out = np.exp(d.mu / om * ((1.0 + t1) ** om - (1.0 + t0) ** om))
    return float(out) if out.ndim == 0 else out


# =====================================================================
#  Derived constants and the space-time weight
# =====================================================================

@dataclass(frozen=True)
class WeightSpec:
    """Derived constants for dimension n and margin delta.

    a    -- amplitude of the weight psi = a|x|^2/(1+t)^(1+lam)
    B    -- decay index of the low-order weighted energy
    k_c  -- critical derivative order for the sup-norm decay ladder
    """

    n: int
    delta: float
    lam: float
    mu: float
    a: float
    B: float
    k_c: float


# delta unless the caller pins one: min(1/4, (1+lam) n/4) at every lam, n
DELTA = 0.25


def derive_constants(d: DampingLaw, n: int, delta: float = DELTA) -> WeightSpec:
    """Closed forms for (a, B, k_c).

        B   = (1+lam) n / 2 - delta
        a   = (1+lam) mu / 8 * (1 - delta / ((1+lam) n))
        k_c = (1+lam)/(1-lam) * (n+1) - n - 2 delta / (1-lam)

    delta must lie in (0, (1+lam) n / 2]; the default, DELTA, keeps B
    and a comfortably positive in every dimension.
    """
    if n not in (1, 2, 3):
        raise ValueError(f"space dimension n must be 1, 2 or 3, got {n}")
    lim = 0.5 * (1.0 + d.lam) * n
    if not 0.0 < delta <= lim:
        raise ValueError(f"delta: must lie in (0, {lim}], got {delta}")
    one_p = 1.0 + d.lam
    one_m = 1.0 - d.lam
    b_idx = 0.5 * one_p * n - delta
    amp = one_p * d.mu / 8.0 * (1.0 - delta / (one_p * n))
    k_crit = one_p / one_m * (n + 1) - n - 2.0 * delta / one_m
    return WeightSpec(n=n, delta=float(delta), lam=d.lam, mu=d.mu,
                      a=amp, B=b_idx, k_c=k_crit)


@dataclass(frozen=True)
class WeightEval:
    """Pointwise weight data: psi, psi_t, grad psi, Laplacian psi."""

    psi: np.ndarray | float
    psi_t: np.ndarray | float
    grad_psi: np.ndarray
    lap_psi: np.ndarray | float


def weight_eval(t: float, x, spec: WeightSpec) -> WeightEval:
    """Evaluate psi = a|x|^2/(1+t)^(1+lam) and its exact derivatives.

    x is an array whose leading axis has length n (a single point or a
    batch of points / a full mesh).  The returned identities satisfy

        psi_t    = -(1+lam)/(1+t) psi
        grad psi = 2 a x / (1+t)^(1+lam)
        lap psi  = 2 a n / (1+t)^(1+lam)

    which downstream property tests verify to near machine precision.
    """
    if t < 0.0:
        raise ValueError("weight_eval requires t >= 0")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != spec.n:
        raise ValueError(f"leading axis of x must have length n={spec.n}, got {x.shape}")
    fall = (1.0 + t) ** (1.0 + spec.lam)
    r2 = np.sum(x * x, axis=0)
    psi = spec.a * r2 / fall
    psi_t = -(1.0 + spec.lam) / (1.0 + t) * psi
    grad = 2.0 * spec.a * x / fall
    lap = 2.0 * spec.a * spec.n / fall
    if psi.ndim == 0:
        return WeightEval(float(psi), float(psi_t), grad, float(lap))
    lap_arr = np.full_like(psi, lap)
    return WeightEval(psi, psi_t, grad, lap_arr)


# =====================================================================
#  Frequency zones
# =====================================================================

class Zone(enum.IntEnum):
    """Frequency-zone tag.  Boundary ties resolve to the lower index."""

    Z1 = 1
    Z2 = 2
    Z3 = 3


def zone_classify(t: float, r: float, d: DampingLaw) -> Zone:
    """Classify the frequency radius r = |xi| at time t.

    Z1: |xi| <= mu/4 * (1+t)^-lam      (overdamped band, shrinks in t)
    Z2: not Z1 and |xi| <= 1
    Z3: not Z1 and |xi| >= 1
    """
    if t < 0.0:
        raise ValueError("zone_classify requires t >= 0")
    if r <= 0.25 * d.mu * (1.0 + t) ** (-d.lam):
        return Zone.Z1
    if r <= 1.0:
        return Zone.Z2
    return Zone.Z3


def t_xi(r: float, d: DampingLaw) -> float:
    """Time at which the low frequency radius r = |xi| leaves the
    overdamped band.

    Solves |xi| = mu/4 * (1+t)^-lam for t:  1 + t = (4|xi|/mu)^(-1/lam).
    Defined for 0 < |xi| <= mu/4 and lam > 0 (for lam = 0 the band
    boundary is constant in time and no crossing exists).
    """
    if d.lam == 0.0:
        raise ValueError("t_xi is undefined at lam = 0 (time-independent band)")
    if d.mu == 0.0:
        raise ValueError("t_xi is undefined at mu = 0 (empty overdamped band)")
    if not 0.0 < r <= 0.25 * d.mu:
        raise ValueError(
            f"t_xi needs 0 < |xi| <= mu/4 = {0.25 * d.mu}, got |xi| = {r}")
    return (4.0 * r / d.mu) ** (-1.0 / d.lam) - 1.0
