"""Periodic grids and pseudo-spectral operators.

A Grid is an n-dimensional periodic box [-L, L)^n sampled at N points
per axis.  SpectralOps carries the wavenumber bookkeeping (real FFTs on
the last axis), spectral derivatives, the 2/3-rule dealiasing mask and
the discrete norms used throughout: L2 and sup norms, Sobolev norms
formed as sums of derivative L2 norms, and plain trapezoid-free box
quadrature sum(f) * dx^n (exact for band-limited periodic fields).

SpectralOps.fwd and inv are the package's only transforms.  The *_hat
operators start from a transform the caller already holds, so a field
shared by several derivatives is transformed once.

Every transform is the same sequence of numpy.fft passes: rfft over the
last axis, then fft over the complex axes in axis order, counted from
the end (the inverse: ifft in axis order, then irfft), each pass only
over the last-axis columns the spectrum holds.  In this order the passes
give scipy.fft.rfftn's and irfftn's bits; numpy's own rfftn runs the
complex axes in reverse, and in 3-D its last bits differ.

SpectralOps(grid) transforms the full spectrum.  SpectralOps(grid,
band=True) works on the compact 2/3 band: its spectra hold only the
wavevectors the dealias rule keeps (|m| <= N/3 on every axis, so no
Nyquist bin).  Its fwd gathers them from a full-spectrum scratch, and
its inv scatters them into a zero pad, both held by the instance, so
its transforms equal the full ones bit for bit: fwd is the masked full
spectrum cut to the band, inv the full inverse of the band spectrum
among zeros.  The nonlinear stepper holds such an instance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "SpectralOps", "MAX_POINTS"]

# Largest grid a run may allocate: 2^22 points.  The largest preset,
# vorticity-3d at 128^3 = 2^21 points, peaks near 0.7 GiB.
MAX_POINTS = 2 ** 22


@dataclass(frozen=True)
class Grid:
    """Uniform periodic box [-L, L)^n with N points per axis."""

    n: int
    L: float
    N: int

    def __post_init__(self):
        if self.n not in (1, 2, 3):
            raise ValueError(f"n: dimension must be 1, 2 or 3, got {self.n}")
        # accepting comparisons, so that NaN is refused too
        if not self.L > 0.0:
            raise ValueError(f"L: box length must be positive, got {self.L}")
        if self.N < 16 or (self.N & (self.N - 1)) != 0:
            raise ValueError(f"N: grid points must be a power of two >= 16, got {self.N}")
        if self.N ** self.n > MAX_POINTS:
            raise ValueError(f"N: {self.N}^{self.n} grid points exceed the "
                             f"budget of {MAX_POINTS} (2^22)")

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.N,) * self.n

    @property
    def cell(self) -> float:
        """Volume of one grid cell, dx^n."""
        return self.dx ** self.n

    def axis(self) -> np.ndarray:
        """1-D coordinate array, x_j = -L + j dx."""
        return -self.L + self.dx * np.arange(self.N)

    def mesh(self) -> np.ndarray:
        """Coordinates with shape (n, N, ..., N)."""
        ax = self.axis()
        return np.stack(np.meshgrid(*([ax] * self.n), indexing="ij"))

    def radius(self) -> np.ndarray:
        """|x| on the mesh."""
        m = self.mesh()
        return np.sqrt(np.sum(m * m, axis=0))


class SpectralOps:
    """Derivatives, dealiasing and norms on one Grid.

    Real-to-complex transforms along the last axis; all operators return
    real fields.  Scalar fields have shape grid.shape, vector fields
    (n, *grid.shape).  With band=True the spectra (and k, k2, kmag) span
    only the 2/3 band and the transforms take one field at a time;
    tail_fraction needs the full spectrum.  fwd and inv write into out
    when it is given.
    """

    def __init__(self, grid: Grid, band: bool = False):
        self.grid, self.band = grid, band
        n, N, dx = grid.n, grid.N, grid.dx
        kmax = np.pi / dx
        cut = 2.0 / 3.0 * kmax
        k1 = 2.0 * np.pi * np.fft.fftfreq(N, d=dx)
        kr = 2.0 * np.pi * np.fft.rfftfreq(N, d=dx)
        if band:
            # the rows of each axis that the 2/3 rule keeps, in fft order
            k1, kr = k1[np.abs(k1) <= cut], kr[np.abs(kr) <= cut]
        axes = [k1] * (n - 1) + [kr]
        mesh = np.meshgrid(*axes, indexing="ij")
        self.k = np.stack(mesh)                    # (n, *rshape)
        self.k2 = np.sum(self.k * self.k, axis=0)  # |k|^2
        self.kmag = np.sqrt(self.k2)
        # ik[i] * F is the transform of d_i f.  ik is kept in broadcast
        # form, one axis each: dense, it would take twice the memory of k
        # (51 MB at 128^3)
        self.ik = [1j * a for a in np.meshgrid(*axes, indexing="ij", sparse=True)]
        self.dealias_mask = np.all(np.abs(self.k) <= cut, axis=0)
        self._kmax = kmax
        # the last-axis columns the spectrum holds
        self._cols = (..., slice(0, kr.size))
        self._scratch = self._line = None
        if band:
            # the band rows of a complex axis are two runs in fft order,
            # the first m + 1 and the last m (m = N//3): 2^(n-1) blocks
            # of the full spectrum, gathered from _scratch by fwd and
            # scattered into _pad by inv.  The rows of _pad outside the
            # blocks are zeroed here and never written again
            m = N // 3
            runs = (slice(0, m + 1), slice(N - m, N))     # in the full axis
            slots = (slice(0, m + 1), slice(m + 1, None))  # in the band axis
            self._blocks = list(zip(itertools.product(slots, repeat=n - 1),
                                    itertools.product(runs, repeat=n - 1)))
            self._scratch = np.empty(grid.shape[:-1] + (N // 2 + 1,), dtype=complex)
            self._line = self._scratch[self._cols]
            self._pad = np.zeros(self._line.shape, dtype=complex)

    # -- transforms ----------------------------------------------------

    def fwd(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        S = np.fft.rfft(f, out=self._scratch if self.band else out)
        line = S[self._cols]
        for a in range(-self.grid.n, -1):
            np.fft.fft(line, axis=a, out=line)
        if not self.band:
            return S
        out = np.empty(self.k2.shape, dtype=complex) if out is None else out
        for o, r in self._blocks:
            out[o] = line[r]
        return out

    def inv(self, F: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.band:
            for o, r in self._blocks:
                self._pad[r] = F[o]
            F = self._pad
        # the first pass writes into _line, or a new array on the full
        # instance, and leaves F as it was.  Every pass scales by 1/N, a
        # power of two, so the product is irfftn's 1/N^n to the bit
        line = self._line
        for a in range(-self.grid.n, -1):
            F = line = np.fft.ifft(F, axis=a, out=line)
        return np.fft.irfft(F, n=self.grid.N, out=out)

    def fwd_dealiased(self, f: np.ndarray) -> np.ndarray:
        """fwd(f) with the 2/3 rule applied; a band instance holds
        nothing outside the band, so it needs no mask."""
        F = self.fwd(f)
        return F if self.band else np.multiply(self.dealias_mask, F, out=F)

    # -- derivatives ---------------------------------------------------

    def deriv(self, f: np.ndarray, axis: int, order: int = 1) -> np.ndarray:
        """order-th spectral derivative along one axis (physical in/out)."""
        return self.inv(self.ik[axis] ** order * self.fwd(f))

    def grad(self, f: np.ndarray) -> np.ndarray:
        return np.stack(self.grad_hat(self.fwd(f)))

    def grad_hat(self, F: np.ndarray) -> list:
        """Gradient components of the field whose transform is F."""
        return [self.inv(self.ik[i] * F) for i in range(self.grid.n)]

    def div(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros(self.grid.shape)
        for i in range(self.grid.n):
            out += self.inv(self.ik[i] * self.fwd(u[i]))
        return out

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        return self.inv(-self.k2 * self.fwd(f))

    def curl(self, u: np.ndarray) -> np.ndarray:
        """Vorticity: scalar in 2-D, vector in 3-D, from the velocity
        gradient G[i][j] = d_j u_i."""
        n = self.grid.n
        if n not in (2, 3):
            raise ValueError("curl is defined for n = 2 or 3")
        G = [self.grad_hat(self.fwd(u[i])) for i in range(n)]
        if n == 2:
            return G[1][0] - G[0][1]
        return np.stack([G[2][1] - G[1][2],
                         G[0][2] - G[2][0],
                         G[1][0] - G[0][1]])

    def dealias(self, f: np.ndarray) -> np.ndarray:
        """Project a physical field onto the 2/3 wavenumber band."""
        return self.inv(self.fwd_dealiased(f))

    # -- norms and quadrature ------------------------------------------

    def quad(self, f: np.ndarray) -> float:
        return float(np.sum(f)) * self.grid.cell

    def l2(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.square(f)) * self.grid.cell))

    def linf(self, f: np.ndarray) -> float:
        return float(np.max(np.abs(f)))

    def multi_indices(self, order: int):
        """All derivative multi-indices of the given total order."""
        n = self.grid.n
        return [tuple(c.count(i) for i in range(n))
                for c in itertools.combinations_with_replacement(range(n), order)]

    def deriv_alpha(self, f: np.ndarray, alpha) -> np.ndarray:
        return self._deriv_alpha_hat(self.fwd(f), alpha)

    def _deriv_alpha_hat(self, F: np.ndarray, alpha) -> np.ndarray:
        for ax, p in enumerate(alpha):
            if p:
                F = self.ik[ax] ** p * F
        return self.inv(F)

    def deriv_l2(self, f: np.ndarray, order: int) -> float:
        """Sum of L2 norms of all derivatives of exactly this order: one
        inverse per derivative, each dropped once its norm is taken."""
        if order == 0:
            return self.l2(f)
        F = self.fwd(f)
        return sum(self.l2(self._deriv_alpha_hat(F, a))
                   for a in self.multi_indices(order))

    def sobolev(self, f: np.ndarray, order: int) -> float:
        """H^order norm as the sum over derivative orders 0..order."""
        return sum(self.deriv_l2(f, m) for m in range(order + 1))

    def sobolev_fields(self, fields, order: int) -> float:
        """Sobolev norm of a tuple of scalar fields (summed)."""
        return sum(self.sobolev(f, order) for f in fields)

    def tail_fraction(self, f: np.ndarray, cut: float = 2.0 / 3.0) -> float:
        """Spectral energy fraction above cut * kmax on any axis.

        The default band is the one removed by the 2/3 dealias rule.
        Monitors that run on dealiased solutions should pass a smaller
        cut (the default band is then identically zero by construction).
        """
        return self.spectral_tail(self.fwd(f), cut)

    def spectral_tail(self, F: np.ndarray, cut: float) -> float:
        """tail_fraction of the fields whose spectra F holds, taken
        together: F is one spectrum or a stack of them, summed a spectrum
        at a time in one spectrum-sized temporary."""
        w = self._rfft_weights()
        outside = np.zeros(self.k2.shape, dtype=bool)
        for ik in self.ik:
            np.logical_or(outside, np.abs(ik.imag) > cut * self._kmax, out=outside)
        tot = tail = 0.0
        for row in F.reshape((-1,) + self.k2.shape):
            e = np.abs(row)
            np.multiply(w, np.square(e, out=e), out=e)
            tot += float(np.sum(e))
            tail += float(np.sum(np.multiply(e, outside, out=e)))
        return tail / tot if tot else 0.0

    def _rfft_weights(self) -> np.ndarray:
        """Multiplicity of each rfft column in the full spectrum: 1 for
        column 0 and the Nyquist column, which the band does not hold,
        and 2 for the others."""
        cols = self.k2.shape[-1]
        w_last = np.full(cols, 2.0)
        w_last[0] = 1.0
        if not self.band:
            w_last[-1] = 1.0
        return np.broadcast_to(w_last, self.k2.shape)
