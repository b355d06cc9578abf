"""Periodic grids and pseudo-spectral operators.

A Grid is an n-dimensional periodic box [-L, L)^n sampled at N points
per axis.  SpectralOps carries the wavenumber bookkeeping (real FFTs on
the last axis), the gradient, the spectral tail beyond the 2/3 band and
the discrete norms used throughout: L2 norms (also of a spectrum, by
Parseval) and sup norms, and plain trapezoid-free box quadrature
sum(f) * dx^n (exact for band-limited periodic fields).  The other
spectral operators (single derivatives, divergence, Laplacian, curl,
the dealias projection and the sums of derivative L2 norms) are
reference definitions that only the tests use; they live in
tests/reference.py.

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
Nyquist bin).  Its fwd gathers them from a full-spectrum scratch held
by the instance, and its inv scatters them back into that scratch among
zeros, so its transforms equal the full ones bit for bit: fwd is the
masked full spectrum cut to the band, inv the full inverse of the band
spectrum among zeros.  The nonlinear stepper holds such an instance.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "SpectralOps", "MAX_POINTS"]

# Largest grid a run may allocate: 2^22 points.  The largest preset,
# vorticity-3d at 128^3 = 2^21 points, peaked at 373.5 MiB in one run.
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
    """Transforms, gradients, norms and the spectral tail on one Grid.

    Real-to-complex transforms along the last axis; all operators return
    real fields.  Scalar fields have shape grid.shape, vector fields
    (n, *grid.shape), spectra kshape.  With band=True the spectra (and
    k, k2, kmag) span only the 2/3 band and the transforms take one field
    at a time; tail_fraction needs the full spectrum.  fwd and inv write
    into out when it is given.  The dense tables k, k2 and kmag are made
    on first use: the transforms, derivatives and norms need none of
    them (n + 2 grid-sized arrays, 42 MB of a full instance at 128^3).
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
        self._axes = axes = [k1] * (n - 1) + [kr]
        self.kshape = tuple(a.size for a in axes)
        # ik[i] * F is the transform of d_i f.  ik is kept in broadcast
        # form, one axis each: dense, it would take twice the memory of k
        # (51 MB at 128^3)
        self.ik = [1j * a for a in np.meshgrid(*axes, indexing="ij", sparse=True)]
        self._kmax = kmax
        # the last-axis columns the spectrum holds
        self._cols = (..., slice(0, kr.size))
        self._scratch = self._line = None
        if band:
            # the band rows of a complex axis are two runs in fft order,
            # the first m + 1 and the last m (m = N//3): 2^(n-1) blocks
            # of the full spectrum, gathered from _scratch by fwd and
            # scattered back into it by inv.  The rest of _scratch is
            # zero when inv scatters: the columns past the band, which fwd
            # zeroes again after it gathers, and the rows between the runs
            # (_gaps), which inv zeroes before it scatters
            m = N // 3
            runs = (slice(0, m + 1), slice(N - m, N))     # in the full axis
            slots = (slice(0, m + 1), slice(m + 1, None))  # in the band axis
            self._blocks = list(zip(itertools.product(slots, repeat=n - 1),
                                    itertools.product(runs, repeat=n - 1)))
            gap = slice(m + 1, N - m)
            self._gaps = [lead + (gap,) for a in range(n - 1)
                          for lead in itertools.product(runs, repeat=a)]
            self._past = (..., slice(m + 1, None))
            self._scratch = np.zeros(grid.shape[:-1] + (N // 2 + 1,), dtype=complex)
            self._line = self._scratch[self._cols]

    @functools.cached_property
    def k(self) -> np.ndarray:
        """The wavevectors, shape (n, *kshape)."""
        return np.stack(np.meshgrid(*self._axes, indexing="ij"))

    @functools.cached_property
    def k2(self) -> np.ndarray:
        """|k|^2."""
        return np.sum(self.k * self.k, axis=0)

    @functools.cached_property
    def kmag(self) -> np.ndarray:
        return np.sqrt(self.k2)

    # -- transforms ----------------------------------------------------

    def fwd(self, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        S = np.fft.rfft(f, out=self._scratch if self.band else out)
        line = S[self._cols]
        for a in range(-self.grid.n, -1):
            np.fft.fft(line, axis=a, out=line)
        if not self.band:
            return S
        out = np.empty(self.kshape, dtype=complex) if out is None else out
        for o, r in self._blocks:
            out[o] = line[r]
        if self.grid.n > 1:
            S[self._past] = 0.0
        return out

    def inv(self, F: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        n, N = self.grid.n, self.grid.N
        if self.band and n > 1:
            # the passes run over the band columns of _scratch, and irfft
            # over all of it: the columns past the band are zero, so it
            # reads the band-width inverse's bits from a contiguous array.
            # A line keeps its band row, where the full width is slower
            line = self._line
            for g in self._gaps:
                line[g] = 0.0
            for o, r in self._blocks:
                line[r] = F[o]
            for a in range(-n, -1):
                np.fft.ifft(line, axis=a, out=line)
            return np.fft.irfft(self._scratch, n=N, out=out)
        # on the full instance the first pass writes a new array and
        # leaves F as it was.  Every pass scales by 1/N, a power of two,
        # so the product is irfftn's 1/N^n to the bit
        for a in range(-n, -1):
            F = np.fft.ifft(F, axis=a, out=None if a == -n else F)
        return np.fft.irfft(F, n=N, out=out)

    # -- derivatives ---------------------------------------------------

    def grad(self, f: np.ndarray) -> np.ndarray:
        return np.stack(self.grad_hat(self.fwd(f)))

    def grad_hat(self, F: np.ndarray) -> list:
        """Gradient components of the field whose transform is F."""
        return [self.inv(self.ik[i] * F) for i in range(self.grid.n)]

    # -- norms and quadrature ------------------------------------------

    def quad(self, f: np.ndarray) -> float:
        return float(np.sum(f)) * self.grid.cell

    def l2(self, f: np.ndarray) -> float:
        return float(np.sqrt(np.sum(np.square(f)) * self.grid.cell))

    def l2_hat(self, F: np.ndarray) -> float:
        """l2 of the field whose transform is F, by Parseval: no inverse.
        F may be a stack of spectra, whose fields are then taken
        together, the root of the sum of their squared norms."""
        e = np.abs(F)
        np.square(e, out=e)
        s = float(np.sum(np.multiply(self._rfft_weights(), e, out=e)))
        return math.sqrt(s / self.grid.N ** self.grid.n * self.grid.cell)

    def linf(self, f: np.ndarray) -> float:
        return float(np.max(np.abs(f)))

    def tail_fraction(self, f: np.ndarray) -> float:
        """Spectral energy fraction of f beyond the 2/3 dealias band,
        above 2/3 kmax on any axis."""
        return self.spectral_tail(self.fwd(f), 2.0 / 3.0)

    def spectral_tail(self, F: np.ndarray, cut: float) -> float:
        """Spectral energy fraction above cut * kmax on any axis of the
        fields whose spectra F holds, taken together: F is one spectrum
        or a stack of them, summed a spectrum at a time in one
        spectrum-sized temporary."""
        w = self._rfft_weights()
        outside = np.zeros(self.kshape, dtype=bool)
        for ik in self.ik:
            np.logical_or(outside, np.abs(ik.imag) > cut * self._kmax, out=outside)
        tot = tail = 0.0
        for row in F.reshape((-1,) + self.kshape):
            e = np.abs(row)
            np.multiply(w, np.square(e, out=e), out=e)
            tot += float(np.sum(e))
            tail += float(np.sum(np.multiply(e, outside, out=e)))
        return tail / tot if tot else 0.0

    def _rfft_weights(self) -> np.ndarray:
        """Multiplicity of each rfft column in the full spectrum: 1 for
        column 0 and the Nyquist column, which the band does not hold,
        and 2 for the others."""
        cols = self.kshape[-1]
        w_last = np.full(cols, 2.0)
        w_last[0] = 1.0
        if not self.band:
            w_last[-1] = 1.0
        return np.broadcast_to(w_last, self.kshape)
