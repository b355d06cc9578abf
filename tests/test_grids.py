"""Unit tests for the periodic grid and its spectral operator toolbox."""

import math

import numpy as np
import pytest
import scipy.fft

from eulerlab.grids import Grid, SpectralOps


def make_ops(n=1, L=10.0, N=64):
    grid = Grid(n, L, N)
    return grid, SpectralOps(grid)


# ---------------------------------------------------------------------
#  Grid geometry
# ---------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(1, 10.0, 100)          # not a power of two
    with pytest.raises(ValueError):
        Grid(1, 10.0, 8)            # too small
    with pytest.raises(ValueError):
        Grid(4, 10.0, 64)           # unsupported dimension
    with pytest.raises(ValueError):
        Grid(1, 0.0, 64)


@pytest.mark.parametrize("L", [math.nan, 0.0, -1.0])
def test_grid_rejects_box_length_that_is_not_positive(L):
    # NaN fails every comparison, so only an accepting check refuses it
    with pytest.raises(ValueError, match="^L: "):
        Grid(1, L, 64)


def test_grid_geometry_1d():
    grid = Grid(1, 10.0, 32)
    assert grid.dx == pytest.approx(20.0 / 32)
    assert grid.cell == pytest.approx(grid.dx)
    ax = grid.axis()
    assert ax[0] == pytest.approx(-10.0)
    assert ax[-1] == pytest.approx(10.0 - grid.dx)
    assert np.allclose(np.diff(ax), grid.dx)
    # x = 0 sits exactly on a grid point
    assert ax[32 // 2] == pytest.approx(0.0, abs=1e-14)


def test_grid_geometry_2d():
    grid = Grid(2, 5.0, 16)
    assert grid.shape == (16, 16)
    assert grid.cell == pytest.approx(grid.dx ** 2)
    mesh = grid.mesh()
    assert mesh.shape == (2, 16, 16)
    r = grid.radius()
    assert r.shape == (16, 16)
    assert np.min(r) == pytest.approx(0.0, abs=1e-14)
    assert r[0, 0] == pytest.approx(5.0 * math.sqrt(2.0), rel=1e-13)


# ---------------------------------------------------------------------
#  Derivatives
# ---------------------------------------------------------------------

def test_spectral_derivative_exact_on_trig():
    grid, ops = make_ops(1, 5.0, 64)
    k0 = math.pi / 5.0
    x = grid.axis()
    f = np.sin(3.0 * k0 * x) + 0.5 * np.cos(7.0 * k0 * x)
    df = 3.0 * k0 * np.cos(3.0 * k0 * x) - 3.5 * k0 * np.sin(7.0 * k0 * x)
    d2f = -(3.0 * k0) ** 2 * np.sin(3.0 * k0 * x) \
        - 0.5 * (7.0 * k0) ** 2 * np.cos(7.0 * k0 * x)
    assert np.max(np.abs(ops.deriv(f, 0) - df)) <= 1e-11
    assert np.max(np.abs(ops.deriv(f, 0, 2) - d2f)) <= 1e-10


def test_grad_div_laplacian_2d():
    grid, ops = make_ops(2, math.pi, 32)
    x, y = grid.mesh()
    f = np.sin(x) * np.cos(2.0 * y)
    gx, gy = ops.grad(f)
    assert np.max(np.abs(gx - np.cos(x) * np.cos(2.0 * y))) <= 1e-11
    assert np.max(np.abs(gy + 2.0 * np.sin(x) * np.sin(2.0 * y))) <= 1e-11
    u = np.stack([np.sin(x), np.sin(y)])
    dv = ops.div(u)
    assert np.max(np.abs(dv - np.cos(x) - np.cos(y))) <= 1e-11
    lap = ops.laplacian(f)
    assert np.max(np.abs(lap + 5.0 * f)) <= 1e-10


def test_curl_2d_and_3d():
    grid, ops = make_ops(2, math.pi, 32)
    x, y = grid.mesh()
    phi = np.sin(x) * np.sin(y)
    u = np.stack([ops.deriv(phi, 1), -ops.deriv(phi, 0)])
    w = ops.curl(u)
    assert np.max(np.abs(w + ops.laplacian(phi))) <= 1e-10

    grid3, ops3 = make_ops(3, math.pi, 16)
    x3, y3, z3 = grid3.mesh()
    psi = np.sin(x3) * np.cos(y3)
    u3 = np.stack([np.zeros_like(psi), np.zeros_like(psi), psi])
    w3 = ops3.curl(u3)
    assert np.max(np.abs(w3[0] - ops3.deriv(psi, 1))) <= 1e-11
    assert np.max(np.abs(w3[1] + ops3.deriv(psi, 0))) <= 1e-11
    assert np.max(np.abs(w3[2])) <= 1e-12

    grid1, ops1 = make_ops(1, 5.0, 32)
    with pytest.raises(ValueError):
        ops1.curl(np.zeros((1, 32)))


def test_deriv_alpha_matches_nested_deriv():
    grid, ops = make_ops(2, math.pi, 32)
    x, y = grid.mesh()
    f = np.cos(2.0 * x) * np.sin(y)
    mixed = ops.deriv_alpha(f, (1, 1))
    nested = ops.deriv(ops.deriv(f, 0), 1)
    assert np.max(np.abs(mixed - nested)) <= 1e-11


def test_multi_indices_enumeration():
    _, ops = make_ops(2, 5.0, 16)
    assert set(ops.multi_indices(2)) == {(2, 0), (1, 1), (0, 2)}
    _, ops3 = make_ops(3, 5.0, 16)
    assert len(ops3.multi_indices(2)) == 6
    assert all(sum(a) == 2 for a in ops3.multi_indices(2))


# ---------------------------------------------------------------------
#  Quadrature and norms
# ---------------------------------------------------------------------

def test_quad_and_l2_closed_forms():
    grid, ops = make_ops(1, 5.0, 64)
    k0 = math.pi / 5.0
    x = grid.axis()
    assert ops.quad(np.ones_like(x)) == pytest.approx(10.0, rel=1e-13)
    assert ops.quad(np.sin(2.0 * k0 * x)) == pytest.approx(0.0, abs=1e-12)
    # integral of sin^2 over the box is half the volume
    assert ops.l2(np.sin(2.0 * k0 * x)) == pytest.approx(
        math.sqrt(5.0), rel=1e-13)
    assert ops.linf(-3.0 * np.ones_like(x)) == pytest.approx(3.0)

    grid2, ops2 = make_ops(2, 2.0, 16)
    assert ops2.quad(np.ones(grid2.shape)) == pytest.approx(16.0, rel=1e-13)


def test_sobolev_norm_single_mode():
    grid, ops = make_ops(1, 5.0, 64)
    k0 = math.pi / 5.0
    f = np.sin(4.0 * k0 * grid.axis())
    base = ops.l2(f)
    assert ops.deriv_l2(f, 1) == pytest.approx(4.0 * k0 * base, rel=1e-12)
    assert ops.deriv_l2(f, 2) == pytest.approx((4.0 * k0) ** 2 * base, rel=1e-12)
    assert ops.sobolev(f, 0) == pytest.approx(base, rel=1e-13)
    assert ops.sobolev(f, 2) == pytest.approx(
        base * (1.0 + 4.0 * k0 + (4.0 * k0) ** 2), rel=1e-12)
    assert ops.sobolev_fields([f, f], 1) == pytest.approx(
        2.0 * ops.sobolev(f, 1), rel=1e-13)


def test_deriv_l2_sums_mixed_orders_2d():
    grid, ops = make_ops(2, math.pi, 32)
    x, y = grid.mesh()
    f = np.sin(x) * np.sin(2.0 * y)
    base = ops.l2(f)
    # exact second-order table: fxx, fxy, fyy have factors 1, 2, 4
    expected = (1.0 + 2.0 + 4.0) * base
    assert ops.deriv_l2(f, 2) == pytest.approx(expected, rel=1e-11)


# ---------------------------------------------------------------------
#  Band bookkeeping
# ---------------------------------------------------------------------

def test_tail_fraction_two_mode_splits():
    # N = 64: the dealias band keeps |m| <= 21, the half band |m| <= 16
    grid, ops = make_ops(1, 5.0, 64)
    k0 = math.pi / 5.0
    x = grid.axis()
    low = 3.0 * np.sin(4.0 * k0 * x)
    high = np.sin(28.0 * k0 * x)
    mid = np.sin(20.0 * k0 * x)

    assert ops.tail_fraction(low) == pytest.approx(0.0, abs=1e-14)
    assert ops.tail_fraction(high) == pytest.approx(1.0, rel=1e-12)
    assert ops.tail_fraction(low + high) == pytest.approx(0.1, rel=1e-10)
    # the mid mode is inside the dealias band but above half of kmax
    assert ops.tail_fraction(low + mid) == pytest.approx(0.0, abs=1e-14)
    assert ops.tail_fraction(low + mid, cut=0.5) == pytest.approx(
        0.1, rel=1e-10)
    assert ops.tail_fraction(np.zeros_like(x)) == 0.0


def test_dealias_removes_top_third():
    grid, ops = make_ops(1, 5.0, 64)
    k0 = math.pi / 5.0
    x = grid.axis()
    low = 3.0 * np.sin(4.0 * k0 * x)
    high = np.sin(28.0 * k0 * x)
    cleaned = ops.dealias(low + high)
    assert ops.l2(cleaned - low) <= 1e-12
    # projection is idempotent
    assert ops.l2(ops.dealias(cleaned) - cleaned) <= 1e-13


@pytest.mark.parametrize("n, N", [(1, 512), (1, 2048), (1, 8192), (2, 256),
                                  (3, 32), (3, 64)])
def test_full_transforms_give_the_bits_of_scipy_fft(n, N):
    # scipy.fft, which src/ does not use, is the independent oracle of
    # the pass sequence.  In 3-D the complex passes must run in axis
    # order: numpy's own rfftn runs them in reverse, with other last bits
    grid = Grid(n, 10.0, N)
    ops = SpectralOps(grid)
    axes = tuple(range(-n, 0))
    rng = np.random.default_rng(N + n)
    f = rng.standard_normal(grid.shape)
    assert np.array_equal(ops.fwd(f), scipy.fft.rfftn(f, axes=axes))
    F = rng.standard_normal(ops.k2.shape) + 1j * rng.standard_normal(ops.k2.shape)
    assert np.array_equal(ops.inv(F),
                          scipy.fft.irfftn(F, s=grid.shape, axes=axes))


@pytest.mark.parametrize("n, N", [(1, 256), (2, 64), (2, 256), (3, 32)])
def test_band_transforms_match_the_full_ones_bit_for_bit(n, N):
    # the band instance keeps |m| <= N/3 on every axis and nothing else:
    # its forward is the masked full spectrum cut to the band, its
    # inverse the full inverse of the band spectrum among zeros
    grid = Grid(n, 10.0, N)
    ops, band = SpectralOps(grid), SpectralOps(grid, band=True)
    m = np.fft.fftfreq(N, 1.0 / N)
    rows = np.flatnonzero(np.abs(m) <= N / 3)
    cut = np.ix_(*([rows] * (n - 1) + [np.arange(N // 3 + 1)]))
    rng = np.random.default_rng(n)
    f = rng.standard_normal(grid.shape)
    full = ops.dealias_mask * ops.fwd(f)
    assert np.array_equal(band.fwd(f), full[cut])
    assert np.array_equal(band.fwd_dealiased(f), ops.fwd_dealiased(f)[cut])
    spec = (rng.standard_normal(band.k2.shape)
            + 1j * rng.standard_normal(band.k2.shape))
    scattered = np.zeros_like(full)
    scattered[cut] = spec
    assert np.array_equal(band.inv(spec), ops.inv(scattered))
    # the same wavevectors, and no Nyquist bin among them
    assert np.array_equal(band.k, np.stack([k[cut] for k in ops.k]))
    assert band.dealias_mask.all()
    assert np.max(np.abs(band.k)) < 2.0 / 3.0 * math.pi / grid.dx


@pytest.mark.parametrize("band", [True, False])
@pytest.mark.parametrize("n, N", [(1, 64), (2, 32), (3, 16)])
def test_transforms_write_into_out(n, N, band):
    # with out given, fwd and inv return that array, holding the bits of
    # the call without it; the band instance reuses its own work buffers,
    # so a second call on other data must not see the first
    grid = Grid(n, 10.0, N)
    ops = SpectralOps(grid, band=band)
    rng = np.random.default_rng(n)
    f, g = rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    F = ops.fwd(f)
    spec = np.empty_like(F)
    assert ops.fwd(f, out=spec) is spec
    assert np.array_equal(spec, F)
    buf = np.empty(grid.shape)
    assert ops.inv(F, out=buf) is buf
    assert np.array_equal(buf, ops.inv(F))
    G = ops.fwd(g)
    assert np.array_equal(ops.inv(G, out=buf), ops.inv(G))
    assert np.array_equal(ops.fwd(f), F)


@pytest.mark.parametrize("band", [True, False])
def test_ik_gives_the_bits_of_one_j_k(band):
    # ik is stored once; it must give the derivative multiplies their
    # old bits, signed zeros included
    ops = SpectralOps(Grid(2, 10.0, 32), band=band)
    rng = np.random.default_rng(7)
    F = rng.standard_normal(ops.k2.shape) + 1j * rng.standard_normal(ops.k2.shape)
    F.real[::3] = -0.0
    for i in range(2):
        for p in (1, 2):
            want = (1j * ops.k[i]) ** p * F
            got = ops.ik[i] ** p * F
            assert np.array_equal(want.view(np.uint64), got.view(np.uint64))


def test_rfft_weights_give_parseval():
    grid, ops = make_ops(2, 4.0, 32)
    rng = np.random.default_rng(5)
    f = rng.standard_normal(grid.shape)
    F = ops.fwd(f)
    w = ops._rfft_weights()
    spectral = np.sum(w * np.abs(F) ** 2) / grid.N ** grid.n
    physical = np.sum(f * f)
    assert spectral == pytest.approx(physical, rel=1e-11)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_band_tail_of_a_stack_is_the_full_one(n):
    # the band holds no Nyquist column, so its rfft weights are 1 on
    # column 0 and 2 elsewhere: for band-limited fields they give
    # Parseval, and the tail of a stack of band spectra is the full
    # spectra's tail of the same fields taken together
    grid, ops = make_ops(n, 4.0, 32 if n < 3 else 16)
    band = SpectralOps(grid, band=True)
    rng = np.random.default_rng(9)
    fs = [ops.dealias(rng.standard_normal(grid.shape)) for _ in range(n + 1)]
    F = band.fwd(fs[0])
    spectral = np.sum(band._rfft_weights() * np.abs(F) ** 2) / grid.N ** n
    assert spectral == pytest.approx(np.sum(fs[0] * fs[0]), rel=1e-11)
    full = ops.spectral_tail(np.stack([ops.fwd(f) for f in fs]), 0.5)
    got = band.spectral_tail(np.stack([band.fwd(f) for f in fs]), 0.5)
    assert 0.1 < full < 0.9
    assert got == pytest.approx(full, rel=1e-11)
    assert band.spectral_tail(np.zeros_like(F), 0.5) == 0.0


def test_round_trip_transform():
    grid, ops = make_ops(3, 3.0, 16)
    rng = np.random.default_rng(11)
    f = rng.standard_normal(grid.shape)
    assert np.max(np.abs(ops.inv(ops.fwd(f)) - f)) <= 1e-12
