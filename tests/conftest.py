"""Shared fixtures for the test suite.

The expensive scenario runs are executed once per session through
harness.run_scenario, so the on-disk artifacts (report.json, energy.csv,
summary.txt) get exercised together with the numerics.  Each fixture
returns a RunHandle carrying the report, the run directory and the wall
time of the run; the acceptance tests assert their runtime budgets
against the recorded duration.
"""

import csv
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from eulerlab import euler, harness
from eulerlab.grids import SpectralOps


@dataclass
class RunHandle:
    report: object
    outdir: Path
    seconds: float

    def verdict(self, name: str):
        for v in self.report.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def csv_columns(self, filename: str) -> dict:
        return read_csv_columns(self.outdir / filename)


def read_csv_columns(path) -> dict:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    head, body = rows[0], rows[1:]
    return {name: np.array([float(r[j]) for r in body])
            for j, name in enumerate(head)}


class CountingOps(SpectralOps):
    """SpectralOps that counts its forward and inverse transforms.

    The stepper builds its band instance from the class of the ops it is
    given, so a run on CountingOps counts the band transforms on that
    second instance, euler._Lawson(...).ops.
    """

    def __init__(self, grid, band=False):
        super().__init__(grid, band)
        self.fwd_calls = self.inv_calls = 0

    def fwd(self, f, out=None):
        self.fwd_calls += 1
        return super().fwd(f, out=out)

    def inv(self, F, out=None):
        self.inv_calls += 1
        return super().inv(F, out=out)


def tracked_ops(grid):
    """Full-spectrum CountingOps on grid, and the list of every instance
    of its class made from then on, itself first: the stepper makes its
    band instance of the same class, so a run on it lists that too."""
    made = []

    class TrackedOps(CountingOps):
        def __init__(self, grid, band=False):
            super().__init__(grid, band)
            made.append(self)

    return TrackedOps(grid), made


class Outputs(list):
    """A snapshot hook for euler.run that keeps a copy of every output it
    is handed, in order.  The state the hook gets lives in the run's
    buffers, which the next step overwrites; the copy holds the fields
    alone, without the band view."""

    def __call__(self, st):
        self.append(st.copy())


def on_band(st, d, g, ops):
    """st as euler.run hands it to a snapshot hook at the end of a step,
    with the band view of a stepper built on ops: its band ops, the band
    spectrum w of (v, u), the products at the state and the grad v that
    forming them leaves in the stepper's first work buffer, all from st's
    own fields.  n + 1 forward transforms for w, and the products' n + 1
    forward and n + n^2 inverse."""
    law = euler._Lawson(d, g, ops)
    x = np.stack([st.v, *st.u])
    w = np.stack([law.ops.fwd(f) for f in x])
    f = law.products(w, x)
    return euler.EulerState(st.t, st.v, st.u,
                            band=euler.BandView(law.ops, w, f, law.work()[0]))


def march(st0, d, g, ops, h, times) -> list:
    """The states at each of times, in order and none before st0.t, by
    fixed steps of at most h: euler.step with its default floor, which
    accepts every try, the last step before each time cut to land on it.
    A time reached already, st0.t itself too, gives the state as it
    stands.  Each state is a copy, without a band view."""
    law = euler._Lawson(d, g, ops)
    w = np.stack([law.ops.fwd(f) for f in (st0.v, *st0.u)])
    x = law.physical(w)
    f = law.products(w, x)
    t, out = st0.t, []
    for s in times:
        while t < s - 1e-12 * max(1.0, s):
            t += euler.step(t, w, x, f, min(h, s - t), law)[0]
        out.append(euler.EulerState(t, x[0].copy(), x[1:].copy()))
    return out


def run_preset(name: str, base: Path, **extra) -> RunHandle:
    cfg = harness.preset_config(name, **extra)
    t0 = time.perf_counter()
    report = harness.run_scenario(cfg, base)
    dt = time.perf_counter() - t0
    return RunHandle(report=report, outdir=harness.run_dir(cfg, base), seconds=dt)


@pytest.fixture(scope="session")
def runs_base(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("shared-runs")


@pytest.fixture(scope="session")
def nonlinear_run(runs_base) -> RunHandle:
    """Small-amplitude 1-D run to t = 1e3; sup-norm slopes and monitors."""
    return run_preset("nonlinear-decay", runs_base)


@pytest.fixture(scope="session")
def qdecay_run(runs_base) -> RunHandle:
    """Wave-form source decay plus the doubled-amplitude companion."""
    return run_preset("q-decay", runs_base)


@pytest.fixture(scope="session")
def lower_bound_run(runs_base) -> RunHandle:
    """Conserved-mass run with margin diagnostics."""
    return run_preset("lower-bound", runs_base)


@pytest.fixture(scope="session")
def vort2d_run(runs_base) -> RunHandle:
    """Rotational 2-D run plus its irrotational companion."""
    return run_preset("vorticity-2d", runs_base)


@pytest.fixture(scope="session")
def conv_run(runs_base) -> RunHandle:
    """Time-convolution ratio table (cheap, fully deterministic)."""
    return run_preset("convolution-lemma", runs_base)


@pytest.fixture(scope="session")
def zone_integrals_run(runs_base) -> RunHandle:
    return run_preset("zone-integrals", runs_base)


# Boxes for the damping-exponent sweep of the mode-kernel scenario.  The
# diffusive spread of the low band grows with lam, so the box and the
# resolution are retuned per exponent; 0.5 keeps the preset defaults.  At
# lam=0.8 the friction envelope of the high band decays so slowly that the
# default bump leaves a visible spectral tail above the band cut, so the
# bump is widened to pull its spectrum inside the band.
LAMBDA_SWEEP_BOXES = {
    0.2: dict(L=680.0, N=2048),
    0.5: dict(),
    0.8: dict(L=8600.0, N=32768, R=60.0),
}


@pytest.fixture(scope="session")
def linear_lambda_runs(runs_base) -> dict:
    """linear-decay at three damping exponents, keyed by lam."""
    out = {}
    for lam, box in LAMBDA_SWEEP_BOXES.items():
        out[lam] = run_preset("linear-decay", runs_base, lam=lam, **box)
    return out


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance verdict sheet after the test report.

    The criterion banners are printed inside the tests and would
    otherwise only surface for failures; this repeats them in one block
    regardless of capture settings.
    """
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "CRITERION_LINES", None)
    if not lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(lines):
        terminalreporter.write_line(line)
