"""Scenario configuration, preset experiment suites, reports and the CLI.

A scenario is one fully specified numerical experiment: damping and gas
laws, grid, initial data, horizon, snapshots and fit window, each value
a number or a name; the data's size, eps, is the height of their bump on
every grid.  Each preset wires those pieces together for one
question (kernel decay slopes, zone envelopes, nonlinear decay,
conserved-mass lower bounds, vorticity decay, and so on) and reduces the
run to pass/fail verdicts with the fitted and predicted values side by side.

A preset declares its domain (allowed dimensions, positive fields) as
registry data, so every config error comes before a run directory exists;
its verdicts are the list its runner returns.  A config key has one
name, the field's, in JSON configs, --set, --axis and report.json.

Reports are deterministic: the same config produces byte-identical
report.json, summary.txt and CSV output, also under parallel sweeps.
Run directories are named by scenario plus a hash of the effective
config, sweep tables by a hash of the base config and the axes, so a
rerun replaces its own output and nothing else.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import shutil
import sys
import traceback
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import diagnostics, euler, linear
from .diagnostics import EnergyRecorder, decay_fit, write_csv
from .grids import Grid, SpectralOps
from .params import DELTA, DampingLaw, GasLaw, Zone, damping_coeff, \
    derive_constants, zone_classify

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "Verdict",
    "Report",
    "preset_config",
    "run_scenario",
    "sweep",
    "main",
]


class ConfigError(ValueError):
    """A scenario config failed validation; message names the field."""


# =====================================================================
#  Configuration
# =====================================================================

_DATA_KINDS = ("bump", "mass", "rotational", "potential")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run depends on, as numbers and names.  Flat on
    purpose: every key can be overridden with --set key=value."""

    scenario: str
    n: int = 1
    lam: float = 0.5
    mu: float = 2.0
    gamma: float = 2.0
    delta: float = DELTA
    L: float = 240.0
    N: int = 1024
    R: float = 4.0
    eps: float = 1e-3
    q0: float = 0.01
    data_kind: str = "bump"
    jitter: float = 0.0
    seed: int = 0
    t_final: float = 100.0
    n_snapshots: int = 33
    fit_lo: float = 10.0
    fit_hi: float = 100.0

    def as_dict(self) -> dict:
        # not dataclasses.asdict: its new 18-item field tuple per call would
        # pile up on CPython's tuple free list over many runs in one process
        return dict(vars(self))

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Build a config from JSON data: its scenario's catalog entry with
        the other keys as overrides, keys and values read like --set's."""
        if not isinstance(data, dict):
            raise ConfigError(
                f"config: expected a JSON object, got {type(data).__name__}")
        extra = set(data) - set(_KINDS)
        if extra:
            raise ConfigError(
                f"config: unknown keys {sorted(extra)}; known keys: {sorted(_KINDS)}")
        if "scenario" not in data:
            raise ConfigError("scenario: required key is missing")
        return preset_config(**{name: _typed(name, value)
                                for name, value in data.items()})


# field name -> annotation, one of _PARSERS' keys
_KINDS = {f.name: f.type for f in fields(ScenarioConfig)}
_PARSERS = {"int": int, "float": float, "str": str}


def _coerce(name: str, text: str):
    """Parse one --set or --axis value by the field's annotation."""
    if name not in _KINDS:
        raise ConfigError(f"{name}: not a config field")
    kind = _KINDS[name]
    try:
        return _PARSERS[kind](text)
    except ValueError:
        raise ConfigError(f"{name}: expected {kind}, got {text!r}") from None


def _typed(name: str, value):
    """Check one JSON config value against the field's annotation.

    A string is parsed as --set parses it, and so is the text of an int
    given for a float.  Any other value, null among them, must have the
    annotated type already.
    """
    kind = _KINDS[name]
    if isinstance(value, str) or (kind == "float" and type(value) is int):
        return _coerce(name, str(value))
    if type(value) is _PARSERS[kind]:
        return value
    raise ConfigError(f"{name}: expected {kind}, got {value!r}")


def validate_config(cfg: ScenarioConfig):
    """Raise ConfigError with a field-level message on the first problem.

    Grid, GasLaw, DampingLaw, SolverConfig and derive_constants check
    their own fields and name them first in their messages; this
    function checks the scenario-level rest.
    """
    for name, kind in _KINDS.items():
        value = getattr(cfg, name)
        if kind == "float" and not math.isfinite(value):
            raise ConfigError(f"{name}: must be finite, got {value}")
    if cfg.scenario not in PRESETS:
        raise ConfigError(
            f"scenario: unknown scenario {cfg.scenario!r}; "
            f"known: {', '.join(PRESETS)}")
    preset = PRESETS[cfg.scenario]
    if cfg.n not in preset.dims:
        raise ConfigError(f"n: {cfg.scenario} runs in "
                          f"{' or '.join(f'{d}-D' for d in preset.dims)}, got {cfg.n}")
    for name in preset.positive:
        if not getattr(cfg, name) > 0.0:
            raise ConfigError(f"{name}: {cfg.scenario} needs {name} > 0, "
                              f"got {getattr(cfg, name)}")
    if cfg.data_kind == "rotational" and cfg.n < 2:
        raise ConfigError(f"data_kind: rotational data needs n >= 2, got n = {cfg.n}")
    try:
        Grid(cfg.n, cfg.L, cfg.N)
        GasLaw(gamma=cfg.gamma)
        euler.SolverConfig(t_final=cfg.t_final)
        derive_constants(_damping(cfg), cfg.n, cfg.delta)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    if cfg.mu > linear.MAGNUS_MU_MAX:
        raise ConfigError(
            f"mu: friction strength above {linear.MAGNUS_MU_MAX:g} is refused, since "
            f"the Magnus engine's substeps shorten like 1/sqrt(lam mu); got {cfg.mu}")
    if not 0.0 < cfg.R < 0.5 * cfg.L:
        raise ConfigError(
            f"R: data radius must satisfy 0 < R < L/2 = {0.5 * cfg.L:g}, got {cfg.R}")
    if cfg.eps < 0.0:
        raise ConfigError(f"eps: amplitude must be nonnegative, got {cfg.eps}")
    if cfg.q0 < 0.0:
        raise ConfigError(f"q0: excess mass must be nonnegative, got {cfg.q0}")
    if cfg.data_kind not in _DATA_KINDS:
        raise ConfigError(
            f"data_kind: unknown kind {cfg.data_kind!r}; choose from {_DATA_KINDS}")
    if cfg.jitter < 0.0:
        raise ConfigError(f"jitter: must be nonnegative, got {cfg.jitter}")
    if cfg.jitter > 0.0 and cfg.data_kind != "bump":
        raise ConfigError(f"jitter: perturbs bump data only, not {cfg.data_kind}")
    if cfg.n_snapshots < 2:
        raise ConfigError(f"n_snapshots: need at least 2, got {cfg.n_snapshots}")
    if not 0.0 < cfg.fit_lo < cfg.fit_hi:
        raise ConfigError(
            f"fit_lo/fit_hi: need 0 < fit_lo < fit_hi, got ({cfg.fit_lo}, {cfg.fit_hi})")
    if preset.schedule is not None:
        t = _schedule(cfg)
        found = sum(cfg.fit_lo <= s <= cfg.fit_hi for s in t)
        if found < diagnostics.FIT_MIN_PTS:
            raise ConfigError(
                f"fit_lo/fit_hi: the fit window [{cfg.fit_lo:g}, {cfg.fit_hi:g}] holds "
                f"{found} of the {len(t)} sample times up to t_final = {cfg.t_final:g}; "
                f"the fit needs {diagnostics.FIT_MIN_PTS}")


def config_digest(cfg: ScenarioConfig) -> str:
    """Short content hash of the config, the one report.json records.

    The output tree and the sweep's worker count are arguments of
    run_scenario and sweep, not config fields, so moving the tree or
    changing parallelism neither renames run directories nor changes a
    report's bytes.
    """
    return _digest(cfg.as_dict())


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# =====================================================================
#  Verdicts and reports
# =====================================================================

@dataclass(frozen=True)
class Verdict:
    """One named check: measured value against its predicted target."""

    name: str
    value: float
    predicted: float
    tolerance: float
    passed: bool
    detail: str = ""


def within(name: str, value, predicted, tolerance, detail="") -> Verdict:
    """Two-sided check: pass when |value - predicted| <= tolerance."""
    return Verdict(name=name, value=value, predicted=predicted,
                   tolerance=tolerance,
                   passed=abs(value - predicted) <= tolerance, detail=detail)


def at_most(name: str, value, bound, *, predicted=0.0, strict=False,
            detail="") -> Verdict:
    """One-sided check: pass when value <= bound (value < bound if strict).
    The bound is stored as the tolerance."""
    passed = value < bound if strict else value <= bound
    return Verdict(name=name, value=value, predicted=predicted,
                   tolerance=bound, passed=passed, detail=detail)


@dataclass
class Report:
    scenario: str
    digest: str
    config: dict
    verdicts: list
    files: list
    notes: list = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "digest": self.digest,
            "config": self.config,
            "verdicts": [asdict(v) for v in self.verdicts],
            "files": list(self.files),
            "notes": list(self.notes),
        }
        return _json_text(payload)

    @classmethod
    def from_json(cls, text: str) -> "Report":
        data = json.loads(text)
        return cls(scenario=data["scenario"], digest=data["digest"],
                   config=data["config"],
                   verdicts=[Verdict(**v) for v in data["verdicts"]],
                   files=data["files"], notes=data.get("notes", []))

    def summary(self) -> str:
        lines = [f"scenario : {self.scenario}",
                 f"digest   : {self.digest}", ""]
        if self.verdicts:
            width = max(len(v.name) for v in self.verdicts)
            for v in self.verdicts:
                tag = "PASS" if v.passed else "FAIL"
                lines.append(
                    f"[{tag}] {v.name:<{width}}  value={v.value:.6g}  "
                    f"predicted={v.predicted:.6g}  tol={v.tolerance:.6g}")
                if v.detail:
                    lines.append(f"        {'':<{width}}  {v.detail}")
        else:
            lines.append("no verdicts")
        if self.notes:
            lines.append("")
            for note in self.notes:
                lines.append(f"note: {note}")
        n_pass = sum(v.passed for v in self.verdicts)
        lines.append("")
        verdict = "PASS" if self.all_passed else "FAIL"
        lines.append(f"overall  : {verdict} ({n_pass}/{len(self.verdicts)} passed)")
        lines.append(f"files    : {', '.join(self.files)}")
        return "\n".join(lines) + "\n"


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _write_json(path: Path, payload):
    path.write_text(_json_text(payload))


# =====================================================================
#  Preset registry
# =====================================================================

@dataclass(frozen=True)
class Preset:
    """runner(cfg, outdir) writes the artifacts and returns the verdicts,
    the one statement of which verdicts the preset has.  dims (allowed n)
    and positive (fields that must be > 0) are the domain
    validate_config checks.  A preset that reads [fit_lo, fit_hi] gives
    schedule(cfg), its snapshot times: it samples at their outputs,
    _schedule(cfg), and validate_config counts the window's samples there.
    decay_law names the verdicts whose failure adds _DECAY_LAW_NOTE."""

    name: str
    description: str
    overrides: dict
    runner: object
    dims: tuple = (1, 2, 3)
    positive: tuple = ()
    schedule: object = None
    decay_law: tuple = ()


PRESETS: dict = {}


def _register(name, description, *, dims=(1, 2, 3), positive=(),
              schedule=None, decay_law=(), **overrides):
    def deco(fn):
        PRESETS[name] = Preset(name, description, overrides, fn, dims,
                               positive, schedule, decay_law)
        return fn
    return deco


def preset_config(scenario: str, **extra) -> ScenarioConfig:
    """The preset's catalog entry with extra's fields as overrides."""
    if scenario not in PRESETS:
        raise ConfigError(f"scenario: unknown preset {scenario!r}; "
                          f"known: {', '.join(PRESETS)}")
    return ScenarioConfig(scenario, **{**PRESETS[scenario].overrides, **extra})


# =====================================================================
#  Shared run machinery
# =====================================================================

class _SolverStopped(Exception):
    """A preset's solve ended before t_final; args[0] is the failing
    solver_completed verdict."""


def _damping(cfg: ScenarioConfig) -> DampingLaw:
    return DampingLaw(lam=cfg.lam, mu=cfg.mu)


def _make_state(cfg: ScenarioConfig, gas: GasLaw,
                ops: SpectralOps) -> euler.EulerState:
    if cfg.data_kind == "bump":
        return euler.initial_bump(ops, cfg.R, cfg.eps, jitter=cfg.jitter, seed=cfg.seed)
    if cfg.data_kind == "mass":
        return euler.mass_bump(ops, gas, cfg.R, cfg.q0)
    if cfg.data_kind == "rotational":
        return euler.rotational_bump(ops, cfg.R, cfg.eps)
    return euler.potential_bump(ops, cfg.R, cfg.eps)


def _log_snapshots(cfg: ScenarioConfig, head=(0.25, 0.5, 0.75)) -> tuple:
    pts = np.geomspace(1.0, cfg.t_final, cfg.n_snapshots)
    return head + tuple(float(round(p, 9)) for p in pts)


def _lin_snapshots(cfg: ScenarioConfig) -> np.ndarray:
    return np.linspace(0.0, cfg.t_final, cfg.n_snapshots)


def _schedule(cfg: ScenarioConfig) -> list:
    """A preset's sample times: the outputs of the schedule it registers."""
    return euler.SolverConfig(t_final=cfg.t_final, snapshot_times=tuple(
        PRESETS[cfg.scenario].schedule(cfg))).outputs(0.0)


def _nonlinear_run(cfg: ScenarioConfig, snaps, outdir: Path, csv_name: str, *,
                   with_source=False, with_weights=False, allow_stop=False,
                   on_snapshot=None):
    """Solve, write the recorder table to csv_name, return (rec, res).

    Each output goes to the recorder and then to on_snapshot, if given.
    The recorder keeps the run's damping law, operators and weight
    constants as rec.d, rec.ops and rec.spec.  A solve that stops before
    t_final raises _SolverStopped unless allow_stop; an output whose
    density is not positive raises it always.
    """
    d, gas = _damping(cfg), GasLaw(gamma=cfg.gamma)
    ops = SpectralOps(Grid(cfg.n, cfg.L, cfg.N))
    spec = derive_constants(d, cfg.n, cfg.delta)
    rec = EnergyRecorder(ops, d, gas, spec, with_source=with_source,
                         with_weights=with_weights, support_R=cfg.R)
    sol = euler.SolverConfig(t_final=cfg.t_final, snapshot_times=tuple(snaps))

    def hook(st):
        try:
            rec(st)
        except euler.VacuumError as e:
            # the band-limited start state of large data undershoots into
            # vacuum; deciding that in validation would build the data
            rec.to_csv(outdir / csv_name)
            raise _SolverStopped(Verdict(
                name="solver_completed", value=st.t, predicted=cfg.t_final,
                tolerance=0.0, passed=False, detail=f"{e} at t={st.t:g}")) from None
        if on_snapshot is not None:
            on_snapshot(st)

    res = euler.run(_make_state(cfg, gas, ops), d, gas, ops, sol,
                    on_snapshot=hook)
    rec.to_csv(outdir / csv_name)
    if res.verdict != "completed" and not allow_stop:
        raise _SolverStopped(Verdict(
            name="solver_completed", value=res.t_end, predicted=cfg.t_final,
            tolerance=0.0, passed=False,
            detail=f"solver verdict {res.verdict!r} after {res.steps} steps"))
    return rec, res


_DECAY_LAW_NOTE = (
    "fitted slopes track the measured mode decay exp(-r^2 Lambda(t)) with "
    "Lambda(t) = ((1+t)^(1+lam) - 1)/(mu (1+lam)), whose effective "
    "diffusivity (1+t)^lam/mu grows as the friction dies out; the "
    "registered targets assume a (1-lam)-type diffusivity instead.  "
    "See the decay-law discussion in the README.")


# =====================================================================
#  Preset runners
# =====================================================================

@_register(
    "linear-decay",
    "sup-norm decay slopes of band-limited kernel reconstructions of bump data",
    dims=(1,),   # the kernel reconstruction is one-dimensional
    schedule=lambda cfg: np.geomspace(1.0, cfg.t_final, cfg.n_snapshots),
    decay_law=("kernel_decay_k0", "kernel_decay_k1"),
    n=1, lam=0.5, mu=2.0, L=2400.0, N=8192, R=12.0,
    t_final=1.0e4, n_snapshots=33, fit_lo=1.0e2, fit_hi=1.0e4)
def _run_linear_decay(cfg: ScenarioConfig, outdir: Path):
    grid = Grid(cfg.n, cfg.L, cfg.N)
    g = euler.bump_profile(grid, cfg.R)
    times = np.array(_schedule(cfg))

    observed, tail_bound = linear.kernel_decay_check(
        g, grid, _damping(cfg), times, k=(0, 1))
    fits, verdicts = {}, []
    for k, obs in enumerate(observed):   # row k holds order k
        fit = fits[k] = decay_fit(times, obs, cfg.fit_lo, cfg.fit_hi)
        verdicts.append(within(
            f"kernel_decay_k{k}", fit.slope, -(1.0 - cfg.lam) * (cfg.n + k) / 2.0,
            0.05, f"power fit over [{cfg.fit_lo:g}, {cfg.fit_hi:g}], "
                  f"residual {fit.residual:.3g}"))

    sel = (times >= cfg.fit_lo) & (times <= cfg.fit_hi)
    tail = float(np.max(tail_bound[:, sel] / observed[:, sel]))
    verdicts.append(at_most(
        "band_tail_fraction", tail, 1e-3,
        detail="high-band bound relative to the band norm, max over the fit window"))

    write_csv(outdir / "decay.csv",
              ["t", "observed_k0", "tail_bound_k0", "observed_k1", "tail_bound_k1"],
              [times, observed[0], tail_bound[0], observed[1], tail_bound[1]])
    _write_json(outdir / "fits.json",
                {f"k{k}": asdict(fit) for k, fit in fits.items()})
    return verdicts


def _zone_tables(d: DampingLaw, t_final: float, densities):
    """The first kernel at 7 log-spaced times in [1, t_final] and, per
    density, that many log-spaced radii in [1e-3, 2], all radii in one
    pass: per density, a row (t, r, zone, phi1, phi2) per radius and time."""
    tlist = np.geomspace(1.0, t_final, 7)
    sets = [np.geomspace(1e-3, 2.0, density) for density in densities]
    tr = linear.evolve_modes(np.concatenate(sets), d, tlist)
    tables, start = [], 0
    for radii in sets:
        tables.append([(float(t), float(r), zone_classify(t, float(r), d),
                        float(tr[0, m, j]), float(tr[2, m, j]))
                       for m, r in enumerate(radii, start)
                       for j, t in enumerate(tlist)])
        start += radii.size
    return tables


@_register(
    "zone-bounds",
    "propagator magnitudes against the per-zone envelopes, fitted constants",
    # at mu = 0 the zones degenerate; the middle-zone envelope uses the
    # band crossing time, which needs lam > 0
    positive=("mu", "lam"),
    # the z3 fit's samples: the mode amplitude up to t = 200 at most
    schedule=lambda cfg: np.geomspace(1.0, min(200.0, cfg.t_final), 25),
    n=1, lam=0.5, mu=2.0, t_final=1.0e3, fit_lo=5.0, fit_hi=200.0)
def _run_zone_bounds(cfg: ScenarioConfig, outdir: Path):
    d = _damping(cfg)
    coarse, fine = _zone_tables(d, cfg.t_final, (14, 27))

    def enveloped(z, r):
        """The samples a zone envelope covers: Z1, and Z2 up to mu/4."""
        return z == Zone.Z1 or (z == Zone.Z2 and r <= 0.25 * d.mu)

    verdicts, consts = [], {}
    for zone, key in ((Zone.Z1, "z1"), (Zone.Z2, "z2")):
        samples = [[(t, r, abs(p1)) for (t, r, z, p1, _) in tab
                    if z == zone and enveloped(z, r)] for tab in (coarse, fine)]
        if not all(samples):
            # nothing to fit: strong friction keeps every sampled radius
            # up to 1 inside the band mu/4 (1+t)^-lam (Z2 empty), weak
            # friction puts the band below the smallest radius (Z1 empty)
            verdicts.append(Verdict(
                name=f"{key}_ratio_drift", value=math.nan, predicted=1.0,
                tolerance=1.0, passed=False,
                detail=f"no samples fell in zone {zone.name} "
                       f"({len(samples[0])} and {len(samples[1])} of the "
                       f"two sample densities)"))
            continue
        c0 = consts[zone] = linear.fit_zone_constant(samples[0], d)
        mc, mf = (max(p / linear.zone_envelope(t, r, c0, d) for (t, r, p) in s)
                  for s in samples)
        drift = mf / mc
        verdicts.append(Verdict(
            name=f"{key}_ratio_drift", value=drift, predicted=1.0,
            tolerance=1.0,
            passed=math.isfinite(mf) and 0.5 <= drift <= 2.0,
            detail=f"max ratio {mf:.4g} at fitted C0={c0:.4g}; doubling the "
                   f"sample density moves it by this factor"))

    r3 = 3.0
    t_dense = np.array(_schedule(cfg))
    tr3 = linear.evolve_modes(np.array([r3]), d, t_dense, phi1_only=True)
    # hypot, not the root of the squares: those underflow to 0 at mu = 50
    # and lam = 0.5, where the amplitude is still 2e-166
    amp = np.hypot(tr3[1, 0] / r3, tr3[0, 0])
    fit = decay_fit(t_dense, amp, cfg.fit_lo, cfg.fit_hi,
                    stretch_exponent=1.0 - d.lam)
    pred = -d.mu / (2.0 * (1.0 - d.lam))
    verdicts.append(within(
        "z3_decay_rate", fit.slope, pred, abs(pred) * 0.2,
        f"stretched fit of the mode amplitude at |xi|={r3:g} against "
        f"(1+t)^{1.0 - d.lam:g}, residual {fit.residual:.3g}"))

    rows = []
    for (t, r, z, p1, p2) in fine:
        env = (linear.zone_envelope(t, r, consts[z], d)
               if enveloped(z, r) and z in consts else math.nan)
        rows.append((t, r, int(z), p1, 0.0, p2, 0.0, env, abs(p1) / env))
    cols = list(zip(*rows))
    write_csv(outdir / "modes.csv",
              ["t", "r", "zone", "re_phi1", "im_phi1", "re_phi2", "im_phi2",
               "envelope", "ratio"], cols)
    return verdicts


@_register(
    "zone-integrals",
    "L1 zone integrals of the first kernel against power-law envelopes",
    positive=("mu",),   # at mu = 0 the low band is empty
    decay_law=("z1_a0_ratio_spread", "z1_a2_ratio_spread", "alpha_exponent_gap"),
    n=1, lam=0.5, mu=2.0)
def _run_zone_integrals(cfg: ScenarioConfig, outdir: Path):
    d = _damping(cfg)
    times = (10.0, 100.0, 1000.0)
    alphas = (0, 2)
    vals = {a: [linear.zone_integral(t, a, Zone.Z1, d, cfg.n) for t in times]
            for a in alphas}

    verdicts = []
    for a in alphas:
        pred_exp = -(1.0 - d.lam) * (cfg.n + a) / 2.0
        ratios = [v / (1.0 + t) ** pred_exp for v, t in zip(vals[a], times)]
        verdicts.append(at_most(
            f"z1_a{a}_ratio_spread", max(ratios) / min(ratios), 3.0,
            predicted=1.0,
            detail=f"max/min of value/(1+t)^{pred_exp:g} over t in {times}"))

    slopes = {a: float(np.polyfit(np.log1p(np.asarray(times)),
                                  np.log(np.asarray(vals[a])), 1)[0])
              for a in alphas}
    pred_gap = 1.0 - d.lam
    verdicts.append(within(
        "alpha_exponent_gap", slopes[0] - slopes[2], pred_gap, 0.2 * pred_gap,
        "fitted log-log slope difference, alpha=0 minus alpha=2"))

    write_csv(outdir / "zone_integrals.csv",
              ["t", "value_a0", "value_a2"],
              [times, vals[0], vals[2]])
    return verdicts


# the small-data box of nonlinear-decay, q-decay and weighted-energy-bounded
_SMALL_DATA = dict(n=1, lam=0.5, mu=2.0, gamma=2.0, eps=3.61067966265402e-08,
                   N=2048, L=256.0, R=4.0, t_final=1.0e3)


@_register(
    "nonlinear-decay",
    "sup-norm decay exponents of density and velocity after a small bump",
    positive=("eps",),   # the fits take logarithms of the sup norms
    schedule=_log_snapshots,
    decay_law=("rho_slope", "u_slope", "slope_difference"),
    **_SMALL_DATA, n_snapshots=41, fit_lo=1.0e2, fit_hi=1.0e3)
def _run_nonlinear_decay(cfg: ScenarioConfig, outdir: Path):
    rec, _ = _nonlinear_run(cfg, _schedule(cfg), outdir, "energy.csv")
    rho_fit = decay_fit(rec.times, rec.series("rho_linf"), cfg.fit_lo, cfg.fit_hi)
    u_fit = decay_fit(rec.times, rec.series("u_linf"), cfg.fit_lo, cfg.fit_hi)
    pred_rho = -(1.0 - cfg.lam) * cfg.n / 2.0
    pred_u = -(1.0 - cfg.lam) * (cfg.n + 1) / 2.0 + cfg.lam
    verdicts = [
        within("rho_slope", rho_fit.slope, pred_rho, 0.08,
               f"sup norm of rho-1, power fit over [{cfg.fit_lo:g}, "
               f"{cfg.fit_hi:g}], residual {rho_fit.residual:.3g}"),
        within("u_slope", u_fit.slope, pred_u, 0.08,
               f"sup norm of u, residual {u_fit.residual:.3g}"),
        within("slope_difference", rho_fit.slope - u_fit.slope,
               pred_rho - pred_u, 0.05, "density slope minus velocity slope"),
    ]
    _write_json(outdir / "fits.json",
                {"rho_linf": asdict(rho_fit), "u_linf": asdict(u_fit)})
    return verdicts


@_register(
    "u-extra-lambda",
    "velocity lags the density gradient by one power of the damping clock",
    positive=("eps",),   # the fit reads |u|_inf / |dv|_inf, 0/0 on zero data
    schedule=_log_snapshots,
    n=1, lam=0.5, mu=2.0, N=1024, L=360.0, R=8.0, eps=5.108550558937388e-06,
    t_final=300.0, n_snapshots=33, fit_lo=30.0, fit_hi=300.0)
def _run_u_extra_lambda(cfg: ScenarioConfig, outdir: Path):
    last = []  # a copy of the latest output, the state at t_final in the end

    def keep(st):
        last[:] = [st.copy()]

    rec, _ = _nonlinear_run(cfg, _schedule(cfg), outdir, "energy.csv",
                            on_snapshot=keep)
    mask = rec.times > 0.0  # the start row is no sample of the fit
    ratio = rec.series("u_linf")[mask] / rec.series("dv1_linf")[mask]
    fit = decay_fit(rec.times[mask], ratio, cfg.fit_lo, cfg.fit_hi)
    verdicts = [within(
        "velocity_lag_exponent", fit.slope, cfg.lam, 0.1,
        f"power fit of |u|_inf / |dv|_inf over "
        f"[{cfg.fit_lo:g}, {cfg.fit_hi:g}], residual {fit.residual:.3g}")]

    st, ops = last[0], rec.ops
    grad_v = ops.grad(st.v)
    bco = damping_coeff(st.t, rec.d)
    num = math.sqrt(sum(ops.l2(st.u[i] + grad_v[i] / bco) ** 2
                        for i in range(cfg.n)))
    den = math.sqrt(sum(ops.l2(st.u[i]) ** 2 for i in range(cfg.n)))
    verdicts.append(at_most(
        "quasistatic_residual", num / max(den, 1e-300), 0.1,
        detail=f"relative L2 misfit of u against -(1+t)^lam grad(v)/mu "
               f"at t={st.t:g}"))
    return verdicts


@_register(
    "mass-conservation",
    "exact conservation of the density excess integral",
    positive=("q0",),   # the drift is relative to the excess mass
    n=1, lam=0.5, mu=2.0, N=1024, L=128.0, R=4.0, q0=0.01, data_kind="mass",
    t_final=50.0, n_snapshots=21)
def _run_mass_conservation(cfg: ScenarioConfig, outdir: Path):
    rec, _ = _nonlinear_run(cfg, _lin_snapshots(cfg), outdir, "energy.csv")
    mass = rec.series("mass")
    drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    return [at_most(
        "mass_drift", drift, 1e-8, strict=True,
        detail=f"relative to M(0)={mass[0]:.6g} across {mass.size} snapshots")]


@_register(
    "lower-bound",
    "conserved-mass lower bounds: density and velocity margins stay positive",
    positive=("q0",),   # the bounds are stated for a positive excess mass
    schedule=_lin_snapshots,
    n=1, lam=0.5, mu=2.0, N=2048, L=440.0, R=10.0, q0=0.01, data_kind="mass",
    t_final=200.0, n_snapshots=81, fit_lo=20.0, fit_hi=200.0)
def _run_lower_bound(cfg: ScenarioConfig, outdir: Path):
    rec, _ = _nonlinear_run(cfg, _schedule(cfg), outdir, "energy.csv")
    t = rec.times
    mass = rec.series("mass")
    drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))

    cs = diagnostics.cauchy_schwarz_margin(t, rec.series("rho_l2"),
                                           cfg.q0, cfg.R, cfg.n)
    mm = diagnostics.moment_inequality_margins(t, rec.series("moment"),
                                               cfg.q0, cfg.n, rec.d)
    lb = diagnostics.lower_bound_margin(t, rec.series("rho_l2"),
                                        rec.series("u_l2"), cfg.q0, cfg.R,
                                        cfg.n, t0=cfg.fit_lo, t1=cfg.fit_hi)
    over = f"t >= {cfg.fit_lo:g}" + (
        f" and t <= {cfg.fit_hi:g}" if cfg.fit_hi < cfg.t_final else "")
    verdicts = [
        at_most("mass_drift", drift, 1e-8, strict=True,
                detail=f"relative to M(0)={mass[0]:.6g}"),
        Verdict(name="cauchy_schwarz", value=float(np.min(cs)), predicted=1.0,
                tolerance=1e-6, passed=float(np.min(cs)) >= 1.0 - 1e-6,
                detail="min over snapshots of |rho-1| sqrt(vol(R+t)) / q0, "
                       "predicted at least 1"),
        Verdict(name="moment_inequality", value=float(np.min(mm)), predicted=1.0,
                tolerance=0.05, passed=float(np.min(mm)) >= 0.95,
                detail="min over interior snapshots of (F' + b F)/(n q0), "
                       "predicted at least 1 up to finite differencing"),
        Verdict(name="lower_bound_rho", value=lb["inf_rho"], predicted=0.0,
                tolerance=0.01, passed=lb["inf_rho"] > 0.01,
                detail=f"infimum over {over} of "
                       "|rho-1| (R+t)^(n/2) / q0; pass means clearly positive"),
        Verdict(name="lower_bound_u", value=lb["inf_u"], predicted=0.0,
                tolerance=0.01, passed=lb["inf_u"] > 0.01,
                detail=f"infimum over {over} of "
                       "|u| (R+t)^((n+2)/2) / q0; pass means clearly positive"),
    ]
    write_csv(outdir / "margins.csv",
              ["t", "cauchy_schwarz", "m_rho", "m_u"],
              [t, cs, lb["m_rho"], lb["m_u"]])
    write_csv(outdir / "moment_margins.csv",
              ["t", "margin"], [t[1:-1], mm])
    return verdicts


def _vorticity_run(cfg: ScenarioConfig, outdir: Path):
    rec, _ = _nonlinear_run(cfg, _schedule(cfg), outdir, "energy.csv")
    fit = decay_fit(rec.times, rec.series("vort_l2"), cfg.fit_lo, cfg.fit_hi,
                    stretch_exponent=1.0 - cfg.lam)
    _write_json(outdir / "fits.json", {"vort_l2": asdict(fit)})
    pred = -cfg.mu / (1.0 - cfg.lam)
    return [
        within("vorticity_rate", fit.slope, pred, abs(pred) * 0.2,
               f"slope of log |omega|_2 against (1+t)^{1.0 - cfg.lam:g} "
               f"over [{cfg.fit_lo:g}, {cfg.fit_hi:g}]"),
        at_most("vorticity_fit_residual", fit.residual, 0.1, strict=True,
                detail="rms residual of the stretched-exponential fit"),
    ]


@_register(
    "vorticity-2d",
    "stretched-exponential vorticity decay for rotational data in the plane",
    dims=(2, 3),   # on a line every velocity field is a gradient
    positive=("eps",),   # the fit takes logarithms of the vorticity norm
    schedule=_lin_snapshots,
    n=2, lam=0.5, mu=1.0, N=256, L=68.0, R=12.0, eps=4.790103826857862e-05,
    data_kind="rotational", t_final=50.0, n_snapshots=26,
    fit_lo=5.0, fit_hi=50.0)
def _run_vorticity_2d(cfg: ScenarioConfig, outdir: Path):
    verdicts = _vorticity_run(cfg, outdir)

    cfg2 = replace(cfg, data_kind="potential", t_final=5.0, n_snapshots=6)
    rec2, _ = _nonlinear_run(cfg2, _schedule(cfg2), outdir,
                             "energy_irrotational.csv")
    floor = float(np.max(rec2.series("vort_l2") / rec2.series("du1_l2")))
    verdicts.append(at_most(
        "irrotational_floor", floor, 1e-10, strict=True,
        detail="max over snapshots of |omega|_2 / |grad u|_2 for potential data"))
    return verdicts


_register(
    "vorticity-3d",
    "stretched-exponential vorticity decay in three dimensions",
    dims=(3,),   # the three-dimensional claim: stretching exists only there
    positive=("eps",),   # the fit takes logarithms of the vorticity norm
    schedule=_lin_snapshots,
    n=3, lam=0.5, mu=1.0, N=128, L=40.0, R=12.0, eps=9.97171585394892e-06,
    data_kind="rotational", t_final=12.0, n_snapshots=13,
    fit_lo=2.0, fit_hi=12.0)(_vorticity_run)


@_register(
    "q-decay",
    "decay rate and quadratic smallness of the wave-form source",
    positive=("eps",),   # the fit takes logarithms of the source norm
    schedule=_log_snapshots,
    **_SMALL_DATA, n_snapshots=41, fit_lo=1.0e2, fit_hi=1.0e3)
def _run_q_decay(cfg: ScenarioConfig, outdir: Path):
    rec1, _ = _nonlinear_run(cfg, _schedule(cfg), outdir, "energy.csv", with_source=True)
    rec2, _ = _nonlinear_run(replace(cfg, eps=2.0 * cfg.eps), _schedule(cfg),
                             outdir, "energy_eps2.csv", with_source=True)

    cap = -rec1.spec.B - (1.0 + cfg.lam) / 2.0 + 0.15
    fit = decay_fit(rec1.times, rec1.series("src_l1"), cfg.fit_lo, cfg.fit_hi)
    verdicts = [Verdict(
        name="q_l1_slope_cap", value=fit.slope, predicted=cap, tolerance=0.0,
        passed=fit.slope <= cap,
        detail="one-sided: pass when the fitted L1 source slope is at most "
               f"the cap; residual {fit.residual:.3g}")]

    sel = rec1.times >= 10.0
    ratios = rec2.series("src_l1")[sel] / rec1.series("src_l1")[sel]
    med = float(np.median(ratios))
    verdicts.append(Verdict(
        name="q_eps_scaling", value=med, predicted=4.0, tolerance=0.6,
        passed=3.4 <= med <= 4.6,
        detail="median over t >= 10 of the L1 source ratio under doubling "
               "of the data amplitude"))

    _write_json(outdir / "fits.json", {"src_l1": asdict(fit)})
    return verdicts


@_register(
    "convolution-lemma",
    "time-convolution inequality ratios stabilize in the long-time limit")
def _run_convolution(cfg: ScenarioConfig, outdir: Path):
    pairs = ((2.0, 1.0), (1.5, 1.5), (3.0, 0.5))
    times = np.array([1.0, 10.0, 1e2, 1e3, 1e4])
    verdicts, cols = [], [times]
    for a, bb in pairs:
        ratios = diagnostics.convolution_oracle(a, bb, times)
        m_all = float(np.max(ratios))
        m_head = float(np.max(ratios[:-1]))
        verdicts.append(at_most(
            f"conv_{a:g}_{bb:g}", m_all / m_head - 1.0, 0.1, strict=True,
            detail=f"max ratio {m_all:.5g}; growth of the max when the last "
                   "time decade joins"))
        cols.append(ratios)
    write_csv(outdir / "convolution.csv",
              ["t"] + [f"ratio_{a:g}_{b:g}" for a, b in pairs], cols)
    return verdicts


@_register(
    "weighted-energy-bounded",
    "time-scaled plain and weighted energies stay within their startup range",
    positive=("eps",),   # the energies are relative to their startup peak
    **_SMALL_DATA, n_snapshots=37)
def _run_weighted_energy(cfg: ScenarioConfig, outdir: Path):
    snaps = _log_snapshots(cfg, head=(0.2, 0.4, 0.6, 0.8))
    rec, _ = _nonlinear_run(cfg, snaps, outdir, "energy.csv", with_weights=True)
    early = rec.times <= 1.0
    verdicts = []
    for col, name in (("mon_low", "plain_low_bounded"),
                      ("mon_high", "plain_high_bounded"),
                      ("wmon_low", "weighted_low_bounded"),
                      ("wmon_high", "weighted_high_bounded")):
        series = rec.series(col)
        base = float(np.max(series[early]))
        verdicts.append(at_most(
            name, float(np.max(series)) / base, 10.0, predicted=1.0,
            detail=f"peak of {col} over the whole run relative to its "
                   "peak on [0, 1]"))
    return verdicts


@_register(
    "blowup-scout",
    "the monitor catches gradient blow-up when the damping is switched off",
    n=1, lam=0.5, mu=0.0, gamma=2.0, eps=0.456004240068952, N=512, L=40.0,
    R=2.0, t_final=20.0, n_snapshots=21)
def _run_blowup_scout(cfg: ScenarioConfig, outdir: Path):
    _, res = _nonlinear_run(cfg, _lin_snapshots(cfg), outdir, "energy.csv",
                            allow_stop=True)
    detected = res.verdict != "completed"
    value = float(res.t_end) if detected else -1.0
    return [Verdict(
        name="blowup_detected", value=value, predicted=cfg.t_final,
        tolerance=0.0, passed=detected,
        detail=f"solver verdict {res.verdict!r} after {res.steps} steps; "
               "pass means a monitor tripped before t_final")]


# =====================================================================
#  Orchestration
# =====================================================================

# the output tree when the caller names none
_RUNS = "runs"


def run_dir(cfg: ScenarioConfig, base_dir=_RUNS) -> Path:
    return Path(base_dir) / f"{cfg.scenario}-{config_digest(cfg)}"


def run_scenario(cfg: ScenarioConfig, base_dir=_RUNS) -> Report:
    """Validate, run the preset, emit report.json and summary.txt.

    Every config error is raised before the run directory exists; a
    rerun replaces the directory, and the report lists the files the
    run left in it.  A solve that stops before t_final yields a report
    whose only verdict is a failing solver_completed; a runner that
    raises anything else takes its half-filled directory with it.
    """
    validate_config(cfg)
    preset = PRESETS[cfg.scenario]
    outdir = run_dir(cfg, base_dir)
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    notes = []
    try:
        verdicts = preset.runner(cfg, outdir)
    except _SolverStopped as stop:
        verdicts = [stop.args[0]]
    except BaseException:
        shutil.rmtree(outdir, ignore_errors=True)
        raise
    else:
        if any(not v.passed for v in verdicts if v.name in preset.decay_law):
            notes.append(_DECAY_LAW_NOTE)
    files = [p.relative_to(outdir).as_posix() for p in outdir.rglob("*")
             if p.is_file()]
    report = Report(scenario=cfg.scenario, digest=config_digest(cfg),
                    config=cfg.as_dict(), verdicts=verdicts,
                    files=sorted(files + ["report.json", "summary.txt"]),
                    notes=notes)
    (outdir / "report.json").write_text(report.to_json())
    (outdir / "summary.txt").write_text(report.summary())
    return report


def _sweep_worker(cfg: ScenarioConfig, base_dir) -> dict:
    try:
        rep = run_scenario(cfg, base_dir)
        return {"status": "ok", "digest": rep.digest,
                "n_pass": sum(v.passed for v in rep.verdicts),
                "n_fail": sum(not v.passed for v in rep.verdicts),
                "verdicts": [asdict(v) for v in rep.verdicts],
                "error": ""}
    except Exception as e:  # per-run failures are recorded, the sweep goes on
        return {"status": "error", "digest": "", "n_pass": 0, "n_fail": 0,
                "verdicts": [], "error": f"{type(e).__name__}: {e}"}


def sweep(base: ScenarioConfig, axes: dict, base_dir=_RUNS, workers: int = 0):
    """Cartesian-product runs over the given axes, on up to workers
    processes (0 or 1: in this process).

    axes maps config field names, any but scenario, to nonempty value
    lists, each value parsed as --set parses it.  Returns (per-run
    result dicts in product order, aggregate CSV path).
    """
    if workers < 0:
        raise ConfigError(f"workers: must be nonnegative, got {workers}")
    names = list(axes)
    for name in names:
        if name == "scenario" or name not in _KINDS:
            raise ConfigError(f"axis: no sweep axis {name!r}; an axis is "
                              f"any config field but scenario")
        if not axes[name]:
            raise ConfigError(f"axis: {name!r} has no values")
    value_lists = [[_coerce(name, str(v)) for v in axes[name]] for name in names]

    cfgs = [replace(base, **dict(zip(names, combo)))
            for combo in itertools.product(*value_lists)]
    for c in cfgs:
        validate_config(c)

    w = min(workers, os.cpu_count() or 1, len(cfgs))
    if w > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=w) as pool:
            futures = [pool.submit(_sweep_worker, c, base_dir) for c in cfgs]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_worker(c, base_dir) for c in cfgs]

    key = _digest([base.as_dict(), list(zip(names, value_lists))])
    agg_path = Path(base_dir) / f"sweep-{base.scenario}-{key}.csv"
    agg_path.parent.mkdir(parents=True, exist_ok=True)
    with open(agg_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["index", "scenario"] + names
                    + ["digest", "status", "n_pass", "n_fail", "verdicts",
                       "error"])
        for j, (cfg, res) in enumerate(zip(cfgs, results)):
            vtext = ";".join(
                f"{v['name']}={v['value']!r}:{'PASS' if v['passed'] else 'FAIL'}"
                for v in res["verdicts"])
            wr.writerow([j, cfg.scenario]
                        + [repr(getattr(cfg, f)) for f in names]
                        + [res["digest"], res["status"], res["n_pass"],
                           res["n_fail"], vtext, res["error"]])
    return results, agg_path


# =====================================================================
#  CLI
# =====================================================================

def _load_config(arg: str, overrides) -> ScenarioConfig:
    if arg in PRESETS:
        cfg = preset_config(arg)
    else:
        path = Path(arg)
        if not path.exists():
            raise ConfigError(
                f"config: {arg!r} is neither a preset name nor a file; "
                f"presets: {', '.join(PRESETS)}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"config: {arg}: invalid JSON ({e})") from None
        cfg = ScenarioConfig.from_dict(data)
    updates = {}
    for item in overrides:
        key, sep, text = item.partition("=")
        if not sep:
            raise ConfigError(f"--set: expected KEY=VALUE, got {item!r}")
        name = key.strip()
        if name == "scenario":
            raise ConfigError("--set: scenario is not an override; name the "
                              "preset or the config file instead")
        updates[name] = _coerce(name, text)
    return replace(cfg, **updates)


def _parse_axes(items) -> dict:
    axes = {}
    for item in items:
        name, sep, text = item.partition("=")
        if not sep or not text:
            raise ConfigError(f"--axis: expected NAME=v1,v2,..., got {item!r}")
        name = name.strip()
        if name in axes:
            raise ConfigError(f"axis: {name!r} given twice")
        axes[name] = [v for v in text.split(",") if v]
    if not axes:
        raise ConfigError("--axis: at least one axis is required")
    return axes


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    report = run_scenario(cfg, args.outdir)
    sys.stdout.write(report.summary())
    print(f"run directory: {run_dir(cfg, args.outdir)}")
    return 0 if report.all_passed else 1


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    axes = _parse_axes(args.axis)
    results, agg = sweep(cfg, axes, args.outdir, args.workers)
    n_err = sum(r["status"] == "error" for r in results)
    n_fail = sum(r["n_fail"] for r in results)
    print(f"{len(results)} runs, {n_err} errored, "
          f"{sum(r['n_pass'] for r in results)} verdicts passed, "
          f"{n_fail} failed")
    print(f"aggregate table: {agg}")
    if n_err:
        return 2
    return 0 if n_fail == 0 else 1


def _cmd_list(args) -> int:
    width = max(len(n) for n in PRESETS)
    for p in PRESETS.values():
        print(f"{p.name:<{width}}  {p.description}")
    return 0


def _cmd_report(args) -> int:
    path = Path(args.rundir)
    if path.is_dir():
        path = path / "report.json"
    if not path.exists():
        raise ConfigError(f"report: no report.json under {args.rundir!r}")
    report = Report.from_json(path.read_text())
    sys.stdout.write(report.summary())
    return 0 if report.all_passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eulerlab",
        description="numerical laboratory for the damped compressible "
                    "Euler system with time-decaying friction")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario (preset name or "
                                       "JSON config file)")
    p_run.add_argument("config")
    p_run.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override a config field")
    p_run.add_argument("--outdir", default=_RUNS)

    p_sw = sub.add_parser("sweep", help="Cartesian-product runs over axes")
    p_sw.add_argument("config")
    p_sw.add_argument("--axis", action="append", default=[],
                      metavar="NAME=V1,V2,...",
                      help="sweep axis: any config field but scenario")
    p_sw.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="KEY=VALUE")
    p_sw.add_argument("--outdir", default=_RUNS)
    p_sw.add_argument("--workers", type=int, default=0)

    sub.add_parser("list-presets", help="print the preset catalog")

    p_rep = sub.add_parser("report", help="re-render a stored report")
    p_rep.add_argument("rundir")

    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep,
                "list-presets": _cmd_list, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
