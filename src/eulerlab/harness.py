"""Scenario configuration, preset experiment suites, reports and the CLI.

A scenario is one fully specified numerical experiment: damping and gas
laws, grid, initial data, solver knobs and a set of named diagnostics.
Each preset in the catalog wires those pieces together for one question
(kernel decay slopes, zone envelopes, nonlinear decay, conserved-mass
lower bounds, vorticity decay, and so on) and reduces the run to a list
of pass/fail verdicts with the fitted and predicted values side by side.

Reports are deterministic: the same config produces byte-identical
report.json, summary.txt and CSV output, also under parallel sweeps.
Run directories are named by scenario plus a hash of the effective
config, so re-running a config overwrites its own directory and nothing
else.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import diagnostics, euler, linear
from .diagnostics import EnergyRecorder, decay_fit
from .grids import Grid, SpectralOps
from .params import DampingLaw, GasLaw, Zone, damping_coeff, derive_constants, \
    zone_classify

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "Verdict",
    "Report",
    "preset_names",
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
    """Everything one run depends on.  Flat on purpose: every key can be
    overridden from the command line with --set key=value."""

    scenario: str
    n: int = 1
    lam: float = 0.5
    mu: float = 2.0
    gamma: float = 2.0
    delta: float | None = None
    L: float = 240.0
    N: int = 1024
    R: float = 4.0
    eps: float = 1e-3
    q0: float = 0.01
    data_kind: str = "bump"
    data_order: int = 3
    jitter: float = 0.0
    seed: int = 0
    t_final: float = 100.0
    n_snapshots: int = 33
    fit_lo: float = 10.0
    fit_hi: float = 100.0
    cfl: float = 0.4
    dealias: bool = True
    if_split: bool = False
    hyper: float = 0.0
    dt_override: float | None = None
    r_cut: float = 1.0
    diagnostics: tuple = ("*",)
    store_fields: bool = False
    outdir: str = "runs"
    workers: int = 0

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        known = {f.name for f in cls.__dataclass_fields__.values()}
        extra = set(data) - known
        if extra:
            raise ConfigError(
                f"config: unknown keys {sorted(extra)}; known keys: {sorted(known)}")
        if "scenario" not in data:
            raise ConfigError("scenario: required key is missing")
        data = dict(data)
        if isinstance(data.get("diagnostics"), list):
            data["diagnostics"] = tuple(data["diagnostics"])
        return cls(**data)


_INT_FIELDS = {"n", "N", "data_order", "seed", "n_snapshots", "workers"}
_FLOAT_FIELDS = {"lam", "mu", "gamma", "L", "R", "eps", "q0", "jitter",
                 "t_final", "fit_lo", "fit_hi", "cfl", "hyper", "r_cut"}
_OPT_FLOAT_FIELDS = {"delta", "dt_override"}
_BOOL_FIELDS = {"dealias", "if_split", "store_fields"}
_STR_FIELDS = {"scenario", "data_kind", "outdir"}
_ALIASES = {"lambda": "lam"}


def _coerce(name: str, text: str):
    name = _ALIASES.get(name, name)
    if name in _INT_FIELDS:
        return name, int(text)
    if name in _FLOAT_FIELDS:
        return name, float(text)
    if name in _OPT_FLOAT_FIELDS:
        return name, (None if text.lower() in ("none", "null") else float(text))
    if name in _BOOL_FIELDS:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return name, True
        if low in ("0", "false", "no", "off"):
            return name, False
        raise ConfigError(f"{name}: expected a boolean, got {text!r}")
    if name in _STR_FIELDS:
        return name, text
    if name == "diagnostics":
        if text == "":
            return name, ()
        return name, tuple(s for s in text.split(",") if s)
    raise ConfigError(f"{name}: not a config field")


def validate_config(cfg: ScenarioConfig):
    """Raise ConfigError with a field-level message on the first problem."""
    if cfg.scenario not in PRESETS:
        raise ConfigError(
            f"scenario: unknown scenario {cfg.scenario!r}; "
            f"known: {', '.join(PRESETS)}")
    if cfg.n not in (1, 2, 3):
        raise ConfigError(f"n: dimension must be 1, 2 or 3, got {cfg.n}")
    try:
        d = DampingLaw(lam=cfg.lam, mu=cfg.mu,
                       allow_free_wave=(cfg.mu == 0.0))
    except ValueError as e:
        raise ConfigError(f"lam/mu: {e}") from None
    if cfg.gamma <= 1.0:
        raise ConfigError(f"gamma: adiabatic index must exceed 1, got {cfg.gamma}")
    if cfg.delta is not None:
        try:
            derive_constants(d, cfg.n, cfg.delta)
        except ValueError as e:
            raise ConfigError(f"delta: {e}") from None
    if cfg.L <= 0.0:
        raise ConfigError(f"L: box length must be positive, got {cfg.L}")
    if cfg.N < 16 or cfg.N & (cfg.N - 1):
        raise ConfigError(f"N: grid points must be a power of two >= 16, got {cfg.N}")
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
    if cfg.data_order < 1:
        raise ConfigError(f"data_order: must be at least 1, got {cfg.data_order}")
    if cfg.jitter < 0.0:
        raise ConfigError(f"jitter: must be nonnegative, got {cfg.jitter}")
    if cfg.t_final <= 0.0:
        raise ConfigError(f"t_final: must be positive, got {cfg.t_final}")
    if cfg.n_snapshots < 2:
        raise ConfigError(f"n_snapshots: need at least 2, got {cfg.n_snapshots}")
    if not 0.0 <= cfg.fit_lo < cfg.fit_hi:
        raise ConfigError(
            f"fit_lo/fit_hi: need 0 <= fit_lo < fit_hi, got ({cfg.fit_lo}, {cfg.fit_hi})")
    if not 0.0 < cfg.cfl <= 0.5:
        raise ConfigError(f"cfl: must lie in (0, 0.5], got {cfg.cfl}")
    if cfg.hyper < 0.0:
        raise ConfigError(f"hyper: must be nonnegative, got {cfg.hyper}")
    if cfg.dt_override is not None and cfg.dt_override <= 0.0:
        raise ConfigError(f"dt_override: must be positive, got {cfg.dt_override}")
    if cfg.r_cut <= 0.0:
        raise ConfigError(f"r_cut: must be positive, got {cfg.r_cut}")
    if cfg.workers < 0:
        raise ConfigError(f"workers: must be nonnegative, got {cfg.workers}")
    preset = PRESETS[cfg.scenario]
    unknown = set(cfg.diagnostics) - {"*"} - set(preset.verdict_names)
    if unknown:
        raise ConfigError(
            f"diagnostics: {sorted(unknown)} not produced by {cfg.scenario!r}; "
            f"available: {list(preset.verdict_names)}")


def config_digest(cfg: ScenarioConfig) -> str:
    """Short content hash of the scientific part of the config.

    outdir and workers are execution plumbing and stay out of the hash,
    so moving the output tree or changing parallelism does not rename
    run directories.
    """
    payload = cfg.as_dict()
    payload.pop("outdir")
    payload.pop("workers")
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
        return json.dumps(payload, sort_keys=True, indent=2,
                          default=_json_default) + "\n"

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
            lines.append("no diagnostics selected")
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


def _json_default(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_csv(path: Path, header, columns):
    columns = [np.asarray(c, dtype=float) for c in columns]
    with open(path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(header)
        for row in zip(*columns):
            wr.writerow([repr(float(x)) for x in row])


def _write_json(path: Path, payload):
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=_json_default) + "\n")


# =====================================================================
#  Preset registry
# =====================================================================

@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    overrides: dict
    verdict_names: tuple
    runner: object


PRESETS: dict = {}


def _register(name, description, verdicts, **overrides):
    def deco(fn):
        PRESETS[name] = Preset(name=name, description=description,
                               overrides=overrides,
                               verdict_names=tuple(verdicts), runner=fn)
        return fn
    return deco


def preset_names():
    return list(PRESETS)


def preset_config(name: str, **extra) -> ScenarioConfig:
    if name not in PRESETS:
        raise ConfigError(f"scenario: unknown preset {name!r}; "
                          f"known: {', '.join(PRESETS)}")
    kw = dict(PRESETS[name].overrides)
    kw.update(extra)
    return ScenarioConfig(scenario=name, **kw)


# =====================================================================
#  Shared run machinery
# =====================================================================

@dataclass
class _RunBundle:
    d: DampingLaw
    gas: GasLaw
    grid: Grid
    ops: SpectralOps
    spec: object
    rec: EnergyRecorder
    res: euler.RunResult


def _laws(cfg: ScenarioConfig):
    d = DampingLaw(lam=cfg.lam, mu=cfg.mu, allow_free_wave=(cfg.mu == 0.0))
    return d, GasLaw(gamma=cfg.gamma)


def _make_state(cfg: ScenarioConfig, grid: Grid, gas: GasLaw,
                ops: SpectralOps) -> euler.EulerState:
    if cfg.data_kind == "bump":
        return euler.initial_bump(grid, cfg.R, cfg.eps, cfg.data_order,
                                  jitter=cfg.jitter, seed=cfg.seed, ops=ops)
    if cfg.data_kind == "mass":
        return euler.mass_bump(grid, gas, cfg.R, cfg.q0, ops=ops)
    if cfg.data_kind == "rotational":
        return euler.rotational_bump(grid, cfg.R, cfg.eps, cfg.data_order, ops=ops)
    return euler.potential_bump(grid, cfg.R, cfg.eps, cfg.data_order, ops=ops)


def _log_snapshots(cfg: ScenarioConfig, head=(0.25, 0.5, 0.75)) -> tuple:
    pts = np.geomspace(1.0, cfg.t_final, cfg.n_snapshots)
    return tuple(sorted(set(float(round(p, 9)) for p in pts) | set(head)))


def _lin_snapshots(cfg: ScenarioConfig) -> tuple:
    return tuple(float(t) for t in
                 np.linspace(0.0, cfg.t_final, cfg.n_snapshots)[1:])


def _nonlinear_run(cfg: ScenarioConfig, snaps, *, with_source=False,
                   with_weights=False, store=False) -> _RunBundle:
    d, gas = _laws(cfg)
    grid = Grid(cfg.n, cfg.L, cfg.N)
    ops = SpectralOps(grid)
    spec = derive_constants(d, cfg.n, cfg.delta)
    st = _make_state(cfg, grid, gas, ops)
    rec = EnergyRecorder(grid, d, gas, spec, with_source=with_source,
                         with_weights=with_weights, dealias=cfg.dealias,
                         support_R=cfg.R, ops=ops)
    sol = euler.SolverConfig(t_final=cfg.t_final, cfl=cfg.cfl,
                             dealias=cfg.dealias, dt_override=cfg.dt_override,
                             if_split=cfg.if_split, hyper=cfg.hyper,
                             snapshot_times=tuple(snaps),
                             store_snapshots=store or cfg.store_fields)
    res = euler.run(st, d, gas, grid, sol, on_snapshot=rec, ops=ops)
    return _RunBundle(d=d, gas=gas, grid=grid, ops=ops, spec=spec,
                      rec=rec, res=res)


def _require_completed(res: euler.RunResult):
    if res.verdict != "completed":
        raise RuntimeError(
            f"solver ended early with verdict {res.verdict!r} at t={res.t_end:g}")


def _store_fields(res: euler.RunResult, outdir: Path) -> list:
    """Dump snapshot fields as plain .npy files (deterministic bytes)."""
    files = []
    fdir = outdir / "fields"
    fdir.mkdir(exist_ok=True)
    for j, st in enumerate(res.snapshots):
        for tag, arr in (("v", st.v), ("u", st.u)):
            rel = f"fields/snap{j:03d}_{tag}.npy"
            np.save(outdir / rel, arr)
            files.append(rel)
    _write_csv(outdir / "fields/times.csv", ["index", "t"],
               [np.arange(len(res.snapshots)), [s.t for s in res.snapshots]])
    files.append("fields/times.csv")
    return files


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
    ("kernel_decay_k0", "kernel_decay_k1", "band_tail_fraction"),
    n=1, lam=0.5, mu=2.0, L=2400.0, N=8192, R=12.0,
    t_final=1.0e4, n_snapshots=33, fit_lo=1.0e2, fit_hi=1.0e4)
def _run_linear_decay(cfg: ScenarioConfig, outdir: Path):
    if cfg.n != 1:
        raise ConfigError("n: linear-decay is a one-dimensional scenario")
    d, _ = _laws(cfg)
    grid = Grid(cfg.n, cfg.L, cfg.N)
    g = euler.bump_profile(grid, cfg.R)
    times = np.geomspace(1.0, cfg.t_final, cfg.n_snapshots)

    series, fits, verdicts = {}, {}, []
    for k in (0, 1):
        pred = -(1.0 - cfg.lam) * (cfg.n + k) / 2.0
        ser = linear.kernel_decay_check(g, grid, d, times, i=1, k=k, p=np.inf,
                                        r_cut=cfg.r_cut, envelope_exponent=pred)
        fit = decay_fit(ser.times, ser.observed, cfg.fit_lo, cfg.fit_hi)
        series[k], fits[k] = ser, fit
        verdicts.append(Verdict(
            name=f"kernel_decay_k{k}", value=fit.slope, predicted=pred,
            tolerance=0.05, passed=abs(fit.slope - pred) <= 0.05,
            detail=f"power fit over [{cfg.fit_lo:g}, {cfg.fit_hi:g}], "
                   f"residual {fit.residual:.3g}"))

    sel = times >= cfg.fit_lo
    tail = max(float(np.max(series[k].tail_bound[sel] / series[k].observed[sel]))
               for k in (0, 1))
    verdicts.append(Verdict(
        name="band_tail_fraction", value=tail, predicted=0.0, tolerance=1e-3,
        passed=tail <= 1e-3,
        detail="high-band bound relative to the band norm, max over the fit window"))

    _write_csv(outdir / "decay.csv",
               ["t", "observed_k0", "tail_bound_k0", "observed_k1", "tail_bound_k1"],
               [times, series[0].observed, series[0].tail_bound,
                series[1].observed, series[1].tail_bound])
    _write_json(outdir / "fits.json",
                {f"k{k}": asdict(fits[k]) for k in (0, 1)})
    notes = []
    if not all(v.passed for v in verdicts[:2]):
        notes.append(_DECAY_LAW_NOTE)
    return verdicts, ["decay.csv", "fits.json"], notes


@_register(
    "zone-bounds",
    "propagator magnitudes against the per-zone envelopes, fitted constants",
    ("z1_ratio_drift", "z2_ratio_drift", "z3_decay_rate"),
    n=1, lam=0.5, mu=2.0, t_final=1.0e3)
def _run_zone_bounds(cfg: ScenarioConfig, outdir: Path):
    d, _ = _laws(cfg)
    if d.mu == 0.0:
        raise ConfigError("mu: zone-bounds needs mu > 0 (zones degenerate)")
    if d.lam == 0.0:
        raise ConfigError("lam: the middle-zone envelope uses the band "
                          "crossing time, which needs lam > 0")
    tlist = np.geomspace(1.0, cfg.t_final, 7)

    def collect(density: int):
        radii = np.geomspace(1e-3, 2.0, density)
        tr = linear.evolve_modes(radii, d, tlist)
        per_zone = {Zone.Z1: [], Zone.Z2: [], Zone.Z3: []}
        table = []
        for m, r in enumerate(radii):
            for j, t in enumerate(tlist):
                z = zone_classify(t, float(r), d)
                table.append((float(t), float(r), z,
                              float(tr[0, m, j]), float(tr[2, m, j])))
                if z == Zone.Z2 and r > 0.25 * d.mu:
                    continue
                per_zone[z].append((float(t), float(r), abs(float(tr[0, m, j]))))
        return per_zone, table

    coarse, _ = collect(14)
    fine, table = collect(27)

    verdicts, consts = [], {}
    for zone, key in ((Zone.Z1, "z1"), (Zone.Z2, "z2")):
        if not coarse[zone] or not fine[zone]:
            raise RuntimeError(f"no samples fell in zone {zone.name}")
        c0 = linear.fit_zone_constant(coarse[zone], d)
        consts[zone] = c0

        def max_ratio(samps):
            return max(linear.zone_bound_check(t, r, p, c0, d).ratio
                       for (t, r, p) in samps)

        mc, mf = max_ratio(coarse[zone]), max_ratio(fine[zone])
        drift = mf / mc
        verdicts.append(Verdict(
            name=f"{key}_ratio_drift", value=drift, predicted=1.0,
            tolerance=1.0,
            passed=math.isfinite(mf) and 0.5 <= drift <= 2.0,
            detail=f"max ratio {mf:.4g} at fitted C0={c0:.4g}; doubling the "
                   f"sample density moves it by this factor"))

    r3 = 3.0
    t_dense = np.geomspace(1.0, min(200.0, cfg.t_final), 25)
    tr3 = linear.evolve_modes(np.array([r3]), d, t_dense)
    amp = np.sqrt(np.abs(tr3[1, 0]) ** 2 / r3 ** 2 + np.abs(tr3[0, 0]) ** 2)
    fit = decay_fit(t_dense, amp, 5.0, float(t_dense[-1]), kind="stretched",
                    stretch_exponent=1.0 - d.lam)
    pred = -d.mu / (2.0 * (1.0 - d.lam))
    verdicts.append(Verdict(
        name="z3_decay_rate", value=fit.slope, predicted=pred,
        tolerance=abs(pred) * 0.2,
        passed=abs(fit.slope - pred) <= abs(pred) * 0.2,
        detail=f"stretched fit of the mode amplitude at |xi|={r3:g} against "
               f"(1+t)^{1.0 - d.lam:g}, residual {fit.residual:.3g}"))

    rows = []
    for (t, r, z, p1, p2) in table:
        c0 = consts.get(z)
        if c0 is None or (z == Zone.Z2 and r > 0.25 * d.mu):
            env, ratio = float("nan"), float("nan")
        else:
            rep = linear.zone_bound_check(t, r, p1, c0, d)
            env, ratio = rep.envelope, rep.ratio
        rows.append((t, r, int(z), p1, 0.0, p2, 0.0, env, ratio))
    cols = list(zip(*rows))
    _write_csv(outdir / "modes.csv",
               ["t", "r", "zone", "re_phi1", "im_phi1", "re_phi2", "im_phi2",
                "envelope", "ratio"], cols)
    return verdicts, ["modes.csv"], []


@_register(
    "zone-integrals",
    "L1 zone integrals of the first kernel against power-law envelopes",
    ("z1_a0_ratio_spread", "z1_a2_ratio_spread", "alpha_exponent_gap"),
    n=1, lam=0.5, mu=2.0)
def _run_zone_integrals(cfg: ScenarioConfig, outdir: Path):
    d, _ = _laws(cfg)
    if d.mu == 0.0:
        raise ConfigError("mu: zone-integrals needs mu > 0 (empty low band)")
    times = (10.0, 100.0, 1000.0)
    alphas = (0, 2)
    vals = {a: [linear.zone_integral(t, 1, a, Zone.Z1, 1, d, cfg.n)
                for t in times] for a in alphas}

    verdicts = []
    for a in alphas:
        pred_exp = -(1.0 - d.lam) * (cfg.n + a) / 2.0
        ratios = [v / (1.0 + t) ** pred_exp for v, t in zip(vals[a], times)]
        spread = max(ratios) / min(ratios)
        verdicts.append(Verdict(
            name=f"z1_a{a}_ratio_spread", value=spread, predicted=1.0,
            tolerance=3.0, passed=spread <= 3.0,
            detail=f"max/min of value/(1+t)^{pred_exp:g} over t in {times}"))

    slopes = {a: float(np.polyfit(np.log1p(np.asarray(times)),
                                  np.log(np.asarray(vals[a])), 1)[0])
              for a in alphas}
    gap = slopes[0] - slopes[2]
    pred_gap = 1.0 - d.lam
    verdicts.append(Verdict(
        name="alpha_exponent_gap", value=gap, predicted=pred_gap,
        tolerance=0.2 * pred_gap,
        passed=abs(gap - pred_gap) <= 0.2 * pred_gap,
        detail="fitted log-log slope difference, alpha=0 minus alpha=2"))

    _write_csv(outdir / "zone_integrals.csv",
               ["t", "value_a0", "value_a2"],
               [times, vals[0], vals[2]])
    notes = [] if all(v.passed for v in verdicts) else [_DECAY_LAW_NOTE]
    return verdicts, ["zone_integrals.csv"], notes


@_register(
    "nonlinear-decay",
    "sup-norm decay exponents of density and velocity after a small bump",
    ("rho_slope", "u_slope", "slope_difference"),
    n=1, lam=0.5, mu=2.0, gamma=2.0, eps=1e-3, N=2048, L=256.0, R=4.0,
    data_order=7, t_final=1.0e3, n_snapshots=41, fit_lo=1.0e2, fit_hi=1.0e3)
def _run_nonlinear_decay(cfg: ScenarioConfig, outdir: Path):
    b = _nonlinear_run(cfg, _log_snapshots(cfg))
    _require_completed(b.res)
    rec = b.rec
    rho_fit = decay_fit(rec.times, rec.series("rho_linf"), cfg.fit_lo, cfg.fit_hi)
    u_fit = decay_fit(rec.times, rec.series("u_linf"), cfg.fit_lo, cfg.fit_hi)
    pred_rho = -(1.0 - cfg.lam) * cfg.n / 2.0
    pred_u = -(1.0 - cfg.lam) * (cfg.n + 1) / 2.0 + cfg.lam
    diff = rho_fit.slope - u_fit.slope
    verdicts = [
        Verdict(name="rho_slope", value=rho_fit.slope, predicted=pred_rho,
                tolerance=0.08, passed=abs(rho_fit.slope - pred_rho) <= 0.08,
                detail=f"sup norm of rho-1, power fit over "
                       f"[{cfg.fit_lo:g}, {cfg.fit_hi:g}], residual {rho_fit.residual:.3g}"),
        Verdict(name="u_slope", value=u_fit.slope, predicted=pred_u,
                tolerance=0.08, passed=abs(u_fit.slope - pred_u) <= 0.08,
                detail=f"sup norm of u, residual {u_fit.residual:.3g}"),
        Verdict(name="slope_difference", value=diff,
                predicted=pred_rho - pred_u, tolerance=0.05,
                passed=abs(diff - (pred_rho - pred_u)) <= 0.05,
                detail="density slope minus velocity slope"),
    ]
    rec.to_csv(outdir / "energy.csv")
    _write_json(outdir / "fits.json",
                {"rho_linf": asdict(rho_fit), "u_linf": asdict(u_fit)})
    files = ["energy.csv", "fits.json"]
    if cfg.store_fields:
        files += _store_fields(b.res, outdir)
    notes = [] if all(v.passed for v in verdicts) else [_DECAY_LAW_NOTE]
    return verdicts, files, notes


@_register(
    "u-extra-lambda",
    "velocity lags the density gradient by one power of the damping clock",
    ("velocity_lag_exponent", "quasistatic_residual"),
    n=1, lam=0.5, mu=2.0, N=1024, L=360.0, R=8.0, data_order=7,
    t_final=300.0, n_snapshots=33, fit_lo=30.0, fit_hi=300.0)
def _run_u_extra_lambda(cfg: ScenarioConfig, outdir: Path):
    b = _nonlinear_run(cfg, _log_snapshots(cfg), store=True)
    _require_completed(b.res)
    rec = b.rec
    mask = rec.times > 0.0
    ratio = rec.series("u_linf")[mask] / rec.series("dv1_linf")[mask]
    fit = decay_fit(rec.times[mask], ratio, cfg.fit_lo, cfg.fit_hi)
    verdicts = [Verdict(
        name="velocity_lag_exponent", value=fit.slope, predicted=cfg.lam,
        tolerance=0.1, passed=abs(fit.slope - cfg.lam) <= 0.1,
        detail=f"power fit of |u|_inf / |dv|_inf over "
               f"[{cfg.fit_lo:g}, {cfg.fit_hi:g}], residual {fit.residual:.3g}")]

    st = b.res.snapshots[-1]
    grad_v = b.ops.grad(st.v)
    bco = damping_coeff(st.t, b.d)
    num = math.sqrt(sum(b.ops.l2(st.u[i] + grad_v[i] / bco) ** 2
                        for i in range(cfg.n)))
    den = math.sqrt(sum(b.ops.l2(st.u[i]) ** 2 for i in range(cfg.n)))
    rel = num / max(den, 1e-300)
    verdicts.append(Verdict(
        name="quasistatic_residual", value=rel, predicted=0.0, tolerance=0.1,
        passed=rel <= 0.1,
        detail=f"relative L2 misfit of u against -(1+t)^lam grad(v)/mu "
               f"at t={st.t:g}"))
    rec.to_csv(outdir / "energy.csv")
    files = ["energy.csv"]
    if cfg.store_fields:
        files += _store_fields(b.res, outdir)
    return verdicts, files, []


@_register(
    "mass-conservation",
    "exact conservation of the density excess integral",
    ("mass_drift",),
    n=1, lam=0.5, mu=2.0, N=1024, L=128.0, R=4.0, q0=0.01, data_kind="mass",
    t_final=50.0, n_snapshots=21)
def _run_mass_conservation(cfg: ScenarioConfig, outdir: Path):
    if cfg.q0 <= 0.0:
        raise ConfigError("q0: mass-conservation needs positive excess mass")
    b = _nonlinear_run(cfg, _lin_snapshots(cfg))
    _require_completed(b.res)
    mass = b.rec.series("mass")
    drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))
    verdicts = [Verdict(
        name="mass_drift", value=drift, predicted=0.0, tolerance=1e-8,
        passed=drift < 1e-8,
        detail=f"relative to M(0)={mass[0]:.6g} across {mass.size} snapshots")]
    b.rec.to_csv(outdir / "energy.csv")
    return verdicts, ["energy.csv"], []


@_register(
    "lower-bound",
    "conserved-mass lower bounds: density and velocity margins stay positive",
    ("mass_drift", "cauchy_schwarz", "moment_inequality",
     "lower_bound_rho", "lower_bound_u"),
    n=1, lam=0.5, mu=2.0, N=2048, L=440.0, R=10.0, q0=0.01, data_kind="mass",
    t_final=200.0, n_snapshots=81, fit_lo=20.0, fit_hi=200.0)
def _run_lower_bound(cfg: ScenarioConfig, outdir: Path):
    if cfg.q0 <= 0.0:
        raise ConfigError("q0: lower-bound needs positive excess mass")
    b = _nonlinear_run(cfg, _lin_snapshots(cfg))
    _require_completed(b.res)
    rec = b.rec
    t = rec.times
    mass = rec.series("mass")
    drift = float(np.max(np.abs(mass - mass[0])) / abs(mass[0]))

    cs = diagnostics.cauchy_schwarz_margin(t, rec.series("rho_l2"),
                                           cfg.q0, cfg.R, cfg.n)
    mm = diagnostics.moment_inequality_margins(t, rec.series("moment"),
                                               cfg.q0, cfg.n, b.d)
    lb = diagnostics.lower_bound_margin(t, rec.series("rho_l2"),
                                        rec.series("u_l2"), cfg.q0, cfg.R,
                                        cfg.n, t0=cfg.fit_lo)
    verdicts = [
        Verdict(name="mass_drift", value=drift, predicted=0.0, tolerance=1e-8,
                passed=drift < 1e-8,
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
                detail=f"infimum over t >= {cfg.fit_lo:g} of "
                       "|rho-1| (R+t)^(n/2) / q0; pass means clearly positive"),
        Verdict(name="lower_bound_u", value=lb["inf_u"], predicted=0.0,
                tolerance=0.01, passed=lb["inf_u"] > 0.01,
                detail=f"infimum over t >= {cfg.fit_lo:g} of "
                       "|u| (R+t)^((n+2)/2) / q0; pass means clearly positive"),
    ]
    rec.to_csv(outdir / "energy.csv")
    _write_csv(outdir / "margins.csv",
               ["t", "cauchy_schwarz", "m_rho", "m_u"],
               [t, cs, lb["m_rho"], lb["m_u"]])
    _write_csv(outdir / "moment_margins.csv",
               ["t", "margin"], [t[1:-1], mm])
    return verdicts, ["energy.csv", "margins.csv", "moment_margins.csv"], []


def _vorticity_verdicts(cfg: ScenarioConfig, rec: EnergyRecorder):
    fit = decay_fit(rec.times, rec.series("vort_l2"), cfg.fit_lo, cfg.fit_hi,
                    kind="stretched", stretch_exponent=1.0 - cfg.lam)
    pred = -cfg.mu / (1.0 - cfg.lam)
    return fit, [
        Verdict(name="vorticity_rate", value=fit.slope, predicted=pred,
                tolerance=abs(pred) * 0.2,
                passed=abs(fit.slope - pred) <= abs(pred) * 0.2,
                detail=f"slope of log |omega|_2 against (1+t)^{1.0 - cfg.lam:g} "
                       f"over [{cfg.fit_lo:g}, {cfg.fit_hi:g}]"),
        Verdict(name="vorticity_fit_residual", value=fit.residual,
                predicted=0.0, tolerance=0.1, passed=fit.residual < 0.1,
                detail="rms residual of the stretched-exponential fit"),
    ]


@_register(
    "vorticity-2d",
    "stretched-exponential vorticity decay for rotational data in the plane",
    ("vorticity_rate", "vorticity_fit_residual", "irrotational_floor"),
    n=2, lam=0.5, mu=1.0, N=256, L=68.0, R=12.0, eps=1e-3,
    data_kind="rotational", t_final=50.0, n_snapshots=26,
    fit_lo=5.0, fit_hi=50.0)
def _run_vorticity_2d(cfg: ScenarioConfig, outdir: Path):
    if cfg.n < 2:
        raise ConfigError("n: vorticity scenarios need n >= 2")
    b = _nonlinear_run(cfg, _lin_snapshots(cfg))
    _require_completed(b.res)
    fit, verdicts = _vorticity_verdicts(cfg, b.rec)

    cfg2 = replace(cfg, data_kind="potential", t_final=5.0, n_snapshots=6)
    b2 = _nonlinear_run(cfg2, _lin_snapshots(cfg2))
    _require_completed(b2.res)
    floor = float(np.max(b2.rec.series("vort_l2") / b2.rec.series("du1_l2")))
    verdicts.append(Verdict(
        name="irrotational_floor", value=floor, predicted=0.0,
        tolerance=1e-10, passed=floor < 1e-10,
        detail="max over snapshots of |omega|_2 / |grad u|_2 for potential data"))

    b.rec.to_csv(outdir / "energy.csv")
    b2.rec.to_csv(outdir / "energy_irrotational.csv")
    _write_json(outdir / "fits.json", {"vort_l2": asdict(fit)})
    return verdicts, ["energy.csv", "energy_irrotational.csv", "fits.json"], []


@_register(
    "vorticity-3d",
    "stretched-exponential vorticity decay in three dimensions",
    ("vorticity_rate", "vorticity_fit_residual"),
    n=3, lam=0.5, mu=1.0, N=128, L=40.0, R=12.0, eps=1e-3,
    data_kind="rotational", t_final=12.0, n_snapshots=13,
    fit_lo=2.0, fit_hi=12.0)
def _run_vorticity_3d(cfg: ScenarioConfig, outdir: Path):
    if cfg.n != 3:
        raise ConfigError("n: vorticity-3d runs in three dimensions")
    b = _nonlinear_run(cfg, _lin_snapshots(cfg))
    _require_completed(b.res)
    fit, verdicts = _vorticity_verdicts(cfg, b.rec)
    b.rec.to_csv(outdir / "energy.csv")
    _write_json(outdir / "fits.json", {"vort_l2": asdict(fit)})
    return verdicts, ["energy.csv", "fits.json"], []


@_register(
    "q-decay",
    "decay rate and quadratic smallness of the wave-form source",
    ("q_l1_slope_cap", "q_eps_scaling"),
    n=1, lam=0.5, mu=2.0, gamma=2.0, eps=1e-3, N=2048, L=256.0, R=4.0,
    data_order=7, t_final=1.0e3, n_snapshots=41, fit_lo=1.0e2, fit_hi=1.0e3)
def _run_q_decay(cfg: ScenarioConfig, outdir: Path):
    snaps = _log_snapshots(cfg)
    b1 = _nonlinear_run(cfg, snaps, with_source=True)
    _require_completed(b1.res)
    b2 = _nonlinear_run(replace(cfg, eps=2.0 * cfg.eps), snaps, with_source=True)
    _require_completed(b2.res)

    cap = -b1.spec.B - (1.0 + cfg.lam) / 2.0 + 0.15
    fit = decay_fit(b1.rec.times, b1.rec.series("src_l1"), cfg.fit_lo, cfg.fit_hi)
    verdicts = [Verdict(
        name="q_l1_slope_cap", value=fit.slope, predicted=cap, tolerance=0.0,
        passed=fit.slope <= cap,
        detail="one-sided: pass when the fitted L1 source slope is at most "
               f"the cap; residual {fit.residual:.3g}")]

    sel = b1.rec.times >= 10.0
    ratios = b2.rec.series("src_l1")[sel] / b1.rec.series("src_l1")[sel]
    med = float(np.median(ratios))
    verdicts.append(Verdict(
        name="q_eps_scaling", value=med, predicted=4.0, tolerance=0.6,
        passed=3.4 <= med <= 4.6,
        detail="median over t >= 10 of the L1 source ratio under doubling "
               "of the data amplitude"))

    b1.rec.to_csv(outdir / "energy.csv")
    b2.rec.to_csv(outdir / "energy_eps2.csv")
    _write_json(outdir / "fits.json", {"src_l1": asdict(fit)})
    return verdicts, ["energy.csv", "energy_eps2.csv", "fits.json"], []


@_register(
    "convolution-lemma",
    "time-convolution inequality ratios stabilize in the long-time limit",
    ("conv_2_1", "conv_1.5_1.5", "conv_3_0.5"))
def _run_convolution(cfg: ScenarioConfig, outdir: Path):
    pairs = ((2.0, 1.0), (1.5, 1.5), (3.0, 0.5))
    times = np.array([1.0, 10.0, 1e2, 1e3, 1e4])
    verdicts, cols = [], [times]
    for a, bb in pairs:
        chk = diagnostics.convolution_oracle(a, bb, times)
        m_all = float(np.max(chk.ratios))
        m_head = float(np.max(chk.ratios[:-1]))
        rel = m_all / m_head - 1.0
        verdicts.append(Verdict(
            name=f"conv_{a:g}_{bb:g}", value=rel, predicted=0.0, tolerance=0.1,
            passed=rel < 0.1,
            detail=f"max ratio {m_all:.5g}; growth of the max when the last "
                   "time decade joins"))
        cols.append(chk.ratios)
    _write_csv(outdir / "convolution.csv",
               ["t"] + [f"ratio_{a:g}_{b:g}" for a, b in pairs], cols)
    return verdicts, ["convolution.csv"], []


@_register(
    "weighted-energy-bounded",
    "time-scaled plain and weighted energies stay within their startup range",
    ("plain_low_bounded", "plain_high_bounded",
     "weighted_low_bounded", "weighted_high_bounded"),
    n=1, lam=0.5, mu=2.0, gamma=2.0, eps=1e-3, N=2048, L=256.0, R=4.0,
    data_order=7, t_final=1.0e3, n_snapshots=37)
def _run_weighted_energy(cfg: ScenarioConfig, outdir: Path):
    snaps = _log_snapshots(cfg, head=(0.2, 0.4, 0.6, 0.8))
    b = _nonlinear_run(cfg, snaps, with_weights=True)
    _require_completed(b.res)
    rec = b.rec
    early = rec.times <= 1.0
    verdicts = []
    for col, name in (("mon_low", "plain_low_bounded"),
                      ("mon_high", "plain_high_bounded"),
                      ("wmon_low", "weighted_low_bounded"),
                      ("wmon_high", "weighted_high_bounded")):
        series = rec.series(col)
        base = float(np.max(series[early]))
        peak = float(np.max(series))
        ratio = peak / base
        verdicts.append(Verdict(
            name=name, value=ratio, predicted=1.0, tolerance=10.0,
            passed=ratio <= 10.0,
            detail=f"peak of {col} over the whole run relative to its "
                   "peak on [0, 1]"))
    rec.to_csv(outdir / "energy.csv")
    return verdicts, ["energy.csv"], []


@_register(
    "blowup-scout",
    "monitors catch gradient blow-up when the damping is switched off",
    ("blowup_detected",),
    n=1, lam=0.5, mu=0.0, gamma=2.0, eps=1.2, N=512, L=40.0, R=2.0,
    data_order=1, t_final=20.0, n_snapshots=21)
def _run_blowup_scout(cfg: ScenarioConfig, outdir: Path):
    b = _nonlinear_run(cfg, _lin_snapshots(cfg))
    res = b.res
    detected = res.verdict != "completed"
    value = float(res.blowup_time) if detected else -1.0
    verdicts = [Verdict(
        name="blowup_detected", value=value, predicted=cfg.t_final,
        tolerance=0.0, passed=detected,
        detail=f"solver verdict {res.verdict!r} after {res.steps} steps; "
               "pass means a monitor tripped before t_final")]
    b.rec.to_csv(outdir / "energy.csv")
    return verdicts, ["energy.csv"], []


# =====================================================================
#  Orchestration
# =====================================================================

def _selected_names(cfg: ScenarioConfig) -> set:
    preset = PRESETS[cfg.scenario]
    if "*" in cfg.diagnostics:
        return set(preset.verdict_names)
    return set(cfg.diagnostics)


def run_dir(cfg: ScenarioConfig, base_dir=None) -> Path:
    base = Path(base_dir if base_dir is not None else cfg.outdir)
    return base / f"{cfg.scenario}-{config_digest(cfg)}"


def run_scenario(cfg: ScenarioConfig, base_dir=None) -> Report:
    """Validate, run the preset, emit report.json and summary.txt."""
    validate_config(cfg)
    outdir = run_dir(cfg, base_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    verdicts, files, notes = PRESETS[cfg.scenario].runner(cfg, outdir)
    selected = _selected_names(cfg)
    verdicts = [v for v in verdicts if v.name in selected]
    report = Report(scenario=cfg.scenario, digest=config_digest(cfg),
                    config=cfg.as_dict(), verdicts=verdicts,
                    files=sorted(set(files) | {"report.json", "summary.txt"}),
                    notes=notes)
    (outdir / "report.json").write_text(report.to_json())
    (outdir / "summary.txt").write_text(report.summary())
    return report


_AXIS_FIELDS = {"lambda": "lam", "lam": "lam", "mu": "mu", "eps": "eps",
                "N": "N", "delta": "delta"}


def _axis_value(field_name: str, raw):
    if field_name == "N":
        return int(raw)
    return float(raw)


def _sweep_worker(cfg_dict: dict, base_dir: str) -> dict:
    try:
        cfg = ScenarioConfig.from_dict(cfg_dict)
        rep = run_scenario(cfg, base_dir=base_dir)
        return {"status": "ok", "digest": rep.digest,
                "n_pass": sum(v.passed for v in rep.verdicts),
                "n_fail": sum(not v.passed for v in rep.verdicts),
                "verdicts": [asdict(v) for v in rep.verdicts],
                "error": ""}
    except Exception as e:  # per-run failures are recorded, the sweep goes on
        return {"status": "error", "digest": "", "n_pass": 0, "n_fail": 0,
                "verdicts": [], "error": f"{type(e).__name__}: {e}"}


def sweep(base: ScenarioConfig, axes: dict, base_dir=None,
          workers: int | None = None):
    """Cartesian-product runs over the given axes.

    axes maps axis names (lambda, mu, eps, N, delta) to value lists.
    Returns (per-run result dicts in product order, aggregate CSV path).
    """
    fields, value_lists = [], []
    for name, vals in axes.items():
        if name not in _AXIS_FIELDS:
            raise ConfigError(
                f"axis: unsupported axis {name!r}; "
                f"use one of lambda, mu, eps, N, delta")
        f = _AXIS_FIELDS[name]
        fields.append(f)
        value_lists.append([_axis_value(f, v) for v in vals])

    cfgs = [replace(base, **dict(zip(fields, combo)))
            for combo in itertools.product(*value_lists)]
    for c in cfgs:
        validate_config(c)

    base_str = str(base_dir if base_dir is not None else base.outdir)
    w = workers if workers is not None else base.workers
    w = min(w, os.cpu_count() or 1, len(cfgs))
    if w > 1:
        with ProcessPoolExecutor(max_workers=w) as pool:
            futures = [pool.submit(_sweep_worker, c.as_dict(), base_str)
                       for c in cfgs]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_worker(c.as_dict(), base_str) for c in cfgs]

    agg_path = Path(base_str) / f"sweep-{base.scenario}.csv"
    agg_path.parent.mkdir(parents=True, exist_ok=True)
    with open(agg_path, "w", newline="") as fh:
        wr = csv.writer(fh)
        wr.writerow(["index", "scenario"] + fields
                    + ["digest", "status", "n_pass", "n_fail", "verdicts",
                       "error"])
        for j, (cfg, res) in enumerate(zip(cfgs, results)):
            vtext = ";".join(
                f"{v['name']}={v['value']!r}:{'PASS' if v['passed'] else 'FAIL'}"
                for v in res["verdicts"])
            wr.writerow([j, cfg.scenario]
                        + [repr(getattr(cfg, f)) for f in fields]
                        + [res["digest"], res["status"], res["n_pass"],
                           res["n_fail"], vtext, res["error"]])
    return results, agg_path


# =====================================================================
#  CLI
# =====================================================================

def _load_config(arg: str, overrides, outdir) -> ScenarioConfig:
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
        name, value = _coerce(key.strip(), text)
        updates[name] = value
    if updates:
        cfg = replace(cfg, **updates)
    if outdir is not None:
        cfg = replace(cfg, outdir=outdir)
    return cfg


def _parse_axes(items) -> dict:
    axes = {}
    for item in items:
        name, sep, text = item.partition("=")
        if not sep or not text:
            raise ConfigError(f"--axis: expected NAME=v1,v2,..., got {item!r}")
        axes[name.strip()] = [v for v in text.split(",") if v]
    if not axes:
        raise ConfigError("--axis: at least one axis is required")
    return axes


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.overrides, args.outdir)
    report = run_scenario(cfg)
    sys.stdout.write(report.summary())
    print(f"run directory: {run_dir(cfg)}")
    return 0 if report.all_passed else 1


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.overrides, args.outdir)
    axes = _parse_axes(args.axis)
    results, agg = sweep(cfg, axes, workers=args.workers)
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
    p_run.add_argument("--outdir", default=None)

    p_sw = sub.add_parser("sweep", help="Cartesian-product runs over axes")
    p_sw.add_argument("config")
    p_sw.add_argument("--axis", action="append", default=[],
                      metavar="NAME=V1,V2,...",
                      help="sweep axis: lambda, mu, eps, N or delta")
    p_sw.add_argument("--set", dest="overrides", action="append", default=[],
                      metavar="KEY=VALUE")
    p_sw.add_argument("--outdir", default=None)
    p_sw.add_argument("--workers", type=int, default=None)

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
