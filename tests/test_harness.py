"""Tests for scenario configs, reports, sweeps and the command line.

The heavier presets are exercised through the shared session fixtures in
conftest; here we cover the orchestration contract: validation messages,
digest stability, artifact layout, exit codes and sweep aggregation.
"""

import concurrent.futures
import contextlib
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import read_csv_columns, run_preset
from eulerlab import euler, harness
from eulerlab.diagnostics import FitQualityWarning
from eulerlab.grids import SpectralOps
from eulerlab.linear import AliasingWarning
from eulerlab.harness import (
    ConfigError, Report, ScenarioConfig, Verdict, config_digest,
    main, preset_config, run_dir, run_scenario, sweep,
)

# the catalog in order, each preset with the verdicts its report lists
PRESET_VERDICTS = {
    "linear-decay": ("kernel_decay_k0", "kernel_decay_k1", "band_tail_fraction"),
    "zone-bounds": ("z1_ratio_drift", "z2_ratio_drift", "z3_decay_rate"),
    "zone-integrals": ("z1_a0_ratio_spread", "z1_a2_ratio_spread",
                       "alpha_exponent_gap"),
    "nonlinear-decay": ("rho_slope", "u_slope", "slope_difference"),
    "u-extra-lambda": ("velocity_lag_exponent", "quasistatic_residual"),
    "mass-conservation": ("mass_drift",),
    "lower-bound": ("mass_drift", "cauchy_schwarz", "moment_inequality",
                    "lower_bound_rho", "lower_bound_u"),
    "vorticity-2d": ("vorticity_rate", "vorticity_fit_residual",
                     "irrotational_floor"),
    "vorticity-3d": ("vorticity_rate", "vorticity_fit_residual"),
    "q-decay": ("q_l1_slope_cap", "q_eps_scaling"),
    "convolution-lemma": ("conv_2_1", "conv_1.5_1.5", "conv_3_0.5"),
    "weighted-energy-bounded": ("plain_low_bounded", "plain_high_bounded",
                                "weighted_low_bounded", "weighted_high_bounded"),
    "blowup-scout": ("blowup_detected",),
}


# ---------------------------------------------------------------------
#  Catalog and configuration
# ---------------------------------------------------------------------

def test_preset_catalog_is_frozen():
    assert list(harness.PRESETS) == list(PRESET_VERDICTS)
    for name in PRESET_VERDICTS:
        cfg = preset_config(name)
        assert cfg.scenario == name
        harness.validate_config(cfg)
        assert harness.PRESETS[name].description


def test_preset_config_overrides():
    cfg = preset_config("nonlinear-decay", N=512, eps=2e-3)
    assert cfg.N == 512 and cfg.eps == 2e-3
    assert cfg.scenario == "nonlinear-decay"
    with pytest.raises(ConfigError):
        preset_config("not-a-preset")


def test_from_dict_round_trip():
    cfg = preset_config("mass-conservation")
    assert ScenarioConfig.from_dict(cfg.as_dict()) == cfg
    # every value is an int, a float or a string, so JSON keeps it as it is
    for cfg in [preset_config(name) for name in PRESET_VERDICTS] \
            + [preset_config("nonlinear-decay", delta=0.25)]:
        assert ScenarioConfig.from_dict(json.loads(json.dumps(cfg.as_dict()))) == cfg
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenario": "mass-conservation", "zap": 1})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"N": 256})


def test_from_dict_types_values_like_set():
    cfg = ScenarioConfig.from_dict(
        {"scenario": "nonlinear-decay", "L": 256, "N": "512", "delta": "0.1",
         "data_kind": "mass"})
    assert cfg.L == 256.0 and isinstance(cfg.L, float)
    assert cfg.N == 512 and cfg.delta == 0.1 and cfg.data_kind == "mass"
    assert ScenarioConfig.from_dict(
        {"scenario": "nonlinear-decay", "delta": 1}).delta == 1.0
    # no field takes null or none: delta is a float like any other
    for key, value in (("N", 3.5), ("N", True), ("L", "far"), ("L", [1.0]),
                       ("data_kind", 1), ("data_kind", None), ("N", None),
                       ("delta", {}), ("delta", True), ("delta", None),
                       ("delta", "none"), ("delta", "null")):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"scenario": "nonlinear-decay", key: value})
        assert str(err.value).startswith(f"{key}:")
    # the output tree is an argument of run_scenario, not a config key
    with pytest.raises(ConfigError, match=r"^config: unknown keys \['outdir'\]"):
        ScenarioConfig.from_dict({"scenario": "nonlinear-decay", "outdir": 5})


@pytest.mark.parametrize("data", [5, "abc", [1, 2], None])
def test_from_dict_refuses_a_non_object(data, tmp_path, capsys):
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(data)
    assert str(err.value).startswith("config: expected a JSON object, got ")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: config: expected a JSON object")


def test_cli_override_coercion():
    cfg = harness._load_config(
        "nonlinear-decay",
        ["lam=0.3", "N=512", "delta=0.1", "data_kind=potential"])
    assert cfg.lam == 0.3
    assert cfg.N == 512 and isinstance(cfg.N, int)
    assert cfg.delta == 0.1
    assert cfg.data_kind == "potential"

    for bad in (["bogus=1"], ["store_fields=on"], ["dealias=on"], ["N"],
                ["delta=none"]):
        with pytest.raises(ConfigError):
            harness._load_config("nonlinear-decay", bad)
    with pytest.raises(ConfigError):
        harness._load_config("neither-preset-nor-file", [])


@pytest.mark.parametrize("overrides, field", [
    (dict(n=4), "n:"),
    (dict(lam=1.0), "lam:"),
    (dict(mu=-1.0), "mu:"),
    (dict(gamma=1.0), "gamma:"),
    (dict(delta=5.0), "delta:"),
    (dict(L=-3.0), "L:"),
    (dict(N=1000), "N:"),
    (dict(N=8), "N:"),
    (dict(R=130.0), "R:"),
    (dict(eps=-1e-3), "eps:"),
    (dict(q0=-0.1), "q0:"),
    (dict(data_kind="wat"), "data_kind:"),
    (dict(eps=0.0), "eps:"),   # nonlinear-decay needs eps > 0
    (dict(t_final=0.0), "t_final:"),
    (dict(n_snapshots=1), "n_snapshots:"),
    (dict(fit_lo=50.0, fit_hi=5.0), "fit_lo/fit_hi:"),
    (dict(R=0.0), "R:"),
    (dict(delta=math.inf), "delta:"),
    (dict(lam=math.nan), "lam:"),
    (dict(jitter=-0.1), "jitter:"),
    (dict(fit_lo=-1.0), "fit_lo/fit_hi:"),
    (dict(n=0), "n:"),
    (dict(n=3), "N:"),   # 2048^3 points: over the grid budget, never allocated
    (dict(t_final=math.nan), "t_final:"),
    (dict(eps=math.nan), "eps:"),
    (dict(mu=math.nan), "mu:"),
    (dict(delta=math.nan), "delta:"),
    (dict(L=math.inf), "L:"),
    (dict(fit_hi=math.inf), "fit_hi:"),
    (dict(data_kind="rotational"), "data_kind:"),   # rotational data at n = 1
    (dict(mu=2e6), "mu:"),   # past linear.MAGNUS_MU_MAX
])
def test_validate_config_field_messages(overrides, field):
    cfg = replace(preset_config("nonlinear-decay"), **overrides)
    with pytest.raises(ConfigError) as err:
        harness.validate_config(cfg)
    assert str(err.value).startswith(field)
    if any(isinstance(v, float) and not math.isfinite(v)
           for v in overrides.values()):
        assert str(err.value).startswith(f"{field} must be finite")


@pytest.mark.parametrize("item, field", [
    ("N=abc", "N:"), ("delta=x", "delta:"),
    ("dealias=maybe", "dealias:"),   # no longer a field: rejected by name
    ("store_fields=maybe", "store_fields:"),   # likewise
])
def test_override_parse_errors_name_the_field(item, field, capsys):
    with pytest.raises(ConfigError) as err:
        harness._load_config("nonlinear-decay", [item])
    assert str(err.value).startswith(field)
    assert main(["run", "nonlinear-decay", "--set", item]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")


def test_validate_config_unknown_scenario():
    with pytest.raises(ConfigError, match="scenario:"):
        harness.validate_config(ScenarioConfig(scenario="bogus"))


def test_config_digest_ignores_plumbing():
    # the output tree is an argument of run_dir, not part of the config:
    # it names the parent of the run directory, never the digest
    a = preset_config("nonlinear-decay")
    c = preset_config("nonlinear-decay", eps=2e-3)
    da, dc = config_digest(a), config_digest(c)
    assert da != dc
    assert len(da) == 12 and all(ch in "0123456789abcdef" for ch in da)
    assert run_dir(a) == Path("runs") / f"nonlinear-decay-{da}"
    assert run_dir(a, "here") == Path("here") / f"nonlinear-decay-{da}"
    assert run_dir(a, base_dir="x") == Path("x") / f"nonlinear-decay-{da}"
    # pinned: a change of the hashed payload renames every run directory
    assert config_digest(preset_config("convolution-lemma")) == "25c0a5884c52"


# the options that left the config, each at the one value every preset
# ran it at
REMOVED_KEYS = {"cfl": 0.4, "dt_override": None, "r_cut": 1.0,
                "diagnostics": ["*"], "store_fields": False}


@pytest.mark.parametrize("key", ["outdir", "workers", *REMOVED_KEYS])
def test_plumbing_is_no_config_key(key, tmp_path, capsys):
    # the output tree and the worker count are the --outdir and --workers
    # flags alone, and the step, band and output options are gone; as
    # --set or JSON keys they are unknown fields
    out = tmp_path / "runs"
    argv = ["run", "convolution-lemma", "--set", f"{key}=3", "--outdir", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: {key}: not a config field")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"scenario": "convolution-lemma",
                                key: REMOVED_KEYS.get(key, 3)}))
    assert main(["run", str(path), "--outdir", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"config error: config: unknown keys ['{key}']")
    assert not out.exists()


# ---------------------------------------------------------------------
#  Reports
# ---------------------------------------------------------------------

def _toy_report():
    return Report(
        scenario="toy", digest="abc123abc123",
        config={"scenario": "toy"},
        verdicts=[
            Verdict(name="alpha", value=1.0, predicted=1.0, tolerance=0.1,
                    passed=True, detail="close enough"),
            Verdict(name="beta", value=9.0, predicted=1.0, tolerance=0.1,
                    passed=False),
        ],
        files=["report.json", "summary.txt"],
        notes=["one-line note"])


def test_report_json_round_trip():
    rep = _toy_report()
    back = Report.from_json(rep.to_json())
    assert back.scenario == rep.scenario
    assert back.digest == rep.digest
    assert back.verdicts == rep.verdicts
    assert back.files == rep.files
    assert back.notes == rep.notes
    assert not rep.all_passed


def test_report_summary_rendering():
    text = _toy_report().summary()
    assert "[PASS] alpha" in text
    assert "[FAIL] beta" in text
    assert "close enough" in text
    assert "overall  : FAIL (1/2 passed)" in text
    assert "note: one-line note" in text

    empty = Report(scenario="toy", digest="d", config={}, verdicts=[],
                   files=["report.json"])
    assert "no verdicts" in empty.summary()
    assert "overall  : PASS (0/0 passed)" in empty.summary()


# ---------------------------------------------------------------------
#  run_scenario artifacts
# ---------------------------------------------------------------------

def test_run_scenario_artifacts(conv_run):
    rep = conv_run.report
    assert rep.scenario == "convolution-lemma"
    assert rep.all_passed
    assert rep.files == ["convolution.csv", "report.json", "summary.txt"]
    for name in rep.files:
        assert (conv_run.outdir / name).exists()
    assert conv_run.outdir.name == f"convolution-lemma-{rep.digest}"
    stored = Report.from_json((conv_run.outdir / "report.json").read_text())
    assert stored.verdicts == rep.verdicts
    live = preset_config("convolution-lemma")
    assert stored.config == rep.config == live.as_dict()
    assert ScenarioConfig.from_dict(stored.config) == live
    summary = (conv_run.outdir / "summary.txt").read_text()
    assert "overall  : PASS" in summary
    assert {v.name for v in rep.verdicts} == {
        "conv_2_1", "conv_1.5_1.5", "conv_3_0.5"}


def test_run_scenario_rejects_invalid_config(tmp_path):
    cfg = preset_config("mass-conservation", N=48)
    with pytest.raises(ConfigError):
        run_scenario(cfg, tmp_path)
    assert list(tmp_path.iterdir()) == []


# each preset's declared domain, dims (allowed n) and positive fields,
# and rotational data at n = 1, which no preset accepts
DOMAIN_CASES = [
    ("linear-decay", {"n": 2}, "n:"),
    ("zone-bounds", {"mu": 0.0}, "mu:"),
    ("zone-bounds", {"lam": 0.0}, "lam:"),
    ("zone-integrals", {"mu": 0.0}, "mu:"),
    ("mass-conservation", {"q0": 0.0}, "q0:"),
    ("lower-bound", {"q0": 0.0}, "q0:"),
    ("vorticity-2d", {"n": 1}, "n:"),
    ("vorticity-3d", {"n": 2}, "n:"),
    ("nonlinear-decay", {"data_kind": "rotational"}, "data_kind:"),
    # zero data: a fit would take the logarithm of 0, or a ratio 0/0
    ("nonlinear-decay", {"eps": 0.0}, "eps:"),
    ("q-decay", {"eps": 0.0}, "eps:"),
    ("weighted-energy-bounded", {"eps": 0.0}, "eps:"),
    ("u-extra-lambda", {"eps": 0.0}, "eps:"),
    ("vorticity-2d", {"eps": 0.0}, "eps:"),
    ("vorticity-3d", {"eps": 0.0}, "eps:"),
    # friction past linear.MAGNUS_MU_MAX: the Magnus substeps would
    # shorten without end, and at mu = 1e34 stop advancing t
    ("linear-decay", {"mu": 1e34}, "mu:"),
]


@pytest.mark.parametrize(
    "name, overrides, field", DOMAIN_CASES,
    ids=[f"{name}-{field[:-1]}" for name, _, field in DOMAIN_CASES])
def test_run_scenario_runner_config_error_leaves_no_directory(
        name, overrides, field, tmp_path, capsys):
    # outside its domain a preset is refused by validation, before
    # run_scenario or the CLI makes any directory
    cfg = preset_config(name, **overrides)
    with pytest.raises(ConfigError, match=f"^{field}"):
        run_scenario(cfg, tmp_path)
    argv = ["run", name, "--outdir", str(tmp_path)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")
    assert list(tmp_path.iterdir()) == []


# strong friction: in the first two the friction's growth over a step
# passed 709 in the exponent, where math.exp overflowed in the step rule;
# lower-bound at the same friction as nonlinear-decay ran before too
STRONG_FRICTION = [
    ("nonlinear-decay", {"lam": 0.0, "mu": 5.0}),
    ("u-extra-lambda", {"lam": 0.05, "mu": 50.0}),
    ("lower-bound", {"lam": 0.0, "mu": 5.0}),
]


@pytest.mark.parametrize("name, overrides", STRONG_FRICTION,
                         ids=[name for name, _ in STRONG_FRICTION])
def test_strong_friction_ends_in_passing_verdicts(name, overrides, tmp_path,
                                                  capsys):
    argv = ["run", name, "--outdir", str(tmp_path)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_zone_bounds_under_strong_friction_ends_in_verdicts(tmp_path, capsys):
    # at mu = 50 the z3 amplitude falls to 2e-166 by t = 200: its squares
    # underflowed to 0 and decay_fit raised on them; to t_final = 100 the
    # band mu/4 (1+t)^-lam holds every sampled radius up to 1 and no
    # sample falls in zone Z2, where the runner raised RuntimeError.  The
    # z3 mode is overdamped early on, so its stretched fit is poor
    with pytest.warns(FitQualityWarning):
        assert main(["run", "zone-bounds", "--set", "mu=50",
                     "--outdir", str(tmp_path / "a")]) == 1
    (run,) = (tmp_path / "a").iterdir()
    z3 = {v.name: v for v in Report.from_json(
        (run / "report.json").read_text()).verdicts}["z3_decay_rate"]
    assert math.isfinite(z3.value)
    with pytest.warns(FitQualityWarning):
        assert main(["run", "zone-bounds", "--set", "mu=50", "--set",
                     "t_final=100", "--outdir", str(tmp_path / "b")]) == 1
    (run,) = (tmp_path / "b").iterdir()
    verdicts = {v.name: v for v in Report.from_json(
        (run / "report.json").read_text()).verdicts}
    z2 = verdicts["z2_ratio_drift"]
    assert not z2.passed and math.isnan(z2.value)
    assert z2.detail.startswith("no samples fell in zone Z2")
    assert math.isfinite(verdicts["z1_ratio_drift"].value)
    assert (run / "modes.csv").exists()
    assert "Traceback" not in capsys.readouterr().err
    # past the Magnus engine's range from t = 0 (lam = 0.9, mu = 1e4),
    # where _substeps raised, and with zone envelopes so small that the
    # constant's fit overflowed in obs / env
    for i, sets in enumerate((("lam=0.9", "mu=1e4"), ("mu=50", "lam=0.1"),
                              ("lam=0.05", "mu=10"))):
        argv = ["run", "zone-bounds", "--outdir", str(tmp_path / f"c{i}")]
        for item in sets:
            argv += ["--set", item]
        with pytest.warns(FitQualityWarning), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 1
        (run,) = (tmp_path / f"c{i}").iterdir()
        assert tuple(v.name for v in Report.from_json(
            (run / "report.json").read_text()).verdicts) \
            == PRESET_VERDICTS["zone-bounds"]
        assert "Traceback" not in capsys.readouterr().err


# configs that validated and then ended in a traceback: past the Magnus
# engine's range (from t = 0 at lam = 0.9, mu = 1e4; from t = 4656 at
# lam = 0.05, mu = 50), and data whose band-limited start state has no
# positive density.  Each ends in failing verdicts, with the warnings
# named here
TRACEBACK_CASES = {
    "linear-decay-past-range": ("linear-decay", {"lam": 0.9, "mu": 1e4},
                                FitQualityWarning),
    "zone-integrals-past-range": ("zone-integrals", {"lam": 0.9, "mu": 1e4},
                                  None),
    "linear-decay-late-past-range": ("linear-decay", {"lam": 0.05, "mu": 50.0},
                                     FitQualityWarning),
    "nonlinear-decay-vacuum": ("nonlinear-decay", {"eps": 100.0, "N": 64},
                               AliasingWarning),
}


@pytest.mark.parametrize("name, overrides, warns", TRACEBACK_CASES.values(),
                         ids=list(TRACEBACK_CASES))
def test_configs_that_raised_end_in_verdicts(name, overrides, warns, tmp_path,
                                             capsys):
    argv = ["run", name, "--outdir", str(tmp_path)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    with pytest.warns(warns) if warns else contextlib.nullcontext(), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(argv) == 1
    assert "Traceback" not in capsys.readouterr().err
    (run,) = tmp_path.iterdir()
    verdicts = Report.from_json((run / "report.json").read_text()).verdicts
    if name == "nonlinear-decay":
        # the recorder's first snapshot finds no positive density
        (v,) = verdicts
        assert (v.name, v.value, v.passed) == ("solver_completed", 0.0, False)
        assert v.detail == "state corresponds to nonpositive density at t=0"
        # the recorder table is written, as when a solve stops early
        assert "energy.csv" in Report.from_json(
            (run / "report.json").read_text()).files
    else:
        assert tuple(v.name for v in verdicts) == PRESET_VERDICTS[name]
        assert all(math.isfinite(v.value) for v in verdicts)


def test_rerun_replaces_its_directory(tmp_path):
    cfg = preset_config("convolution-lemma")
    first = run_scenario(cfg, tmp_path)
    stray = run_dir(cfg, tmp_path) / "stray.txt"
    stray.write_text("left by hand\n")
    second = run_scenario(cfg, tmp_path)
    assert not stray.exists()
    assert second.files == first.files == [
        "convolution.csv", "report.json", "summary.txt"]


# fit windows the snapshot schedule cannot fill, keyed by test id: without
# the check, each run would solve in full and then fail in a fit or in
# lower-bound's margins
FIT_WINDOW_CASES = {
    "nonlinear-decay": ("nonlinear-decay", {"t_final": 50.0}),
    "linear-decay": ("linear-decay", {"t_final": 10.0}),
    "u-extra-lambda": ("u-extra-lambda", {"fit_lo": 290.0}),
    "vorticity-2d": ("vorticity-2d", {"t_final": 4.0}),
    "q-decay": ("q-decay", {"n_snapshots": 5}),
    # geomspace(1, 0.5) runs downward: t_final = 0.5 is the one sample
    "linear-decay-before-1": ("linear-decay", {"t_final": 0.5, "fit_lo": 0.5,
                                               "fit_hi": 1.0}),
    "lower-bound-past-t_final": ("lower-bound", {"fit_lo": 300.0,
                                                 "fit_hi": 400.0}),
    "lower-bound-one-sample": ("lower-bound", {"n_snapshots": 2}),
    "zone-bounds-short": ("zone-bounds", {"t_final": 6.0}),
    # geomspace(1, 0.5) runs downward here too
    "zone-bounds-before-1": ("zone-bounds", {"t_final": 0.5}),
}


@pytest.mark.parametrize("name, overrides", FIT_WINDOW_CASES.values(),
                         ids=list(FIT_WINDOW_CASES))
def test_unfillable_fit_window_is_a_config_error(name, overrides, tmp_path,
                                                 capsys):
    cfg = preset_config(name, **overrides)
    with pytest.raises(ConfigError, match=r"^fit_lo/fit_hi: .* holds \d of"):
        run_scenario(cfg, tmp_path)
    argv = ["run", name, "--outdir", str(tmp_path)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: fit_lo/fit_hi:")
    assert list(tmp_path.iterdir()) == []


def test_only_presets_that_read_the_window_declare_a_schedule():
    reading = {name for name, p in harness.PRESETS.items() if p.schedule}
    assert reading == {"linear-decay", "zone-bounds", "nonlinear-decay",
                       "u-extra-lambda", "lower-bound", "vorticity-2d",
                       "vorticity-3d", "q-decay"}
    # a preset that fits nothing ignores the window: mass-conservation's
    # default [10, 100] already reaches past its t_final = 50
    harness.validate_config(preset_config("mass-conservation", fit_lo=500.0,
                                          fit_hi=600.0))


@pytest.mark.parametrize("fixture", ["nonlinear_run", "vort2d_run",
                                     "lower_bound_run", "linear_lambda_runs"])
def test_fit_times_are_the_recorded_times(fixture, request):
    # the samples a run writes are exactly the times validation counts,
    # after the start row of a recorder table
    handle = request.getfixturevalue(fixture)
    if fixture == "linear_lambda_runs":
        handle, table, start = handle[0.5], "decay.csv", []
    else:
        table, start = "energy.csv", [0.0]
    cfg = harness.ScenarioConfig.from_dict(handle.report.config)
    assert list(handle.csv_columns(table)["t"]) == start + harness._schedule(cfg)


def test_linear_decay_predicts_the_registered_rates(linear_lambda_runs):
    # the kernel slopes are compared with -(1-lam)(n+k)/2: -0.25 and -0.5
    # at lam = 0.5
    predicted = {lam: tuple(h.verdict(f"kernel_decay_k{k}").predicted
                            for k in (0, 1))
                 for lam, h in linear_lambda_runs.items()}
    assert predicted[0.5] == (-0.25, -0.5)
    for lam, (k0, k1) in predicted.items():
        assert k0 == pytest.approx(-(1.0 - lam) / 2.0, rel=1e-15)
        assert k1 == pytest.approx(-(1.0 - lam), rel=1e-15)


def _failing_fit(*args, **kwargs):
    raise ValueError("the fit failed")


def test_failing_runner_leaves_no_directory(tmp_path, capsys, monkeypatch):
    # the solve completes and writes energy.csv, then the fit raises;
    # neither the API nor the CLI leaves that half-filled run
    monkeypatch.setattr(harness, "decay_fit", _failing_fit)
    cfg = preset_config("nonlinear-decay", t_final=50.0, fit_lo=5.0,
                        fit_hi=50.0)
    with pytest.raises(ValueError, match="the fit failed"):
        run_scenario(cfg, tmp_path)
    assert not run_dir(cfg, tmp_path).exists()
    argv = ["run", "nonlinear-decay", "--set", "t_final=50", "--set",
            "fit_lo=5", "--set", "fit_hi=50", "--outdir", str(tmp_path)]
    assert main(argv) == 2
    assert "ValueError" in capsys.readouterr().err
    assert not run_dir(cfg, tmp_path).exists()


EARLY_STOP = ["mu=0", "eps=0.456004240068952", "N=512", "L=40", "R=2",
              "t_final=20", "fit_lo=1", "fit_hi=20"]


def test_early_stop_is_a_failing_verdict(tmp_path, capsys):
    argv = ["run", "nonlinear-decay", "--outdir", str(tmp_path)]
    for item in EARLY_STOP:
        argv += ["--set", item]
    assert main(argv) == 1
    assert "[FAIL] solver_completed" in capsys.readouterr().out

    cfg = harness._load_config("nonlinear-decay", EARLY_STOP)
    rep = Report.from_json((run_dir(cfg, tmp_path) / "report.json").read_text())
    assert len(rep.verdicts) == 1
    v = rep.verdicts[0]
    assert v.name == "solver_completed" and not v.passed
    assert 0.0 < v.value < 20.0
    assert v.predicted == 20.0 and v.tolerance == 0.0
    assert v.detail.startswith("solver verdict 'blowup-") and "steps" in v.detail
    assert rep.files == ["energy.csv", "report.json", "summary.txt"]
    energy = read_csv_columns(run_dir(cfg, tmp_path) / "energy.csv")
    assert energy["t"][-1] < 20.0

    results, agg = sweep(cfg, {"eps": ["0.456004240068952"]}, tmp_path)
    assert results[0]["status"] == "ok"
    assert (results[0]["n_pass"], results[0]["n_fail"]) == (0, 1)


def test_one_band_ops_per_solve(tmp_path, monkeypatch):
    # the recorder forms its columns on the stepper's band ops, so a
    # solve holds one set of band tables and buffers, not two (a second
    # would take about 60 MB at 128^3).  vorticity-2d on a shorter
    # horizon: two solves
    made, per_solve = [], []
    init, solve = SpectralOps.__init__, euler.run

    def tracked(self, grid, band=False):
        init(self, grid, band)
        if band:
            made.append(self)

    def counted(*args, **kwargs):
        before = len(made)
        res = solve(*args, **kwargs)
        per_solve.append(len(made) - before)
        return res

    monkeypatch.setattr(SpectralOps, "__init__", tracked)
    monkeypatch.setattr(euler, "run", counted)
    handle = run_preset("vorticity-2d", tmp_path, t_final=10.0,
                        n_snapshots=11, fit_lo=1.0, fit_hi=10.0)
    assert handle.report.all_passed
    assert per_solve == [1, 1]
    assert len(made) == 2


def test_early_outputs_complete_the_rotational_run(tmp_path):
    # rotational data keep v near rounding level, so a tail taken over v
    # alone is noise: it stopped this run at t = 0.5 after 2 steps.  The
    # monitor reads the band spectrum of v and u together
    handle = run_preset("vorticity-2d", tmp_path, t_final=5.0,
                        n_snapshots=11, fit_lo=1.0, fit_hi=5.0)
    names = [v.name for v in handle.report.verdicts]
    assert "solver_completed" not in names and "vorticity_rate" in names
    assert handle.report.all_passed


# every preset but vorticity-3d at catalog defaults; the expensive ones
# come from the session fixtures that other tests already run, and the
# rest are run once, on first use, into the session's run tree
_SESSION_RUNS = {
    "nonlinear-decay": "nonlinear_run", "q-decay": "qdecay_run",
    "lower-bound": "lower_bound_run", "vorticity-2d": "vort2d_run",
    "convolution-lemma": "conv_run", "zone-integrals": "zone_integrals_run",
}
_CATALOG = [n for n in PRESET_VERDICTS if n != "vorticity-3d"]


@pytest.fixture(scope="session")
def cheap_runs():
    """Runs of the presets without a session fixture, by name."""
    return {}


def _preset_run(name, request):
    if name == "linear-decay":
        return request.getfixturevalue("linear_lambda_runs")[0.5]
    if name in _SESSION_RUNS:
        return request.getfixturevalue(_SESSION_RUNS[name])
    made = request.getfixturevalue("cheap_runs")
    if name not in made:
        made[name] = run_preset(name, request.getfixturevalue("runs_base"))
    return made[name]


@pytest.mark.parametrize("name", _CATALOG)
def test_report_lists_registered_verdicts(name, request):
    handle = _preset_run(name, request)
    assert tuple(v.name for v in handle.report.verdicts) == PRESET_VERDICTS[name]


@pytest.mark.parametrize("name", _CATALOG)
def test_digest_hashes_the_recorded_config(name, request):
    # report.json records the config its digest hashes, and nothing else
    handle = _preset_run(name, request)
    stored = json.loads((handle.outdir / "report.json").read_text())
    for config in (handle.report.config, stored["config"]):
        text = json.dumps(config, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest()[:12] \
            == handle.report.digest == stored["digest"]


@pytest.mark.parametrize("name", _CATALOG)
def test_decay_law_note_only_on_decay_law_presets(name, request):
    # criteria 3-5 fail by design at catalog defaults, and exactly their
    # presets carry the note pointing to the decay-law discussion
    handle = _preset_run(name, request)
    # the note's trigger names verdicts that the report has
    assert set(harness.PRESETS[name].decay_law) \
        <= {v.name for v in handle.report.verdicts}
    decay_law = name in ("linear-decay", "zone-integrals", "nonlinear-decay")
    assert handle.report.notes == ([harness._DECAY_LAW_NOTE] if decay_law else [])
    assert ("note: " in (handle.outdir / "summary.txt").read_text()) == decay_law


def test_mass_conservation_preset_passes(tmp_path):
    handle = run_preset("mass-conservation", tmp_path)
    assert handle.report.all_passed
    assert handle.verdict("mass_drift").value < 1e-8


def test_blowup_scout_preset_detects(tmp_path):
    handle = run_preset("blowup-scout", tmp_path)
    assert handle.report.all_passed
    v = handle.verdict("blowup_detected")
    assert 0.0 < v.value < 20.0


# blowup-scout's trip times, at the output where the spectral-tail check
# first trips: it checks at each output and every CHECK_EVERY cfl dx of
# simulated time, so a change of that cadence moves these on purpose
BLOWUP_TRIPS = {2: 4.696518770778177, 21: 4.0, 81: 3.75, 201: 3.6}


@pytest.mark.parametrize("n_snapshots", list(BLOWUP_TRIPS))
def test_blowup_scout_trips_on_the_tail_at_pinned_times(n_snapshots, tmp_path):
    handle = run_preset("blowup-scout", tmp_path, n_snapshots=n_snapshots)
    v = handle.verdict("blowup_detected")
    assert v.value == BLOWUP_TRIPS[n_snapshots]
    assert "'blowup-tail'" in v.detail


# ---------------------------------------------------------------------
#  Sweeps
# ---------------------------------------------------------------------

def _read_rows(path):
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        return header, list(rd)


def test_sweep_serial(tmp_path):
    base = preset_config("convolution-lemma")
    results, agg = sweep(base, {"eps": ["1e-3", "2e-3"]}, tmp_path)
    assert len(results) == 2
    assert all(r["status"] == "ok" for r in results)
    assert all(r["n_fail"] == 0 for r in results)

    header, rows = _read_rows(agg)
    assert header == ["index", "scenario", "eps", "digest", "status",
                      "n_pass", "n_fail", "verdicts", "error"]
    assert [r[0] for r in rows] == ["0", "1"]
    assert rows[0][2] == repr(1e-3) and rows[1][2] == repr(2e-3)
    assert rows[0][3] == config_digest(replace(base, eps=1e-3))
    assert "conv_2_1=" in rows[0][7]
    assert rows[0][8] == ""
    for r in rows:
        assert (tmp_path / f"convolution-lemma-{r[3]}" / "report.json").exists()


def test_sweeps_into_one_tree_keep_their_tables(tmp_path):
    # each sweep names its table by its base config and axes: a second
    # sweep of the preset leaves the first one's table, a rerun replaces
    # its own
    base = preset_config("convolution-lemma")
    _, by_eps = sweep(base, {"eps": ["1e-3", "2e-3"]}, tmp_path)
    _, by_mu = sweep(base, {"mu": ["1", "3"]}, tmp_path)
    _, again = sweep(base, {"eps": ["0.001", "0.002"]}, tmp_path)
    assert by_eps != by_mu and again == by_eps
    assert sorted(tmp_path.glob("sweep-*.csv")) == sorted([by_eps, by_mu])
    assert by_eps.name.startswith("sweep-convolution-lemma-")
    assert _read_rows(by_eps)[0][2] == "eps" and _read_rows(by_mu)[0][2] == "mu"


def test_sweep_single_point_matches_run(tmp_path, conv_run):
    base = preset_config("convolution-lemma")
    results, _ = sweep(base, {"mu": ["2.0"]}, tmp_path)
    assert results[0]["status"] == "ok"
    got = {v["name"]: v["value"] for v in results[0]["verdicts"]}
    want = {v.name: v.value for v in conv_run.report.verdicts}
    assert got == want


def test_sweep_parallel_matches_serial(tmp_path):
    axes = {"eps": ["1e-3", "2e-3"]}
    base = preset_config("convolution-lemma")
    res_s, agg_s = sweep(base, axes, tmp_path / "s", workers=1)
    res_p, agg_p = sweep(base, axes, tmp_path / "p", workers=2)
    assert res_s == res_p
    assert agg_s.read_text() == agg_p.read_text()


def test_sweep_caps_workers(tmp_path, monkeypatch):
    # an oversized request must never reach the pool: it is capped by
    # the CPU count and by the number of runs; the stand-in pool runs the
    # jobs inline, so no process is started
    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

    # sweep imports the pool on its first use, from concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    axes = {"eps": ["1e-3", "2e-3", "3e-3"]}
    base = preset_config("convolution-lemma")
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    res_cpu, _ = sweep(base, axes, tmp_path, workers=100000)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    res_runs, _ = sweep(base, axes, tmp_path, workers=100000)
    assert sizes == [2, 3]
    assert res_cpu == res_runs
    assert all(r["status"] == "ok" for r in res_cpu)


def test_sweep_records_runtime_errors(tmp_path, monkeypatch):
    # a valid config whose run fails, here in the fit; the sweep records
    # an error row
    monkeypatch.setattr(harness, "decay_fit", _failing_fit)
    base = preset_config("linear-decay", t_final=1.0e3)
    results, agg = sweep(base, {"mu": ["2.0"]}, tmp_path)
    assert results[0]["status"] == "error"
    assert "ValueError" in results[0]["error"]
    header, rows = _read_rows(agg)
    assert rows[0][header.index("status")] == "error"


def test_sweep_refuses_a_cell_outside_the_domain(tmp_path, capsys):
    outdir = tmp_path / "runs"
    code = main(["sweep", "zone-bounds", "--axis", "mu=0,2",
                 "--outdir", str(outdir)])
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: mu:")
    assert not outdir.exists()


def test_sweep_over_delta(tmp_path):
    base = preset_config("convolution-lemma")
    results, agg = sweep(base, {"delta": ["0.1", "0.25"]}, tmp_path)
    assert [r["status"] for r in results] == ["ok", "ok"]
    assert results[0]["digest"] != results[1]["digest"]
    assert results[1]["digest"] == config_digest(base)
    header, rows = _read_rows(agg)
    assert [row[header.index("delta")] for row in rows] == ["0.1", "0.25"]


def test_sweep_refuses_a_negative_worker_count(tmp_path, capsys):
    with pytest.raises(ConfigError, match="^workers: must be nonnegative"):
        sweep(preset_config("convolution-lemma"), {"eps": ["1e-3"]}, tmp_path,
              workers=-1)
    assert main(["sweep", "convolution-lemma", "--axis", "eps=1e-3",
                 "--workers", "-1", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: workers:")
    assert not list(tmp_path.iterdir())


def test_sweep_rejects_bad_axes(tmp_path):
    base = preset_config("convolution-lemma")
    # an axis is a config field other than scenario, under its one name;
    # the name is checked before any value, also with no values to run
    for axis in ("lambda", "cfl", "scenario", "zap"):
        for vals in (["0.1"], []):
            with pytest.raises(ConfigError, match="^axis:"):
                sweep(base, {"eps": ["1e-3"], axis: vals}, tmp_path)
    # an axis without values would run the empty product
    with pytest.raises(ConfigError, match="^axis: 'gamma' has no values"):
        sweep(base, {"eps": ["1e-3"], "gamma": []}, tmp_path)
    # invalid values on a valid axis fail upfront, before any run
    with pytest.raises(ConfigError, match="N:"):
        sweep(base, {"N": ["8"]}, tmp_path)
    with pytest.raises(ConfigError, match="^gamma: expected float"):
        sweep(base, {"gamma": ["x"]}, tmp_path)
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------
#  Command line
# ---------------------------------------------------------------------

def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_VERDICTS:
        assert name in out


def test_cli_run_and_report(tmp_path, capsys):
    outdir = str(tmp_path)
    assert main(["run", "convolution-lemma", "--outdir", outdir]) == 0
    out = capsys.readouterr().out
    assert "overall  : PASS" in out
    assert "run directory:" in out

    rdir = str(run_dir(preset_config("convolution-lemma"), outdir))
    assert main(["report", rdir]) == 0
    assert "overall  : PASS" in capsys.readouterr().out


def test_report_bytes_do_not_depend_on_the_output_tree(tmp_path, capsys):
    reports = []
    for tree in ("a", "b"):
        out = tmp_path / tree
        assert main(["run", "convolution-lemma", "--outdir", str(out)]) == 0
        reports.append((run_dir(preset_config("convolution-lemma"), out)
                        / "report.json").read_bytes())
    capsys.readouterr()
    assert reports[0] == reports[1]


def test_cli_report_reads_a_report_that_records_plumbing(conv_run, tmp_path,
                                                         capsys):
    # report.json files from before the output tree, the worker count and
    # the removed options left the config recorded them; they still render,
    # also one with the empty verdict list that a diagnostics=() run wrote
    data = json.loads((conv_run.outdir / "report.json").read_text())
    data["config"].update(outdir="runs", workers=0, **REMOVED_KEYS)
    (tmp_path / "report.json").write_text(json.dumps(data))
    assert main(["report", str(tmp_path)]) == 0
    assert "overall  : PASS" in capsys.readouterr().out
    data["config"]["diagnostics"], data["verdicts"] = [], []
    (tmp_path / "report.json").write_text(json.dumps(data))
    assert main(["report", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "no verdicts" in out
    assert "overall  : PASS (0/0 passed)" in out


def test_cli_run_from_json_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "convolution-lemma"}))
    assert main(["run", str(cfg_path), "--outdir", str(tmp_path)]) == 0


def test_from_dict_is_the_catalog_entry_plus_its_keys():
    # a JSON config means the experiment its scenario names: the catalog
    # entry, with the keys it gives as overrides
    for name in PRESET_VERDICTS:
        assert ScenarioConfig.from_dict({"scenario": name}) == preset_config(name)
    cfg = ScenarioConfig.from_dict(
        {"scenario": "nonlinear-decay", "eps": 2e-3, "N": "512"})
    assert cfg == preset_config("nonlinear-decay", eps=2e-3, N=512)
    assert (cfg.L, cfg.R, cfg.t_final, cfg.fit_lo, cfg.fit_hi) \
        == (256.0, 4.0, 1e3, 1e2, 1e3)


def test_cli_run_from_partial_json_is_the_preset_run(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "nonlinear-decay",
                                    "eps": 7.22135932530804e-08}))
    from_json, from_set = tmp_path / "json", tmp_path / "set"
    code = main(["run", str(cfg_path), "--outdir", str(from_json)])
    assert code == main(["run", "nonlinear-decay", "--set",
                         "eps=7.22135932530804e-08", "--outdir", str(from_set)])
    name = run_dir(preset_config("nonlinear-decay", eps=7.22135932530804e-08)).name
    assert [p.name for p in from_json.iterdir()] == [name]
    assert [p.name for p in from_set.iterdir()] == [name]
    files = sorted(p.name for p in (from_set / name).iterdir())
    assert sorted(p.name for p in (from_json / name).iterdir()) == files
    for f in files:
        assert (from_json / name / f).read_bytes() == (from_set / name / f).read_bytes()


def test_cli_refuses_a_fit_window_holding_the_start_row(tmp_path, capsys):
    # u_linf is 0 at t = 0, so a window from 0 would end in a failed fit
    runs = tmp_path / "runs"
    assert main(["run", "nonlinear-decay", "--set", "fit_lo=0",
                 "--outdir", str(runs)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: fit_lo/fit_hi: need 0 < fit_lo < fit_hi")
    assert not runs.exists()


@pytest.mark.parametrize("preset, data_kind", [
    ("vorticity-2d", "rotational"), ("vorticity-2d", "potential"),
    ("mass-conservation", "mass")])
def test_cli_refuses_jitter_off_bump_data(preset, data_kind, tmp_path, capsys):
    # only bump data take the jitter, so it would change the digest alone
    runs = tmp_path / "runs"
    assert main(["run", preset, "--set", f"data_kind={data_kind}",
                 "--set", "jitter=0.1", "--outdir", str(runs)]) == 2
    assert capsys.readouterr().err.startswith("config error: jitter:")
    assert not runs.exists()
    harness.validate_config(preset_config(preset, data_kind=data_kind))
    harness.validate_config(preset_config("nonlinear-decay", jitter=0.1))


def test_python_m_eulerlab_runs_without_warnings():
    # python -m eulerlab.harness makes runpy warn that the package import
    # already loaded the module; the package's __main__ does not
    src = Path(harness.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "eulerlab",
         "list-presets"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.split()[0] == "linear-decay"


def test_cli_error_exit_codes(tmp_path, capsys):
    assert main(["run", "bogus-preset"]) == 2
    assert "config error" in capsys.readouterr().err
    assert main(["run", "convolution-lemma", "--set", "bogus=1"]) == 2
    capsys.readouterr()
    assert main(["report", str(tmp_path / "missing")]) == 2
    capsys.readouterr()
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    assert main(["run", str(bad_json)]) == 2
    capsys.readouterr()
    # JSON values are typed like --set values
    for key, value in (("N", "abc"), ("n_snapshots", 3.5)):
        typo = tmp_path / f"{key}.json"
        typo.write_text(json.dumps({"scenario": "convolution-lemma", key: value}))
        assert main(["run", str(typo)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}:")
    # lam has one name: lambda is an unknown key, in --set and in JSON
    runs = tmp_path / "runs"
    assert main(["run", "convolution-lemma", "--set", "lambda=0.3",
                 "--outdir", str(runs)]) == 2
    assert capsys.readouterr().err.startswith("config error: lambda:")
    alias = tmp_path / "alias.json"
    alias.write_text(json.dumps({"scenario": "convolution-lemma", "lambda": 0.3}))
    assert main(["run", str(alias), "--outdir", str(runs)]) == 2
    assert "unknown keys ['lambda']" in capsys.readouterr().err
    assert not runs.exists()


def test_cli_set_refuses_scenario(tmp_path, capsys):
    # --set changes a field of the named preset or file; another
    # scenario on those overrides would be neither catalog entry
    runs = tmp_path / "runs"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"scenario": "convolution-lemma"}))
    for config in ("convolution-lemma", str(cfg_path)):
        for command in ("run", "sweep"):
            argv = [command, config, "--set", "scenario=mass-conservation",
                    "--outdir", str(runs)]
            if command == "sweep":
                argv += ["--axis", "eps=1e-3"]
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith(
                "config error: --set: scenario is not an override")
    assert not runs.exists()


def test_cli_report_exit_one_on_failing_report(zone_integrals_run, capsys):
    assert main(["report", str(zone_integrals_run.outdir)]) == 1
    assert "overall  : FAIL" in capsys.readouterr().out


def test_cli_sweep_exit_codes(tmp_path, capsys):
    out = str(tmp_path / "ok")
    code = main(["sweep", "convolution-lemma", "--axis", "eps=1e-3,2e-3",
                 "--outdir", out])
    assert code == 0
    assert "2 runs, 0 errored" in capsys.readouterr().out

    code = main(["sweep", "zone-bounds", "--axis", "mu=0",
                 "--outdir", str(tmp_path / "err")])
    assert code == 2
    capsys.readouterr()

    # any config field but scenario is an axis, its values parsed like --set
    code = main(["sweep", "convolution-lemma", "--axis", "gamma=1.5,3",
                 "--outdir", str(tmp_path / "gamma")])
    assert code == 0
    assert "2 runs, 0 errored" in capsys.readouterr().out

    # a repeated axis, a removed key's name, a name that is no field,
    # scenario and an axis without values are config errors, and nothing
    # runs
    for axes in (["mu=1,2", "mu=3"], ["lambda=0.2,0.3"], ["cfl=0.1"],
                 ["scenario=blowup-scout"], ["eps=,"], ["eps=1e-3", "mu=,,"]):
        rep = tmp_path / "repeat"
        argv = ["sweep", "convolution-lemma", "--outdir", str(rep)]
        for a in axes:
            argv += ["--axis", a]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: axis:")
        assert not rep.exists()
