"""Tests for scenario configs, reports, sweeps and the command line.

The heavier presets are exercised through the shared session fixtures in
conftest; here we cover the orchestration contract: validation messages,
digest stability, artifact layout, exit codes and sweep aggregation.
"""

import csv
import json
import math
import os
import subprocess
import sys
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import read_csv_columns, run_preset
from eulerlab import euler, harness
from eulerlab.grids import SpectralOps
from eulerlab.harness import (
    ConfigError, Report, ScenarioConfig, Verdict, config_digest,
    main, preset_config, preset_names, run_dir, run_scenario, sweep,
)

PRESET_NAMES = [
    "linear-decay", "zone-bounds", "zone-integrals", "nonlinear-decay",
    "u-extra-lambda", "mass-conservation", "lower-bound", "vorticity-2d",
    "vorticity-3d", "q-decay", "convolution-lemma",
    "weighted-energy-bounded", "blowup-scout",
]


# ---------------------------------------------------------------------
#  Catalog and configuration
# ---------------------------------------------------------------------

def test_preset_catalog_is_frozen():
    assert preset_names() == PRESET_NAMES
    for name in PRESET_NAMES:
        cfg = preset_config(name)
        assert cfg.scenario == name
        harness.validate_config(cfg)
        assert harness.PRESETS[name].description
        assert len(harness.PRESETS[name].verdict_names) >= 1


def test_preset_config_overrides():
    cfg = preset_config("nonlinear-decay", N=512, eps=2e-3)
    assert cfg.N == 512 and cfg.eps == 2e-3
    assert cfg.scenario == "nonlinear-decay"
    with pytest.raises(ConfigError):
        preset_config("not-a-preset")


def test_from_dict_round_trip():
    cfg = preset_config("mass-conservation")
    assert ScenarioConfig.from_dict(cfg.as_dict()) == cfg
    # JSON turns the diagnostics tuple into a list; from_dict restores it
    data = json.loads(json.dumps(cfg.as_dict()))
    back = ScenarioConfig.from_dict(data)
    assert back.diagnostics == cfg.diagnostics
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"scenario": "mass-conservation", "zap": 1})
    with pytest.raises(ConfigError):
        ScenarioConfig.from_dict({"N": 256})


def test_from_dict_types_values_like_set():
    cfg = ScenarioConfig.from_dict(
        {"scenario": "nonlinear-decay", "L": 256, "N": "512", "delta": None,
         "dt_override": "none", "diagnostics": ["rho_slope"],
         "store_fields": True})
    assert cfg.L == 256.0 and isinstance(cfg.L, float)
    assert cfg.N == 512 and cfg.delta is None and cfg.dt_override is None
    assert cfg.diagnostics == ("rho_slope",) and cfg.store_fields is True
    for key, value in (("N", 3.5), ("N", True), ("L", "far"), ("L", [1.0]),
                       ("store_fields", 1), ("diagnostics", [1]),
                       ("outdir", 5), ("delta", {})):
        with pytest.raises(ConfigError) as err:
            ScenarioConfig.from_dict({"scenario": "nonlinear-decay", key: value})
        assert str(err.value).startswith(f"{key}:")


def test_from_dict_accepts_the_lambda_alias():
    cfg = ScenarioConfig.from_dict({"scenario": "convolution-lemma", "lambda": 0.3})
    assert cfg.lam == 0.3
    assert cfg == preset_config("convolution-lemma", lam=0.3)
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict(
            {"scenario": "convolution-lemma", "lam": 0.3, "lambda": 0.3})
    assert str(err.value).startswith("lam:")
    with pytest.raises(ConfigError) as err:
        ScenarioConfig.from_dict({"scenario": "convolution-lemma", "lambda": "x"})
    assert str(err.value).startswith("lam:")


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
        ["lambda=0.3", "N=512", "store_fields=on", "delta=none", "diagnostics="],
        None)
    assert cfg.lam == 0.3
    assert cfg.N == 512 and isinstance(cfg.N, int)
    assert cfg.store_fields is True
    assert cfg.delta is None
    assert cfg.diagnostics == ()

    cfg = harness._load_config("nonlinear-decay",
                               ["diagnostics=rho_slope,u_slope"], "elsewhere")
    assert cfg.diagnostics == ("rho_slope", "u_slope")
    assert cfg.outdir == "elsewhere"

    for bad in (["bogus=1"], ["store_fields=maybe"], ["dealias=on"], ["N"]):
        with pytest.raises(ConfigError):
            harness._load_config("nonlinear-decay", bad, None)
    with pytest.raises(ConfigError):
        harness._load_config("neither-preset-nor-file", [], None)


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
    (dict(data_order=0), "data_order:"),
    (dict(t_final=0.0), "t_final:"),
    (dict(n_snapshots=1), "n_snapshots:"),
    (dict(fit_lo=50.0, fit_hi=5.0), "fit_lo/fit_hi:"),
    (dict(cfl=0.6), "cfl:"),
    (dict(dt_override=0.0), "dt_override:"),
    (dict(r_cut=0.0), "r_cut:"),
    (dict(jitter=-0.1), "jitter:"),
    (dict(workers=-1), "workers:"),
    (dict(diagnostics=("no_such_verdict",)), "diagnostics:"),
    (dict(n=3), "N:"),   # 2048^3 points: over the grid budget, never allocated
    (dict(t_final=math.nan), "t_final:"),
    (dict(eps=math.nan), "eps:"),
    (dict(mu=math.nan), "mu:"),
    (dict(dt_override=math.nan), "dt_override:"),
    (dict(L=math.inf), "L:"),
    (dict(fit_hi=math.inf), "fit_hi:"),
    (dict(data_kind="rotational"), "data_kind:"),   # rotational data at n = 1
])
def test_validate_config_field_messages(overrides, field):
    cfg = replace(preset_config("nonlinear-decay"), **overrides)
    with pytest.raises(ConfigError) as err:
        harness.validate_config(cfg)
    assert str(err.value).startswith(field)


@pytest.mark.parametrize("item, field", [
    ("N=abc", "N:"), ("dt_override=x", "dt_override:"),
    ("dealias=maybe", "dealias:"),   # no longer a field: rejected by name
    ("store_fields=maybe", "store_fields:"),
])
def test_override_parse_errors_name_the_field(item, field, capsys):
    with pytest.raises(ConfigError) as err:
        harness._load_config("nonlinear-decay", [item], None)
    assert str(err.value).startswith(field)
    assert main(["run", "nonlinear-decay", "--set", item]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")


def test_validate_config_unknown_scenario():
    with pytest.raises(ConfigError, match="scenario:"):
        harness.validate_config(ScenarioConfig(scenario="bogus"))


def test_config_digest_ignores_plumbing():
    a = preset_config("nonlinear-decay", outdir="here", workers=0)
    b = preset_config("nonlinear-decay", outdir="there", workers=4)
    c = preset_config("nonlinear-decay", eps=2e-3)
    da, db, dc = config_digest(a), config_digest(b), config_digest(c)
    assert da == db
    assert da != dc
    assert len(da) == 12 and all(ch in "0123456789abcdef" for ch in da)
    assert run_dir(a) == Path("here") / f"nonlinear-decay-{da}"
    assert run_dir(a, base_dir="x") == Path("x") / f"nonlinear-decay-{da}"


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
    assert "no diagnostics selected" in empty.summary()
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
    # JSON renders the diagnostics tuple as a list; the rest is verbatim
    stored_cfg, live_cfg = dict(stored.config), dict(rep.config)
    assert tuple(stored_cfg.pop("diagnostics")) \
        == tuple(live_cfg.pop("diagnostics"))
    assert stored_cfg == live_cfg
    summary = (conv_run.outdir / "summary.txt").read_text()
    assert "overall  : PASS" in summary
    assert {v.name for v in rep.verdicts} == {
        "conv_2_1", "conv_1.5_1.5", "conv_3_0.5"}


def test_run_scenario_rejects_invalid_config(tmp_path):
    cfg = preset_config("mass-conservation", N=48, outdir=str(tmp_path))
    with pytest.raises(ConfigError):
        run_scenario(cfg)
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
]


@pytest.mark.parametrize(
    "name, overrides, field", DOMAIN_CASES,
    ids=[f"{name}-{field[:-1]}" for name, _, field in DOMAIN_CASES])
def test_run_scenario_runner_config_error_leaves_no_directory(
        name, overrides, field, tmp_path, capsys):
    # outside its domain a preset is refused by validation, before
    # run_scenario or the CLI makes any directory
    cfg = preset_config(name, outdir=str(tmp_path), **overrides)
    with pytest.raises(ConfigError, match=f"^{field}"):
        run_scenario(cfg)
    argv = ["run", name, "--outdir", str(tmp_path)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {field}")
    assert list(tmp_path.iterdir()) == []


def test_rerun_replaces_its_directory(tmp_path):
    cfg = preset_config("convolution-lemma", outdir=str(tmp_path))
    first = run_scenario(cfg)
    stray = run_dir(cfg) / "stray.txt"
    stray.write_text("left by hand\n")
    second = run_scenario(cfg)
    assert not stray.exists()
    assert second.files == first.files == [
        "convolution.csv", "report.json", "summary.txt"]


# fit windows the snapshot schedule cannot fill: the run would solve in
# full and then fail in decay_fit
FIT_WINDOW_CASES = [
    ("nonlinear-decay", {"t_final": 50.0}),
    ("linear-decay", {"t_final": 10.0}),
    ("u-extra-lambda", {"fit_lo": 290.0}),
    ("vorticity-2d", {"t_final": 4.0}),
    ("q-decay", {"n_snapshots": 5}),
]


@pytest.mark.parametrize("name, overrides", FIT_WINDOW_CASES,
                         ids=[name for name, _ in FIT_WINDOW_CASES])
def test_unfillable_fit_window_is_a_config_error(name, overrides, tmp_path,
                                                 capsys):
    cfg = preset_config(name, outdir=str(tmp_path), **overrides)
    with pytest.raises(ConfigError, match=r"^fit_lo/fit_hi: .* holds \d of"):
        run_scenario(cfg)
    argv = ["run", name, "--outdir", str(tmp_path)]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={value}"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: fit_lo/fit_hi:")
    assert list(tmp_path.iterdir()) == []


def test_only_presets_that_fit_declare_fit_times():
    fitting = {name for name, p in harness.PRESETS.items() if p.fit_times}
    assert fitting == {"linear-decay", "nonlinear-decay", "u-extra-lambda",
                       "vorticity-2d", "vorticity-3d", "q-decay"}
    # a preset that fits nothing ignores the window: mass-conservation's
    # default [10, 100] already reaches past its t_final = 50
    harness.validate_config(preset_config("mass-conservation", fit_lo=500.0,
                                          fit_hi=600.0))


@pytest.mark.parametrize("fixture", ["nonlinear_run", "vort2d_run"])
def test_fit_times_are_the_recorded_times(fixture, request):
    handle = request.getfixturevalue(fixture)
    cfg = preset_config(handle.report.scenario)
    want = harness.PRESETS[cfg.scenario].fit_times(cfg)
    assert handle.csv_columns("energy.csv")["t"] == pytest.approx(want, rel=1e-12)


def _failing_fit(*args, **kwargs):
    raise ValueError("the fit failed")


def test_failing_runner_leaves_no_directory(tmp_path, capsys, monkeypatch):
    # the solve completes and writes energy.csv, then the fit raises;
    # neither the API nor the CLI leaves that half-filled run
    monkeypatch.setattr(harness, "decay_fit", _failing_fit)
    cfg = preset_config("nonlinear-decay", t_final=50.0, fit_lo=5.0,
                        fit_hi=50.0, outdir=str(tmp_path))
    with pytest.raises(ValueError, match="the fit failed"):
        run_scenario(cfg)
    assert not run_dir(cfg).exists()
    argv = ["run", "nonlinear-decay", "--set", "t_final=50", "--set",
            "fit_lo=5", "--set", "fit_hi=50", "--outdir", str(tmp_path)]
    assert main(argv) == 2
    assert "ValueError" in capsys.readouterr().err
    assert not run_dir(cfg).exists()


EARLY_STOP = ["mu=0", "eps=1.2", "N=512", "L=40", "R=2", "data_order=1",
              "t_final=20", "fit_lo=1", "fit_hi=20"]


def test_early_stop_is_a_failing_verdict(tmp_path, capsys):
    argv = ["run", "nonlinear-decay", "--outdir", str(tmp_path)]
    for item in EARLY_STOP:
        argv += ["--set", item]
    assert main(argv) == 1
    assert "[FAIL] solver_completed" in capsys.readouterr().out

    cfg = harness._load_config("nonlinear-decay", EARLY_STOP, str(tmp_path))
    rep = Report.from_json((run_dir(cfg) / "report.json").read_text())
    assert len(rep.verdicts) == 1
    v = rep.verdicts[0]
    assert v.name == "solver_completed" and not v.passed
    assert 0.0 < v.value < 20.0
    assert v.predicted == 20.0 and v.tolerance == 0.0
    assert v.detail.startswith("solver verdict 'blowup-") and "steps" in v.detail
    assert rep.files == ["energy.csv", "report.json", "summary.txt"]
    energy = read_csv_columns(run_dir(cfg) / "energy.csv")
    assert energy["t"][-1] < 20.0

    # a diagnostics selection cannot hide the early stop
    picked = run_scenario(replace(cfg, diagnostics=("rho_slope",)))
    assert [v.name for v in picked.verdicts] == ["solver_completed"]

    results, agg = sweep(cfg, {"eps": ["1.2"]})
    assert results[0]["status"] == "ok"
    assert (results[0]["n_pass"], results[0]["n_fail"]) == (0, 1)


def test_mass_conservation_stores_fields(tmp_path):
    handle = run_preset("mass-conservation", tmp_path, store_fields=True)
    files = handle.report.files
    assert "fields/times.csv" in files
    times = read_csv_columns(handle.outdir / "fields/times.csv")["t"]
    assert times.size == 21 and times[0] == 0.0 and times[-1] == 50.0
    assert sum(f.endswith("_v.npy") for f in files) == times.size
    for name in files:
        assert (handle.outdir / name).exists()


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


# every preset but vorticity-3d; the expensive ones come from the
# session fixtures that other tests already run
_SESSION_RUNS = {
    "nonlinear-decay": "nonlinear_run", "q-decay": "qdecay_run",
    "lower-bound": "lower_bound_run", "vorticity-2d": "vort2d_run",
    "convolution-lemma": "conv_run", "zone-integrals": "zone_integrals_run",
}


def _preset_run(name, request, tmp_path):
    if name == "linear-decay":
        return request.getfixturevalue("linear_lambda_runs")[0.5]
    if name in _SESSION_RUNS:
        return request.getfixturevalue(_SESSION_RUNS[name])
    return run_preset(name, tmp_path)


@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "vorticity-3d"])
def test_report_lists_registered_verdicts(name, request, tmp_path):
    handle = _preset_run(name, request, tmp_path)
    assert [v.name for v in handle.report.verdicts] \
        == list(harness.PRESETS[name].verdict_names)


@pytest.mark.parametrize("name", [n for n in PRESET_NAMES if n != "vorticity-3d"])
def test_decay_law_note_only_on_decay_law_presets(name, request, tmp_path):
    # criteria 3-5 fail by design at catalog defaults, and exactly their
    # presets carry the note pointing to the decay-law discussion
    handle = _preset_run(name, request, tmp_path)
    decay_law = name in ("linear-decay", "zone-integrals", "nonlinear-decay")
    assert handle.report.notes == ([harness._DECAY_LAW_NOTE] if decay_law else [])
    assert ("note: " in (handle.outdir / "summary.txt").read_text()) == decay_law


def test_empty_diagnostics_selection(tmp_path):
    cfg = preset_config("convolution-lemma", diagnostics=(),
                        outdir=str(tmp_path))
    rep = run_scenario(cfg)
    assert rep.verdicts == []
    assert rep.all_passed
    assert "no diagnostics selected" in rep.summary()


def test_mass_conservation_preset_passes(tmp_path):
    handle = run_preset("mass-conservation", tmp_path)
    assert handle.report.all_passed
    assert handle.verdict("mass_drift").value < 1e-8


def test_blowup_scout_preset_detects(tmp_path):
    handle = run_preset("blowup-scout", tmp_path)
    assert handle.report.all_passed
    v = handle.verdict("blowup_detected")
    assert 0.0 < v.value < 20.0


# ---------------------------------------------------------------------
#  Sweeps
# ---------------------------------------------------------------------

def _read_rows(path):
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd)
        return header, list(rd)


def test_sweep_serial(tmp_path):
    base = preset_config("convolution-lemma", outdir=str(tmp_path))
    results, agg = sweep(base, {"eps": ["1e-3", "2e-3"]})
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


def test_sweep_single_point_matches_run(tmp_path, conv_run):
    base = preset_config("convolution-lemma", outdir=str(tmp_path))
    results, _ = sweep(base, {"mu": ["2.0"]})
    assert results[0]["status"] == "ok"
    got = {v["name"]: v["value"] for v in results[0]["verdicts"]}
    want = {v.name: v.value for v in conv_run.report.verdicts}
    assert got == want


def test_sweep_parallel_matches_serial(tmp_path):
    axes = {"eps": ["1e-3", "2e-3"]}
    base_s = preset_config("convolution-lemma", outdir=str(tmp_path / "s"))
    base_p = preset_config("convolution-lemma", outdir=str(tmp_path / "p"))
    res_s, agg_s = sweep(base_s, axes, workers=1)
    res_p, agg_p = sweep(base_p, axes, workers=2)
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

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InlinePool)
    axes = {"eps": ["1e-3", "2e-3", "3e-3"]}
    base = preset_config("convolution-lemma", outdir=str(tmp_path))
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    res_cpu, _ = sweep(base, axes, workers=100000)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    res_runs, _ = sweep(base, axes, workers=100000)
    assert sizes == [2, 3]
    assert res_cpu == res_runs
    assert all(r["status"] == "ok" for r in res_cpu)


def test_sweep_records_runtime_errors(tmp_path, monkeypatch):
    # a valid config whose run fails, here in the fit; the sweep records
    # an error row
    monkeypatch.setattr(harness, "decay_fit", _failing_fit)
    base = preset_config("linear-decay", t_final=1.0e3, outdir=str(tmp_path))
    results, agg = sweep(base, {"mu": ["2.0"]})
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


def test_sweep_over_delta_none(tmp_path):
    base = preset_config("convolution-lemma", outdir=str(tmp_path))
    results, agg = sweep(base, {"delta": ["none"]})
    assert results[0]["status"] == "ok"
    header, rows = _read_rows(agg)
    assert rows[0][header.index("delta")] == "None"


def test_sweep_rejects_bad_axes(tmp_path):
    base = preset_config("convolution-lemma", outdir=str(tmp_path))
    with pytest.raises(ConfigError, match="axis:"):
        sweep(base, {"cfl": ["0.1"]})
    # invalid values on a valid axis fail upfront, before any run
    with pytest.raises(ConfigError, match="N:"):
        sweep(base, {"N": ["8"]})
    # an axis named twice, here once through its alias, is refused too
    with pytest.raises(ConfigError, match="axis: 'lam' given twice"):
        sweep(base, {"lambda": ["0.2", "0.3"], "lam": ["0.4"]})
    assert not list(tmp_path.iterdir())


# ---------------------------------------------------------------------
#  Command line
# ---------------------------------------------------------------------

def test_cli_list_presets(capsys):
    assert main(["list-presets"]) == 0
    out = capsys.readouterr().out
    for name in PRESET_NAMES:
        assert name in out


def test_cli_run_and_report(tmp_path, capsys):
    outdir = str(tmp_path)
    assert main(["run", "convolution-lemma", "--outdir", outdir]) == 0
    out = capsys.readouterr().out
    assert "overall  : PASS" in out
    assert "run directory:" in out

    cfg = preset_config("convolution-lemma", outdir=outdir)
    rdir = str(run_dir(cfg))
    assert main(["report", rdir]) == 0
    assert "overall  : PASS" in capsys.readouterr().out


def test_cli_run_from_json_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"scenario": "convolution-lemma", "outdir": str(tmp_path)}))
    assert main(["run", str(cfg_path)]) == 0


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

    assert main(["sweep", "convolution-lemma", "--axis", "cfl=0.1",
                 "--outdir", str(tmp_path)]) == 2
    capsys.readouterr()

    # a repeated axis is a config error, directly or through the alias,
    # and nothing runs
    for axes in (["mu=1,2", "mu=3"], ["lambda=0.2,0.3", "lam=0.4"]):
        rep = tmp_path / "repeat"
        argv = ["sweep", "convolution-lemma", "--outdir", str(rep)]
        for a in axes:
            argv += ["--axis", a]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: axis:")
        assert not rep.exists()
