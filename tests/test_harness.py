"""Tests for scenario configs, reports, sweeps and the command line.

The heavier presets are exercised through the shared session fixtures in
conftest; here we cover the orchestration contract: validation messages,
digest stability, artifact layout, exit codes and sweep aggregation.
"""

import csv
import json
from concurrent.futures import Future
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import run_preset
from eulerlab import harness
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


def test_cli_override_coercion():
    cfg = harness._load_config(
        "nonlinear-decay",
        ["lambda=0.3", "N=512", "dealias=off", "delta=none", "diagnostics="],
        None)
    assert cfg.lam == 0.3
    assert cfg.N == 512 and isinstance(cfg.N, int)
    assert cfg.dealias is False
    assert cfg.delta is None
    assert cfg.diagnostics == ()

    cfg = harness._load_config("nonlinear-decay",
                               ["diagnostics=rho_slope,u_slope"], "elsewhere")
    assert cfg.diagnostics == ("rho_slope", "u_slope")
    assert cfg.outdir == "elsewhere"

    for bad in (["bogus=1"], ["dealias=maybe"], ["N"]):
        with pytest.raises(ConfigError):
            harness._load_config("nonlinear-decay", bad, None)
    with pytest.raises(ConfigError):
        harness._load_config("neither-preset-nor-file", [], None)


@pytest.mark.parametrize("overrides, field", [
    (dict(n=4), "n:"),
    (dict(lam=1.0), "lam/mu:"),
    (dict(mu=-1.0), "lam/mu:"),
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
])
def test_validate_config_field_messages(overrides, field):
    cfg = replace(preset_config("nonlinear-decay"), **overrides)
    with pytest.raises(ConfigError) as err:
        harness.validate_config(cfg)
    assert str(err.value).startswith(field)


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


def test_sweep_records_runtime_errors(tmp_path):
    # mu = 0 passes config validation (free wave) but the zone-bound
    # runner refuses it at run time; the sweep records an error row
    base = preset_config("zone-bounds", outdir=str(tmp_path))
    results, agg = sweep(base, {"mu": ["0.0"]})
    assert results[0]["status"] == "error"
    assert "ConfigError" in results[0]["error"]
    header, rows = _read_rows(agg)
    assert rows[0][header.index("status")] == "error"


def test_sweep_rejects_bad_axes(tmp_path):
    base = preset_config("convolution-lemma", outdir=str(tmp_path))
    with pytest.raises(ConfigError, match="axis:"):
        sweep(base, {"cfl": ["0.1"]})
    # invalid values on a valid axis fail upfront, before any run
    with pytest.raises(ConfigError, match="N:"):
        sweep(base, {"N": ["8"]})


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
