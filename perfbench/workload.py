"""Workloads, one pass over a workload's presets, and the checks that
gate every pass.

Run as a script this is the benchmark's workload process; ``run.py``
starts it and reads the JSON object it prints last:

    python3 perfbench/workload.py run WORKLOAD --seconds S --trace 0|1
        timed passes for S seconds; with --trace 1 one traced pass after
    python3 perfbench/workload.py record
        rewrite reference.json from the current code (every workload)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import NUMERIC_REF_S, Calibrator, numeric_kernel

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
STATE = ROOT / ".perfbench"
DIGESTS = STATE / "digests.json"

# Each workload is a list of presets run at catalog defaults, serially,
# in one process.  README.md says why each was chosen.
WORKLOADS = {
    "linear-decay": ("linear-decay",),
    "nonlinear-decay": ("nonlinear-decay",),
    "vorticity-2d": ("vorticity-2d",),
    "short-presets": ("zone-bounds", "zone-integrals", "mass-conservation",
                      "lower-bound", "u-extra-lambda", "convolution-lemma",
                      "blowup-scout"),
}

# Verdict drift that performance work may cause (ROADMAP): absolute on
# fitted slopes and rates, relative elsewhere.
KERNEL_SLOPE_ABS = 0.005
FITTED_ABS = 0.01
FITTED = {"rho_slope", "u_slope", "slope_difference", "velocity_lag_exponent",
          "z3_decay_rate", "vorticity_rate", "alpha_exponent_gap"}
OTHER_REL = 1e-3


def import_harness():
    """Import eulerlab from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    from eulerlab import harness
    if Path(harness.__file__).resolve().parents[1] != SRC:
        raise ImportError(f"eulerlab imported from {harness.__file__}, "
                          f"not from {SRC}")
    return harness


# =====================================================================
#  Correctness
# =====================================================================

def verdict_problems(preset: str, ref: list, got: list) -> list:
    """Mismatches between a run's verdicts and the recorded reference.

    passed must agree everywhere.  Values are compared with the drift
    above, except where the reference lies below the verdict's own
    tolerance (floors, drifts, residuals, tail fractions): there only
    passed is compared.
    """
    if [r["name"] for r in ref] != [v.name for v in got]:
        return [f"{preset}: verdicts {[v.name for v in got]} != "
                f"reference {[r['name'] for r in ref]}"]
    out = []
    for r, v in zip(ref, got):
        where = f"{preset}/{v.name}"
        if bool(v.passed) != r["passed"]:
            out.append(f"{where}: passed={v.passed}, reference {r['passed']}")
            continue
        if abs(r["value"]) < r["tolerance"]:
            continue
        diff = abs(v.value - r["value"])
        if v.name.startswith("kernel_decay_"):
            ok, rule = diff <= KERNEL_SLOPE_ABS, f"abs {KERNEL_SLOPE_ABS}"
        elif v.name in FITTED:
            ok, rule = diff <= FITTED_ABS, f"abs {FITTED_ABS}"
        else:
            ok, rule = diff <= OTHER_REL * abs(r["value"]), f"rel {OTHER_REL}"
        if not ok:  # also catches NaN
            out.append(f"{where}: value {v.value!r} vs reference "
                       f"{r['value']!r} ({rule})")
    return out


def output_digest(rundir: Path) -> dict:
    """sha256 of report.json and every CSV: the byte-identity contract."""
    files = sorted(p for p in rundir.rglob("*")
                   if p.name == "report.json" or p.suffix == ".csv")
    return {str(p.relative_to(rundir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in files}


def source_digest() -> str:
    """Hash of src/, which keys the byte-identity record across runs."""
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


@dataclass
class PassResult:
    wall_s: float           # reference seconds (hostspeed.py)
    raw_s: float            # seconds on this host, sampling excluded
    factor: float = 1.0     # host-speed factor: wall_s / raw_s
    attempted: int = 0
    failed: int = 0
    bytes_written: int = 0
    problems: list = field(default_factory=list)


def run_pass(harness, cfgs, workdir: Path, reference: dict,
             seen: dict, cal=None) -> PassResult:
    """Run every config once through harness.run_scenario, then check.

    Only the run_scenario calls are timed.  With a started Calibrator
    ``cal`` the time excludes its sampling and is scaled to reference
    seconds; without one the pass is timed on perf_counter as it is.
    An operation (one preset run) fails if it raises, if a verdict
    leaves its reference, or if report.json or a CSV differs in bytes
    from an earlier run of the same config recorded in ``seen``
    (preset -> digest; filled in here on first sight).
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outcomes = []
    clock = cal.clock if cal else perf_counter
    mark = cal.mark() if cal else None
    t0 = clock()
    for cfg in cfgs:
        try:
            outcomes.append((cfg, harness.run_scenario(cfg, base_dir=workdir), None))
        except Exception as e:  # a failed operation; the pass goes on
            outcomes.append((cfg, None, f"{type(e).__name__}: {e}"))
    raw = clock() - t0
    factor = cal.factor(mark) if cal else 1.0
    res = PassResult(wall_s=raw * factor, raw_s=raw, factor=factor)

    for cfg, report, error in outcomes:
        name = cfg.scenario
        res.attempted += 1
        if error is not None:
            probs = [f"{name}: raised {error}"]
        else:
            probs = verdict_problems(name, reference[name], report.verdicts)
            rundir = harness.run_dir(cfg, workdir)
            res.bytes_written += sum(p.stat().st_size
                                     for p in rundir.rglob("*") if p.is_file())
            digest = output_digest(rundir)
            if seen.setdefault(name, digest) != digest:
                probs.append(f"{name}: report.json/CSV bytes differ from an "
                             "earlier run of the same config")
        res.failed += bool(probs)
        res.problems += probs
    shutil.rmtree(workdir, ignore_errors=True)
    return res


def load_digests(key: str) -> dict:
    """Output digests recorded by earlier runs of the same src/."""
    known = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return known.get(key, {})


def save_digests(key: str, seen: dict):
    """Merge ``seen`` into the record; digests recorded first are kept."""
    STATE.mkdir(exist_ok=True)
    known = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name, digest in seen.items():
        known.setdefault(key, {}).setdefault(name, digest)
    tmp = STATE / f"digests-{os.getpid()}.tmp"
    tmp.write_text(json.dumps(known, sort_keys=True))
    tmp.replace(DIGESTS)


def work_dir() -> Path:
    """Scratch directory for run output, private to this process."""
    return STATE / f"work-{os.getpid()}"


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())["presets"]


def reference_entry(report) -> list:
    """What reference.json records of one preset run."""
    return [{"name": v.name, "value": v.value, "tolerance": v.tolerance,
             "passed": bool(v.passed)} for v in report.verdicts]


# =====================================================================
#  Child process roles
# =====================================================================

def working_set(cfg) -> dict:
    """Computed bytes of one grid field and of the (v, u) state."""
    return {"preset": cfg.scenario, "n": cfg.n, "N": cfg.N,
            "field_bytes": 8 * cfg.N ** cfg.n,
            "state_bytes": 8 * (cfg.n + 1) * cfg.N ** cfg.n}


def cmd_run(args) -> dict:
    harness = import_harness()
    import numpy
    import scipy

    cfgs = [harness.preset_config(name) for name in WORKLOADS[args.workload]]
    reference = load_reference()
    workdir = work_dir()
    key = source_digest()
    seen = load_digests(key)

    cal = Calibrator(numeric_kernel(), NUMERIC_REF_S)
    cal.start()
    try:
        passes = []
        start = perf_counter()
        while True:
            passes.append(run_pass(harness, cfgs, workdir, reference, seen, cal))
            if (perf_counter() - start + max(p.raw_s for p in passes)
                    > args.seconds):
                break
        walls = [p.wall_s for p in passes]
        out = {"walls": walls, "raw_walls": [p.raw_s for p in passes],
               "factors": [p.factor for p in passes],
               "counts": None, "layers": None}
        if args.trace:
            from spans import Tracer
            tracer = Tracer(clock=cal.clock)
            tracer.install()
            try:
                p = run_pass(harness, cfgs, workdir, reference, seen, cal)
            finally:
                tracer.uninstall()
            passes.append(p)
            untraced = statistics.median(walls)
            layers = tracer.layer_metrics(scale=p.factor)
            layers.update({
                "harness.bytes_written": p.bytes_written,
                "trace.wall_s": p.wall_s,
                "trace.untraced_wall_s": untraced,
                "trace.overhead_s": p.wall_s - untraced,
                "trace.overhead_pct": 100.0 * (p.wall_s - untraced) / untraced,
                "trace.coverage_pct": 100.0 * tracer.covered_s() / p.raw_s,
            })
            out["layers"] = layers
            out["counts"] = tracer.counts()
    finally:
        cal.stop()

    save_digests(key, seen)
    out.update({
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "problems": [s for p in passes for s in p.problems],
        "bytes_written": passes[0].bytes_written,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "versions": {"python": sys.version.split()[0],
                     "numpy": numpy.__version__, "scipy": scipy.__version__},
        "working_set": [working_set(c) for c in cfgs],
        "source_digest": key,
    })
    return out


def cmd_record(args) -> dict:
    """Write reference.json: every verdict of every preset in every
    workload, from one run of the current code."""
    harness = import_harness()
    workdir = work_dir()
    presets = {}
    for names in WORKLOADS.values():
        for name in names:
            shutil.rmtree(workdir, ignore_errors=True)
            report = harness.run_scenario(harness.preset_config(name),
                                          base_dir=workdir)
            presets[name] = reference_entry(report)
    shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE.write_text(json.dumps({"presets": presets}, indent=1) + "\n")
    return {"recorded": sorted(presets)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="role", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("workload", choices=WORKLOADS)
    p_run.add_argument("--seconds", type=float, required=True)
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    sub.add_parser("record")
    args = parser.parse_args(argv)
    role = {"run": cmd_run, "record": cmd_record}[args.role]
    print(json.dumps(role(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
