"""Self-test of the benchmark machinery on tiny configs (a few seconds).

    python3 perfbench/selftest.py

Run from the root of an eulerlab checkout.  It records a reference from
one untraced pass, then checks that

  * a second untraced pass against that reference fails no operation;
  * two traced passes give identical deterministic counts, and the
    counts see every layer (9 FFT calls per RHS in 1-D);
  * a deliberately altered reference value and passed flag are each
    reported as a failed operation;
  * a deliberately altered output digest is reported as a failed
    operation.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import shutil
import sys

from spans import Tracer
from workload import import_harness, reference_entry, run_pass, work_dir

# Tiny variants of three presets: a short 1-D solve with its recorder,
# the zone integrals over evolve_modes, and the convolution oracle.
TINY = (
    ("mass-conservation", {"N": 128, "L": 16.0, "R": 4.0, "t_final": 2.0,
                           "n_snapshots": 5}),
    ("zone-integrals", {}),
    ("convolution-lemma", {}),
)


def main() -> int:
    harness = import_harness()
    cfgs = [harness.preset_config(name, **kw) for name, kw in TINY]
    workdir = work_dir()
    failures = []

    def check(ok: bool, what: str):
        print(f"[{'ok' if ok else 'FAIL'}] {what}")
        if not ok:
            failures.append(what)

    try:
        reference = {cfg.scenario: reference_entry(
            harness.run_scenario(cfg, base_dir=workdir)) for cfg in cfgs}
        seen: dict = {}
        p = run_pass(harness, cfgs, workdir, reference, seen)
        check(p.attempted == 3 and p.failed == 0,
              f"untraced pass matches its reference ({p.problems})")

        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                p = run_pass(harness, cfgs, workdir, reference, seen)
            finally:
                tracer.uninstall()
            check(p.failed == 0, f"traced pass matches its reference ({p.problems})")
            counts.append(tracer.counts())
            layers = tracer.layer_metrics()
        check(counts[0] == counts[1], "two traced passes give identical counts")
        check(all(counts[0]["calls"][s] > 0 for s in (
            "grids.fwd", "euler.rhs", "euler.step", "euler.run",
            "linear.evolve_modes", "linear.zone_integral", "diagnostics.recorder",
            "diagnostics.to_csv", "diagnostics.convolution_oracle",
            "harness.run_scenario")), "every wrapped layer is called")
        check(layers["grids.fft.per_rhs"] == 9.0, "9 FFT calls per 1-D RHS")
        check(counts[0]["steps"] == counts[0]["calls"]["euler.step"],
              "RunResult.steps equals the euler.step span count")

        altered = copy.deepcopy(reference)
        altered["zone-integrals"][2]["value"] += 0.05       # a fitted slope gap
        altered["convolution-lemma"][0]["passed"] ^= True
        p = run_pass(harness, cfgs, workdir, altered, seen)
        check(p.attempted == 3 and p.failed == 2,
              f"altered reference gives 2 failed operations ({p.problems})")

        bad = copy.deepcopy(seen)
        bad["mass-conservation"]["report.json"] = "0" * 64
        p = run_pass(harness, cfgs, workdir, reference, bad)
        check(p.failed == 1, f"altered output digest gives 1 failed operation "
                             f"({p.problems})")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
