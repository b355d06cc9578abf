"""eulerlab benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With --trace 0 it reports the
end-to-end metrics of BENCHMARK.json (wall_s, setup_s, peak_rss_mb);
with --trace 1 the per-layer metrics of a separately traced pass.  Times
are in the reference seconds of hostspeed.py, so that the host's drifting
speed does not show as a change of the program's cost.  Every
preset run is checked against reference.json and for byte-identical
output.  The last line of stdout is the result object; the line before
it holds the machine stamp, the raw samples and the deterministic
counters.  README.md describes the workloads and every metric.

The presets are deterministic and take no random input, so --seed is
only recorded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from workload import HERE, ROOT, SRC, WORKLOADS

SETUP_SAMPLES = 7
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(nproc: int) -> dict:
    """Environment for the child processes: thread counts capped at nproc,
    and bytecode caching on, as for an installed package, so set-up time
    does not depend on whether the caller disabled it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in THREAD_VARS:
        try:
            want = int(env.get(var, nproc))
        except ValueError:
            want = nproc
        env[var] = str(max(1, min(want, nproc)))
    return env


def child(script, args, env, deadline) -> dict:
    """Run a script of this directory in a fresh interpreter; return the
    JSON object on its last line of output."""
    proc = subprocess.run([sys.executable, str(HERE / script), *args],
                          cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"{script} {' '.join(args)} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _size_bytes(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}
    text = text.strip()
    return int(text[:-1]) * scale[text[-1]] if text[-1] in scale else int(text)


def machine_stamp(nproc: int) -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = _size_bytes((idx / "size").read_text())
        except (OSError, ValueError):
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            caches[f"l{level}_bytes"] = size
    return {"nproc": nproc, "cpu_model": model, "platform": platform.platform(),
            **caches}


def git_commit():
    """HEAD of the checkout if it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eulerlab" / "__init__.py").is_file():
        print(f"no eulerlab package under {SRC}; run from the root of an "
              "eulerlab checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    deadline = monotonic() + TIME_LIMIT_S
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)

    presets = list(WORKLOADS[args.workload])
    probes = []
    if not args.trace:
        child("setup_probe.py", presets, env, deadline)    # warm the file cache
        probes = [child("setup_probe.py", presets, env, deadline)
                  for _ in range(SETUP_SAMPLES)]
    setup = [p["setup_s"] for p in probes]
    res = child("workload.py", ["run", args.workload, "--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, deadline)

    if args.trace:
        values, group = res["layers"], spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(res["walls"]),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": res["peak_rss_kib"] / 1024.0}
        group = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in group}
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} do not "
                           "match BENCHMARK.json")

    stamp = machine_stamp(nproc)
    l2 = stamp.get("l2_bytes")
    for ws in res["working_set"]:
        ws["field_over_l2"] = ws["field_bytes"] / l2 if l2 else None
    detail = {
        "workload": args.workload, "presets": presets,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "stamp": {**stamp, **res["versions"],
                  "threads": {v: env[v] for v in THREAD_VARS},
                  "git_commit": git_commit(),
                  "source_digest": res["source_digest"]},
        "working_set": res["working_set"],
        "samples": {"wall_s": res["walls"], "raw_wall_s": res["raw_walls"],
                    "wall_factor": res["factors"], "setup_s": setup,
                    "raw_setup_s": [p["raw_s"] for p in probes],
                    "setup_factor": [p["factor"] for p in probes]},
        "bytes_written": res["bytes_written"],
        "counts": res["counts"],
        "problems": res["problems"],
    }
    for problem in res["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
