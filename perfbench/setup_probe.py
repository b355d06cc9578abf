"""One set-up sample, in a fresh interpreter.

    python3 perfbench/setup_probe.py PRESET...

Times what a CLI user pays on every invocation: importing
eulerlab.harness (and with it numpy and scipy) from this checkout's
src/ and validating the named presets' configs.  Nothing but os, sys,
time, signal and hostspeed.py is imported before the clock starts.
The interval is sampled with hostspeed.python_kernel, which needs no
numpy.  Prints one JSON object: ``setup_s`` in reference seconds,
``raw_s`` on this host, and the host-speed ``factor`` between them.
"""

import os
import sys

from hostspeed import PYTHON_REF_S, Calibrator, python_kernel

PERIOD_S = 0.01


def main() -> int:
    cal = Calibrator(python_kernel, PYTHON_REF_S, PERIOD_S)
    cal.start()
    try:
        mark, t0 = cal.mark(), cal.clock()
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.join(root, "src")
        sys.path.insert(0, src)
        from eulerlab import harness
        for name in sys.argv[1:]:
            harness.validate_config(harness.preset_config(name))
        raw = cal.clock() - t0
        factor = cal.factor(mark)
    finally:
        cal.stop()

    if os.path.dirname(os.path.dirname(os.path.abspath(harness.__file__))) != src:
        print(f"eulerlab imported from {harness.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    import json
    print(json.dumps({"setup_s": raw * factor, "raw_s": raw, "factor": factor}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
