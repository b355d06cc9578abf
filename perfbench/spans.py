"""Span tracer that wraps eulerlab's public functions from outside.

Nothing in ``src/`` knows about it: ``install`` replaces module and
class attributes with timing wrappers and ``uninstall`` puts the
originals back.  Each wrapper records one span per call on a stack, so
a span's self time is its duration minus the spans it caused, and the
(parent, child) call counts give ratios such as FFT calls per RHS.

Only the traced run uses it.  Timed runs never install it.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

# Span names in reporting order.  params is closed-form, is called only
# inside euler.rhs, and is deliberately left unwrapped.
SPANS = (
    "grids.fwd", "grids.inv",
    "euler.rhs", "euler.step", "euler.run",
    "linear.evolve_modes", "linear.kernel_decay_check", "linear.zone_integral",
    "diagnostics.recorder", "diagnostics.to_csv",
    "diagnostics.convolution_oracle", "diagnostics.decay_fit",
    "harness.run_scenario",
)


class Tracer:
    """Per-span totals: calls, inclusive and self seconds, counters."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        # name -> [calls, total seconds, self seconds]
        self.acc = {name: [0, 0.0, 0.0] for name in SPANS}
        self.edges: dict = {}          # (parent, child) -> calls
        self.counters = {"fft_bytes": 0, "steps": 0, "sim_t": 0.0,
                         "mode_outputs": 0}
        self._stack: list = []
        self._undo: list = []

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        acc = self.acc[name]
        stack = self._stack
        edges = self.edges
        clock = self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = (parent[0], name)
                    edges[key] = edges.get(key, 0) + 1
            if after is not None:
                after(args, kwargs, out)
            return out
        return span

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the public functions of grids, euler, linear, diagnostics
        and harness.  Call uninstall() to restore them."""
        import numpy as np
        from eulerlab import diagnostics, euler, harness, linear
        from eulerlab.grids import SpectralOps

        c = self.counters

        def fft_bytes(args, kwargs, out):
            c["fft_bytes"] += args[1].nbytes + out.nbytes

        def run_steps(args, kwargs, out):
            c["steps"] += out.steps
            c["sim_t"] += out.t_end - args[0].t

        sig = inspect.signature(linear.evolve_modes)

        def mode_outputs(args, kwargs, out):
            bound = sig.bind(*args, **kwargs).arguments
            c["mode_outputs"] += int(np.size(bound["r"]) * np.size(bound["t_out"]))

        plan = (
            (SpectralOps, "fwd", "grids.fwd", fft_bytes),
            (SpectralOps, "inv", "grids.inv", fft_bytes),
            (euler, "rhs", "euler.rhs", None),
            (euler, "step", "euler.step", None),
            (euler, "run", "euler.run", run_steps),
            (linear, "evolve_modes", "linear.evolve_modes", mode_outputs),
            (linear, "kernel_decay_check", "linear.kernel_decay_check", None),
            (linear, "zone_integral", "linear.zone_integral", None),
            (diagnostics.EnergyRecorder, "__call__", "diagnostics.recorder", None),
            (diagnostics.EnergyRecorder, "to_csv", "diagnostics.to_csv", None),
            (diagnostics, "convolution_oracle", "diagnostics.convolution_oracle",
             None),
            (harness, "run_scenario", "harness.run_scenario", None),
        )
        for owner, attr, name, after in plan:
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], name, after))
        # harness imports decay_fit by name, so patch both namespaces with
        # one wrapper
        fit = self._wrap(diagnostics.decay_fit, "diagnostics.decay_fit")
        self._patch(diagnostics, "decay_fit", fit)
        self._patch(harness, "decay_fit", fit)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------

    def calls(self, name: str) -> int:
        return self.acc[name][0]

    def total_s(self, name: str) -> float:
        return self.acc[name][1]

    def self_s(self, name: str) -> float:
        return self.acc[name][2]

    def counts(self) -> dict:
        """Everything deterministic: calls per span, parent/child call
        counts and the work counters.  Two traced runs of the same code
        give identical counts."""
        return {
            "calls": {name: self.calls(name) for name in SPANS},
            "edges": {f"{p}>{c}": k for (p, c), k in sorted(self.edges.items())},
            "steps": self.counters["steps"],
            "mode_outputs": self.counters["mode_outputs"],
            "fft_bytes": self.counters["fft_bytes"],
        }

    def layer_metrics(self, scale: float = 1.0) -> dict:
        """Per-layer metrics by name (values only).  Times are multiplied
        by ``scale``, the traced pass's host-speed factor, so they are in
        the reference seconds of hostspeed.py.  Ratios over zero calls
        read 0."""
        def per(num, den, unit=1.0):
            return unit * num / den if den else 0.0

        def total_s(name):
            return scale * self.total_s(name)

        def self_s(name):
            return scale * self.self_s(name)

        fft = ("grids.fwd", "grids.inv")
        fft_calls = sum(self.calls(s) for s in fft)
        rhs_calls = self.calls("euler.rhs")
        rhs_ffts = sum(self.edges.get(("euler.rhs", s), 0) for s in fft)
        rec_calls = self.calls("diagnostics.recorder")
        c = self.counters
        return {
            "grids.fwd.calls": self.calls("grids.fwd"),
            "grids.inv.calls": self.calls("grids.inv"),
            "grids.fft.self_s": sum(self_s(s) for s in fft),
            "grids.fft.us_per_call": per(sum(total_s(s) for s in fft),
                                         fft_calls, 1e6),
            "grids.fft.per_rhs": per(rhs_ffts, rhs_calls),
            "grids.fft.mb_computed": c["fft_bytes"] / 1e6,
            "euler.rhs.calls": rhs_calls,
            "euler.rhs.self_s": self_s("euler.rhs"),
            "euler.rhs.us_per_call": per(total_s("euler.rhs"), rhs_calls, 1e6),
            "euler.step.calls": self.calls("euler.step"),
            "euler.step.per_unit_t": per(c["steps"], c["sim_t"]),
            "euler.run.calls": self.calls("euler.run"),
            "euler.run.self_s": self_s("euler.run"),
            "linear.evolve_modes.calls": self.calls("linear.evolve_modes"),
            "linear.evolve_modes.mode_outputs": c["mode_outputs"],
            "linear.evolve_modes.self_s": self_s("linear.evolve_modes"),
            "linear.kernel_decay_check.calls": self.calls("linear.kernel_decay_check"),
            "linear.kernel_decay_check.self_s": self_s("linear.kernel_decay_check"),
            "linear.zone_integral.calls": self.calls("linear.zone_integral"),
            "diagnostics.recorder.calls": rec_calls,
            "diagnostics.recorder.self_s": self_s("diagnostics.recorder"),
            "diagnostics.recorder.ms_per_snapshot": per(
                total_s("diagnostics.recorder"), rec_calls, 1e3),
            "diagnostics.to_csv.calls": self.calls("diagnostics.to_csv"),
            "diagnostics.convolution_oracle.calls":
                self.calls("diagnostics.convolution_oracle"),
            "diagnostics.decay_fit.calls": self.calls("diagnostics.decay_fit"),
            "diagnostics.decay_fit.self_s": self_s("diagnostics.decay_fit"),
            "harness.run_scenario.calls": self.calls("harness.run_scenario"),
            "harness.run_scenario.self_s": self_s("harness.run_scenario"),
        }

    def covered_s(self) -> float:
        """Self time summed over every span: the traced time the named
        layers account for."""
        return sum(a[2] for a in self.acc.values())
