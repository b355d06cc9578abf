"""Numerical laboratory for the isentropic compressible Euler system
with time-decaying friction mu/(1+t)^lam.

Modules:
  params      damping and gas laws, derived weight constants, frequency zones
  grids       periodic grids and spectral calculus
  linear      per-mode analysis of the damped wave equation
  euler       pseudo-spectral nonlinear solver and initial data
  diagnostics norm recorders, weighted energies, decay fits, oracles
  harness     scenario presets, reports and the command line interface
"""

from . import diagnostics, euler, grids, harness, linear, params
from .euler import EulerState, SolverConfig, initial_bump, run
from .grids import Grid, SpectralOps
from .harness import ScenarioConfig, preset_config, run_scenario, sweep
from .params import DampingLaw, GasLaw, WeightSpec, Zone, derive_constants

__all__ = [
    "params", "grids", "linear", "euler", "diagnostics", "harness",
    "DampingLaw", "GasLaw", "WeightSpec", "Zone", "derive_constants",
    "Grid", "SpectralOps",
    "EulerState", "SolverConfig", "run", "initial_bump",
    "ScenarioConfig", "preset_config", "run_scenario", "sweep",
]

__version__ = "0.1.0"
