"""Exact simulator and gate-schedule compiler for Z_N lattice gauge theory.

Desk-scale reference implementation on small 2d lattices with staggered
fermions, clock-model links, and ancilla registers: the stator-based gate
schedules that realize one Trotter step, run on a state's support (its
full-space basis indices and their amplitudes, which a quench's
observables and samples read; a physical-space map runs its identity
columns as one more register), plus the optical-lattice design utilities.
Callers import from the modules; the root names only SimulationConfig.
"""

from . import lattice, algebra, stators, schedule, oracle, optical, config, drivers
from .config import SimulationConfig
