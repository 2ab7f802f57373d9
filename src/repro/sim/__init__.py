"""Discrete-event simulation substrate.

The engine is the foundation everything else in :mod:`repro` is built on: the
contention network (:mod:`repro.network`), the per-rank CPUs with noise
injection (:mod:`repro.sim.cpu`, :mod:`repro.noise`), and the simulated MPI
runtime (:mod:`repro.mpi`) all schedule and cancel events here.
"""

from repro.sim.engine import Engine, EventHandle, SimulationError
from repro.sim.cpu import Cpu

__all__ = [
    "Engine",
    "EventHandle",
    "SimulationError",
    "Cpu",
]
