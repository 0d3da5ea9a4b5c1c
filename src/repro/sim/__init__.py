"""Discrete-event simulation core: engine and statistics."""

from repro.sim.engine import (DeadlockError, Engine, LivenessError,
                              SimulationError, SimulationTimeout)
from repro.sim.stats import Stats

__all__ = [
    "DeadlockError",
    "Engine",
    "LivenessError",
    "SimulationError",
    "SimulationTimeout",
    "Stats",
]
