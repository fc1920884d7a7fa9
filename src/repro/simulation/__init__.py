"""Simulators that account for routing and congestion control (paper Section 5)."""

from repro.simulation.capacity import link_capacities
from repro.simulation.fluid import FluidResult, SimulationConfig, simulate_fluid
from repro.simulation.aimd import (
    AimdConfig,
    AimdResult,
    measure_convergence_round,
    simulate_aimd,
)

__all__ = [
    "FluidResult",
    "SimulationConfig",
    "simulate_fluid",
    "AimdConfig",
    "AimdResult",
    "measure_convergence_round",
    "simulate_aimd",
    "link_capacities",
]
