"""Simulated parallel execution: profiling + scheduling (Figure 6)."""

from repro.parallel.executor import (
    DEFAULT_MACHINE,
    ParallelMachine,
    program_speedup,
    simulate_parallel_for,
    simulate_sections,
)
from repro.parallel.profile import (
    ExecutionProfile,
    LoopProfile,
    ProfilingHooks,
    SectionsProfile,
    profile_execution,
)

__all__ = [
    "DEFAULT_MACHINE", "ParallelMachine", "program_speedup",
    "simulate_parallel_for", "simulate_sections", "ExecutionProfile",
    "LoopProfile", "ProfilingHooks", "SectionsProfile", "profile_execution",
]
