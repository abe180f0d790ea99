"""Discrete-event simulation substrate.

A minimal but complete event-driven kernel used by both the adversarial
throughput arena (Section 6) and the HTM machine simulator (Section 8.2):
a stable binary-heap event queue, a simulator facade with scheduling
helpers, and an online mean/variance accumulator.

:mod:`repro.sim.mc` adds the batched struct-of-arrays Monte-Carlo
engine: :func:`run_trials` executes thousands of independent
transaction trials per NumPy array op, bit-identical to the scalar
``TimedArena`` reference.
"""

from __future__ import annotations

from repro.sim.engine import EventQueue, Simulator
from repro.sim.mc import TrialProgram, TrialResults, run_trials
from repro.sim.stats import Welford

__all__ = [
    "EventQueue",
    "Simulator",
    "Welford",
    "TrialProgram",
    "TrialResults",
    "run_trials",
]
