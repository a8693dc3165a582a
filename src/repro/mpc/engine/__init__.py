"""Pluggable execution engines for the one-round MPC simulator.

The engine subsystem separates *what* a one-round algorithm does (its
:class:`repro.mpc.execution.RoutingPlan`) from *how* the round is simulated:

``reference``
    :class:`ReferenceEngine` — the original tuple-at-a-time simulator with
    fully materialized server fragments.  Slowest; the parity oracle.
``batched``
    :class:`BatchedEngine` — routes each relation with one vectorized
    ``destinations_batch`` call, streams load accounting without fragments
    when answers are not requested, and interns tuples when they are.

Both engines are answer- and load-identical (``tests/test_engine_parity.py``);
``batched`` is the default everywhere and ``reference`` is the oracle the
parity suite checks it against.
"""

from .base import EngineError, ExecutionEngine, available_engines, resolve_engine
from .batched import BatchedEngine
from .reference import ReferenceEngine

__all__ = [
    "EngineError",
    "ExecutionEngine",
    "available_engines",
    "resolve_engine",
    "ReferenceEngine",
    "BatchedEngine",
]
