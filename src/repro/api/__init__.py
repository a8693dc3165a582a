"""The experiment API: registry, bound-driven planner, and sweep runner.

This package is the intended public entry point for running the paper's
algorithms as *experiments* rather than hand-assembled scripts:

1. :mod:`repro.api.registry` — every one-round algorithm registered with
   declared applicability and a predicted-load cost hook;
2. :mod:`repro.api.planner` — :func:`plan`/:func:`autoplan` rank the
   registered algorithms by predicted max-load (Section 3 bounds) and
   instantiate the winner, carrying the Theorem 3.6 lower bound for
   optimality-gap reporting;
3. :mod:`repro.api.experiment` — :class:`Experiment`/:class:`Sweep`
   execute declarative grids through the pluggable execution engines and
   return schema-checked :class:`RunRecord` rows (JSON/CSV exportable);
4. :mod:`repro.api.bench` — :data:`BENCH_SUITES` holds one
   :class:`BenchSuite` descriptor per pinned perf suite behind
   ``repro bench`` and the committed ``BENCH_<suite>.json`` documents
   (``core``; ``sketch``, exact-vs-sketch planner regret and fidelity;
   ``rounds``, the multi-round subsystem); :func:`run_suite` runs one by
   name; :func:`compare_bench` is the CI regression gate and
   :func:`suite_gate_failures` the per-suite absolute one.

The multi-round subsystem itself (two-round triangle, the generic
round-composed join, ``run_rounds``, the ``tradeoff`` curve) lives in
:mod:`repro.rounds`; the planner ranks its algorithms whenever
``plan(..., max_rounds >= 2)`` admits them, and :class:`Sweep` exposes
the budget as its ``rounds`` axis.

Typical use::

    from repro.api import Sweep, autoplan

    algo = autoplan("q(x,y,z) :- S1(x,z), S2(y,z)", db=db, p=32)
    result = Sweep(
        "q(x,y,z) :- S1(x,z), S2(y,z)",
        workload="zipf", p_values=(8, 32), skews=(0.0, 1.5),
    ).run(max_workers=4)
    print(result.summary())
"""

from .bench import (
    BENCH_SCHEMA,
    BENCH_SUITES,
    BenchError,
    BenchSuite,
    calibrate,
    compare_bench,
    planner_regrets,
    rounds_gate_failures,
    run_suite,
    sketch_gate_failures,
    suite_gate_failures,
    validate_bench,
)
from .experiment import (
    Cell,
    Experiment,
    ExperimentError,
    Sweep,
    SweepResult,
    WORKLOAD_KINDS,
    WorkloadSpec,
    failure_record,
    run_cell,
    sweep,
)
from .planner import (
    PlanError,
    Prediction,
    QueryPlan,
    STATS_METHODS,
    autoplan,
    plan,
    resolve_statistics,
)
from .records import (
    RUN_RECORD_FIELDS,
    RUN_RECORD_SCHEMA,
    RecordError,
    RunRecord,
    records_from_json,
    records_to_csv,
    records_to_json,
    validate_record,
)
from .registry import (
    AlgorithmSpec,
    RegistryError,
    algorithm_keys,
    algorithm_specs,
    applicable_specs,
    get_spec,
    register,
    unregister,
)

__all__ = [
    "BENCH_SCHEMA",
    "BENCH_SUITES",
    "BenchError",
    "BenchSuite",
    "calibrate",
    "compare_bench",
    "planner_regrets",
    "rounds_gate_failures",
    "run_suite",
    "sketch_gate_failures",
    "suite_gate_failures",
    "validate_bench",
    "Cell",
    "Experiment",
    "ExperimentError",
    "Sweep",
    "SweepResult",
    "WORKLOAD_KINDS",
    "WorkloadSpec",
    "failure_record",
    "run_cell",
    "sweep",
    "PlanError",
    "Prediction",
    "QueryPlan",
    "STATS_METHODS",
    "autoplan",
    "plan",
    "resolve_statistics",
    "RUN_RECORD_FIELDS",
    "RUN_RECORD_SCHEMA",
    "RecordError",
    "RunRecord",
    "records_from_json",
    "records_to_csv",
    "records_to_json",
    "validate_record",
    "AlgorithmSpec",
    "RegistryError",
    "algorithm_keys",
    "algorithm_specs",
    "applicable_specs",
    "get_spec",
    "register",
    "unregister",
]
