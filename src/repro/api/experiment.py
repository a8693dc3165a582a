"""Declarative experiments: one cell, a grid, or a full sweep.

The runner closes the loop the paper draws between theory and execution:
each cell generates a workload, asks the planner for predictions and the
Theorem 3.6 lower bound, runs the algorithm through a pluggable execution
engine, and lands everything in a structured :class:`RunRecord`.

* :class:`WorkloadSpec` — a deterministic workload generator
  (kind × m × skew × seed) for a query's relations.
* :class:`Experiment` — one workload × one ``p`` × some algorithms.
* :class:`Sweep` — the full grid ``p x m x skew x seed x stats x
  rounds x algorithm`` (the ``stats`` axis switches the statistics pass
  between exact frequencies and the one-pass Count-Sketch estimates;
  the ``rounds`` axis varies the planner's round budget, admitting the
  multi-round algorithms of :mod:`repro.rounds` when it exceeds 1);
  ``run(max_workers=N)`` farms the cells through the fault-isolated
  executor in :mod:`repro.service.jobs` (the same one ``repro serve``
  uses), which is safe because cells are declarative and therefore
  picklable.  A cell that raises yields a structured ``failed:<reason>``
  record, a cell past ``cell_timeout`` yields a ``timeout`` record (its
  worker process is replaced), and every healthy record is returned in
  grid order regardless.

Everything here is importable-state free: a cell is a frozen dataclass of
primitives, so sweeps can be generated on one machine and executed on
another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import product
from typing import Callable, Sequence

from ..data.generators import (
    matching_relation,
    single_value_relation,
    uniform_relation,
    zipf_relation,
)
from ..mpc.engine.base import EngineError, available_engines
from ..mpc.execution import run_one_round
from ..obs import MetricsRegistry, Observation, Tracer, maybe_timed
from ..query.atoms import ConjunctiveQuery
from ..query.parser import parse_query
from ..rounds.base import MultiRoundAlgorithm
from ..rounds.executor import MultiRoundResult, run_rounds
from ..seq.relation import Database
from ..stats.heavy_hitters import HeavyHitterStatistics
from .planner import STATS_METHODS, plan
from .records import RunRecord, records_to_csv, records_to_json
from .registry import algorithm_keys, get_spec

class ExperimentError(ValueError):
    """Raised for unsatisfiable experiment/sweep specifications."""


WORKLOAD_KINDS = ("uniform", "zipf", "worst", "matching")


@dataclass(frozen=True)
class WorkloadSpec:
    """A deterministic workload for a query: one relation per atom.

    ``kind`` selects the generator family (mirroring the CLI):

    * ``uniform`` — distinct uniform tuples over a domain of ``8 m``;
    * ``zipf`` — Zipf(``skew``) values on the last-but-one position over a
      domain of ``4 m`` (the skewed workloads of experiment E6);
    * ``worst`` — every tuple shares one join value (Example 3.3);
    * ``matching`` — every value occurs at most once per attribute (the
      skew-free instances of Lemma 3.1).

    ``domain`` overrides the kind's default domain size.
    """

    kind: str = "uniform"
    m: int = 1000
    skew: float = 1.0
    seed: int = 0
    domain: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in WORKLOAD_KINDS:
            raise ExperimentError(
                f"unknown workload kind {self.kind!r}; "
                f"choose from {', '.join(WORKLOAD_KINDS)}"
            )
        if self.m < 1:
            raise ExperimentError("workloads need m >= 1 tuples per relation")
        if self.domain is not None and self.domain < 1:
            raise ExperimentError("domain must be >= 1 when given")

    @property
    def domain_size(self) -> int:
        if self.domain is not None:
            return self.domain
        return 4 * self.m if self.kind == "zipf" else 8 * self.m

    def build(self, query: ConjunctiveQuery) -> Database:
        """Generate the database (deterministic in the spec + query)."""
        domain = self.domain_size
        relations = []
        for i, atom in enumerate(query.atoms):
            seed = self.seed + i
            if self.kind == "uniform":
                relations.append(uniform_relation(
                    atom.name, self.m, domain, arity=atom.arity, seed=seed
                ))
            elif self.kind == "zipf":
                relations.append(zipf_relation(
                    atom.name, self.m, domain, arity=atom.arity,
                    skew=self.skew, seed=seed,
                ))
            elif self.kind == "worst":
                relations.append(single_value_relation(
                    atom.name, self.m, domain, arity=atom.arity,
                    fixed_position=atom.arity - 1, seed=seed,
                ))
            else:  # matching
                relations.append(matching_relation(
                    atom.name, self.m, domain, arity=atom.arity, seed=seed
                ))
        return Database.from_relations(relations)


@dataclass(frozen=True)
class Cell:
    """One fully-resolved sweep cell — primitives only, hence picklable."""

    query: str
    workload: str
    m: int
    skew: float
    seed: int
    p: int
    algorithm: str            # a registry key, or "auto" for the planner pick
    engine: str = "batched"
    compute_answers: bool = False
    verify: bool = False
    domain: int | None = None  # generator domain override (kind default else)
    observe: bool = False      # collect a per-cell metrics block on the record
    stats: str = "exact"       # statistics method: "exact" or "sketch"
    rounds: int = 1            # the plan's round budget (max_rounds)


def _coordinates(cell: Cell) -> tuple:
    """The part of a cell that determines its database, stats and plan."""
    return (cell.query, cell.workload, cell.m, cell.skew, cell.seed,
            cell.domain, cell.p, cell.stats, cell.rounds)


def _validate_stats_method(stats: str) -> None:
    if stats not in STATS_METHODS:
        raise ExperimentError(
            f"unknown stats method {stats!r}; "
            f"choose from {', '.join(STATS_METHODS)}"
        )


def _build_statistics(query, db, p: int, stats_method: str,
                      obs: Observation | None = None):
    """The cell's statistics pass: exact frequencies or the sketch pass."""
    if stats_method == "sketch":
        from ..sketch import SketchedHeavyHitterStatistics

        return SketchedHeavyHitterStatistics.of(query, db, p, obs=obs)
    return HeavyHitterStatistics.of(query, db, p)


def _prepare(cells: Sequence[Cell], obs: Observation | None = None):
    """Shared (db, plan) context for cells at the same grid coordinates.

    Plans only the algorithms the cells actually mention ("auto" needs
    the full registry), so a single-algorithm cell never pays for
    cost-estimating the algorithms it is not running.  The statistics
    pass honors the cells' ``stats`` method and, when observing, lands
    its wall clock in the ``stats.build.seconds`` histogram.
    """
    first = cells[0]
    _validate_stats_method(first.stats)
    query = parse_query(first.query)
    workload = WorkloadSpec(
        kind=first.workload, m=first.m, skew=first.skew, seed=first.seed,
        domain=first.domain,
    )
    db = workload.build(query)
    with maybe_timed(obs, "stats.build", method=first.stats):
        stats = _build_statistics(query, db, first.p, first.stats, obs=obs)
    keys = {cell.algorithm for cell in cells}
    # ``rounds`` is the planner's budget.  Explicitly requesting a
    # multi-round algorithm opts into its round count, so the budget
    # lifts to admit every named key; only the "auto" pick is gated.
    max_rounds = first.rounds
    for key in sorted(keys - {"auto"}):
        spec = get_spec(key)
        reason = spec.applicability(query)
        if reason is not None:
            raise ExperimentError(
                f"algorithm {key!r} is not applicable to "
                f"{first.query!r}: {reason}"
            )
        max_rounds = max(max_rounds, spec.rounds(query))
    if "auto" in keys:
        query_plan = plan(query, stats, first.p, max_rounds=max_rounds)
    else:
        query_plan = plan(query, stats, first.p, algorithms=sorted(keys),
                          max_rounds=max_rounds)
    return db, query_plan


def _execute(
    cell: Cell, db: Database, query_plan,
    obs: Observation | None = None,
) -> RunRecord:
    """Run one cell's algorithm in a prepared context; build the record.

    Observability: when the cell asks for it (``cell.observe``) or a
    sweep-level ``obs`` is supplied, the round runs against a *fresh*
    per-cell :class:`~repro.obs.MetricsRegistry` whose digest becomes the
    record's ``metrics`` block; the per-cell registry is then folded into
    the sweep-level one (counters add, histograms concatenate), so both
    granularities stay exact.  Spans share the sweep tracer when there is
    one.
    """
    key = query_plan.chosen.key if cell.algorithm == "auto" else cell.algorithm
    prediction = query_plan.prediction(key)
    algorithm = query_plan.instantiate(key)
    cell_obs: Observation | None = None
    if cell.observe or obs is not None:
        cell_obs = Observation(
            tracer=obs.tracer if obs is not None else Tracer(),
            metrics=MetricsRegistry(),
        )
    started = time.perf_counter()
    with maybe_timed(
        cell_obs, "sweep.cell",
        algorithm=key, engine=cell.engine, p=cell.p, m=cell.m,
        skew=cell.skew, seed=cell.seed, workload=cell.workload,
    ):
        if isinstance(algorithm, MultiRoundAlgorithm):
            result = run_rounds(
                algorithm,
                db,
                cell.p,
                seed=cell.seed,
                compute_answers=cell.compute_answers or cell.verify,
                verify=cell.verify,
                engine=cell.engine,
                obs=cell_obs,
            )
        else:
            result = run_one_round(
                algorithm,
                db,
                cell.p,
                seed=cell.seed,
                compute_answers=cell.compute_answers or cell.verify,
                verify=cell.verify,
                engine=cell.engine,
                obs=cell_obs,
            )
    wall = time.perf_counter() - started
    if isinstance(result, MultiRoundResult):
        rounds_used = result.round_count
        round_loads = [float(x) for x in result.round_load_bits]
        replication = result.replication_rate
        balance = result.balance
    else:
        rounds_used = 1
        round_loads = None
        replication = result.report.replication_rate
        balance = result.report.balance
    metrics_block = None
    if cell_obs is not None:
        metrics_block = cell_obs.metrics.to_dict()
        if obs is not None:
            obs.metrics.merge(cell_obs.metrics)
    return RunRecord(
        query=cell.query,
        workload=cell.workload,
        m=cell.m,
        skew=cell.skew,
        seed=cell.seed,
        domain=db.domain_size,
        p=cell.p,
        algorithm=key,
        algorithm_name=algorithm.name,
        engine=cell.engine,
        stats=cell.stats,
        predicted_load_bits=float(prediction.predicted_load_bits or 0.0),
        # Per-algorithm bound: Theorem 3.6 for one-round predictions
        # (where it equals the plan-level bound), the repartition bound
        # for multi-round ones — the one-round bound does not gate
        # algorithms that reshuffle intermediates.
        lower_bound_bits=float(prediction.lower_bound_bits
                               if prediction.lower_bound_bits is not None
                               else query_plan.lower_bound_bits),
        max_load_bits=result.max_load_bits,
        max_load_tuples=result.max_load_tuples,
        replication_rate=replication,
        balance=balance,
        wall_seconds=wall,
        answer_count=result.answer_count,
        complete=result.is_complete,
        rounds=rounds_used,
        round_load_bits=round_loads,
        metrics=metrics_block,
    )


def failure_record(
    cell: Cell, status: str, wall_seconds: float = 0.0
) -> RunRecord:
    """A structured record for a cell that could not produce measurements.

    ``status`` is ``"failed:<reason>"`` or ``"timeout"``.  Measurements
    are zeroed (the schema keeps them non-null so exports stay flat);
    the cell coordinates survive, so a failed cell is still addressable
    in the exported grid.
    """
    try:
        domain = WorkloadSpec(
            kind=cell.workload, m=cell.m, skew=cell.skew, seed=cell.seed,
            domain=cell.domain,
        ).domain_size
    except ExperimentError:
        domain = cell.domain if cell.domain is not None else 0
    return RunRecord(
        query=cell.query,
        workload=cell.workload,
        m=cell.m,
        skew=cell.skew,
        seed=cell.seed,
        domain=domain,
        p=cell.p,
        algorithm=cell.algorithm,
        algorithm_name=cell.algorithm,
        engine=cell.engine,
        stats=cell.stats,
        status=status,
        predicted_load_bits=0.0,
        lower_bound_bits=0.0,
        max_load_bits=0.0,
        max_load_tuples=0,
        replication_rate=0.0,
        balance=0.0,
        wall_seconds=wall_seconds,
    )


def _validate_engine(engine: str) -> None:
    """Reject unknown engine names before any cell runs, with the list of
    valid names — not as a traceback from the middle of a grid."""
    if engine not in available_engines():
        raise EngineError(
            f"unknown execution engine {engine!r}; "
            f"available: {', '.join(available_engines())}"
        )


def run_cell(cell: Cell) -> RunRecord:
    """Execute one cell end to end: generate, plan, run, record.

    Module-level (not a method) so process pools can ship it to workers.
    A cell with ``observe=True`` carries its metrics digest back on the
    record — the only channel a pool worker has.
    """
    db, query_plan = _prepare([cell])
    return _execute(cell, db, query_plan)


def _resolve_algorithms(
    query: ConjunctiveQuery, algorithms: str | Sequence[str],
    max_rounds: int = 1,
) -> tuple[str, ...]:
    """Algorithm keys for a cell grid.

    ``"auto"`` keeps the single planner-chosen cell; ``"applicable"``
    expands to every registered algorithm that declares itself applicable
    *within the round budget* (``max_rounds``); an explicit sequence is
    validated (requesting an inapplicable algorithm is an error, not a
    silent skip — and naming a multi-round algorithm opts into its round
    count regardless of the budget).
    """
    if algorithms == "auto":
        return ("auto",)
    if algorithms == "applicable":
        return tuple(
            key for key in algorithm_keys()
            if get_spec(key).is_applicable(query)
            and get_spec(key).rounds(query) <= max_rounds
        )
    if isinstance(algorithms, str):
        raise ExperimentError(
            f"algorithms must be 'auto', 'applicable', or a list of keys; "
            f"got {algorithms!r}; registered: {', '.join(algorithm_keys())}"
        )
    try:
        keys = tuple(algorithms)
    except TypeError:
        # e.g. algorithms=None, or a bare int — a raw "'NoneType' object
        # is not iterable" here used to escape to the caller.
        raise ExperimentError(
            f"algorithms must be 'auto', 'applicable', or a sequence of "
            f"registry keys; got {algorithms!r}; "
            f"registered: {', '.join(algorithm_keys())}"
        ) from None
    for key in keys:
        if not isinstance(key, str):
            raise ExperimentError(
                f"algorithm keys must be strings ('auto', 'applicable', "
                f"or registry keys); got {key!r} in {algorithms!r}"
            )
        if key == "auto":
            continue
        reason = get_spec(key).applicability(query)
        if reason is not None:
            raise ExperimentError(
                f"algorithm {key!r} is not applicable to "
                f"{query.name!r}: {reason}"
            )
    return keys


@dataclass(frozen=True)
class SweepResult:
    """The records of an executed grid, with export and rollup helpers."""

    records: tuple[RunRecord, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_json(self, indent: int = 2) -> str:
        return records_to_json(self.records, indent=indent)

    def to_csv(self) -> str:
        return records_to_csv(self.records)

    def best_per_cell(self) -> dict[tuple, RunRecord]:
        """Minimum measured load per (workload, m, skew, seed, p, stats)
        cell."""
        best: dict[tuple, RunRecord] = {}
        for record in self.records:
            cell = (record.workload, record.m, record.skew, record.seed,
                    record.p, record.stats)
            current = best.get(cell)
            if current is None or record.max_load_bits < current.max_load_bits:
                best[cell] = record
        return best

    def summary(self) -> str:
        """A compact table: one row per record, sorted like the grid."""
        header = (
            f"{'workload':>9} {'m':>6} {'skew':>5} {'p':>4} {'stats':>7} "
            f"{'algorithm':>20} {'predicted':>12} {'measured':>12} "
            f"{'bound':>12} {'gap':>6}"
        )
        lines = [header, "-" * len(header)]
        for r in self.records:
            gap = r.optimality_gap
            lines.append(
                f"{r.workload:>9} {r.m:>6} {r.skew:>5.2f} {r.p:>4} "
                f"{r.stats:>7} "
                f"{r.algorithm:>20} {r.predicted_load_bits:>12,.0f} "
                f"{r.max_load_bits:>12,.0f} {r.lower_bound_bits:>12,.0f} "
                f"{'     -' if gap is None else format(gap, '6.2f')}"
            )
        return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One workload × one ``p`` × a set of algorithms.

    The smallest unit of the experiment API::

        records = Experiment(
            "q(x, y, z) :- S1(x, z), S2(y, z)",
            workload=WorkloadSpec("zipf", m=2000, skew=1.4),
            p=32,
            algorithms="applicable",
        ).run()
    """

    query: str | ConjunctiveQuery
    workload: WorkloadSpec = WorkloadSpec()
    p: int = 16
    algorithms: str | Sequence[str] = "auto"
    engine: str = "batched"
    compute_answers: bool = False
    verify: bool = False
    observe: bool = False      # attach a metrics block to every record
    stats: str = "exact"       # statistics method: "exact" or "sketch"
    rounds: int = 1            # the planner's round budget (max_rounds)

    def _query(self) -> ConjunctiveQuery:
        if isinstance(self.query, str):
            return parse_query(self.query)
        return self.query

    def cells(self) -> list[Cell]:
        query = self._query()
        _validate_engine(self.engine)
        _validate_stats_method(self.stats)
        if self.rounds < 1:
            raise ExperimentError(f"rounds must be >= 1, got {self.rounds}")
        return [
            Cell(
                query=str(query),
                workload=self.workload.kind,
                m=self.workload.m,
                skew=self.workload.skew,
                seed=self.workload.seed,
                p=self.p,
                algorithm=key,
                engine=self.engine,
                compute_answers=self.compute_answers,
                verify=self.verify,
                domain=self.workload.domain,
                observe=self.observe,
                stats=self.stats,
                rounds=self.rounds,
            )
            for key in _resolve_algorithms(
                query, self.algorithms, max_rounds=self.rounds
            )
        ]

    def run(self, obs: Observation | None = None) -> list[RunRecord]:
        cells = self.cells()
        if not cells:
            return []
        # All cells share one workload x p point: build it once.
        with maybe_timed(obs, "experiment.prepare", query=str(self.query)):
            db, query_plan = _prepare(cells, obs=obs)
        return [_execute(cell, db, query_plan, obs=obs) for cell in cells]


@dataclass(frozen=True)
class Sweep:
    """The full grid: ``p_values x m_values x skews x seeds x rounds x
    algorithms``.

    ``run(max_workers=N)`` executes cells through a ``fork``-first process
    pool; with ``max_workers=None`` (or 1) the grid runs in-process.
    """

    query: str | ConjunctiveQuery
    workload: str = "zipf"
    p_values: Sequence[int] = (16,)
    m_values: Sequence[int] = (1000,)
    skews: Sequence[float] = (1.0,)
    seeds: Sequence[int] = (0,)
    algorithms: str | Sequence[str] = "applicable"
    engine: str = "batched"
    compute_answers: bool = False
    verify: bool = False
    domain: int | None = None
    observe: bool = False      # attach a metrics block to every record
    stats: str | Sequence[str] = "exact"   # one method, or an axis of them
    rounds: int | Sequence[int] = 1        # one round budget, or an axis

    def _stats_axis(self) -> tuple[str, ...]:
        methods = ((self.stats,) if isinstance(self.stats, str)
                   else tuple(self.stats))
        if not methods:
            raise ExperimentError("the stats axis is empty")
        for method in methods:
            _validate_stats_method(method)
        return methods

    def _rounds_axis(self) -> tuple[int, ...]:
        budgets = ((self.rounds,) if isinstance(self.rounds, int)
                   else tuple(self.rounds))
        if not budgets:
            raise ExperimentError("the rounds axis is empty")
        for budget in budgets:
            if not isinstance(budget, int) or budget < 1:
                raise ExperimentError(
                    f"round budgets must be integers >= 1, got {budget!r}"
                )
        return budgets

    def cells(self) -> list[Cell]:
        query = self._query()
        _validate_engine(self.engine)
        stats_methods = self._stats_axis()
        rounds_axis = self._rounds_axis()
        # The "applicable" expansion depends on the round budget, so the
        # key set is per-budget (an explicit list is budget-independent).
        keys_by_budget = {
            budget: _resolve_algorithms(query, self.algorithms,
                                        max_rounds=budget)
            for budget in rounds_axis
        }
        # Validate the grid axes up front: a bad value must fail here,
        # not as a traceback from the middle of a half-finished run.
        for p in self.p_values:
            if p < 1:
                raise ExperimentError(f"p must be >= 1, got {p}")
        for m in self.m_values:
            WorkloadSpec(kind=self.workload, m=m, skew=self.skews[0]
                         if self.skews else 1.0, domain=self.domain)
        text = str(query)
        return [
            Cell(
                query=text,
                workload=self.workload,
                m=m,
                skew=skew,
                seed=seed,
                p=p,
                algorithm=key,
                engine=self.engine,
                compute_answers=self.compute_answers,
                verify=self.verify,
                domain=self.domain,
                observe=self.observe,
                stats=stats_method,
                rounds=budget,
            )
            for m, skew, seed, p, stats_method, budget in product(
                self.m_values, self.skews, self.seeds, self.p_values,
                stats_methods, rounds_axis
            )
            for key in keys_by_budget[budget]
        ]

    def _query(self) -> ConjunctiveQuery:
        if isinstance(self.query, str):
            return parse_query(self.query)
        return self.query

    def run(
        self,
        max_workers: int | None = None,
        progress: Callable[[RunRecord], None] | None = None,
        cells: Sequence[Cell] | None = None,
        obs: Observation | None = None,
        cell_timeout: float | None = None,
    ) -> SweepResult:
        """Execute every cell through the shared fault-isolated executor.

        Execution goes through :func:`repro.service.jobs.execute_cells`
        — the same battle-tested path ``repro serve`` uses — so the
        library and the service share one executor.  In-process
        (``max_workers`` of ``None``/1), cells at the same grid
        coordinates share one database + statistics + plan regardless of
        their order in the grid.  With more workers, cells are farmed
        over dedicated worker processes, one cell at a time each.

        Fault isolation: a cell whose preparation or round raises yields
        a ``failed:<reason>`` record instead of aborting the sweep, and
        — when ``cell_timeout`` seconds is given — a hung cell yields a
        ``timeout`` record while its worker process is killed and
        replaced.  Timeouts need process isolation, so ``cell_timeout``
        forces the farm even for a single worker.  Healthy records are
        returned in grid order either way; check
        :attr:`RunRecord.status` (``ok`` / ``failed:<reason>`` /
        ``timeout``) before trusting a row's measurements.

        ``progress`` (if given) is called with each finished record, in
        completion order — handy for long sweeps.  ``cells`` accepts a
        precomputed :meth:`cells` result (callers that already built the
        list to inspect it need not rebuild it).

        ``obs`` (an :class:`repro.obs.Observation`) turns on sweep-level
        instrumentation: per-cell wall-clock and metric aggregation
        in-process, plus queue wait and pool utilization when farming.
        Pool workers cannot share the parent's registry, so their cells
        are flipped to ``observe=True`` and their metrics travel back on
        the records, where the parent folds them in.  Per-cell progress
        is logged on the ``repro.service.jobs`` logger either way.
        """
        from ..service.jobs import execute_cells

        if cells is None:
            cells = self.cells()
        if not cells:
            raise ExperimentError("the sweep grid is empty")
        records = execute_cells(
            cells, max_workers=max_workers, cell_timeout=cell_timeout,
            progress=progress, obs=obs,
        )
        return SweepResult(records=tuple(records))


def sweep(
    query: str | ConjunctiveQuery,
    max_workers: int | None = None,
    **grid,
) -> SweepResult:
    """One-call convenience: ``sweep(q, p_values=(8, 16), skews=(0, 1.5))``."""
    return Sweep(query=query, **grid).run(max_workers=max_workers)
