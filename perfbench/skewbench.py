"""The repository's benchmark: the skew pipeline, end to end and per layer.

One run executes one workload in this process, on one thread, with the
default ``batched`` engine and observability off.  It calls the program's
public functions in the order :meth:`repro.api.Experiment.run` makes them::

    WorkloadSpec.build -> HeavyHitterStatistics.of | SketchedHeavyHitterStatistics.of
      -> plan -> QueryPlan.instantiate -> run_one_round | run_rounds
      (every applicable algorithm) -> seq.join.evaluate

and changes no program code.  A run holds one or more instances, each
generated from a seed derived from ``--seed``: the load metrics of the
skewed workloads vary by up to a fifth between single instances, so their
runs average over several.  Times are medians over repeated passes, each
scaled to a reference interpreter speed (:class:`Speedometer`).

``trace=False`` reports the end-to-end metrics (:data:`END_TO_END`).
``trace=True`` alternates the untraced pipeline with a traced walk of the
same pipeline through the finer public calls (``routing_plan``,
``destination_counts`` / ``destinations_batch``, ``local_join``), timed by
:class:`repro.obs.Tracer` spans opened here, and reports the per-layer
metrics (:func:`per_layer_units`; their times are not scaled).  The walk
must reproduce the engine's per-server tuple counts, and its answers,
exactly.

An operation is one algorithm run on one instance.  It fails if it raises,
if its max load is below its own lower bound, if it differs from the
instance's first pass, or (answers on) if its answer set differs from
``evaluate``.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.api.experiment import WorkloadSpec
from repro.api.planner import QueryPlan, plan
from repro.mpc.execution import run_one_round
from repro.mpc.hashing import HashFamily
from repro.obs import Tracer
from repro.query.parser import parse_query
from repro.rounds.base import MultiRoundAlgorithm
from repro.rounds.executor import ROUND_SEED_STRIDE, run_rounds
from repro.seq.join import evaluate, local_join
from repro.seq.relation import Database, Relation
from repro.sketch import SketchedHeavyHitterStatistics, sketch_fidelity
from repro.stats.heavy_hitters import HeavyHitterStatistics

JOIN = "q(x,y,z) :- S1(x,z), S2(y,z)"
TRIANGLE = "q(x,y,z) :- R(x,y), S(y,z), T(z,x)"

#: Instance ``i`` of seed ``s`` is generated with seed ``s * STRIDE + i``.
INSTANCE_SEED_STRIDE = 100
#: ``setup_s`` is the median of at least this many builds, taking at least
#: this long; instances are rebuilt (and the copy dropped) to get there.
SETUP_SAMPLES = 5
SETUP_SECONDS = 3.0

#: The speed probe (:class:`Speedometer`): a loop of this many iterations,
#: sampled at most this often, and its typical duration on a 2-core Xeon VM
#: under Python 3.11, the speed reported times are scaled to.
PROBE_LOOPS = 50_000
PROBE_EVERY_S = 0.1
REFERENCE_PROBE_S = 0.0035


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a query, its generator and its pipeline."""

    name: str
    query: str
    kind: str            # WorkloadSpec generator: "zipf" or "uniform"
    m: int               # tuples per relation
    skew: float
    domain: int
    p: int
    stats: str           # "exact" or "sketch"
    answers: bool        # local joins on, checked against evaluate
    max_rounds: int      # the planner's round budget
    instances: int       # inputs per run, one setup sample each

    def specs(self, seed: int) -> list[WorkloadSpec]:
        return [
            WorkloadSpec(self.kind, m=self.m, skew=self.skew,
                         seed=seed * INSTANCE_SEED_STRIDE + i,
                         domain=self.domain)
            for i in range(self.instances)
        ]


WORKLOADS = {w.name: w for w in (
    # Section 4: a join with about 23 heavy hitters, load only.
    Workload("skew-load", JOIN, "zipf", m=20_000, skew=1.2, domain=1000,
             p=64, stats="exact", answers=False, max_rounds=1, instances=12),
    # Section 3: the skew-free HyperCube case, answers on.
    Workload("triangle-answers", TRIANGLE, "uniform", m=20_000, skew=0.0,
             domain=1000, p=16, stats="exact", answers=True, max_rounds=1,
             instances=3),
    # The only workload on the rounds and sketch layers.
    Workload("triangle-rounds", TRIANGLE, "zipf", m=10_000, skew=1.0,
             domain=1000, p=16, stats="sketch", answers=True, max_rounds=2,
             instances=4),
)}

#: End-to-end metric -> unit.
END_TO_END = {
    "setup_s": "s",
    "tuples_per_s": "1/s",
    "peak_rss_mb": "MB",
    "load_gap": "ratio",
    "planner_regret": "ratio",
}

#: Per-layer metrics without an algorithm suffix -> unit.
LAYER_GLOBAL = {
    "stats.build_s": "s",
    "stats.heavy_hitters": "count",
    "sketch.build_s": "s",
    "sketch.recall": "ratio",
    "sketch.spurious": "count",
    "api.plan_s": "s",
    "seq.verify_s": "s",
    "trace.overhead": "ratio",
}

#: Per-layer metric families measured once per algorithm -> unit.
LAYER_PER_ALGORITHM = {
    "api.pred_error": "ratio",
    "core.plan_build_s": "s",
    "core.route_s": "s",
    "core.routed_tuples": "count",
    "mpc.round_s": "s",
    "seq.local_join_s": "s",
    "seq.useful_ratio": "ratio",
}
#: Families only multi-round algorithms have (and ``mpc.round_s`` they lack).
LAYER_MULTI_ROUND = {
    "rounds.run_s": "s",
    "rounds.intermediate_tuples": "count",
}

ONE_ROUND_KEYS = ("hypercube-lp", "hypercube-equal", "hypercube-broadcast",
                  "hashjoin", "skew-join", "bin-hypercube")
MULTI_ROUND_KEYS = ("two-round-triangle", "round-join")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name -> unit, in a stable order."""
    units = dict(LAYER_GLOBAL)
    for key in ONE_ROUND_KEYS + MULTI_ROUND_KEYS:
        for family, unit in LAYER_PER_ALGORITHM.items():
            if family == "mpc.round_s" and key in MULTI_ROUND_KEYS:
                continue
            units[f"{family}.{key}"] = unit
        if key in MULTI_ROUND_KEYS:
            for family, unit in LAYER_MULTI_ROUND.items():
                units[f"{family}.{key}"] = unit
    return units


# ----------------------------------------------------------------------
# The untraced pipeline
# ----------------------------------------------------------------------

@dataclass
class Pass:
    """One untraced pipeline pass over one instance."""

    query_plan: QueryPlan
    results: dict[str, object]        # key -> result, or the exception
    call_seconds: dict[str, float]    # key -> run_one_round/run_rounds call
    expected: frozenset | None
    seconds: float

    def loads(self) -> dict[str, float]:
        """Max load (bits) of every algorithm that did not raise."""
        return {key: result.max_load_bits
                for key, result in self.results.items()
                if not isinstance(result, Exception)}


def statistics_of(workload: Workload, query, db: Database):
    if workload.stats == "sketch":
        return SketchedHeavyHitterStatistics.of(query, db, workload.p)
    return HeavyHitterStatistics.of(query, db, workload.p)


def run_algorithm(algorithm, db: Database, p: int, seed: int, answers: bool):
    runner = (run_rounds if isinstance(algorithm, MultiRoundAlgorithm)
              else run_one_round)
    return runner(algorithm, db, p, seed=seed, compute_answers=answers)


class StageClock:
    """Sums the seconds spent inside timed calls; ``between`` runs before
    and after each call, outside the timing."""

    def __init__(self, between: Callable[[], None]) -> None:
        self.between = between
        self.total = 0.0
        self.last = 0.0

    def time(self, call, *args, **kwargs):
        self.between()
        started = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self.last = time.perf_counter() - started
            self.total += self.last
            self.between()


def pipeline(workload: Workload, query, db: Database, seed: int,
             between: Callable[[], None] = lambda: None) -> Pass:
    """Statistics, plan, every applicable algorithm, then the oracle."""
    clock = StageClock(between)
    stats = clock.time(statistics_of, workload, query, db)
    query_plan = clock.time(plan, query, stats, workload.p,
                            max_rounds=workload.max_rounds)
    results: dict[str, object] = {}
    call_seconds: dict[str, float] = {}
    for prediction in query_plan.applicable:
        algorithm = query_plan.instantiate(prediction.key)
        try:
            results[prediction.key] = clock.time(
                run_algorithm, algorithm, db, workload.p, seed,
                workload.answers)
        except Exception as exc:  # one failed operation must not end the run
            traceback.print_exc(file=sys.stderr)
            results[prediction.key] = exc
        call_seconds[prediction.key] = clock.last
    expected = clock.time(evaluate, query, db) if workload.answers else None
    return Pass(query_plan, results, call_seconds, expected, clock.total)


def operation_failures(run: Pass,
                       first_loads: dict[str, float] | None) -> list[str]:
    """One message per failed operation of ``run``; ``first_loads`` are
    the loads of the instance's first pass, which repeats must reproduce."""
    failures = []
    for prediction in run.query_plan.applicable:
        key = prediction.key
        result = run.results[key]
        if isinstance(result, Exception):
            failures.append(f"{key}: raised {result!r}")
        elif result.max_load_bits < prediction.lower_bound_bits:
            failures.append(
                f"{key}: max load {result.max_load_bits} below its lower "
                f"bound {prediction.lower_bound_bits}")
        elif run.expected is not None and result.answers != run.expected:
            failures.append(
                f"{key}: {result.answer_count} answers, the oracle has "
                f"{len(run.expected)}")
        elif first_loads is not None and (
                first_loads.get(key) != result.max_load_bits):
            failures.append(f"{key}: max load differs between passes")
    return failures


def load_metrics(run: Pass) -> tuple[float, float]:
    """(load_gap, planner_regret) of the planner's pick on one instance."""
    chosen = run.query_plan.chosen
    loads = run.loads()
    if chosen.key not in loads:
        return 0.0, 0.0
    picked = loads[chosen.key]
    return picked / chosen.lower_bound_bits, picked / min(loads.values())


# ----------------------------------------------------------------------
# The traced walk
# ----------------------------------------------------------------------

@dataclass
class RoundWalk:
    """One round walked call by call: what the engine would report."""

    per_server_tuples: list[int]
    answers: frozenset | None
    server_answers: int = 0


def walk_one_round(tracer: Tracer, key: str, algorithm, db: Database,
                   p: int, seed: int, answers: bool) -> RoundWalk:
    """The batched engine's round, one public call per span."""
    with tracer.span("core.plan_build", algorithm=key):
        routing = algorithm.routing_plan(db, p, HashFamily(seed))
    per_server = [0] * p
    fragments = [{} for _ in range(p)] if answers else None
    for atom in algorithm.query.atoms:
        tuples = list(db.relation(atom.name).tuples)
        if fragments is None:
            with tracer.span("core.route", algorithm=key):
                counts = routing.destination_counts(atom.name, tuples)
            for server, count in counts.items():
                per_server[server] += count
            continue
        with tracer.span("core.route", algorithm=key):
            destinations = routing.destinations_batch(atom.name, tuples)
        for tup, servers in zip(tuples, destinations):
            for server in servers:
                fragments[server].setdefault(atom.name, set()).add(tup)
                per_server[server] += 1
    walk = RoundWalk(per_server, None)
    if fragments is not None:
        collected: set = set()
        for server_fragments in fragments:
            if server_fragments:
                with tracer.span("seq.local_join", algorithm=key):
                    local = local_join(algorithm.query, server_fragments,
                                       db.domain_size)
                walk.server_answers += len(local)
                collected |= local
        walk.answers = frozenset(collected)
    return walk


def walk_rounds(tracer: Tracer, key: str, algorithm: MultiRoundAlgorithm,
                db: Database, p: int, seed: int,
                answers: bool) -> list[RoundWalk]:
    """``run_rounds`` walked round by round through :func:`walk_one_round`."""
    intermediates: dict[str, Relation] = {}
    walks = []
    for spec in algorithm.round_plan():
        round_db = Database.from_relations(
            intermediates[atom.name] if atom.name in intermediates
            else db.relation(atom.name)
            for atom in spec.query.atoms)
        round_algorithm = algorithm.round_algorithm(spec, round_db, p)
        walk = walk_one_round(
            tracer, key, round_algorithm, round_db, p,
            seed + spec.index * ROUND_SEED_STRIDE,
            answers or not spec.is_final)
        walks.append(walk)
        if not spec.is_final:
            intermediates[spec.output] = Relation(
                name=spec.output, arity=len(spec.query.variables),
                tuples=walk.answers, domain_size=db.domain_size)
    return walks


def traced_pass(workload: Workload, query, db: Database, seed: int,
                reference: Pass) -> tuple[dict[str, float], list[str]]:
    """Per-layer values of one instance, and every mismatch against the
    untraced ``reference`` pass of the same instance."""
    tracer = Tracer()
    values: dict[str, float] = {}
    mismatches: list[str] = []
    with tracer.span("pipeline"):
        if workload.stats == "sketch":
            with tracer.span("sketch.build"):
                stats = SketchedHeavyHitterStatistics.of(
                    query, db, workload.p)
        else:
            with tracer.span("stats.build"):
                stats = HeavyHitterStatistics.of(query, db, workload.p)
        with tracer.span("api.plan"):
            query_plan = plan(query, stats, workload.p,
                              max_rounds=workload.max_rounds)
        for prediction in query_plan.applicable:
            key = prediction.key
            algorithm = query_plan.instantiate(key)
            result = reference.results.get(key)
            if isinstance(algorithm, MultiRoundAlgorithm):
                walks = walk_rounds(tracer, key, algorithm, db, workload.p,
                                    seed, workload.answers)
                engine_rounds = ([] if isinstance(result, Exception)
                                 else [r.report for r in result.rounds])
                values[f"rounds.run_s.{key}"] = reference.call_seconds[key]
                values[f"rounds.intermediate_tuples.{key}"] = sum(
                    len(w.answers) for w in walks[:-1])
            else:
                walks = [walk_one_round(tracer, key, algorithm, db,
                                        workload.p, seed, workload.answers)]
                engine_rounds = ([] if isinstance(result, Exception)
                                 else [result.report])
                values[f"mpc.round_s.{key}"] = reference.call_seconds[key]
            if [w.per_server_tuples for w in walks] != [
                    list(r.per_server_tuples) for r in engine_rounds]:
                mismatches.append(f"{key}: per-server tuple counts differ")
            elif workload.answers and walks[-1].answers != result.answers:
                mismatches.append(f"{key}: answer sets differ")
            if not isinstance(result, Exception):
                values[f"api.pred_error.{key}"] = (
                    result.max_load_bits / prediction.predicted_load_bits)
            values[f"core.routed_tuples.{key}"] = sum(
                sum(w.per_server_tuples) for w in walks)
            server_answers = sum(w.server_answers for w in walks)
            if server_answers:
                values[f"seq.useful_ratio.{key}"] = sum(
                    len(w.answers) for w in walks) / server_answers
        if workload.answers:
            with tracer.span("seq.verify"):
                evaluate(query, db)
    for span in tracer.spans:
        if span.name == "pipeline":
            continue
        key = span.attrs.get("algorithm")
        name = f"{span.name}_s" + (f".{key}" if key else "")
        values[name] = values.get(name, 0.0) + span.duration
    values["trace.overhead"] = (
        tracer.finished_spans("pipeline")[0].duration / reference.seconds)
    if workload.stats == "sketch":
        # Ground truth for the sketch, outside the traced pipeline.
        started = time.perf_counter()
        exact = HeavyHitterStatistics.of(query, db, workload.p)
        values["stats.build_s"] = time.perf_counter() - started
        fidelity = sketch_fidelity(exact, stats)
        values["sketch.recall"] = fidelity["recall"]
        values["sketch.spurious"] = fidelity["false_positives"]
    else:
        exact = stats
    values["stats.heavy_hitters"] = exact.total_heavy_count()
    return values, mismatches


# ----------------------------------------------------------------------
# A run
# ----------------------------------------------------------------------

@dataclass
class Report:
    """What one run prints as its last line."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        }


class Speedometer:
    """Samples how fast this interpreter runs, between timed stages.

    On a shared host the same pass can take 40% longer when a neighbour
    loads the core, and how often that happens drifts over tens of
    seconds.  The probe is a fixed loop that no change to the program can
    speed up; a pass (or build) is scaled by the mean of the probes taken
    between its stages against :data:`REFERENCE_PROBE_S`.  Over six runs
    of skew-load seed 0 on a 2-core VM this cut the coefficient of
    variation of ``tuples_per_s`` from 8.9% to 3.4%.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0

    def probe(self) -> None:
        started = time.perf_counter()
        if started < self._next:
            return
        acc = 0
        for i in range(PROBE_LOOPS):
            acc += i * i % 7
        finished = time.perf_counter()
        self.samples.append(finished - started)
        self._next = finished + PROBE_EVERY_S

    def scale_since(self, mark: int) -> float:
        """The factor that turns seconds into reference seconds, from the
        probes taken since ``samples[mark]`` (or the last one, if none)."""
        window = self.samples[mark:] or self.samples[-1:]
        return REFERENCE_PROBE_S / statistics.fmean(window)


def stamp(workload: Workload, seed: int, trace: bool, seconds: float) -> dict:
    """What a result can only be compared under: same seed, same box."""
    return {
        "workload": workload.name,
        "seed": seed,
        "instance_seeds": [s.seed for s in workload.specs(seed)],
        "trace": int(trace),
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _medians(samples: list[list[dict[str, float]]], name: str) -> list[float]:
    """Per instance, the median of ``name`` over its passes (0 if absent)."""
    return [statistics.median(s.get(name, 0.0) for s in passes)
            for passes in samples]


def run(workload: Workload, seed: int, seconds: float, trace: bool,
        log: Callable[[str], None] = lambda line: None) -> Report:
    """One benchmark run: set up every instance, then repeat passes over
    the instances until ``seconds`` have passed and each had one."""
    query = parse_query(workload.query)
    # Lazy imports and first-call caches are paid once per process, not
    # per pass: fill them on a toy instance before anything is timed.
    toy = replace(workload, m=200, instances=1)
    pipeline(toy, query, toy.specs(seed)[0].build(query), seed)

    specs = workload.specs(seed)
    setup_speed, speed = Speedometer(), Speedometer()
    dbs, setup = [], []
    started = time.perf_counter()
    while (len(setup) < max(len(specs), SETUP_SAMPLES)
           or time.perf_counter() - started < SETUP_SECONDS):
        spec = specs[len(setup) % len(specs)]
        gc.collect()
        mark = len(setup_speed.samples)
        build = StageClock(setup_speed.probe)
        db = build.time(spec.build, query)
        setup.append(build.total * setup_speed.scale_since(mark))
        if len(dbs) < len(specs):
            dbs.append(db)
        del db

    report = Report()
    first_loads: list[dict[str, float] | None] = [None] * len(specs)
    figures: list[tuple[int, float, float]] = [(0, 0.0, 0.0)] * len(specs)
    samples: list[list[dict[str, float]]] = [[] for _ in specs]
    clock = time.perf_counter()
    done = 0
    while done < len(specs) or time.perf_counter() - clock < seconds:
        i = done % len(specs)
        done += 1
        gc.collect()
        mark = len(speed.samples)
        reference = pipeline(workload, query, dbs[i], specs[i].seed,
                             speed.probe)
        failures = operation_failures(reference, first_loads[i])
        report.attempted += len(reference.query_plan.applicable)
        report.failed += len(failures)
        if first_loads[i] is None:
            first_loads[i] = reference.loads()
            figures[i] = (len(reference.query_plan.applicable),
                          *load_metrics(reference))
        sample = {"pipeline_s": reference.seconds * speed.scale_since(mark)}
        if trace:
            gc.collect()
            values, mismatches = traced_pass(
                workload, query, dbs[i], specs[i].seed, reference)
            report.attempted += len(reference.query_plan.applicable)
            report.failed += len(mismatches)
            failures += mismatches
            sample.update(values)
        for failure in failures:
            log(f"FAILED {workload.name} instance {specs[i].seed}: {failure}")
        samples[i].append(sample)

    log(f"speed scale {speed.scale_since(0):.4f} from "
        f"{len(speed.samples)} probes, setup {setup_speed.scale_since(0):.4f}")
    if trace:
        for name, unit in per_layer_units().items():
            report.metrics[name] = (statistics.fmean(_medians(samples, name)),
                                    unit)
        return report
    work = sum(db.total_tuples * operations
               for db, (operations, _, _) in zip(dbs, figures))
    _, gaps, regrets = zip(*figures)
    values = {
        "setup_s": statistics.median(setup),
        "tuples_per_s": work / sum(_medians(samples, "pipeline_s")),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "load_gap": statistics.fmean(gaps),
        "planner_regret": statistics.fmean(regrets),
    }
    for name, unit in END_TO_END.items():
        report.metrics[name] = (values[name], unit)
    return report
