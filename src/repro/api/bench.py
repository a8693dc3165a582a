"""The pinned benchmark suites behind ``repro bench`` and ``BENCH_*.json``.

This is the repo's persisted perf trajectory.  Each suite is one frozen
:class:`BenchSuite` descriptor in :data:`BENCH_SUITES`: a *pinned*
workload grid (fixed query, generator kind, skews, seeds and server
counts) plus what the suite adds on top of the shared measurement.
:func:`run_suite` executes a suite's grid through the sweep runner with
full observability and reduces it to a JSON document with three
regression-gateable families of numbers per grid cell:

* **wall-clock** — per-cell and total, plus a machine-speed
  ``calibration_seconds`` (a fixed pure-Python workload timed on the same
  interpreter) so CI can compare *normalized* wall-clock across runners;
* **max-load vs the lower bound** — the optimality gap, which is
  deterministic for a pinned grid (hashing is seeded), so any drift is a
  real behavior change;
* **planner optimality gap** — the regret of the minimum-*predicted*-cost
  pick against the minimum-*measured*-cost algorithm per cell
  (:func:`planner_regrets`).

The three suites:

``core`` (``BENCH_core.json``)
    The two-relation join under Theorem 3.6.
``sketch`` (``BENCH_sketch.json``)
    The same grid under both statistics methods, plus a fidelity pass
    (exact vs sketched heavy hitters per grid point, shard-merge bit
    identity); :func:`sketch_gate_failures` holds its absolute gates.
``rounds`` (``BENCH_rounds.json``)
    A pinned *triangle* grid with a round budget of two, pricing the
    two-round triangle against the best one-round algorithm;
    :func:`rounds_gate_failures` holds its absolute gates.

A cell that fails or times out makes :func:`run_suite` raise — a zero
load would otherwise slip past every gate.  :func:`validate_bench`
checks a document against :data:`BENCH_SCHEMA` (what CI runs over the
emitted file); :func:`compare_bench` produces the list of regressions
versus a committed baseline (empty = gate passes).  A committed document
is refreshed with ``repro bench --suite NAME --quick --output
BENCH_NAME.json``; its git history is the trajectory.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from ..obs import Observation
from .experiment import Sweep
from .records import RunRecord


class BenchError(ValueError):
    """Raised when a bench document does not match :data:`BENCH_SCHEMA`,
    or when a suite cannot produce one."""


#: top-level field -> (accepted types, nullable)
BENCH_SCHEMA: Mapping[str, tuple[tuple[type, ...], bool]] = {
    "schema_version": ((int,), False),
    "suite": ((str,), False),
    "quick": ((bool,), False),
    "repeats": ((int,), False),
    "query": ((str,), False),
    "grid": ((dict,), False),
    "calibration_seconds": ((int, float), False),
    "entries": ((list,), False),
    "summary": ((dict,), False),
}

_ENTRY_FIELDS: Mapping[str, tuple[tuple[type, ...], bool]] = {
    "id": ((str,), False),
    "algorithm": ((str,), False),
    "workload": ((str,), False),
    "p": ((int,), False),
    "m": ((int,), False),
    "skew": ((int, float), False),
    "seed": ((int,), False),
    "wall_seconds": ((int, float), False),
    "max_load_bits": ((int, float), False),
    "lower_bound_bits": ((int, float), False),
    "optimality_gap": ((int, float), True),
    "predicted_load_bits": ((int, float), False),
}

_SUMMARY_FIELDS = (
    "total_wall_seconds",
    "normalized_wall",
    "mean_optimality_gap",
    "max_optimality_gap",
    "planner_mean_regret",
    "planner_worst_regret",
)


def calibrate(rounds: int = 3) -> float:
    """Seconds for a fixed pure-Python workload on this interpreter.

    The denominator that makes wall-clock portable across machines: a
    regression gate compares ``total_wall_seconds / calibration_seconds``,
    so a uniformly slower CI runner does not read as a regression.
    Best-of-``rounds`` to shed scheduler noise.
    """
    best = float("inf")
    for _ in range(rounds):
        started = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - started)
    # Guard against pathological clocks; the workload takes >1ms anywhere.
    return max(best, 1e-4)


def _entry_id(record: RunRecord) -> str:
    # The stats method is suffixed only when non-default so the ids of the
    # committed core baseline (written before the stats axis existed)
    # remain comparable.
    suffix = "" if record.stats == "exact" else f"-{record.stats}"
    return (
        f"{record.workload}-m{record.m}-s{record.skew:g}-p{record.p}-"
        f"{record.algorithm}{suffix}"
    )


def _cells(records: Sequence[RunRecord]) -> list[list[RunRecord]]:
    """``records`` grouped by grid cell (every coordinate but the
    algorithm), in first-seen order."""
    by_cell: dict[tuple, list[RunRecord]] = {}
    for record in records:
        key = (record.workload, record.m, record.skew, record.seed,
               record.p, record.stats)
        by_cell.setdefault(key, []).append(record)
    return list(by_cell.values())


def planner_regrets(records: Sequence[RunRecord]) -> list[float]:
    """Planner regret per grid cell of ``records``.

    The planner's pick is the cell's minimum-*predicted*-cost record
    (exactly what ``algorithms="auto"`` would choose, since every
    applicable algorithm was measured); its measured cost over the
    cell's best measured cost is the regret.  Cost is max load times
    rounds — the round-aware planner's scale, and plain max load for
    one-round algorithms.  Cells whose best cost is zero are skipped.
    """
    regrets = []
    for cell_records in _cells(records):
        picked = min(cell_records,
                     key=lambda r: r.predicted_load_bits * r.rounds)
        best = min(cell_records, key=lambda r: r.max_load_bits * r.rounds)
        best_cost = best.max_load_bits * best.rounds
        if best_cost > 0:
            regrets.append(picked.max_load_bits * picked.rounds / best_cost)
    return regrets


def _regret_summary(records: Sequence[RunRecord]) -> dict:
    regrets = planner_regrets(records)
    return {
        "planner_mean_regret":
            sum(regrets) / len(regrets) if regrets else 1.0,
        "planner_worst_regret": max(regrets, default=1.0),
    }


@dataclass(frozen=True)
class BenchSuite:
    """One pinned bench suite: what :func:`run_suite` runs and how it
    reduces the records.  Changing a grid invalidates baseline
    comparability."""

    #: the query every cell runs
    query: str
    #: ``Sweep`` grid keywords of the full and the ``--quick`` grid
    full_grid: Mapping[str, object]
    quick_grid: Mapping[str, object]
    #: ``Sweep`` keywords beyond the grid (``stats``, ``rounds``)
    sweep_axes: Mapping[str, object] = field(default_factory=dict)
    #: entry fields beyond the shared ones, inserted after ``seed``
    entry_fields: Callable[[RunRecord], dict] | None = None
    #: summary fields derived from the records: the planner regret pair
    #: and any suite-specific measurement
    summarize: Callable[[Sequence[RunRecord]], dict] = _regret_summary
    #: a measurement pass beyond the sweep: ``(query, grid, obs)`` ->
    #: (extra document fields, extra summary fields)
    extra_pass: Callable[[str, Mapping, Observation],
                         tuple[dict, dict]] | None = None
    #: absolute acceptance gate (beyond :func:`compare_bench`)
    gate: Callable[[Mapping], list[str]] | None = None


# ----------------------------------------------------------------------
# the sketch suite: exact vs sketched statistics
# ----------------------------------------------------------------------

def _sketch_summary(records: Sequence[RunRecord]) -> dict:
    """What planning from sketch estimates costs relative to planning
    from exact statistics (``regret_ratio``, gated at 1.10)."""
    exact = _regret_summary([r for r in records if r.stats == "exact"])
    sketch = _regret_summary([r for r in records if r.stats == "sketch"])
    exact_regret = exact["planner_worst_regret"]
    sketch_regret = sketch["planner_worst_regret"]
    return {
        "planner_mean_regret": (exact_regret + sketch_regret) / 2,
        "planner_worst_regret": max(exact_regret, sketch_regret),
        "exact_worst_regret": exact_regret,
        "sketch_worst_regret": sketch_regret,
        "regret_ratio":
            (sketch_regret / exact_regret) if exact_regret > 0 else 1.0,
    }


def _merge_bit_identical(query, db, config) -> bool:
    """Two-shard build merges to exactly the single-pass sketch tables."""
    import numpy as np

    from ..sketch import RelationSketchSet, build_sketch_set

    single = build_sketch_set(query, db, config)
    domains = {
        atom.name: db.relation(atom.name).domain_size for atom in query.atoms
    }
    first = RelationSketchSet.empty(query, domains, config)
    second = RelationSketchSet.empty(query, domains, config)
    for name in dict.fromkeys(atom.name for atom in query.atoms):
        tuples = sorted(db.relation(name).tuples)
        half = len(tuples) // 2
        first.update_relation(name, tuples[:half])
        second.update_relation(name, tuples[half:])
    merged = first.merge(second)
    return all(
        np.array_equal(mine, theirs)
        for key, sketch in single.sketches.items()
        for mine, theirs in zip(sketch.tables(),
                                merged.sketches[key].tables())
    )


def _sketch_fidelity(query_text: str, grid: Mapping,
                     obs: Observation) -> tuple[dict, dict]:
    """Exact vs sketched heavy hitters on every grid point, plus the
    shard-merge bit-identity check (once per workload).

    ``sketch_min_recall`` is the worst-case fraction of true heavy
    hitters the sketch recovered (must be 1.0: a missed heavy hitter
    overloads the light path); ``merge_bit_identical`` is 1.0 iff
    sharded-then-merged sketches equal the single-pass build bit for bit.
    """
    from ..query.parser import parse_query
    from ..sketch import (
        SketchConfig,
        SketchedHeavyHitterStatistics,
        sketch_fidelity,
    )
    from ..stats.heavy_hitters import HeavyHitterStatistics
    from .experiment import WorkloadSpec

    query = parse_query(query_text)
    config = SketchConfig()
    min_recall = 1.0
    precisions: list[float] = []
    max_rel_error = 0.0
    merge_identical = True
    points = []
    for m in grid["m_values"]:
        for skew in grid["skews"]:
            for seed in grid["seeds"]:
                workload = WorkloadSpec(
                    kind=grid["workload"], m=m, skew=skew, seed=seed
                )
                db = workload.build(query)
                merge_identical &= _merge_bit_identical(query, db, config)
                for p in grid["p_values"]:
                    exact = HeavyHitterStatistics.of(query, db, p)
                    sketched = SketchedHeavyHitterStatistics.of(
                        query, db, p, config=config, obs=obs
                    )
                    report = sketch_fidelity(exact, sketched)
                    min_recall = min(min_recall, report["recall"])
                    precisions.append(report["precision"])
                    max_rel_error = max(
                        max_rel_error, report["max_rel_error"]
                    )
                    points.append({
                        "m": m, "skew": skew, "seed": seed, "p": p,
                        "recall": report["recall"],
                        "precision": report["precision"],
                        "max_rel_error": report["max_rel_error"],
                        "true_heavy": report["true_heavy"],
                        "sketched_heavy": report["sketched_heavy"],
                    })
    return {"fidelity": points}, {
        "sketch_min_recall": min_recall,
        "sketch_mean_precision":
            sum(precisions) / len(precisions) if precisions else 1.0,
        "sketch_max_rel_error": max_rel_error,
        "merge_bit_identical": 1.0 if merge_identical else 0.0,
    }


def sketch_gate_failures(document: Mapping) -> list[str]:
    """The sketch suite's *absolute* acceptance gates (beyond
    :func:`compare_bench`'s relative ones); empty list = gate passes.

    * every true heavy hitter recovered (``sketch_min_recall == 1.0``);
    * sharded build bit-identical to single-pass
      (``merge_bit_identical == 1.0``);
    * planning from sketch estimates within 10% of the exact planner's
      worst-case regret (``regret_ratio <= 1.10``).
    """
    summary = document.get("summary", {})
    failures: list[str] = []
    recall = summary.get("sketch_min_recall")
    if not isinstance(recall, (int, float)) or recall < 1.0:
        failures.append(
            f"sketched statistics missed true heavy hitters "
            f"(min recall {recall!r}, want 1.0)"
        )
    identical = summary.get("merge_bit_identical")
    if identical != 1.0:
        failures.append(
            "sharded sketch merge is not bit-identical to the "
            "single-pass build"
        )
    ratio = summary.get("regret_ratio")
    if not isinstance(ratio, (int, float)) or ratio > 1.10:
        failures.append(
            f"sketched planner regret ratio {ratio!r} exceeds 1.10x "
            f"the exact planner's"
        )
    return failures


# ----------------------------------------------------------------------
# the rounds suite: two rounds against one on the triangle
# ----------------------------------------------------------------------

_TWO_ROUND_KEY = "two-round-triangle"


def _round_entry_fields(record: RunRecord) -> dict:
    # Each entry's lower_bound_bits is the bound that actually constrains
    # it (Theorem 3.6 for one-round entries, the multi-round repartition
    # bound for the rest), so the gap gates stay meaningful per family.
    return {
        "rounds": record.rounds,
        "round_load_bits": (None if record.round_load_bits is None
                            else list(record.round_load_bits)),
    }


def _rounds_summary(records: Sequence[RunRecord]) -> dict:
    """Per cell, the two-round triangle against the best one-round
    algorithm (predicted and measured max-load, worst case over the
    grid), plus planner regret on the round-aware cost scale."""
    speedups_predicted: list[float] = []
    speedups_measured: list[float] = []
    two_round_gaps: list[float] = []
    for cell_records in _cells(records):
        one_round = [r for r in cell_records if r.rounds == 1]
        two_round = [r for r in cell_records
                     if r.algorithm == _TWO_ROUND_KEY]
        if not (one_round and two_round):
            continue
        two = two_round[0]
        if two.predicted_load_bits > 0:
            speedups_predicted.append(
                min(r.predicted_load_bits for r in one_round)
                / two.predicted_load_bits
            )
        if two.max_load_bits > 0:
            speedups_measured.append(
                min(r.max_load_bits for r in one_round) / two.max_load_bits
            )
        if two.optimality_gap is not None:
            two_round_gaps.append(two.optimality_gap)
    return {
        **_regret_summary(records),
        "two_round_min_speedup_predicted":
            min(speedups_predicted, default=0.0),
        "two_round_min_speedup_measured":
            min(speedups_measured, default=0.0),
        "two_round_mean_speedup_measured":
            (sum(speedups_measured) / len(speedups_measured)
             if speedups_measured else 0.0),
        "two_round_min_gap": min(two_round_gaps, default=0.0),
        "two_round_max_gap": max(two_round_gaps, default=0.0),
    }


def rounds_gate_failures(document: Mapping) -> list[str]:
    """The rounds suite's *absolute* acceptance gates (beyond
    :func:`compare_bench`'s relative ones); empty list = gate passes.

    * the two-round triangle beats the best one-round algorithm's
      *predicted* max-load on every grid cell;
    * it beats the best one-round algorithm's *measured* max-load on
      every grid cell too (the paper's point: more rounds buy load);
    * its measured load never dips below the multi-round repartition
      bound (a gap < 1 would mean the bound, or the fold, is wrong).
    """
    summary = document.get("summary", {})
    failures: list[str] = []
    predicted = summary.get("two_round_min_speedup_predicted")
    if not isinstance(predicted, (int, float)) or predicted <= 1.0:
        failures.append(
            f"two-round triangle does not beat the best one-round "
            f"algorithm's predicted load on every cell "
            f"(min speedup {predicted!r}, want > 1.0)"
        )
    measured = summary.get("two_round_min_speedup_measured")
    if not isinstance(measured, (int, float)) or measured <= 1.0:
        failures.append(
            f"two-round triangle does not beat the best one-round "
            f"algorithm's measured load on every cell "
            f"(min speedup {measured!r}, want > 1.0)"
        )
    min_gap = summary.get("two_round_min_gap")
    if not isinstance(min_gap, (int, float)) or min_gap < 1.0:
        failures.append(
            f"two-round measured load dips below the multi-round lower "
            f"bound (min gap {min_gap!r}, want >= 1.0)"
        )
    return failures


# ----------------------------------------------------------------------
# the suites and their single runner
# ----------------------------------------------------------------------

_JOIN_QUERY = "q(x, y, z) :- S1(x, z), S2(y, z)"
_JOIN_FULL_GRID = {
    "workload": "zipf",
    "p_values": (8, 32),
    "m_values": (400,),
    "skews": (0.0, 1.0, 2.0),
    "seeds": (0,),
}
_JOIN_QUICK_GRID = {
    "workload": "zipf",
    "p_values": (8,),
    "m_values": (160,),
    "skews": (0.0, 1.2),
    "seeds": (0,),
}

#: suite name -> descriptor; the single source of truth for what
#: ``repro bench --suite`` accepts.
BENCH_SUITES: Mapping[str, BenchSuite] = {
    "core": BenchSuite(
        query=_JOIN_QUERY,
        full_grid=_JOIN_FULL_GRID,
        quick_grid=_JOIN_QUICK_GRID,
    ),
    "sketch": BenchSuite(
        query=_JOIN_QUERY,
        full_grid=_JOIN_FULL_GRID,
        quick_grid=_JOIN_QUICK_GRID,
        sweep_axes={"stats": ("exact", "sketch")},
        entry_fields=lambda record: {"stats": record.stats},
        summarize=_sketch_summary,
        extra_pass=_sketch_fidelity,
        gate=sketch_gate_failures,
    ),
    # The triangle is the query where one communication round is provably
    # expensive (Example 3.7's p^{1/3} replication) and two rounds are
    # not; ``rounds=2`` measures every one-round algorithm that accepts
    # it *and* both multi-round algorithms.
    "rounds": BenchSuite(
        query="q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
        full_grid={
            "workload": "zipf",
            "p_values": (8, 16),
            "m_values": (300,),
            "skews": (0.0, 0.8, 1.5),
            "seeds": (0,),
        },
        quick_grid={
            "workload": "zipf",
            "p_values": (8,),
            "m_values": (160,),
            "skews": (0.0, 1.5),
            "seeds": (0,),
        },
        sweep_axes={"rounds": 2},
        entry_fields=_round_entry_fields,
        summarize=_rounds_summary,
        gate=rounds_gate_failures,
    ),
}


def run_suite(
    name: str,
    quick: bool = False,
    obs: Observation | None = None,
    repeats: int = 3,
) -> dict:
    """Run the named suite; return its ``BENCH_<name>.json`` document.

    Loads, gaps and regret are deterministic (seeded hashing), so one pass
    suffices for them; wall-clock is not, so the grid runs ``repeats``
    times and every timing is the best (minimum) across passes — the
    standard way to shed scheduler noise from a sub-second suite.  Any
    cell that does not come back ``ok`` raises :class:`BenchError`
    naming every such entry; unknown names list the valid choices.
    """
    try:
        suite = BENCH_SUITES[name]
    except KeyError:
        raise BenchError(
            f"unknown bench suite {name!r}; "
            f"choose from {', '.join(BENCH_SUITES)}"
        ) from None
    if repeats < 1:
        raise BenchError("run_suite needs repeats >= 1")
    grid = suite.quick_grid if quick else suite.full_grid
    # Every applicable algorithm per cell, so the planner's pick can be
    # scored against the best measured one.
    sweep = Sweep(query=suite.query, algorithms="applicable", observe=True,
                  **suite.sweep_axes, **grid)
    calibration = calibrate()
    obs = obs if obs is not None else Observation.create()
    records: Sequence[RunRecord] = ()
    total_wall = float("inf")
    best_wall: dict[str, float] = {}
    for _ in range(repeats):
        started = time.perf_counter()
        records = sweep.run(obs=obs).records
        total_wall = min(total_wall, time.perf_counter() - started)
        broken = [f"{_entry_id(r)} ({r.status})" for r in records if not r.ok]
        if broken:
            raise BenchError(
                f"bench suite {name!r}: {len(broken)} entries did not run: "
                + "; ".join(broken)
            )
        for record in records:
            entry_id = _entry_id(record)
            best_wall[entry_id] = min(
                best_wall.get(entry_id, float("inf")), record.wall_seconds
            )

    entries = []
    for record in records:
        entry_id = _entry_id(record)
        entries.append({
            "id": entry_id,
            "algorithm": record.algorithm,
            "workload": record.workload,
            "p": record.p,
            "m": record.m,
            "skew": record.skew,
            "seed": record.seed,
            **(suite.entry_fields(record) if suite.entry_fields else {}),
            "wall_seconds": best_wall[entry_id],
            "max_load_bits": record.max_load_bits,
            "lower_bound_bits": record.lower_bound_bits,
            "optimality_gap": record.optimality_gap,
            "predicted_load_bits": record.predicted_load_bits,
        })
    gaps = [e["optimality_gap"] for e in entries
            if e["optimality_gap"] is not None]

    extra_fields, extra_summary = (
        suite.extra_pass(suite.query, grid, obs) if suite.extra_pass
        else ({}, {})
    )
    return {
        "schema_version": 1,
        "suite": name,
        "quick": quick,
        "repeats": repeats,
        "query": suite.query,
        "grid": {key: list(value) if isinstance(value, tuple) else value
                 for key, value in grid.items()},
        "calibration_seconds": calibration,
        "entries": entries,
        **extra_fields,
        "summary": {
            "total_wall_seconds": total_wall,
            "normalized_wall": total_wall / calibration,
            "mean_optimality_gap": sum(gaps) / len(gaps) if gaps else 0.0,
            "max_optimality_gap": max(gaps, default=0.0),
            **suite.summarize(records),
            **extra_summary,
        },
    }


def suite_gate_failures(document: Mapping) -> list[str]:
    """Absolute gate failures for ``document``'s suite (empty = passes)."""
    suite = BENCH_SUITES.get(document.get("suite"))
    if suite is None or suite.gate is None:
        return []
    return suite.gate(document)


def validate_bench(data: object) -> None:
    """Check a bench document against :data:`BENCH_SCHEMA`; raise
    :class:`BenchError` on the first violation."""
    if not isinstance(data, dict):
        raise BenchError("bench document must be a JSON object")
    for name, (types, nullable) in BENCH_SCHEMA.items():
        if name not in data:
            raise BenchError(f"bench document is missing field {name!r}")
        value = data[name]
        if value is None and not nullable:
            raise BenchError(f"field {name!r} must not be null")
        if isinstance(value, bool) and bool not in types:
            raise BenchError(f"field {name!r} has type bool, wants {types}")
        if value is not None and not isinstance(value, types):
            raise BenchError(
                f"field {name!r} has type {type(value).__name__}"
            )
    if not data["entries"]:
        raise BenchError("bench document has no entries")
    seen: set[str] = set()
    for entry in data["entries"]:
        if not isinstance(entry, dict):
            raise BenchError("entries must be objects")
        for name, (types, nullable) in _ENTRY_FIELDS.items():
            if name not in entry:
                raise BenchError(f"entry is missing field {name!r}")
            value = entry[name]
            if value is None:
                if not nullable:
                    raise BenchError(f"entry field {name!r} must not be null")
                continue
            if isinstance(value, bool) and bool not in types:
                raise BenchError(f"entry field {name!r} has type bool")
            if not isinstance(value, types):
                raise BenchError(
                    f"entry field {name!r} has type {type(value).__name__}"
                )
        if entry["id"] in seen:
            raise BenchError(f"duplicate entry id {entry['id']!r}")
        seen.add(entry["id"])
    summary = data["summary"]
    for name in _SUMMARY_FIELDS:
        if not isinstance(summary.get(name), (int, float)):
            raise BenchError(f"summary is missing numeric field {name!r}")


def compare_bench(
    baseline: Mapping, current: Mapping, max_regression: float = 0.20
) -> list[str]:
    """Regressions of ``current`` vs ``baseline``; empty list = gate passes.

    Gates, each tolerating a relative ``max_regression`` (default 20%):

    * normalized wall-clock (total wall over the machine calibration);
    * per-entry optimality gap, on entries present in both documents
      (deterministic for a pinned grid, so the tolerance only absorbs
      float noise and generator tweaks);
    * planner worst-case regret.

    Comparing documents from different suites or grids (``suite``,
    ``query``, ``grid`` or ``quick`` differ) is an error — those numbers
    are not commensurable.
    """
    for name in ("suite", "query", "grid", "quick"):
        if baseline.get(name) != current.get(name):
            raise BenchError(
                f"cannot compare bench documents whose {name} differs: "
                f"{baseline.get(name)!r} vs {current.get(name)!r}"
            )
    failures: list[str] = []
    allowed = 1.0 + max_regression

    base_wall = baseline["summary"]["normalized_wall"]
    cur_wall = current["summary"]["normalized_wall"]
    if base_wall > 0 and cur_wall > base_wall * allowed:
        failures.append(
            f"normalized wall-clock regressed {cur_wall / base_wall:.2f}x "
            f"({cur_wall:.1f} vs baseline {base_wall:.1f} calibration units, "
            f"tolerance {max_regression:.0%})"
        )

    base_entries = {e["id"]: e for e in baseline["entries"]}
    shared = [e for e in current["entries"] if e["id"] in base_entries]
    for entry in shared:
        base_gap = base_entries[entry["id"]]["optimality_gap"]
        gap = entry["optimality_gap"]
        if base_gap is None or gap is None or base_gap <= 0:
            continue
        if gap > base_gap * allowed:
            failures.append(
                f"{entry['id']}: optimality gap regressed "
                f"{gap / base_gap:.2f}x ({gap:.3f} vs baseline "
                f"{base_gap:.3f})"
            )

    base_regret = baseline["summary"]["planner_worst_regret"]
    cur_regret = current["summary"]["planner_worst_regret"]
    if base_regret > 0 and cur_regret > base_regret * allowed:
        failures.append(
            f"planner worst regret regressed {cur_regret / base_regret:.2f}x "
            f"({cur_regret:.3f} vs baseline {base_regret:.3f})"
        )
    return failures
