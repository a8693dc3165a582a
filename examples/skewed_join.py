#!/usr/bin/env python
"""Skewed joins: how the paper's algorithms tame heavy hitters.

The motivating scenario of Section 4, driven through the experiment API: a
:class:`repro.Sweep` races four one-round algorithms across a Zipf skew
grid (cells farmed over a process pool), and the planner is asked which
algorithm it *would* have picked at every skew:

* the classic parallel hash join (collapses under skew),
* HyperCube with equal shares (skew-resilient, Corollary 3.2(ii)),
* the Section 4.1 skew-aware join (near-optimal, knows the heavy hitters),
* the Section 4.2 bin-combination algorithm (general queries).

It also prints formula (10)'s load bound and the residual lower bound of
Theorem 4.7, showing the measured loads are sandwiched as the paper proves.

Run:  python examples/skewed_join.py [--engine {reference,batched}]
"""

from __future__ import annotations

import argparse

from repro import (
    Sweep,
    WorkloadSpec,
    available_engines,
    plan,
    residual_lower_bound,
    run_one_round,
    skew_join_load_bound,
)
from repro.query import parse_query, simple_join_query
from repro.stats import DegreeStatistics, HeavyHitterStatistics

P = 32
M = 3000
SKEWS = (0.0, 0.5, 1.0, 1.5, 2.0)
ALGORITHMS = ("hashjoin", "hypercube-equal", "skew-join", "bin-hypercube")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", choices=available_engines(),
                        default="batched",
                        help="execution engine for the simulated rounds")
    parser.add_argument("--workers", type=int, default=4,
                        help="process-pool size for the sweep cells")
    args = parser.parse_args()

    query = simple_join_query()
    print(f"query: {query},  m = {M} tuples/relation,  p = {P} servers, "
          f"{args.engine} engine")

    # One sweep per domain regime (the seed's choice: a wider domain while
    # the skew is mild, a tighter one once heavy hitters dominate).
    records = []
    for domain, skews in ((8 * M, tuple(s for s in SKEWS if s < 1.0)),
                          (4 * M, tuple(s for s in SKEWS if s >= 1.0))):
        result = Sweep(
            query=str(query),
            workload="zipf",
            p_values=(P,),
            m_values=(M,),
            skews=skews,
            seeds=(11,),
            algorithms=list(ALGORITHMS),
            engine=args.engine,
            domain=domain,
        ).run(max_workers=args.workers)
        records.extend(result.records)
    by_cell = {
        (record.skew, record.algorithm): record for record in records
    }

    header = (
        f"{'skew':>5} {'hash-join':>10} {'hc-equal':>10} {'skew-join':>10} "
        f"{'bin-hc':>8} {'formula(10)':>12} {'thm4.7 LB':>10} {'planner':>14}"
    )
    print("\nmax load per server (tuples):")
    print(header)
    print("-" * len(header))

    for skew in SKEWS:
        domain = 8 * M if skew < 1.0 else 4 * M
        workload = WorkloadSpec("zipf", m=M, skew=skew, seed=11,
                                domain=domain)
        db = workload.build(query)
        hh_stats = HeavyHitterStatistics.of(query, db, P)
        formula10 = skew_join_load_bound(hh_stats, query, in_bits=False)["bound"]
        degree_stats = DegreeStatistics.of(query, db, {"z"})
        residual = residual_lower_bound(query, degree_stats, P)
        tuple_bits = db.relation("S1").tuple_bits
        lower_tuples = residual.bits / tuple_bits if residual else 0.0
        chosen = plan(query, hh_stats, P).chosen.key

        loads = {
            key: by_cell[(skew, key)].max_load_tuples for key in ALGORITHMS
        }
        print(
            f"{skew:>5.1f} {loads['hashjoin']:>10} "
            f"{loads['hypercube-equal']:>10} {loads['skew-join']:>10} "
            f"{loads['bin-hypercube']:>8} {formula10:>12.0f} "
            f"{lower_tuples:>10.0f} {chosen:>14}"
        )

    print(
        "\nReading the table: the hash join deteriorates as skew grows, the\n"
        "equal-share cube pays a fixed p^(1/3) replication but never\n"
        "collapses, the skew-aware algorithms track the bounds — and the\n"
        "planner's pick flips to them exactly when it starts to matter."
    )

    # Verify completeness once at the heaviest skew (outputs are large).
    db = WorkloadSpec("zipf", m=M, skew=2.0, seed=11, domain=4 * M).build(query)
    query_plan = plan(parse_query(str(query)), db=db, p=P)
    for key in ("skew-join", "bin-hypercube"):
        algorithm = query_plan.instantiate(key)
        result = run_one_round(algorithm, db, P, verify=True,
                               engine=args.engine)
        status = "complete" if result.is_complete else "INCOMPLETE"
        print(f"verification at skew=2.0: {algorithm.name} is {status} "
              f"({result.answer_count} answers)")
        assert result.is_complete


if __name__ == "__main__":
    main()
