#!/usr/bin/env python
"""Quickstart: plan, run, and check an MPC join against its lower bound.

Walks the experiment API on the running example
``q(x, y, z) = S1(x, z), S2(y, z)``:

1. build a database and extract statistics;
2. ``plan`` — rank every registered one-round algorithm by its predicted
   load, with the Theorem 3.6 lower bound attached;
3. instantiate the winner and run one communication round on a simulated
   cluster (``autoplan`` collapses steps 2-3 into one call);
4. verify completeness and compare measured load against prediction and
   bound.

Run:  python examples/quickstart.py [--engine {reference,batched}]
"""

from __future__ import annotations

import argparse

from repro import (
    Database,
    available_engines,
    plan,
    run_one_round,
)
from repro.data import uniform_relation


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", choices=available_engines(),
                        default="batched",
                        help="execution engine for the simulated round "
                             "(answers and loads are engine-independent)")
    args = parser.parse_args()

    # 1. The query and a skew-free database.
    query = "q(x, y, z) :- S1(x, z), S2(y, z)"
    db = Database.from_relations(
        [
            uniform_relation("S1", 4096, 100_000, seed=1),
            uniform_relation("S2", 1024, 100_000, seed=2),
        ]
    )
    p = 64

    print(f"relations   : " + ", ".join(str(rel) for rel in db))
    print(f"servers     : p = {p}")

    # 2. The planner: predicted loads + the Theorem 3.6 lower bound.
    query_plan = plan(query, db=db, p=p)
    print("\n-- the bound-driven planner --")
    print(query_plan.explain())

    # 3. One communication round with the planner's winner.
    algorithm = query_plan.instantiate()
    print(f"\n-- one round of {algorithm.name} ({args.engine} engine) --")
    result = run_one_round(algorithm, db, p, seed=0, verify=True,
                           engine=args.engine)

    # 4. Completeness and load, against prediction and bound.
    assert result.is_complete, "the planner's winner must find every answer"
    predicted = query_plan.chosen.predicted_load_bits
    bound = query_plan.lower_bound_bits
    print(f"  answers found   : {result.answer_count} (complete: {result.is_complete})")
    print(f"  max server load : {result.max_load_bits:,.0f} bits "
          f"({result.max_load_tuples} tuples)")
    print(f"  load vs predicted: {result.max_load_bits / predicted:.2f}x")
    print(f"  load vs bound   : {result.max_load_bits / bound:.2f}x")
    print(f"  replication     : {result.report.replication_rate:.2f}x input")
    print(f"  balance         : {result.report.balance:.2f} (max/mean)")


if __name__ == "__main__":
    main()
