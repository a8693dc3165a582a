"""The batched engine: vectorized routing and streaming load accounting.

Differences from :class:`repro.mpc.engine.ReferenceEngine`, none of which
change the observable results:

* each relation is routed with one :meth:`RoutingPlan.destinations_batch`
  call, so plans can hoist salt formatting, bucket memoization and
  replication offsets out of the per-tuple loop (the fast paths live on
  :class:`repro.core.hypercube.HyperCubePlan` and friends);
* with ``compute_answers=False`` no fragment is materialized at all — the
  engine streams per-server *counts* through a :class:`collections.Counter`
  (C-speed) and folds bits as ``count * tuple_bits`` per relation, so load
  experiments scale to inputs far beyond what the reference engine holds in
  memory;
* with ``compute_answers=True`` each relation becomes one int64 value
  block; the destinations become flat ``(server, row)`` pairs, counted per
  server with ``np.bincount``, and each server receives the
  ``values[rows]`` block of its rows.  The servers' columnar local joins
  (:func:`repro.seq.join.join_block`) are gathered into one answer set of
  plain-int tuples.

Per-server bit loads are folded in atom order exactly like the reference
cluster, so the two engines agree bit for bit.
"""

from __future__ import annotations

from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from ...obs import maybe_timed
from ...seq.columnar import answer_set, as_block
from ...seq.join import evaluate, join_block
from ...seq.relation import Database, Tuple
from ..cluster import LoadReport
from ..execution import ExecutionResult, OneRoundAlgorithm
from ..hashing import HashFamily
from .base import ExecutionEngine

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...obs import Observation


class BatchedEngine(ExecutionEngine):
    """Batch routing; streams loads without fragments when answers are off."""

    name = "batched"

    def _run(
        self,
        algorithm: OneRoundAlgorithm,
        db: Database,
        p: int,
        seed: int,
        compute_answers: bool,
        verify: bool,
        obs: "Observation | None",
    ) -> ExecutionResult:
        if p < 1:
            raise ValueError("cluster needs at least one server")
        query = algorithm.query
        db.validate_against(query)
        hashes = HashFamily(seed)
        with maybe_timed(obs, "engine.plan_build", algorithm=algorithm.name):
            plan = algorithm.routing_plan(db, p, hashes)

        per_server_tuples = [0] * p
        per_server_bits = [0.0] * p
        fragments: list[dict[str, np.ndarray]] | None = (
            [{} for _ in range(p)] if compute_answers else None
        )

        input_tuples = 0
        input_bits = 0.0
        for atom in query.atoms:
            relation = db.relation(atom.name)
            tuple_bits = relation.tuple_bits
            input_tuples += relation.cardinality
            input_bits += relation.bits
            tuples = list(relation.tuples)

            with maybe_timed(obs, "engine.route", relation=atom.name):
                if fragments is None:
                    counts = plan.destination_counts(atom.name, tuples)
                else:
                    counts = _deliver(
                        fragments, atom.name,
                        as_block(atom.name, tuples, atom.arity,
                                 relation.domain_size),
                        plan.destinations_batch(atom.name, tuples))
                routed = 0
                for server, count in counts.items():
                    per_server_tuples[server] += count
                    per_server_bits[server] += count * tuple_bits
                    routed += count
            if obs is not None:
                obs.count(f"engine.routed_tuples.{atom.name}", routed)
                obs.count(f"engine.shipped_bits.{atom.name}",
                          routed * tuple_bits)

        answers: frozenset[Tuple] | None = None
        if fragments is not None:
            with maybe_timed(obs, "engine.local_join"):
                blocks = [
                    join_block(query, server_fragments, db.domain_size)
                    for server_fragments in fragments if server_fragments
                ]
                answers = answer_set(
                    np.concatenate(blocks or [
                        np.empty((0, len(query.head)), dtype=np.int64)]),
                    db.domain_size,
                )

        expected = None
        if verify:
            with maybe_timed(obs, "engine.verify"):
                expected = evaluate(query, db)
        return ExecutionResult(
            algorithm=algorithm.name,
            query=query,
            p=p,
            seed=seed,
            report=LoadReport(
                p=p,
                per_server_tuples=tuple(per_server_tuples),
                per_server_bits=tuple(per_server_bits),
                input_tuples=input_tuples,
                input_bits=input_bits,
            ),
            answers=answers,
            expected_answers=expected,
            details=dict(plan.describe()),
        )


def _deliver(
    fragments: list[dict[str, np.ndarray]],
    name: str,
    values: np.ndarray,
    destinations: list[tuple[int, ...]],
) -> dict[int, int]:
    """Hand each server the rows of ``values`` routed to it.

    ``destinations[i]`` are the duplicate-free servers of row ``i``, so a
    server's count is the number of distinct rows it receives.  Returns
    server -> count.
    """
    fanout = np.fromiter(map(len, destinations), dtype=np.int64,
                         count=len(destinations))
    servers = np.fromiter(chain.from_iterable(destinations), dtype=np.int64,
                          count=int(fanout.sum()))
    rows = np.repeat(np.arange(len(values)), fanout)
    by_server = np.argsort(servers, kind="stable")
    rows = rows[by_server]
    counts = np.bincount(servers, minlength=len(fragments))
    ends = np.cumsum(counts)
    received: dict[int, int] = {}
    for server in np.flatnonzero(counts).tolist():
        count = int(counts[server])
        fragments[server][name] = values[rows[ends[server] - count:
                                              ends[server]]]
        received[server] = count
    return received
