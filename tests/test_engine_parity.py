"""The engine-parity contract: every execution engine must be answer- and
load-identical to the reference simulator.

The matrix is algorithms (HC equal/LP shares, hash join, skew-aware join,
bin-hypercube, broadcast, cartesian) x data generators (uniform,
zipf-skewed, single-heavy-hitter) x seeds, with both ``compute_answers``
modes, plus bin-hypercube on the triangle with many bin combinations and
with more assignments than servers.  Identity is exact: same answer sets,
same per-server tuple counts, and bit-identical per-server bit loads (all
engines fold bits as ``count * tuple_bits`` per relation in atom order, so
no float tolerance is needed).
"""

from __future__ import annotations

import pytest

from repro.core import (
    BinHyperCubeAlgorithm,
    BroadcastHyperCube,
    CartesianProductAlgorithm,
    HashJoinAlgorithm,
    HyperCubeAlgorithm,
    SkewAwareJoin,
)
from repro.data import (
    planted_heavy_relation,
    single_value_relation,
    uniform_relation,
    zipf_relation,
)
from repro.mpc import (
    BatchedEngine,
    HashFamily,
    ReferenceEngine,
    run_one_round,
)
from repro.query import parse_query, simple_join_query
from repro.seq import Database
from repro.stats import SimpleStatistics

P = 8
M = 120
SEEDS = (0, 1)

ENGINES = {
    "batched": BatchedEngine(),
}


def _join_db(generator: str, seed: int) -> Database:
    if generator == "uniform":
        relations = [
            uniform_relation("S1", M, 3 * M, seed=seed * 100 + 1),
            uniform_relation("S2", M, 3 * M, seed=seed * 100 + 2),
        ]
    elif generator == "zipf":
        relations = [
            zipf_relation("S1", M, 3 * M, skew=1.4, seed=seed * 100 + 1),
            zipf_relation("S2", M, 3 * M, skew=1.4, seed=seed * 100 + 2),
        ]
    else:  # one heavy hitter carrying every tuple
        relations = [
            single_value_relation("S1", M, 3 * M, seed=seed * 100 + 1),
            single_value_relation("S2", M, 3 * M, seed=seed * 100 + 2),
        ]
    return Database.from_relations(relations)


def _join_algorithms(db: Database) -> list:
    query = simple_join_query()
    stats = SimpleStatistics.of(db)
    return [
        HyperCubeAlgorithm.with_equal_shares(query, P),
        HyperCubeAlgorithm.with_optimal_shares(query, stats, P),
        HashJoinAlgorithm(query, P),
        SkewAwareJoin(query),
        BinHyperCubeAlgorithm(query),
        BroadcastHyperCube(query),
    ]


def _assert_identical(result, oracle, context: str) -> None:
    assert result.answers == oracle.answers, f"{context}: answers differ"
    assert result.report.per_server_tuples == oracle.report.per_server_tuples, (
        f"{context}: per-server tuple counts differ"
    )
    assert result.report.per_server_bits == oracle.report.per_server_bits, (
        f"{context}: per-server bit loads differ"
    )
    assert result.max_load_tuples == oracle.max_load_tuples, context
    assert result.max_load_bits == oracle.max_load_bits, context
    assert result.report.input_tuples == oracle.report.input_tuples, context
    assert result.report.input_bits == oracle.report.input_bits, context


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", ["uniform", "zipf", "heavy"])
def test_join_algorithms_parity(generator, seed):
    db = _join_db(generator, seed)
    for algorithm in _join_algorithms(db):
        oracle = run_one_round(
            algorithm, db, P, seed=seed, engine="reference"
        )
        for name, engine in ENGINES.items():
            result = run_one_round(
                algorithm, db, P, seed=seed, engine=engine
            )
            _assert_identical(
                result, oracle, f"{algorithm.name}/{generator}/{name}"
            )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("generator", ["uniform", "zipf", "heavy"])
def test_cartesian_parity(generator, seed):
    query = parse_query("q(x, y) :- S1(x), S2(y)")
    if generator == "uniform":
        relations = [
            uniform_relation("S1", 60, 200, arity=1, seed=seed * 100 + 1),
            uniform_relation("S2", 40, 200, arity=1, seed=seed * 100 + 2),
        ]
    elif generator == "zipf":
        relations = [
            zipf_relation("S1", 60, 200, arity=1, skew=1.4,
                          skewed_positions=(0,), seed=seed * 100 + 1),
            zipf_relation("S2", 40, 200, arity=1, skew=1.4,
                          skewed_positions=(0,), seed=seed * 100 + 2),
        ]
    else:
        relations = [
            single_value_relation("S1", 1, 200, arity=1, fixed_position=0,
                                  seed=seed * 100 + 1),
            uniform_relation("S2", 40, 200, arity=1, seed=seed * 100 + 2),
        ]
    db = Database.from_relations(relations)
    algorithm = CartesianProductAlgorithm(query)
    oracle = run_one_round(algorithm, db, P, seed=seed, engine="reference")
    for name, engine in ENGINES.items():
        result = run_one_round(algorithm, db, P, seed=seed, engine=engine)
        _assert_identical(result, oracle, f"cartesian/{generator}/{name}")


@pytest.mark.parametrize("generator", ["uniform", "zipf", "heavy"])
def test_load_only_parity(generator):
    """compute_answers=False exercises the streaming count paths."""
    db = _join_db(generator, seed=0)
    for algorithm in _join_algorithms(db):
        oracle = run_one_round(
            algorithm, db, P, compute_answers=False, engine="reference"
        )
        assert oracle.answers is None
        for name, engine in ENGINES.items():
            result = run_one_round(
                algorithm, db, P, compute_answers=False, engine=engine
            )
            assert result.answers is None
            _assert_identical(
                result, oracle, f"{algorithm.name}/{generator}/{name}/loads"
            )


TRIANGLE = "q(x,y,z) :- R(x,y), S(y,z), T(z,x)"


def _triangle_db(generator: str, seed: int) -> Database:
    if generator == "zipf":
        return Database.from_relations(
            zipf_relation(name, 150, 450, skew=1.6, skewed_positions=(0, 1),
                          seed=seed * 100 + i)
            for i, name in enumerate("RST")
        )
    # Three planted heavy values on x in R and T and on y in S: the bin
    # combination binding {x, y} gets 3 x 3 = 9 assignments.
    heavy = (0, 1, 2)
    return Database.from_relations([
        planted_heavy_relation("R", 120, 360, heavy, 0.9, heavy_position=0,
                               seed=seed * 100 + 1),
        planted_heavy_relation("S", 120, 360, heavy, 0.9, heavy_position=0,
                               seed=seed * 100 + 2),
        planted_heavy_relation("T", 120, 360, heavy, 0.9, heavy_position=1,
                               seed=seed * 100 + 3),
    ])


@pytest.mark.parametrize("compute_answers", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "generator, p, nbc",
    [
        ("zipf", 16, 0.25),  # many bin combinations
        ("planted", 8, 0.5),  # more assignments than p: the slot % p blocks
    ],
)
def test_bin_hypercube_triangle_parity(generator, p, nbc, seed,
                                       compute_answers):
    """Bin-hypercube's classify-then-route batch paths on the triangle."""
    query = parse_query(TRIANGLE)
    db = _triangle_db(generator, seed)
    algorithm = BinHyperCubeAlgorithm(query, nbc=nbc)
    plan = algorithm.routing_plan(db, p, HashFamily(seed))
    if generator == "zipf":
        assert len(plan.combo_plans) > 4
    else:
        assert max(len(c.assignments) for c in plan.combo_plans) > p
    oracle = run_one_round(
        algorithm, db, p, seed=seed, compute_answers=compute_answers,
        engine="reference",
    )
    for name, engine in ENGINES.items():
        result = run_one_round(
            algorithm, db, p, seed=seed, compute_answers=compute_answers,
            engine=engine,
        )
        _assert_identical(
            result, oracle, f"bin-hypercube/{generator}/p={p}/{name}"
        )


def test_seed_sensitivity_is_engine_independent():
    """Different seeds change the loads, identically for every engine."""
    db = _join_db("zipf", seed=0)
    algorithm = HyperCubeAlgorithm.with_equal_shares(simple_join_query(), P)
    per_seed = []
    for seed in (3, 4):
        oracle = run_one_round(
            algorithm, db, P, seed=seed, compute_answers=False,
            engine="reference",
        )
        batched = run_one_round(
            algorithm, db, P, seed=seed, compute_answers=False,
            engine="batched",
        )
        assert batched.report.per_server_bits == oracle.report.per_server_bits
        per_seed.append(oracle.report.per_server_tuples)
    assert per_seed[0] != per_seed[1]


def test_verify_flag_round_trips_through_engines():
    db = _join_db("uniform", seed=0)
    algorithm = SkewAwareJoin(simple_join_query())
    for engine in ("reference", "batched"):
        result = run_one_round(algorithm, db, P, verify=True, engine=engine)
        assert result.is_complete, engine


def test_engine_instances_accepted():
    db = _join_db("uniform", seed=0)
    algorithm = HyperCubeAlgorithm.with_equal_shares(simple_join_query(), P)
    oracle = run_one_round(algorithm, db, P, engine=ReferenceEngine())
    result = run_one_round(algorithm, db, P, engine=BatchedEngine())
    _assert_identical(result, oracle, "instance-passing")
